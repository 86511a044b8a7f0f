"""The process's one helper thread. It runs only work that writes outputs of
its own, so results keep their bits with or without it: rerank's odd chunks
and a training step's large attention groups."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_pool: ThreadPoolExecutor | None = None
_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _lock
    _pool, _lock = None, threading.Lock()  # a forked child has no copy of the thread


os.register_at_fork(after_in_child=_forget_pool)


def helper() -> ThreadPoolExecutor | None:
    """The single-worker helper, created at the first call (its thread starts
    at the first submit), or None while the process may use only one CPU."""
    global _pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return None
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="peprank-helper")
        return _pool
