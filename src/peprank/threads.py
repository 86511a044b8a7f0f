"""The process's one helper thread, and :func:`run`, the one way onto it. It
runs only work that writes outputs of its own, so results keep their bits
with or without it: a training step's large attention groups and rerank's
odd chunks."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

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


def run(work: Callable, items: Sequence, theirs: Sequence[int]) -> list:
    """``[work(item) for item in items]``, where the helper runs the items
    indexed by ``theirs`` as one share, in order and under the caller's
    ``np.geterr()``, while this thread runs the others in order. When this
    thread raises, the helper starts no further item, its share is waited
    for, and this thread's exception is the one raised; a helper exception
    is raised here once this thread's items are done. With no ``theirs`` or
    no helper, this thread runs every item."""
    pool = helper() if theirs else None
    if pool is None:
        return [work(item) for item in items]
    errors, stop = np.geterr(), threading.Event()

    def share():
        with np.errstate(**errors):
            return [work(items[i]) for i in theirs if not stop.is_set()]

    future = pool.submit(share)
    try:
        results = {i: work(item) for i, item in enumerate(items) if i not in theirs}
    except BaseException:
        stop.set()
        future.exception()  # waits; the helper's own error, if any, stays on the future
        raise
    results.update(zip(theirs, future.result()))
    return [results[i] for i in range(len(items))]
