import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from peprank import threads

WAIT_S = 30  # an Event that is not set within this fails the test instead of hanging it


def on_helper() -> bool:
    return threading.current_thread().name.startswith("peprank-helper")


class TestRun:
    """``threads.run`` hands the items indexed by ``theirs`` to the helper as one
    share; see the ``helped`` fixture."""

    def test_results_come_back_in_item_order(self, helped):
        items = list(range(5))
        calls = 0
        for size in range(len(items) + 1):
            for theirs in itertools.combinations(items, size):
                ran = []
                got = threads.run(lambda i: ran.append((on_helper(), i)) or 10 * i, items,
                                  list(theirs))
                assert got == [10 * i for i in items]
                assert [i for helper, i in ran if helper] == list(theirs)  # in order
                assert [i for helper, i in ran if not helper] == [
                    i for i in items if i not in theirs]
                calls += bool(theirs)
        assert len(helped) == calls == 31  # one share per call that deals

    def test_the_helper_runs_under_the_callers_errstate(self, helped):
        seen = []
        with np.errstate(over="raise", under="warn", invalid="ignore", divide="print"):
            expected = np.geterr()
            threads.run(lambda i: seen.append((on_helper(), np.geterr())), [0, 1, 2], [1, 2])
        assert sorted(helper for helper, _ in seen) == [False, True, True]
        assert all(errors == expected for _, errors in seen)
        assert np.geterr() != expected

    def test_a_helper_error_is_raised_here(self, helped):
        ran = []

        def work(i):
            ran.append(i)
            if on_helper():
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="^item 1$"):
            threads.run(work, [0, 1, 2], [1])
        (_, future), = helped
        assert future.done() and str(future.exception()) == "item 1"
        assert sorted(ran) == [0, 1, 2]  # this thread still runs its own items

    def test_the_callers_error_wins_and_stops_the_share(self, helped, monkeypatch):
        started, stopped, ran = threading.Event(), threading.Event(), []

        class StopFlag(threading.Event):
            """The runner's stop flag, which tells the helper's first item
            once it is set."""

            def set(self):
                super().set()
                stopped.set()

        monkeypatch.setattr(threads, "threading", SimpleNamespace(Event=StopFlag))

        def work(i):
            ran.append(i)
            if on_helper():  # the share's first item holds until the caller has failed
                started.set()
                assert stopped.wait(WAIT_S)
                return i
            assert started.wait(WAIT_S)
            raise RuntimeError("caller")

        with pytest.raises(RuntimeError, match="^caller$"):
            threads.run(work, [0, 1, 2, 3], [1, 2, 3])
        (_, future), = helped
        assert future.done() and future.result() == [1]
        assert sorted(ran) == [0, 1]  # the helper started no item after the stop

    @pytest.mark.parametrize("theirs, cpus", [([], {0, 1}), ([1], {0})])
    def test_no_share_or_one_cpu_makes_no_submit(self, helped, monkeypatch, theirs, cpus):
        monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        ran = []
        assert threads.run(lambda i: ran.append(on_helper()) or -i, [0, 1, 2], theirs) == [
            0, -1, -2]
        assert ran == [False] * 3 and helped == []
