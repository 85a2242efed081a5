"""The worker pool every parallel phase of a run shares.

``WorkerPool.run(fn, shared, tasks, costs)`` runs ``fn(shared, *task)`` for
every task. The tasks are queued largest predicted cost first, ties in task
order, and a free worker takes the next task from the queue: list
scheduling in longest-first order (Graham, SIAM J. Appl. Math. 1969). The
costs only order the queue, so a task that runs longer than predicted holds
back no task queued behind it. Chains of the multi-chain sampler and EM
restarts are both tasks of this kind.

The task contract: the pool alone catches and times a task. ``run`` returns
one ``(outcome, seconds)`` per task, in task order. The outcome is the
task's return value or the exception it raised, which never stops its
siblings; the seconds are the task's own, timed where it ran. The order in
which tasks run never changes an outcome.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor


def _run_task(fn, shared, task):
    start = time.perf_counter()
    try:
        outcome = fn(shared, *task)
    except Exception as exc:  # a failed task must never abort its siblings
        outcome = exc
        try:  # a forked worker returns its outcome in a pickle, which this must not break
            pickle.loads(pickle.dumps(exc))
        except Exception:
            outcome = RuntimeError(repr(exc))
    return outcome, time.perf_counter() - start


class WorkerPool:
    """Fixed pool of workers, each taking the next queued task when free.

    A pool of size 1 runs the tasks in the calling process, in queue order;
    a larger pool forks OS processes where available. ``fn``, every argument
    and every outcome must be picklable for a larger pool; the outcomes are
    the same for any size.
    """

    def __init__(self, size):
        self.size = max(1, int(size))
        self._executor = None
        if self.size > 1:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(max_workers=self.size, mp_context=ctx)

    def warm_up(self):
        """Spin workers up before timing anything."""
        if self._executor is not None:
            futures = [self._executor.submit(int, i) for i in range(self.size)]
            for f in futures:
                f.result()

    def run(self, fn, shared, tasks, costs):
        """``(outcome, seconds)`` of ``fn(shared, *task)`` for every task, in
        task order, with the tasks queued in descending ``costs``."""
        order = sorted(range(len(tasks)), key=lambda i: -costs[i])  # stable: ties keep task order
        if self._executor is None:
            done = {i: _run_task(fn, shared, tasks[i]) for i in order}
        else:
            futures = {i: self._executor.submit(_run_task, fn, shared, tasks[i]) for i in order}
            done = {i: f.result() for i, f in futures.items()}
        return [done[i] for i in range(len(tasks))]

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
