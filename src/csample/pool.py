"""The worker pool every parallel phase of a run shares, and its placement.

``WorkerPool.run(fn, shared, tasks, costs)`` runs ``fn(shared, *task)`` for
every task. Tasks are placed by ``balanced_assignment`` of their predicted
costs, largest first on the least loaded worker, and each worker gets its
tasks as one batch. Chains of the multi-chain sampler and EM restarts are
both tasks of this kind.

The task contract: the pool alone catches and times a task. ``run`` returns
one ``(outcome, seconds)`` per task, in task order. The outcome is the
task's return value or the exception it raised, which never stops its
siblings; the seconds are the task's own, timed where it ran. The placement
never changes an outcome.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np


def balanced_assignment(budgets, workers):
    """Longest-processing-time-first: largest budgets go to the least
    loaded worker."""
    budgets = np.asarray(budgets)
    assignment = np.zeros(budgets.size, dtype=int)
    loads = np.zeros(workers)
    for idx in np.argsort(-budgets, kind="stable"):
        w = int(np.argmin(loads))
        assignment[idx] = w
        loads[w] += budgets[idx]
    return assignment


def _run_batch(fn, shared, tasks):
    outcomes = []
    for task in tasks:
        start = time.perf_counter()
        try:
            outcome = fn(shared, *task)
        except Exception as exc:  # a failed task must never abort its siblings
            outcome = exc
            try:  # a forked worker returns its batch in one pickle, which this must not break
                pickle.loads(pickle.dumps(exc))
            except Exception:
                outcome = RuntimeError(repr(exc))
        outcomes.append((outcome, time.perf_counter() - start))
    return outcomes


class WorkerPool:
    """Fixed pool of workers, each running one batch of tasks per call.

    A pool of size 1 runs its batches in the calling process; a larger pool
    forks OS processes where available. ``fn``, every argument and every
    outcome must be picklable for a larger pool; the outcomes are the same
    for any size.
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
        task order, with the tasks placed by ``balanced_assignment`` of
        ``costs``."""
        assignment = balanced_assignment(costs, self.size)
        placed = [np.flatnonzero(assignment == w) for w in range(self.size)]
        placed = [indices for indices in placed if indices.size]
        outputs = self.run_batches(fn, shared, [[tasks[i] for i in indices] for indices in placed])
        results = [None] * len(tasks)
        for indices, output in zip(placed, outputs):
            for i, result in zip(indices, output):
                results[i] = result
        return results

    def run_batches(self, fn, shared, batches):
        """Each batch of tasks on a worker of its own; one list of
        ``(outcome, seconds)`` per batch."""
        if self._executor is None:
            return [_run_batch(fn, shared, batch) for batch in batches]
        futures = [self._executor.submit(_run_batch, fn, shared, batch) for batch in batches]
        return [f.result() for f in futures]

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
