"""The worker pool every parallel phase of a run shares, and its placement.

``WorkerPool.run(fn, shared, tasks, costs)`` runs ``fn(shared, *task)`` for
every task and returns the results in task order. Tasks are placed by
``balanced_assignment`` of their predicted costs, largest first on the least
loaded worker, and each worker gets its tasks as one batch. Chains of the
multi-chain sampler and EM restarts are both tasks of this kind. A task
function must return its failures as values: the pool gathers whatever each
task returns, and the placement never changes a result.
"""

from __future__ import annotations

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
    return [fn(shared, *task) for task in tasks]


class WorkerPool:
    """Fixed pool of workers, each running one batch of tasks per call.

    A pool of size 1 runs its batches in the calling process; a larger pool
    forks OS processes where available. ``fn`` and every argument must be
    picklable for a larger pool; the results are the same for any size.
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
        """``fn(shared, *task)`` for every task, in task order, with the
        tasks placed by ``balanced_assignment`` of ``costs``."""
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
        """Each batch of tasks on a worker of its own; one list of results
        per batch."""
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
