"""Independent jobs on a pool of forked worker processes.

This is the one place regrow starts processes: ``predict`` runs its
cross-validation fits through ``run_jobs``, and ``csvio.write_csv`` formats
the row slabs of a large table through ``iter_jobs``. Callers pass a cap
(``threads``, ``None`` for every available core); results never depend on
the number of workers. ``multiprocessing`` is imported only when a pool is
started, so commands that never need one skip its import cost.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence

from .errors import InvalidValueError

#: Set in each worker by ``_inherit`` to the ``(fn, jobs)`` of its pool.
_WORKER_JOBS: tuple[Callable, Sequence[tuple]] | None = None


def _available_cores() -> int:
    """Cores this process may run on; 1 where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _worker_count(threads: int | None, n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` jobs: never more than the cap, the
    available cores or the jobs."""
    if threads is not None and threads < 1:
        raise InvalidValueError(f"threads must be at least 1, got {threads}")
    cores = _available_cores()
    return max(1, min(cores if threads is None else threads, cores, n_jobs))


def _inherit(fn: Callable, jobs: Sequence[tuple]) -> None:
    global _WORKER_JOBS
    _WORKER_JOBS = (fn, jobs)


def _run_job(index: int):
    """Job ``index`` in a worker. An error comes back as a value, so the
    caller can raise the one the serial order would have raised first."""
    fn, jobs = _WORKER_JOBS
    try:
        return fn(*jobs[index]), None
    except Exception as exc:
        return None, exc


def _outcomes(fn: Callable, jobs: Sequence[tuple], workers: int, order: Sequence[int]):
    """``(result, error)`` of every job, in ``order``, from a pool of
    ``workers``; each is yielded once it and every job before it are done.

    The pool forks: the workers inherit ``fn`` and ``jobs`` instead of
    unpickling them, and a spawned worker would import numpy and regrow
    again, which costs about as much as a forest fit. Only the results cross
    a pipe. Each worker takes one job at a time, so the pool stays balanced.
    """
    import multiprocessing  # only here: every other command skips the import cost

    context = multiprocessing.get_context("fork")
    with context.Pool(workers, initializer=_inherit, initargs=(fn, jobs)) as pool:
        yield from pool.imap(_run_job, order, chunksize=1)


def run_jobs(
    fn: Callable, jobs: Sequence[tuple], threads: int | None,
    order: Sequence[int] | None = None,
) -> list:
    """``fn(*job)`` for every job, in job order.

    With one worker the jobs run here, in order. Otherwise they run on a
    pool in ``order`` (job indices; default: job order), and an error raised
    in a worker is raised here, the first in job order.
    """
    workers = _worker_count(threads, len(jobs))
    if workers == 1:
        return [fn(*job) for job in jobs]
    order = range(len(jobs)) if order is None else order
    outcomes = dict(zip(order, _outcomes(fn, jobs, workers, order)))
    results = []
    for i in range(len(jobs)):
        result, exc = outcomes[i]
        if exc is not None:
            raise exc
        results.append(result)
    return results


def iter_jobs(fn: Callable, jobs: Sequence[tuple], threads: int | None) -> Iterator:
    """``fn(*job)`` for every job, in job order, each as soon as it is done.

    The caller uses a result while the workers run the next jobs, and holds
    only the results it has not taken yet. With one worker each job runs
    here when its result is asked for. An error is raised at its job's turn.
    """
    workers = _worker_count(threads, len(jobs))
    if workers == 1:
        for job in jobs:
            yield fn(*job)
        return
    for result, exc in _outcomes(fn, jobs, workers, range(len(jobs))):
        if exc is not None:
            raise exc
        yield result
