"""Independent jobs on a pool of forked worker processes.

This is the one place regrow starts processes, and ``iter_jobs`` is the one
way in: ``predict`` runs its cross-validation fits through it, ``ingest``
parses the row blocks of a large input table, and ``csvio.write_csv``
formats the row slabs of a large table. Callers pass a cap (``threads``,
``None`` for every available core); how many workers run, if any, is
decided here, and results never depend on it. ``multiprocessing`` is
imported only when a pool is started, so commands that never need one skip
its import cost.
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


def iter_jobs(
    fn: Callable, jobs: Sequence[tuple], threads: int | None,
    order: Sequence[int] | None = None,
) -> Iterator:
    """``fn(*job)`` for every job, in job order, each as soon as it and every
    job before it are done.

    ``threads`` is checked here, before any job runs. With one worker each
    job runs here when its result is asked for. Otherwise the jobs run on a
    pool in ``order`` (job indices; default: job order) while the caller
    uses the results that are ready. An error is raised at its job's turn,
    so the one raised is the first in job order.
    """
    workers = _worker_count(threads, len(jobs))
    if workers == 1:
        return (fn(*job) for job in jobs)
    return _pooled(fn, jobs, workers, range(len(jobs)) if order is None else order)


def _pooled(fn: Callable, jobs: Sequence[tuple], workers: int, order: Sequence[int]) -> Iterator:
    """The results of ``jobs`` run in ``order`` on a pool of ``workers``, put
    back in job order: a job done ahead of its turn waits here.

    The pool forks: the workers inherit ``fn`` and ``jobs`` instead of
    unpickling them, and a spawned worker would import numpy and regrow
    again, which costs about as much as a forest fit. Only the results cross
    a pipe. Each worker takes one job at a time, so the pool stays balanced.
    Leaving the loop early, or an error, terminates the pool.
    """
    import multiprocessing  # only here: every other command skips the import cost

    context = multiprocessing.get_context("fork")
    done = {}
    turn = 0
    with context.Pool(workers, initializer=_inherit, initargs=(fn, jobs)) as pool:
        for index, outcome in zip(order, pool.imap(_run_job, order, chunksize=1)):
            done[index] = outcome
            while turn in done:
                result, exc = done.pop(turn)
                if exc is not None:
                    raise exc
                yield result
                turn += 1
