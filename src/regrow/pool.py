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
import signal
from typing import Callable, Iterator, Sequence

from .errors import InvalidValueError


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


#: The signals a worker starts with blocked, until ``_serve`` has set them.
_SIGNALS = {signal.SIGINT, signal.SIGTERM}


def _serve(fn: Callable, jobs: Sequence[tuple], conn) -> None:
    """A worker: run each job whose index comes down ``conn`` until the pipe
    closes. An error goes back as a value, so the caller can raise the one
    the serial order would have raised first.

    A worker ignores SIGINT, which a terminal sends to the whole process
    group: the parent alone is interrupted, and it ends the workers. SIGTERM,
    which the parent sends them, ends a worker at once.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGNALS)
    try:
        while True:
            index = conn.recv()
            try:
                outcome = fn(*jobs[index]), None
            except Exception as exc:
                outcome = None, exc
            conn.send(outcome)
    except EOFError:
        pass


def _died(worker, index: int) -> RuntimeError:
    worker.join()
    return RuntimeError(f"worker process {worker.pid} ended during job {index} "
                        f"(exit code {worker.exitcode})")


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
    """The results of ``jobs`` run in ``order`` on ``workers`` worker
    processes, put back in job order: a job done ahead of its turn waits here.

    The workers fork: they inherit ``fn`` and ``jobs`` instead of unpickling
    them, and a spawned worker would import numpy and regrow again, which
    costs about as much as a forest fit. Only job indices and results cross
    a worker's pipe. A worker has one job at a time and is sent the next as
    soon as its result is in, so the workers stay balanced. A worker that
    ends during a job (killed, or ``os._exit``) is that job's error, a
    RuntimeError, where a ``multiprocessing.Pool`` would wait forever; the
    other workers go on. Every worker is ended before this generator
    returns: when it is done, when it raises, and when the caller stops
    early.
    """
    import multiprocessing  # only here: every other command skips the import cost
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    todo = iter(order)
    started, busy, done, turn = [], {}, {}, 0  # busy: a worker's pipe -> (worker, its job)

    def give(conn, worker) -> None:
        """Send ``worker`` the next job, or close its pipe if none is left."""
        index = next(todo, None)
        if index is None:
            conn.close()
        else:
            try:
                conn.send(index)
                busy[conn] = worker, index
            except OSError:
                conn.close()
                done[index] = None, _died(worker, index)

    try:
        for _ in range(workers):
            conn, child = context.Pipe()
            worker = context.Process(target=_serve, args=(fn, jobs, child), daemon=True)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
            try:
                worker.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            started.append(worker)
            child.close()
            give(conn, worker)
        while turn < len(jobs):
            if turn in done:
                result, exc = done.pop(turn)
                if exc is not None:
                    raise exc
                yield result
                turn += 1
            elif not busy:  # every worker has ended: the first error in job order
                raise min((i, exc) for i, (_, exc) in done.items() if exc is not None)[1]
            else:
                ready = wait([*busy, *(worker.sentinel for worker, _ in busy.values())])
                for conn, (worker, index) in list(busy.items()):
                    # A result, or the end of the pipe of a worker that ended.
                    if conn.poll() or worker.sentinel in ready:
                        del busy[conn]
                        try:
                            done[index] = conn.recv()
                        except EOFError:
                            conn.close()
                            done[index] = None, _died(worker, index)
                        else:
                            give(conn, worker)
    finally:
        for worker in started:
            worker.terminate()
        for worker in started:
            worker.join()
        for conn in busy:
            conn.close()
