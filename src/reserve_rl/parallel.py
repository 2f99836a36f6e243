"""The one way jobs spread over processes: training and evaluation deal
their jobs through :func:`map_split`, a ``fork`` split over
:func:`process_count` processes, and training pins numpy's OpenBLAS to one
thread around it (:func:`one_blas_thread`), a count the forked children
inherit."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import os
import sys
from typing import Callable, Iterator, TypeVar

import numpy as np

from .errors import ReserveRlError

log = logging.getLogger(__name__)

T = TypeVar("T")


@functools.cache
def openblas() -> tuple[Callable[[], int], Callable[[int], None], Callable[[], int]] | None:
    """The thread-count getter and setter and the thread-pool stop of the
    OpenBLAS bundled with numpy (under ``numpy.libs/``), or None, logged
    once, where there is none."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                return get, set_, getattr(lib, "blas_thread_shutdown_", lambda: 0)
    log.info("no OpenBLAS found beside numpy; training runs in one process")
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Run the block with numpy's OpenBLAS on one thread, restoring the
    caller's count on exit, error or not.  Yields whether the pin holds:
    False, and nothing changed, where :func:`openblas` finds no library."""
    blas = openblas()
    if blas is None:
        yield False
        return
    get, set_, stop = blas
    saved = get()
    set_(1)
    try:
        yield True
    finally:
        # Set after a fork, the count restarts the pool, whose new threads
        # spin for about 0.1 s; stop them as a fork does, until the next
        # threaded BLAS call starts them again.
        set_(saved)
        stop()


def _run_share(run: Callable[[int], T], share: range, conn) -> None:
    """A forked child's side of :func:`map_split`: ``run(i)`` for each ``i``
    of ``share`` until one raises, then one send of ``(results, exception or
    None)``, so the child never waits mid-share for the caller to read."""
    with conn:
        results, error = [], None
        for i in share:
            try:
                results.append(run(i))
            except Exception as exc:
                error = exc
                break
        try:
            conn.send((results, error))
        except Exception as exc:  # a result or the exception does not pickle
            conn.send(([], exc))


def process_count(n: int, workers: int) -> int:
    """How many processes, the caller counted, :func:`map_split` deals
    ``n`` items to on ``workers`` cores: with ``c = min(workers, n)``, the
    fewest whose largest share, ``ceil(n / P)`` items, is no more than one
    core's fair load ``n / c``, that is ``P = ceil(n / floor(n / c))``.
    While items are left, the OS slices these P processes over the c cores
    and no core idles: 3 items on 2 cores take 3 processes, 4 take 2.
    P is at most ``n`` and at most ``2c - 1``."""
    cores = min(workers, n)
    return cores if cores <= 1 else -(-n // (n // cores))


def map_split(run: Callable[[int], T], n: int, workers: int) -> list[T]:
    """``[run(i) for i in range(n)]``, the indices dealt round-robin to
    ``P = process_count(n, workers)`` processes for ``workers`` usable
    cores: the caller runs ``0, P, 2P, ...`` and ``fork``-started children
    the rest, each sending its results back through a pipe when its share
    is done, so a result must pickle.  An exception reaches the caller with
    its type; when several indices raise, the lowest one's does, as in the
    loop.  No child outlives the call.  Serial where ``fork`` is not
    offered."""
    import multiprocessing

    n_procs = process_count(n, workers)
    if n_procs <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [run(i) for i in range(n)]
    ctx = multiprocessing.get_context("fork")
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    complete = False
    try:
        for p in range(1, n_procs):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(run, range(p, n, n_procs), writer))
            child.start()
            writer.close()
            children.append((child, reader))
        results: dict[int, T] = {}
        error: tuple[int, BaseException] | None = None
        for i in range(0, n, n_procs):
            try:
                results[i] = run(i)
            except Exception as exc:
                error = (i, exc)
                break
        for p, (child, reader) in enumerate(children, 1):
            share = range(p, n, n_procs)
            if error is not None and share[0] > error[0]:
                continue
            try:
                done, exc = reader.recv()
            except EOFError:
                child.join()
                done, exc = [], ReserveRlError(
                    f"worker exited with code {child.exitcode} before returning item {share[0]}")
            results.update(zip(share, done))
            if exc is not None and (error is None or share[len(done)] < error[0]):
                error = (share[len(done)], exc)
        if error is not None:
            raise error[1]
        complete = True
        return [results[i] for i in range(n)]
    finally:
        for child, reader in children:
            if not complete:
                child.terminate()
            child.join()
            reader.close()
