"""Deterministic sampling streams.

Philox is counter-based, so a (seed, worker) pair pins the stream exactly;
batch work is split into per-worker chunks whose layout depends only on
(n, workers), making every estimate a pure function of (seed, workers).
run_all runs independent calls, such as map_chunks' chunks or the BLOCK-point
slices of a large array, on up to one thread per usable CPU; a run_all made
on a pool thread runs its calls inline, so there is one level of threads.
The thread count never changes a result.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from numbers import Integral

import numpy as np

from .errors import SpecError

__all__ = ["make_stream", "worker_streams", "chunk_sizes", "open_uniform", "resolve_workers",
           "pool_size", "run_all", "map_chunks", "blocks", "BLOCK", "MAX_SAMPLES", "MAX_WORKERS"]

# each worker is one Philox stream and one chunk, so the count bounds the work
MAX_WORKERS = 1024
MAX_SAMPLES = 10 ** 7  # the most points map_chunks splits into chunks
# points per block of pointwise work on large arrays: 512 KiB float64 slices,
# whose temporaries stay near a 2 MiB L2; 16k, 32k and 128k points were slower
# on the mc_eta benchmark's Gaussian requests
BLOCK = 65_536

_M_ARENA_MAX = -8  # glibc mallopt parameter: the most malloc arenas a process makes
_TINY = 2.0 ** -54
_BELOW_ONE = 1.0 - 2.0 ** -53
_pool_thread = threading.local()  # .active is set on every thread a pool starts


def make_stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def worker_streams(seed: int, workers: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(workers)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def chunk_sizes(n: int, workers: int) -> list[int]:
    base, extra = divmod(n, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def blocks(n: int):
    """The BLOCK-point slices that cover n points, in order; the last may be short."""
    return (slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK))


def pool_size(workers: int) -> int:
    """Threads that run `workers` chunks: at most one per chunk and per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cpus or 1))


def _enter_pool():
    _pool_thread.active = True


def run_all(calls) -> list:
    """[f(*args) for f, *args in calls], in call order.

    The calls run on pool_size(len(calls)) threads; numpy releases the
    interpreter lock inside its array loops, so they overlap, each under the
    caller's np.errstate. Called on a pool thread, it runs them inline: a
    pool never runs inside a pool. The first error in call order is raised;
    on threads, once every call has finished.
    """
    threads = 1 if getattr(_pool_thread, "active", False) else pool_size(len(calls))
    if threads == 1:
        return [f(*args) for f, *args in calls]
    # 6-8 ms of import on a 2-core Xeon, paid only when calls run on threads
    from concurrent.futures import ThreadPoolExecutor

    _share_malloc_arena()
    with ThreadPoolExecutor(threads, initializer=_enter_pool) as pool:
        # each call runs in a copy of the caller's context, where np.errstate lives
        futures = [pool.submit(contextvars.copy_context().run, *call) for call in calls]
    return [f.result() for f in futures]


def map_chunks(fn, n: int, seed: int, workers=None) -> list:
    """[fn(stream, m) for each worker's stream and chunk size m > 0], in chunk
    order, through run_all; every sampled path enters here, so the seed and
    the point count n are checked here."""
    workers = resolve_workers(workers)
    if not (isinstance(seed, Integral) and seed >= 0):
        raise SpecError(f"seed must be an integer >= 0, got {seed!r}")
    if not (isinstance(n, Integral) and 1 <= n <= MAX_SAMPLES):
        raise SpecError(f"sample count must be an integer in [1, {MAX_SAMPLES}], got {n!r}")
    return run_all([(fn, stream, m) for stream, m in zip(worker_streams(seed, workers),
                                                         chunk_sizes(n, workers)) if m > 0])


def _share_malloc_arena():
    """Let new threads allocate from glibc's one main arena.

    By default each pool thread gets an arena of its own, which keeps the
    pages its call freed; the next request, on another thread, cannot reuse
    them: on the mc_eta benchmark (2-core Xeon, glibc 2.36, normal kernels in
    65,536-point blocks) that raised peak RSS from 106-109 to 165 MB. Every
    run_all on threads sets the cap, so it covers the Monte Carlo chunks and
    blocks, the normal kernels' blocks and verify's sampled check groups. Big
    numpy buffers are allocated a few times per call, with the interpreter
    lock held, so threads hardly contend for the shared arena.
    """
    try:
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    except (AttributeError, OSError, TypeError):  # no glibc: nothing to share
        pass


def open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draws on the open interval (0,1); exact zeros are nudged up."""
    u = rng.random(n)
    u[u == 0.0] = _TINY
    return u


def clip_open(u: np.ndarray, out=None) -> np.ndarray:
    """Clamp mapped coordinates back into (0,1) after float saturation."""
    return np.clip(u, _TINY, _BELOW_ONE, out=out)


def resolve_workers(workers=None) -> int:
    workers = 1 if workers is None else workers
    if not (isinstance(workers, Integral) and 1 <= workers <= MAX_WORKERS):
        raise SpecError(f"workers must lie in [1, {MAX_WORKERS}], got {workers!r}")
    return workers
