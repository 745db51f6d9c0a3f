"""Deterministic sampling streams.

Philox is counter-based, so a (seed, worker) pair pins the stream exactly;
batch work is split into per-worker chunks whose layout depends only on
(n, workers), making every estimate a pure function of (seed, workers).
map_chunks runs the chunks on up to one thread per usable CPU; the thread
count never changes a result.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .errors import SpecError

__all__ = ["make_stream", "worker_streams", "chunk_sizes", "open_uniform", "resolve_workers",
           "pool_size", "map_chunks", "MAX_WORKERS"]

# each worker is one Philox stream and one chunk, so the count bounds the work
MAX_WORKERS = 1024

_M_ARENA_MAX = -8  # glibc mallopt parameter: the most malloc arenas a process makes
_TINY = 2.0 ** -54
_BELOW_ONE = 1.0 - 2.0 ** -53


def make_stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def worker_streams(seed: int, workers: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(workers)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def chunk_sizes(n: int, workers: int) -> list[int]:
    base, extra = divmod(n, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def pool_size(workers: int) -> int:
    """Threads that run `workers` chunks: at most one per chunk and per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cpus or 1))


def map_chunks(fn, n: int, seed: int, workers=None) -> list:
    """[fn(stream, m) for each worker's stream and chunk size m > 0], in chunk order.

    The chunks run on pool_size(chunks) threads; numpy releases the
    interpreter lock inside its array loops, so they overlap. The first
    chunk error, in chunk order, is raised once every chunk has finished.
    """
    workers = resolve_workers(workers)
    jobs = [(stream, m) for stream, m in zip(worker_streams(seed, workers),
                                             chunk_sizes(n, workers)) if m > 0]
    threads = pool_size(len(jobs))
    if threads == 1:
        return [fn(stream, m) for stream, m in jobs]
    # 6-8 ms of import on a 2-core Xeon, paid only when chunks run on threads
    from concurrent.futures import ThreadPoolExecutor

    _share_malloc_arena()
    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(fn, stream, m) for stream, m in jobs]
    return [f.result() for f in futures]


def _share_malloc_arena():
    """Let new threads allocate from glibc's one main arena.

    By default each chunk thread gets an arena of its own, which keeps the
    pages its chunk freed; the next request, on another thread, cannot reuse
    them: on the mc_eta benchmark (2-core Xeon, glibc 2.36) that raised peak
    RSS from 150 to 215 MB. Big numpy buffers are allocated a few times per
    chunk, with the interpreter lock held, so threads hardly contend for the
    shared arena.
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


def clip_open(u: np.ndarray) -> np.ndarray:
    """Clamp mapped coordinates back into (0,1) after float saturation."""
    return np.clip(u, _TINY, _BELOW_ONE)


def resolve_workers(workers=None) -> int:
    workers = 1 if workers is None else int(workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise SpecError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")
    cap = os.environ.get("SP_COPULA_THREADS")
    if cap:
        try:
            cap = int(cap)
        except ValueError as exc:
            raise SpecError(f"SP_COPULA_THREADS must be an integer, got {cap!r}") from exc
        if cap < 1:
            raise SpecError(f"SP_COPULA_THREADS must be at least 1, got {cap}")
        workers = min(workers, cap)
    return workers
