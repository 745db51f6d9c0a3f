"""Deterministic sampling streams.

Philox is counter-based, so a (seed, worker) pair pins the stream exactly;
batch work is split into per-worker chunks whose layout depends only on
(n, workers), making every estimate a pure function of (seed, workers).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import SpecError

__all__ = ["make_stream", "worker_streams", "chunk_sizes", "open_uniform", "resolve_workers",
           "MAX_WORKERS"]

# each worker is one Philox stream and one chunk, so the count bounds the work
MAX_WORKERS = 1024

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
