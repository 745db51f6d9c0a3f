"""The worker-chunk runner: chunk order, pool size, errors, thread lifetime,
one level of threads, and the checks every sampled path passes."""

import os
import threading
import time

import numpy as np
import pytest

from spcop import precedence, rng
from spcop.copula import Independence, Shuffle, copula_sample, sample_uv
from spcop.dist import Uniform
from spcop.errors import SpecError
from spcop.precedence import eta_mc
from spcop.rng import (MAX_SAMPLES, MAX_WORKERS, chunk_sizes, map_chunks, pool_size, run_all,
                       worker_streams)

CPUS = len(os.sched_getaffinity(0))


def first_draw(stream, m):
    return m, float(stream.random())


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_results_come_in_chunk_order_and_match_the_loop(workers):
    loop = [first_draw(s, m) for s, m in
            zip(worker_streams(5, workers), chunk_sizes(10_001, workers))]
    assert map_chunks(first_draw, 10_001, 5, workers) == loop


def test_empty_chunks_are_skipped():
    assert [m for m, _ in map_chunks(first_draw, 3, 5, 5)] == [1, 1, 1]


def test_pool_size_is_bounded_by_workers_and_cpus():
    assert pool_size(1) == 1
    assert pool_size(4) == min(4, CPUS)
    assert pool_size(MAX_WORKERS) == CPUS


def test_no_thread_outlives_a_call_and_none_beyond_the_pool():
    before = threading.active_count()
    seen = []

    def count_threads(stream, m):
        seen.append(threading.active_count())
        return m

    assert map_chunks(count_threads, 40_000, 1, 4) == [10_000] * 4
    assert max(seen) <= before + pool_size(4)
    assert threading.active_count() == before


def test_a_run_all_on_a_pool_thread_runs_its_calls_inline(monkeypatch):
    monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, 2))
    before = threading.active_count()
    seen = []

    def inner(k):
        seen.append((threading.active_count(), threading.get_ident()))
        return k

    def outer(stream, m):
        return threading.get_ident(), run_all([(inner, k) for k in range(4)])

    results = map_chunks(outer, 40_000, 1, 4)
    assert [ks for _, ks in results] == [[0, 1, 2, 3]] * 4
    # every inner call ran on its chunk's thread, and no pool started inside the pool
    assert {ident for _, ident in seen} <= {ident for ident, _ in results}
    assert max(count for count, _ in seen) <= before + rng.pool_size(4)
    assert threading.active_count() == before


def test_a_run_all_on_the_calling_thread_uses_the_pool(monkeypatch):
    monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, 2))
    before = threading.active_count()
    idents = run_all([(threading.get_ident,)] * 4)
    assert threading.get_ident() not in idents and len(set(idents)) <= 2
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2])
def test_the_callers_errstate_reaches_the_pool(monkeypatch, threads):
    monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, threads))
    with np.errstate(over="raise", under="ignore"):
        assert run_all([(np.geterr,)] * 3) == [np.geterr()] * 3
        with pytest.raises(FloatingPointError):
            run_all([(np.multiply, 1e308, 10.0)] * 3)


def test_the_first_chunk_error_in_chunk_order_is_raised():
    def fail_late(stream, m):
        raise SpecError(f"chunk of {m}")

    with pytest.raises(SpecError, match="chunk of 4"):
        map_chunks(fail_late, 10, 5, 3)  # chunks 4, 3, 3


def finish_after(delay, value):
    time.sleep(delay)
    return value


def fail_after(delay, message, finished):
    time.sleep(delay)
    finished.append(message)
    raise SpecError(message)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_all_returns_results_in_call_order(monkeypatch, threads):
    monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, threads))
    # later calls finish first on two threads
    calls = [(finish_after, 0.01 * (5 - k), k) for k in range(5)]
    assert run_all(calls) == list(range(5))


@pytest.mark.parametrize("threads", [1, 2])
def test_run_all_raises_the_first_error_in_call_order(monkeypatch, threads):
    monkeypatch.setattr(rng, "pool_size", lambda calls: min(calls, threads))
    finished = []
    calls = [(finish_after, 0.0, "ok"), (fail_after, 0.05, "first", finished),
             (fail_after, 0.0, "second", finished), (fail_after, 0.0, "third", finished)]
    with pytest.raises(SpecError, match="first"):
        run_all(calls)
    # one thread stops at the first error; a pool lets every call finish
    assert sorted(finished) == (["first"] if threads == 1 else ["first", "second", "third"])


def test_copula_sample_rejects_a_negative_seed():
    with pytest.raises(SpecError, match="seed must be an integer >= 0, got -1"):
        copula_sample(Independence(), 10, -1)


def test_eta_mc_rejects_a_fractional_sample_count():
    with pytest.raises(SpecError, match=r"sample count must be an integer in \[1, 10000000\], got 20000.5"):
        eta_mc(Shuffle(0.3), Uniform(0, 1), Uniform(0.2, 1.2), 20000.5, 1)


def test_sample_uv_rejects_a_sample_count_beyond_the_cap():
    with pytest.raises(SpecError, match="sample count must be an integer in"):
        sample_uv(Independence(), 10 ** 12, 1)


@pytest.mark.parametrize("n", [0, MAX_SAMPLES + 1, 2.0, "3"])
def test_map_chunks_checks_the_point_count(n):
    with pytest.raises(SpecError, match="sample count"):
        map_chunks(first_draw, n, 5)


def test_plan_and_map_chunks_share_one_sample_cap():
    assert precedence.MAX_SAMPLES is MAX_SAMPLES and "MAX_SAMPLES" in precedence.__all__
    assert sum(m for m, _ in map_chunks(first_draw, MAX_SAMPLES, 5, MAX_WORKERS)) == MAX_SAMPLES
