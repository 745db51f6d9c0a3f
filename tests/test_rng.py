"""The worker-chunk runner: chunk order, pool size, errors and thread lifetime."""

import os
import threading

import pytest

from spcop.errors import SpecError
from spcop.rng import MAX_WORKERS, chunk_sizes, map_chunks, pool_size, worker_streams

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


def test_no_thread_outlives_a_call_and_none_beyond_the_pool(monkeypatch):
    monkeypatch.delenv("SP_COPULA_THREADS", raising=False)
    before = threading.active_count()
    seen = []

    def count_threads(stream, m):
        seen.append(threading.active_count())
        return m

    assert map_chunks(count_threads, 40_000, 1, 4) == [10_000] * 4
    assert max(seen) <= before + pool_size(4)
    assert threading.active_count() == before


def test_the_first_chunk_error_in_chunk_order_is_raised():
    def fail_late(stream, m):
        raise SpecError(f"chunk of {m}")

    with pytest.raises(SpecError, match="chunk of 4"):
        map_chunks(fail_late, 10, 5, 3)  # chunks 4, 3, 3
