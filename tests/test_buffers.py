"""Unit tests for the shared+reserved input buffer pools."""

import pytest

from repro.network.buffers import VcBufferPool
from repro.network.packet import Packet


def make_pkt(size=1000, vc=1):
    p = Packet(0, 1, size - 62)
    p.vc = vc
    return p


@pytest.fixture
def pool():
    return VcBufferPool(shared_bytes=10_000, reserve_bytes=2_000, n_vcs=4)


def test_acquire_prefers_shared(pool):
    pkt = make_pkt(5000)
    assert pool.acquire(pkt)
    assert pkt.buf_shared
    assert pool.slice_in_use() == 5000


def test_falls_back_to_reserve_when_shared_full(pool):
    big = make_pkt(10_000, vc=2)
    assert pool.acquire(big)
    small = make_pkt(1500, vc=2)
    assert pool.acquire(small)
    assert not small.buf_shared
    assert pool.slice_in_use(2) == 1500


def test_rejects_when_both_exhausted(pool):
    assert pool.acquire(make_pkt(10_000, vc=1))
    assert pool.acquire(make_pkt(2_000, vc=1))
    assert not pool.acquire(make_pkt(500, vc=1))
    # another VC's reserve is still free
    assert pool.acquire(make_pkt(500, vc=3))


def test_release_goes_back_to_right_slice(pool):
    pkt = make_pkt(10_000, vc=1)
    pool.acquire(pkt)
    resv = make_pkt(1000, vc=1)
    pool.acquire(resv)
    pool.release(1000, 1, was_shared=False)
    assert pool.slice_in_use(1) == 0
    pool.release(10_000, 1, was_shared=True)
    assert pool.slice_in_use() == 0


@pytest.mark.parametrize("was_shared", [True, False])
def test_over_release_raises(pool, was_shared):
    pool.acquire(make_pkt(1000, vc=1))
    with pytest.raises(RuntimeError, match="over-release"):
        pool.release(2000 if was_shared else 1, 1, was_shared=was_shared)


def test_can_fit_checks_both_slices(pool):
    assert pool.can_fit(0, 10_000)
    pool.acquire(make_pkt(10_000, vc=0))
    assert pool.can_fit(0, 2_000)  # via reserve
    assert not pool.can_fit(0, 2_001)


def test_waiters_deduplicated(pool):
    fired = []

    def cb():
        fired.append(1)

    pool.acquire(make_pkt(10_000, vc=0))
    for _ in range(100):
        pool.notify_on_release(0, cb)  # same callback, many arms
    pool.release(10_000, 0, was_shared=True)
    assert fired == [1]  # exactly once, not 100 times


def test_waiters_fire_on_reserve_release_too(pool):
    fired = []
    pool.acquire(make_pkt(10_000, vc=0))
    resv = make_pkt(1000, vc=0)
    pool.acquire(resv)
    pool.notify_on_release(0, lambda: fired.append("x"))
    pool.release(1000, 0, was_shared=False)
    assert fired == ["x"]


def test_in_use_and_total_accounting(pool):
    assert pool.total == 10_000 + 4 * 2_000
    pool.acquire(make_pkt(3000, vc=1))
    assert pool.in_use == 3000


def test_validation():
    with pytest.raises(ValueError):
        VcBufferPool(0, 100, 2)
    with pytest.raises(ValueError):
        VcBufferPool(100, 0, 2)
