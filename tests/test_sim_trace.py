"""Unit tests for the rate meter and the stable hash."""

import pytest

from repro.sim import RateMeter
from repro.sim.rng import stable_hash


def test_rate_meter_bins_bytes_into_windows():
    meter = RateMeter(window_ns=100.0)
    meter.add(10.0, 500.0)   # window 0
    meter.add(50.0, 500.0)   # window 0
    meter.add(150.0, 2000.0)  # window 1
    mids, rates = meter.series()
    assert mids.tolist() == [50.0, 150.0]
    assert rates.tolist() == [10.0, 20.0]  # bytes/ns
    assert meter.total_bytes() == 3000.0


def test_rate_meter_extends_to_t_end_with_zeros():
    meter = RateMeter(window_ns=10.0)
    meter.add(5.0, 100.0)
    mids, rates = meter.series(t_end=35.0)
    assert len(mids) == 4
    assert rates[1] == 0.0 and rates[3] == 0.0


def test_rate_meter_rejects_bad_window():
    with pytest.raises(ValueError):
        RateMeter(window_ns=0)


def test_stable_hash_is_stable_and_sensitive():
    assert stable_hash("a", 1) == stable_hash("a", 1)
    assert stable_hash("a", 1) != stable_hash("a", 2)
    assert stable_hash("a", 1) != stable_hash("b", 1)
