"""The hot-path overhaul must be invisible to a default single-process run.

Golden-fingerprint test in the ``test_faults_disabled`` mold: the exact
workload run at the pre-overhaul seed commit, with its event count,
final clock, and per-message latency digest hard-coded.  The cancellable
timers, single-TC arbitration bypass, O(1) buffer accounting, lazy
segmentation, and run-loop micro-optimizations must all reproduce the
seed *bit for bit* — same events dispatched in the same order.
"""

import hashlib
import random

from repro.network.units import KiB
from repro.systems import malbec_mini

# Captured at the seed commit (c67e78a) for _workload(seed=7) below.
GOLDEN_EVENTS = 3328
GOLDEN_NOW = 15515.359999999997
GOLDEN_DELIVERED = 250
GOLDEN_LATENCY_SHA = "e8dd4bec71cd5d8dcf4d1060e1cf36815a70f19de766e0d67f2e28cf7c9b09ad"


def _workload(fabric, n_messages=40, seed=7):
    rng = random.Random(seed)
    n = fabric.topology.n_nodes
    msgs = []
    sent = 0
    while sent < n_messages:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        msgs.append(fabric.send(a, b, rng.choice([8, 4 * KiB, 64 * KiB])))
        sent += 1
    fabric.sim.run()
    return msgs


def _latency_sha(msgs) -> str:
    lat = [(m.submit_time, m.complete_time) for m in msgs]
    return hashlib.sha256(repr(lat).encode()).hexdigest()


def test_default_run_matches_seed_fingerprint():
    fabric = malbec_mini().build()
    msgs = _workload(fabric)
    assert fabric.sim.events_processed == GOLDEN_EVENTS
    assert fabric.sim.now == GOLDEN_NOW
    assert fabric.packets_delivered() == GOLDEN_DELIVERED
    assert _latency_sha(msgs) == GOLDEN_LATENCY_SHA

