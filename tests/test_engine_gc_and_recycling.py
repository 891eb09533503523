"""Run-loop exits and bound handlers: what a run leaves for the collector.

* ``run()`` leaves the cyclic collector alone, on a clean exit and on a
  raising one (a handler exception).
* The delivery-path event handlers are bound once per component, so
  scheduling an event allocates no bound method for the collector to
  walk, and the handler each event dispatches is unchanged.
"""

import gc

import pytest

from repro.network.units import KiB
from repro.sim import Simulator
from repro.systems import malbec_mini


def test_gc_prior_disabled_state_is_preserved():
    """A caller that already runs collector-free must stay collector-free,
    and a handler exception leaves the hot loop (no hook, no watchdog:
    the loop every campaign worker runs) with the collector untouched."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    gc.disable()
    try:
        sim.run()
        assert not gc.isenabled()
    finally:
        gc.enable()

    def boom():
        raise RuntimeError("handler failure")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="handler failure"):
        sim.run()
    assert gc.isenabled()


def test_delivery_handlers_are_bound_once_per_component():
    """Every ``_on_sent``, ``_forward``, ``receive``, ``release`` and
    ``on_ack`` event of a bisection dispatches one of a fixed set of
    handler objects (one per port, pool, switch and NIC) instead of a
    fresh bound method per event.  The hook keeps every handler alive,
    so distinct ids are distinct objects."""
    fabric = malbec_mini().build()
    n = fabric.topology.n_nodes
    kept = []
    fabric.sim.event_hook = lambda t, fn, args: kept.append(fn)
    for i in range(n):
        fabric.send(i, (i + n // 2) % n, 64 * KiB)
    fabric.sim.run()
    fabric.assert_quiescent()
    names = {"_on_sent", "_forward", "receive", "release", "on_ack"}
    hot = [fn for fn in kept if getattr(fn, "__name__", None) in names]
    assert {fn.__name__ for fn in hot} == names
    n_ports = sum(1 for _ in fabric.all_ports())
    bound = 3 * n_ports + len(fabric.switches) + len(fabric.nics)
    assert len(hot) > 10 * bound
    assert len({id(fn) for fn in hot}) <= bound
