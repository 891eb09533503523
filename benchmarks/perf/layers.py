"""Outside-in per-layer trace: timing wrappers on the calls between layers.

The simulator's layers call each other through a handful of methods
(the engine dispatches ``NIC.receive``, the switch calls the router, the
NIC calls the congestion controller, ...).  :class:`LayerTracer` swaps
those class attributes for wrappers that count calls and measure time
with a stack: each wrapper's *self* time is its inclusive time minus the
inclusive time of the wrapped calls made beneath it.  Nothing in ``src/``
is edited; the wrappers are installed before a cell builds its fabric
and removed afterwards, so untraced cells run the unmodified code.

``Simulator.run``'s self time is therefore the event loop itself (pop,
calendar refill, dispatch) plus any handler that is not on the map.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Dict, List

from repro.core.adaptive_routing import AdaptiveRouter, ValiantRouter
from repro.core.congestion_control import EcnCC, NoCC, SlingshotCC
from repro.faults.injector import FaultInjector
from repro.faults.reliability import EndToEndReliability
from repro.network.buffers import VcBufferPool
from repro.network.fabric import Fabric, FabricConfig
from repro.network.nic import NIC
from repro.network.switch import OutputPort, Switch
from repro.sim.engine import Simulator
from repro.sim.process import Process

#: layer -> the (class, method) entry points that are charged to it
LAYER_MAP = {
    "sim": [(Simulator, "run")],
    "sim.push": [(Simulator, "push")],
    "fabric": [(FabricConfig, "build"), (Fabric, "send")],
    "nic": [(NIC, "submit"), (NIC, "receive"), (NIC, "on_ack"), (NIC, "_pace_fire")],
    "switch": [(Switch, "receive"), (Switch, "_forward")],
    "port": [(OutputPort, "enqueue"), (OutputPort, "_on_sent"), (OutputPort, "_retry")],
    "buffers": [(VcBufferPool, "release")],
    "routing": [(AdaptiveRouter, "route"), (ValiantRouter, "route")],
    "cc": [(SlingshotCC, "on_ack"), (EcnCC, "on_ack"), (NoCC, "on_ack")],
    "faults": [
        (EndToEndReliability, "on_inject"),
        (EndToEndReliability, "on_ack"),
        (EndToEndReliability, "on_deliver"),
        (EndToEndReliability, "_fire"),
        (FaultInjector, "_apply"),
    ],
    "mpi": [(Process, "_step")],
}


def per_layer_metric_names() -> List[str]:
    """Every metric :meth:`LayerTracer.metrics` reports, in report order."""
    names = []
    for layer in LAYER_MAP:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.us_per_call"]
    return names + [
        "sim.events",
        "sim.events_per_pkt",
        "routing.reroutes",
        "routing.no_route",
        "cc.marked_frac",
        "port.retry_useful_frac",
        "faults.retransmits",
        "faults.goodput_frac",
        "trace.coverage",
        "trace.overhead",
    ]


def metric_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "self_s": "s",
        "us_per_call": "us",
        "events": "count",
        "events_per_pkt": "ev/pkt",
        "reroutes": "count",
        "no_route": "count",
        "retransmits": "count",
        "overhead": "ratio",
    }.get(suffix, "fraction")


class LayerTracer:
    """Accumulates per-layer calls and self time over traced cells."""

    def __init__(self):
        self.calls: Dict[str, int] = dict.fromkeys(LAYER_MAP, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYER_MAP, 0.0)
        self.cells = 0
        self.wall_s = 0.0
        #: OutputPort._retry wakeups, and those that left the port busy
        self.retries = 0
        self.retries_useful = 0
        self.counters: Dict[str, float] = dict.fromkeys(
            ("events", "pkts_delivered", "pkts_injected", "acks_marked",
             "acks", "reroutes", "no_route", "retransmits"),
            0,
        )
        #: fabrics built while installed (their counters are harvested)
        self._fabrics: List[Fabric] = []
        #: child-time accumulators, one per wrapped call on the stack
        self._stack: List[float] = []

    def _wrap(self, layer: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[layer] += 1

        return timed

    def _instrument(self, cls, name: str, fn):
        """Extra bookkeeping for the two entry points whose result is
        itself a metric: built fabrics and useful port wakeups."""
        if (cls, name) == (FabricConfig, "build"):

            def build(config, *args, **kwargs):
                fabric = fn(config, *args, **kwargs)
                self._fabrics.append(fabric)
                return fabric

            return build
        if (cls, name) == (OutputPort, "_retry"):

            def _retry(port):
                fn(port)
                self.retries += 1
                if port.busy:
                    self.retries_useful += 1

            return _retry
        return fn

    @contextlib.contextmanager
    def installed(self):
        """Trace one cell: wrap every entry point, time the body, restore."""
        originals = []
        for layer, entries in LAYER_MAP.items():
            for cls, name in entries:
                fn = cls.__dict__[name]
                originals.append((cls, name, fn))
                setattr(cls, name, self._wrap(layer, self._instrument(cls, name, fn)))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - t0
            for cls, name, fn in originals:
                setattr(cls, name, fn)
            self._stack.clear()
            self._harvest()
            self.cells += 1

    def _harvest(self) -> None:
        c = self.counters
        for fabric in self._fabrics:
            c["events"] += fabric.sim.events_processed
            c["pkts_delivered"] += fabric.packets_delivered()
            c["pkts_injected"] += fabric.packets_injected()
            for nic in fabric.nics:
                c["acks_marked"] += nic.acks_marked
                c["acks"] += nic.acks_marked + nic.acks_clean
                if nic.retrans is not None:
                    c["retransmits"] += nic.retrans.retransmits
            c["reroutes"] += getattr(fabric.router, "reroutes", 0)
            c["no_route"] += getattr(fabric.router, "no_route", 0)
        self._fabrics.clear()

    def shares(self) -> Dict[str, float]:
        """Each layer's self time as a share of the traced cells' wall."""
        return {layer: s / self.wall_s for layer, s in self.self_s.items()}

    def metrics(self, overhead: float) -> Dict[str, float]:
        """Per-cell averages over every traced cell so far.

        *overhead* is the traced ÷ untraced cell wall time, measured by
        the caller on the same inputs.  A layer that was never called
        reports zero calls, time and cost per call (faults run only under
        the chaos cell, mpi only under Fig. 9); ``port.retry_useful_frac``
        is 1.0 when no port ever had to wait for credits (no wasted wakeup).
        """
        n, c = self.cells, self.counters
        out: Dict[str, float] = {}
        for layer in LAYER_MAP:
            calls, self_s = self.calls[layer], self.self_s[layer]
            out[f"{layer}.calls"] = calls / n
            out[f"{layer}.self_s"] = self_s / n
            out[f"{layer}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        out["sim.events"] = c["events"] / n
        out["sim.events_per_pkt"] = c["events"] / c["pkts_delivered"]
        out["routing.reroutes"] = c["reroutes"] / n
        out["routing.no_route"] = c["no_route"] / n
        out["cc.marked_frac"] = c["acks_marked"] / c["acks"]
        out["port.retry_useful_frac"] = (
            self.retries_useful / self.retries if self.retries else 1.0
        )
        out["faults.retransmits"] = c["retransmits"] / n
        out["faults.goodput_frac"] = c["pkts_delivered"] / c["pkts_injected"]
        out["trace.coverage"] = sum(self.shares().values())
        out["trace.overhead"] = overhead
        return out
