"""Determinism differ: dual-run event-order fingerprinting.

``tests/test_event_order_identity.py`` pins one workload's fingerprint
as a golden constant — a tripwire that tells you determinism broke but
nothing about *where*.  This module is the debugging counterpart: run
the same scenario twice in one process, record every dispatched event
via the engine's :attr:`event_hook`, and when the traces disagree report
the **first divergent event** with surrounding context from both runs,
plus a diff of the final telemetry snapshots (which localizes divergence
to a subsystem even when the event streams are too long to eyeball).

Event labels must be stable across runs, which takes care: packet and
message ids are *process-global* counters, so the second run's packets
carry different pids than the first's even when the simulation is
perfectly deterministic.  :class:`EventTrace` therefore normalizes
pids/mids to per-trace ordinals (first pid seen -> ``p0``, second ->
``p1`` …) — identical runs then produce byte-identical labels, while a
genuinely reordered event still shifts the ordinal mapping and shows up
at the exact point of reordering.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "EventTrace",
    "DivergenceReport",
    "determinism_diff",
    "bisection_scenario",
]

#: context lines shown on each side of the first divergence
_CONTEXT = 5


class EventTrace:
    """Record of one run's dispatched events as stable ``(t, label)`` rows."""

    def __init__(self, max_events: Optional[int] = None):
        self.events: List[Tuple[float, str]] = []
        self.max_events = max_events
        self.truncated = False
        self._pid_ord: Dict[int, int] = {}
        self._mid_ord: Dict[int, int] = {}

    # -- label construction --------------------------------------------------

    def _tag(self, obj) -> str:
        """A run-stable tag for one callback argument (or receiver)."""
        pid = getattr(obj, "pid", None)
        if pid is not None and isinstance(pid, int):
            return f"p{self._pid_ord.setdefault(pid, len(self._pid_ord))}"
        mid = getattr(obj, "mid", None)
        if mid is not None and isinstance(mid, int):
            return f"m{self._mid_ord.setdefault(mid, len(self._mid_ord))}"
        name = getattr(obj, "name", None)
        if isinstance(name, str) and name:
            return name
        node = getattr(obj, "node", None)
        if isinstance(node, int):
            return f"nic{node}"
        oid = getattr(obj, "id", None)
        if isinstance(oid, int):
            return f"{type(obj).__name__}{oid}"
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return repr(obj)
        return type(obj).__name__

    def label(self, fn: Callable, args: tuple) -> str:
        receiver = getattr(fn, "__self__", None)
        qual = getattr(fn, "__qualname__", None) or getattr(
            fn, "__name__", type(fn).__name__
        )
        where = f"[{self._tag(receiver)}]" if receiver is not None else ""
        return f"{qual}{where}({', '.join(self._tag(a) for a in args)})"

    # -- recording (installed as sim.event_hook) -----------------------------

    def __call__(self, t: float, fn: Callable, args: tuple) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append((t, self.label(fn, args)))

    # -- digest --------------------------------------------------------------

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for t, label in self.events:
            h.update(f"{t!r} {label}\n".encode())
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class DivergenceReport:
    """Outcome of one dual-run comparison."""

    identical: bool
    events: Tuple[int, int]
    fingerprints: Tuple[str, str]
    #: index of the first differing event, or None when identical
    first_divergence: Optional[int] = None
    #: (run-A lines, run-B lines) around the divergence, pre-rendered
    context: Tuple[List[str], List[str]] = field(default_factory=lambda: ([], []))
    #: telemetry counters whose final values differ: name -> (a, b)
    telemetry_diff: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        if self.identical:
            return (
                f"deterministic: {self.events[0]} events, fingerprint "
                f"{self.fingerprints[0][:16]}…"
            )
        lines = [
            f"NON-DETERMINISTIC: {self.events[0]} vs {self.events[1]} events",
            f"  fingerprints {self.fingerprints[0][:16]}… vs "
            f"{self.fingerprints[1][:16]}…",
        ]
        if self.first_divergence is not None:
            lines.append(f"  first divergent event: index {self.first_divergence}")
            a, b = self.context
            lines.append("  run A:")
            lines.extend(f"    {row}" for row in a)
            lines.append("  run B:")
            lines.extend(f"    {row}" for row in b)
        if self.telemetry_diff:
            lines.append("  diverging telemetry counters:")
            for name in sorted(self.telemetry_diff):
                va, vb = self.telemetry_diff[name]
                lines.append(f"    {name}: {va!r} vs {vb!r}")
        return "\n".join(lines)


def _context(trace: EventTrace, idx: int) -> List[str]:
    lo = max(0, idx - _CONTEXT)
    hi = min(len(trace.events), idx + _CONTEXT + 1)
    rows = []
    for i in range(lo, hi):
        t, label = trace.events[i]
        marker = ">>" if i == idx else "  "
        rows.append(f"{marker} [{i}] t={t:.3f} {label}")
    if idx >= len(trace.events):
        rows.append(f">> [{idx}] <run ended>")
    return rows


def _run_once(
    scenario: Callable[[], object],
    telemetry: bool,
    max_events: Optional[int],
) -> Tuple[EventTrace, Dict[str, float]]:
    fabric = scenario()
    trace = EventTrace(max_events=max_events)
    fabric.sim.event_hook = trace
    telem = fabric.attach_telemetry(sample_rate=0.0) if telemetry else None
    fabric.sim.run()
    snap: Dict[str, float] = {}
    if telem is not None:
        # wall-clock diagnostics legitimately differ between runs
        snap = {
            k: v
            for k, v in telem.registry.snapshot().items()
            if "wall" not in k
        }
    return trace, snap


def determinism_diff(
    scenario: Callable[[], object],
    *,
    telemetry: bool = True,
    max_events: Optional[int] = None,
) -> DivergenceReport:
    """Run *scenario* twice and localize any divergence.

    *scenario* is a zero-argument callable returning a **freshly built**
    fabric with its traffic already submitted (or submitting it via
    scheduled events); the differ attaches an event hook (and, unless
    ``telemetry=False``, a zero-sampling telemetry registry for the
    final-counter diff), runs the fabric to completion, and repeats.
    Any shared mutable state between the two builds — module-level
    caches, unseeded RNGs, leftover globals — is exactly the class of
    bug this tool exists to catch.
    """
    trace_a, snap_a = _run_once(scenario, telemetry, max_events)
    trace_b, snap_b = _run_once(scenario, telemetry, max_events)

    fp_a, fp_b = trace_a.fingerprint(), trace_b.fingerprint()
    telem_diff: Dict[str, Tuple[float, float]] = {}
    for name in sorted(set(snap_a) | set(snap_b)):
        va, vb = snap_a.get(name), snap_b.get(name)
        if va != vb:
            telem_diff[name] = (va, vb)

    if fp_a == fp_b and not telem_diff:
        return DivergenceReport(
            identical=True,
            events=(len(trace_a), len(trace_b)),
            fingerprints=(fp_a, fp_b),
        )

    first = None
    n = min(len(trace_a), len(trace_b))
    for i in range(n):
        if trace_a.events[i] != trace_b.events[i]:
            first = i
            break
    if first is None and len(trace_a) != len(trace_b):
        first = n
    return DivergenceReport(
        identical=False,
        events=(len(trace_a), len(trace_b)),
        fingerprints=(fp_a, fp_b),
        first_divergence=first,
        context=(
            _context(trace_a, first) if first is not None else [],
            _context(trace_b, first) if first is not None else [],
        ),
        telemetry_diff=telem_diff,
    )


def bisection_scenario(
    system: str = "malbec", nbytes: Optional[int] = None, seed: int = 0
) -> Callable[[], object]:
    """Scenario factory: full-bisection shuffle on a mini system.

    Every node sends *nbytes* to the node half the machine away — the
    paper's global-bandwidth stress pattern, exercising every layer the
    auditor and differ watch (host links, local and global hops, VC
    escalation, adaptive routing).  Returns a closure suitable for
    :func:`determinism_diff` (and used by ``repro validate --audit`` for
    its auditor-enabled smoke run).
    """
    from ..network.units import KiB
    from ..systems import crystal_mini, malbec_mini, shandy_mini

    if nbytes is None:
        nbytes = 256 * KiB
    builders = {
        "malbec": malbec_mini,
        "shandy": shandy_mini,
        "crystal": crystal_mini,
    }
    try:
        builder = builders[system]
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; expected one of {sorted(builders)}"
        ) from None

    def scenario():
        fabric = builder(seed=seed).build()
        n = len(fabric.nics)
        for i in range(n):
            fabric.send(i, (i + n // 2) % n, nbytes)
        return fabric

    return scenario
