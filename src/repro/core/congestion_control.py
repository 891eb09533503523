"""Endpoint congestion control (paper §II-D).

Slingshot's hardware congestion control "tracks every in-flight packet
between every pair of network endpoints" and applies "stiff and fast
back-pressure to the sources that are contributing to congestion",
leaving victim streams untouched.  We model this at the NIC as a
per-(source, destination) window of outstanding packets:

* every packet is acknowledged end-to-end;
* the last-hop (host-facing) egress port marks packets it dequeues from
  a deep queue — deep queues at the last hop *are* endpoint congestion;
* on a marked ack, :class:`SlingshotCC` cuts the window for that single
  destination multiplicatively (stiff) and immediately (fast: the loop
  is one ack, not a software RTT estimator);
* clean acks grow the window additively back toward the maximum.

Because the state is per destination pair, an incast only throttles the
senders whose packets return marked — other destinations of the same
NIC, and other jobs, keep their full windows.  This is the paper's whole
argument for Figures 8-12.

Baselines:

* :class:`NoCC` — unlimited windows; endpoint congestion backs packets
  into the fabric until link-level credits stall upstream ports (tree
  saturation).  This is how we configure the Aries system, whose
  production deployments ran without endpoint congestion control.
* :class:`EcnCC` — an ECN/DCQCN-flavoured control with a *slow* control
  loop: marks are accumulated and the rate is only adjusted every
  ``update_period_ns``.  Used by the ablation benches to reproduce the
  paper's claim that slow loops are fragile for bursty HPC traffic.
"""

from __future__ import annotations

from collections import deque

__all__ = ["PairState", "CongestionControl", "SlingshotCC", "NoCC", "EcnCC"]


class PairState:
    """Per-(src, dst) tracking state kept by the sending NIC.

    Windows below 1.0 mean *pacing*: at most one packet in flight, plus
    an enforced idle gap after each send so the average rate matches the
    fractional window (this is what lets stiff back-pressure cut an
    incast source far below one outstanding packet per RTT).

    ``window`` is a property: every assignment (the CC strategies, the
    NIC's idle aging) also refreshes :attr:`eff_window`, the cached
    ``max(window, 1.0)`` that admission control compares ``in_flight``
    against.  The NIC's pump loop runs that comparison once per admitted
    packet, so the max must never be recomputed there.

    ``last_update_ns`` is the anchor of :class:`EcnCC`'s slow loop.  The
    NIC passes the pair's *creation time*; a 0.0 default would put a
    pair born mid-simulation instantly past the update period, letting a
    single marked first ack cut the window — exactly the fast reaction
    the ECN ablation is built to *not* have.
    """

    __slots__ = (
        "_window",
        "eff_window",
        "in_flight",
        "pending_iters",
        "pending_count",
        "pending_bytes",
        "next_send_ns",
        "pace_armed",
        "last_activity_ns",
        "acks_since_update",
        "marks_since_update",
        "last_update_ns",
    )

    def __init__(self, window: float, last_update_ns: float = 0.0):
        self.window = window  # property assignment: also sets eff_window
        self.in_flight = 0
        # Lazy segmentation: submitted messages sit here as un-consumed
        # packet generators (FIFO).  The counters track what remains, so
        # the hot path never walks the container.
        self.pending_iters = deque()
        self.pending_count = 0
        self.pending_bytes = 0.0
        self.next_send_ns = 0.0  # pacing gate (used when window < 1)
        self.pace_armed = False  # a pacing-timer wakeup is scheduled
        self.last_activity_ns = 0.0  # last send/ack (for idle state aging)
        # EcnCC bookkeeping
        self.acks_since_update = 0
        self.marks_since_update = 0
        self.last_update_ns = last_update_ns

    @property
    def window(self) -> float:
        return self._window

    @window.setter
    def window(self, w: float) -> None:
        self._window = w
        self.eff_window = w if w > 1.0 else 1.0

    @property
    def can_send(self) -> bool:
        return self.in_flight < self.eff_window

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PairState(window={self._window}, in_flight={self.in_flight}, "
            f"pending={self.pending_count})"
        )


class CongestionControl:
    """Strategy interface: owns window sizing for every destination pair."""

    #: human-readable name used in reports
    name = "abstract"

    #: observer slot (repro.probe); None = zero-overhead path.  A class
    #: attribute so strategy subclasses need no __init__ plumbing.
    probe = None

    def initial_window(self) -> float:
        raise NotImplementedError

    def on_ack(self, state: PairState, marked: bool, now: float) -> None:
        """Update *state.window* given one returned ack."""
        raise NotImplementedError


class SlingshotCC(CongestionControl):
    """Per-pair AIMD with a one-ack control loop (fast and stiff).

    Defaults: start at 16 outstanding packets per destination, halve on
    every marked ack (down to 1), recover by one packet per clean
    window's worth of acks, cap at ``max_window``.
    """

    name = "slingshot"

    def __init__(
        self,
        initial: float = 16.0,
        max_window: float = 64.0,
        min_window: float = 1.0 / 16.0,
        decrease_factor: float = 0.5,
        increase_per_window: float = 1.0,
    ):
        if not (0.0 < decrease_factor < 1.0):
            raise ValueError("decrease_factor must be in (0, 1)")
        if min_window <= 0.0:
            raise ValueError("min_window must be positive")
        self.initial = initial
        self.max_window = max_window
        self.min_window = min_window
        self.decrease_factor = decrease_factor
        self.increase_per_window = increase_per_window

    def initial_window(self) -> float:
        return self.initial

    def on_ack(self, state: PairState, marked: bool, now: float) -> None:
        # Runs once per ack: the window is read and written through the
        # PairState backing slots (same values as max()/min() over the
        # property, without the descriptor dispatch), and eff_window is
        # maintained exactly as the property setter would.
        before = state._window
        if marked:
            w = before * self.decrease_factor
            if w < self.min_window:
                w = self.min_window
        elif before < 1.0:
            # Gentle multiplicative probe back towards one outstanding
            # packet once the marks stop.
            w = before * 1.25
            if w > self.max_window:
                w = self.max_window
        else:
            w = before + self.increase_per_window / before
            if w > self.max_window:
                w = self.max_window
        state._window = w
        state.eff_window = w if w > 1.0 else 1.0
        if self.probe is not None:
            self.probe.window_update(self, before, w)


class NoCC(CongestionControl):
    """No endpoint congestion control (Aries configuration)."""

    name = "none"

    def __init__(self, window: float = float("inf")):
        self.window = window

    def initial_window(self) -> float:
        return self.window

    def on_ack(self, state: PairState, marked: bool, now: float) -> None:
        pass  # nothing reacts; the fabric's credits are the only brake


class EcnCC(CongestionControl):
    """ECN-flavoured control with a deliberately slow loop (ablation).

    Marks are only acted upon every ``update_period_ns``; the window is
    cut in proportion to the marked fraction of the elapsed period and
    recovers by a fixed step per period.  Between updates a burst can do
    unthrottled damage — which is the paper's criticism of ECN/QCN for
    HPC workloads.
    """

    name = "ecn"

    def __init__(
        self,
        initial: float = 64.0,
        max_window: float = 64.0,
        min_window: float = 1.0,
        update_period_ns: float = 50_000.0,
        recovery_step: float = 2.0,
    ):
        self.initial = initial
        self.max_window = max_window
        self.min_window = min_window
        self.update_period_ns = update_period_ns
        self.recovery_step = recovery_step

    def initial_window(self) -> float:
        return self.initial

    def on_ack(self, state: PairState, marked: bool, now: float) -> None:
        state.acks_since_update += 1
        if marked:
            state.marks_since_update += 1
        if now - state.last_update_ns < self.update_period_ns:
            return
        state.last_update_ns = now
        if state.acks_since_update:
            before = state.window
            frac = state.marks_since_update / state.acks_since_update
            if frac > 0.0:
                state.window = max(
                    self.min_window, state.window * (1.0 - 0.5 * frac)
                )
            else:
                state.window = min(self.max_window, state.window + self.recovery_step)
            if self.probe is not None:
                self.probe.window_update(self, before, state.window)
        state.acks_since_update = 0
        state.marks_since_update = 0


def make_cc(name: str, **kwargs) -> CongestionControl:
    """Factory used by system configs ('slingshot' | 'none' | 'ecn')."""
    table = {"slingshot": SlingshotCC, "none": NoCC, "ecn": EcnCC}
    try:
        return table[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown congestion control {name!r}") from None
