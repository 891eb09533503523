"""Fabric assembly: topology + switches + links + NICs = runnable network.

:class:`Fabric` is the main entry point of the packet-level simulator.
Construct one from a :class:`FabricConfig`, then either use
:meth:`Fabric.send` directly or layer :mod:`repro.mpi` on top.

>>> from repro.systems import malbec_mini
>>> fabric = malbec_mini().build()
>>> msg = fabric.send(src=0, dst=5, nbytes=4096)
>>> fabric.sim.run()
>>> msg.complete
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..core.adaptive_routing import AdaptiveRouter
from ..core.congestion_control import CongestionControl, make_cc
from ..core.traffic_classes import (
    TrafficClass,
    default_traffic_classes,
    validate_classes,
)
from ..probe import ProbeHandle
from ..sim import Event, Simulator
from ..sim.rng import stable_hash
from .dragonfly import DragonflyParams, DragonflyTopology
from .nic import NIC
from .packet import ROCE_HEADER_BYTES, Message
from .switch import OutputPort, Switch
from .units import KiB, gbps

__all__ = ["LinkSpec", "FabricConfig", "Fabric", "LinkRef"]


@dataclass
class LinkRef:
    """One bidirectional wire of the built fabric, addressable for fault
    injection.  ``key`` is the stable identifier used by
    :class:`repro.faults.FaultSchedule` events:

    * ``("local", si, sj)`` with ``si < sj`` — intra-group link;
    * ``("global", gi, gj, idx)`` with ``gi < gj`` — the *idx*-th parallel
      global link between two groups;
    * ``("host", node)`` — the switch<->NIC link of *node* (both the
      egress and the injection direction).

    ``ports`` holds the constituent :class:`OutputPort` objects (one per
    direction) and ``base_bandwidths`` their as-built rates, so a
    recovery can restore a degraded link exactly.  ``switches`` are the
    ids of the switches the link touches, and ``failed`` records that
    the link's own failure is in progress: the link is up exactly when
    ``failed`` is False and every one of its switches is up.  The link's
    own impairment sits next to it: ``bandwidth_factor`` (a degradation)
    and ``error_rate`` (a BER storm; None means the spec's rate), which
    the link keeps through any switch failure and recovery until its own
    recovery clears them.
    """

    key: tuple
    kind: str
    ports: tuple
    spec: LinkSpec
    switches: tuple
    base_bandwidths: tuple = ()
    failed: bool = False
    bandwidth_factor: float = 1.0
    error_rate: Optional[float] = None

    def __post_init__(self):
        if not self.base_bandwidths:
            self.base_bandwidths = tuple(p.bandwidth for p in self.ports)

    @property
    def up(self) -> bool:
        return all(p.up for p in self.ports)


@dataclass(frozen=True)
class LinkSpec:
    """One link tier: bandwidth (B/ns), propagation delay (ns), and the
    per-TC shared input buffer at the receiving end (bytes; a small
    per-VC escape reserve is added on top — see repro.network.buffers).

    ``frame_error_rate`` injects transient link errors that are repaired
    by link-level reliability (LLR, §II-F): each corrupted frame costs a
    local replay (``replay_latency_ns`` + reserialization) instead of an
    end-to-end retransmission.  The fabric stays lossless either way.
    """

    bandwidth: float
    prop_delay: float
    buffer_bytes: float
    frame_error_rate: float = 0.0
    replay_latency_ns: float = 200.0

    def __post_init__(self):
        # `not x > 0` rather than `x <= 0`: NaN fails it too
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.prop_delay >= 0:
            raise ValueError("propagation delay cannot be negative")
        if not self.buffer_bytes > 0:
            raise ValueError("buffer must be positive")
        if not (0.0 <= self.frame_error_rate < 1.0):
            raise ValueError("frame_error_rate must be in [0, 1)")
        if not self.replay_latency_ns >= 0:
            raise ValueError(
                f"replay_latency_ns cannot be negative (got "
                f"{self.replay_latency_ns}): the LLR replay round-trip "
                f"takes physical time"
            )


@dataclass
class FabricConfig:
    """Everything needed to build a network.

    The defaults describe a Slingshot system with 200 Gb/s fabric links
    (25 B/ns), 100 Gb/s ConnectX-5 NICs as in the paper's testbeds,
    Rosetta's 350 ns pipeline, and the Slingshot congestion control.
    """

    params: DragonflyParams = field(
        default_factory=lambda: DragonflyParams(4, 4, 4, links_per_pair=2)
    )
    name: str = "slingshot"
    # copper in-rack, copper in-group, optical between groups (§II-B)
    host_link: LinkSpec = field(default_factory=lambda: LinkSpec(gbps(200), 15.0, 48 * KiB))
    local_link: LinkSpec = field(default_factory=lambda: LinkSpec(gbps(200), 20.0, 48 * KiB))
    global_link: LinkSpec = field(default_factory=lambda: LinkSpec(gbps(200), 300.0, 48 * KiB))
    nic_bandwidth: float = gbps(100)
    switch_latency: float = 350.0
    header_bytes: int = ROCE_HEADER_BYTES
    classes: List[TrafficClass] = field(default_factory=lambda: default_traffic_classes(1))
    cc: str = "slingshot"
    cc_kwargs: Dict = field(default_factory=dict)
    router_factory: Optional[Callable] = None  # (topology, seed) -> router
    #: host-port egress backlog above which departing packets are marked
    mark_threshold: float = 24 * KiB
    #: fixed NIC/ack processing latency added to each end-to-end ack (ns)
    ack_overhead: float = 100.0
    #: Aries-style ingress buffering: all wires into a switch share one
    #: per-TC pool of ``switch_buffer_bytes``, so congestion parked by one
    #: flow starves every arrival at that switch.  Slingshot (False) gives
    #: each wire its own dedicated ``LinkSpec.buffer_bytes``.
    shared_switch_buffers: bool = False
    switch_buffer_bytes: float = 256 * KiB
    seed: int = 0

    def __post_init__(self):
        # Reject at construction (with_() runs this too), not mid-run: a
        # negative latency or rate steps the simulated clock backwards, a
        # zero NIC rate divides by zero at the first injection, a NaN
        # passes every `x < 0` test, an empty class list breaks the build,
        # and guarantees summing past 1 would otherwise fail only inside
        # the first multi-class port's scheduler.  An infinite
        # mark_threshold is valid (Aries never marks).
        for name in ("switch_latency", "ack_overhead", "mark_threshold"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} cannot be negative (got {value})")
        for name in ("nic_bandwidth", "switch_buffer_bytes"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive (got {value})")
        if not self.classes:
            raise ValueError("classes must list at least one traffic class")
        validate_classes(self.classes)

    def build(self, sim: Optional[Simulator] = None) -> "Fabric":
        return Fabric(self, sim)

    def with_(self, **changes) -> "FabricConfig":
        """A copy with the given fields replaced (dataclasses.replace)."""
        return replace(self, **changes)


class Fabric:
    """A built network: switches, NICs, wires, and message bookkeeping."""

    def __init__(self, config: FabricConfig, sim: Optional[Simulator] = None):
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.topology = DragonflyTopology(config.params)
        router_factory = config.router_factory or (
            lambda topo, seed: AdaptiveRouter(topo, seed)
        )
        self.router = router_factory(self.topology, config.seed)
        self.cc: CongestionControl = make_cc(config.cc, **config.cc_kwargs)

        self.switches: List[Switch] = [
            Switch(
                self.sim,
                s,
                self.topology.switch_group(s),
                config.switch_latency,
                self.router,
            )
            for s in range(self.topology.n_switches)
        ]
        self.nics: List[NIC] = [
            NIC(
                self.sim,
                n,
                self.cc,
                config.switch_latency,
                config.header_bytes,
                ack_overhead=config.ack_overhead,
                nic_lookup=self._nic_lookup,
            )
            for n in range(self.topology.n_nodes)
        ]
        self._ingress_pools: Dict[int, List] = {}
        #: link directory for fault injection: key -> LinkRef (repro.faults)
        self.links: Dict[tuple, LinkRef] = {}
        self._wire_everything()
        self.messages_sent = 0
        self.messages_completed = 0
        #: the attached FaultInjector, if any (set by repro.faults)
        self.fault_injector = None
        #: the attached InvariantAuditor, if any (set by repro.validate)
        self.auditor = None
        #: live probe attachments, in attach order (repro.probe)
        self.probe_handles: List[ProbeHandle] = []
        # If the engine watchdog ever trips, its SimStall should carry the
        # fabric's quiescence snapshot (stuck packets, deepest VOQ, ...).
        self.sim.stall_diagnostics = self.quiescence_snapshot

    def _nic_lookup(self, node: int) -> NIC:
        return self.nics[node]

    # -- wiring ----------------------------------------------------------------

    def _switch_pools(self, switch_id: int):
        """Shared per-switch ingress pools (Aries-style), built lazily."""
        pools = self._ingress_pools.get(switch_id)
        if pools is None:
            from .buffers import VcBufferPool
            from .switch import NUM_VCS, VC_RESERVE_BYTES

            pools = [
                VcBufferPool(
                    self.config.switch_buffer_bytes,
                    VC_RESERVE_BYTES,
                    NUM_VCS,
                )
                for _ in self.config.classes
            ]
            self._ingress_pools[switch_id] = pools
        return pools

    def _port(self, owner, kind: str, rx, spec: LinkSpec, bandwidth=None, name="") -> OutputPort:
        pools = None
        if self.config.shared_switch_buffers and isinstance(rx, Switch):
            pools = self._switch_pools(rx.id)
        return OutputPort(
            self.sim,
            owner,
            kind,
            rx,
            bandwidth if bandwidth is not None else spec.bandwidth,
            spec.prop_delay,
            self.config.classes,
            spec.buffer_bytes,
            mark_threshold=self.config.mark_threshold,
            name=name,
            pools=pools,
            error_rate=spec.frame_error_rate,
            replay_latency=spec.replay_latency_ns,
            seed=self.config.seed,
        )

    def _register_link(self, key, kind, ports, spec, *switches) -> None:
        self.links[key] = LinkRef(
            key=key, kind=kind, ports=tuple(ports), spec=spec, switches=switches
        )

    def _wire_everything(self) -> None:
        cfg = self.config
        # Local links: one bidirectional link per switch pair inside a group.
        for si, sj in self.topology.all_local_links():
            a, b = self.switches[si], self.switches[sj]
            a.port_to_switch[sj] = self._port(a, "local", b, cfg.local_link, name=f"L{si}->{sj}")
            b.port_to_switch[si] = self._port(b, "local", a, cfg.local_link, name=f"L{sj}->{si}")
            self._register_link(
                ("local", min(si, sj), max(si, sj)),
                "local",
                (a.port_to_switch[sj], b.port_to_switch[si]),
                cfg.local_link,
                si,
                sj,
            )
        # Global links (possibly several parallel ones per switch pair).
        pair_idx: Dict[tuple, int] = {}
        for si, sj in self.topology.all_global_links():
            a, b = self.switches[si], self.switches[sj]
            ga, gb = a.group, b.group
            fwd = self._port(a, "global", b, cfg.global_link, name=f"G{si}->{sj}")
            rev = self._port(b, "global", a, cfg.global_link, name=f"G{sj}->{si}")
            a.ports_to_group.setdefault(gb, []).append(fwd)
            b.ports_to_group.setdefault(ga, []).append(rev)
            # idx matches the link's position in topology.group_pair_links
            # (all_global_links iterates pairs in that same order).
            pk = (min(ga, gb), max(ga, gb))
            idx = pair_idx.get(pk, 0)
            pair_idx[pk] = idx + 1
            self._register_link(
                ("global", pk[0], pk[1], idx), "global", (fwd, rev),
                cfg.global_link, si, sj,
            )
        # Host links: switch <-> NIC both directions.  The NIC's injection
        # rate may be below the switch port rate (100 Gb/s CX-5 on a
        # 200 Gb/s port in the paper's testbeds).
        for n, nic in enumerate(self.nics):
            s = self.topology.node_switch(n)
            sw = self.switches[s]
            sw.port_to_node[n] = self._port(sw, "host", nic, cfg.host_link, name=f"H{s}->{n}")
            nic.out_port = self._port(
                nic,
                "inject",
                sw,
                cfg.host_link,
                bandwidth=min(cfg.nic_bandwidth, cfg.host_link.bandwidth),
                name=f"I{n}->{s}",
            )
            self._register_link(
                ("host", n), "host", (sw.port_to_node[n], nic.out_port),
                cfg.host_link, s,
            )
        # Freeze the per-switch global fan-outs: wiring is complete, so
        # the routing fast path can treat each fan-out as an immutable
        # candidate table (tuples also iterate/sample a shade faster).
        for sw in self.switches:
            sw.ports_to_group = {
                g: tuple(ports) for g, ports in sw.ports_to_group.items()
            }

    # -- traffic API -------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tc: int = 0,
        tag=None,
        on_complete: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Inject a message; returns immediately with the live Message."""
        if not (0 <= src < len(self.nics)) or not (0 <= dst < len(self.nics)):
            raise ValueError(f"bad endpoints {src}->{dst}")
        if not (0 <= tc < len(self.config.classes)):
            raise ValueError(f"traffic class {tc} not configured")
        msg = Message(src, dst, nbytes, tc=tc, tag=tag)
        self.messages_sent += 1

        def _done(m: Message, user_cb=on_complete) -> None:
            self.messages_completed += 1
            if user_cb is not None:
                user_cb(m)

        msg.on_complete = _done
        self.nics[src].submit(msg)
        return msg

    def transfer(self, src: int, dst: int, nbytes: int, tc: int = 0, tag=None) -> Event:
        """Like :meth:`send`, but returns an Event for process code."""
        ev = self.sim.event()
        self.send(src, dst, nbytes, tc=tc, tag=tag, on_complete=lambda m: ev.succeed(m))
        return ev

    # -- observability (see repro.probe) -------------------------------------------

    def probe_points(self):
        """Every component with a ``probe`` slot, in attach order."""
        for sw in self.switches:
            yield sw
            yield from sw.all_ports()
        for nic in self.nics:
            yield nic
            yield nic.out_port
        yield self.router
        yield self.cc
        if self.fault_injector is not None:
            yield self.fault_injector

    def attach_probe(self, factory: Callable) -> ProbeHandle:
        """Install ``factory(component)`` (a :class:`~repro.probe.Probe`
        or None) on every probe point; the handle's ``detach()`` removes
        exactly these probes."""
        return ProbeHandle(self, factory)

    def attach_telemetry(self, **kwargs):
        """Attach a :class:`repro.telemetry.FabricTelemetry` (keyword
        arguments ``sample_rate``, ``seed`` …)."""
        from ..telemetry import FabricTelemetry

        return FabricTelemetry(self, **kwargs)

    def attach_observer(self, telemetry=None, **kwargs):
        """Attach a :class:`repro.observe.FabricObserver` (windowed
        time-series, latency attribution, congestion forensics) over
        *telemetry*, or over a new full-sampling one."""
        from ..observe import FabricObserver

        return FabricObserver(self, telemetry=telemetry, **kwargs)

    def attach_faults(self, schedule=None, **kwargs):
        """Attach a :class:`repro.faults.FaultInjector` (keyword
        arguments ``base_rto_ns``, ``max_retries`` …)."""
        from ..faults import FaultInjector

        return FaultInjector(self, schedule, **kwargs)

    def attach_auditor(self, **kwargs):
        """Attach a :class:`repro.validate.InvariantAuditor` (keyword
        arguments ``sweep_interval_ns``, ``checkers`` …)."""
        from ..validate import InvariantAuditor

        return InvariantAuditor(self, **kwargs)

    # -- fault control (repro.faults) ---------------------------------------------
    #
    # These are the primitive mutations the FaultInjector drives.  The
    # per-port ``up`` flags are the one record of link health: the data
    # plane obeys them and the adaptive router's live tables are built
    # from them.  Every primitive bumps the topology's ``health_epoch``
    # after it mutates, so those tables are rebuilt before their next use.

    def _link(self, key: tuple) -> LinkRef:
        try:
            return self.links[tuple(key)]
        except KeyError:
            raise KeyError(f"no such link {key!r}; see Fabric.links for ids")

    def _bring_up(self, ref: LinkRef) -> None:
        """Apply *ref*'s own state to its ports: its bandwidth factor,
        its frame error rate and, by the liveness rule, up iff its own
        failure is over and every switch it touches is up."""
        live = not ref.failed and all(self.switches[s].up for s in ref.switches)
        rate = ref.spec.frame_error_rate if ref.error_rate is None else ref.error_rate
        for port, bw in zip(ref.ports, ref.base_bandwidths):
            port.set_bandwidth(bw * ref.bandwidth_factor)
            port.set_error_rate(rate, seed=self.config.seed)
            if live:
                port.recover()

    def fail_link(self, key: tuple) -> None:
        """Fail-stop both directions of a link (queued packets drop) until
        :meth:`restore_link` ends this, its own failure."""
        ref = self._link(key)
        ref.failed = True
        for port in ref.ports:
            port.fail()
        self.topology.bump_health_epoch()

    def restore_link(self, key: tuple) -> None:
        """End a link's own failure and impairment and return it to its
        as-built state: full bandwidth, the configured frame error rate,
        and up unless a switch it touches is still down."""
        ref = self._link(key)
        ref.failed = False
        ref.bandwidth_factor = 1.0
        ref.error_rate = None
        self._bring_up(ref)
        self.topology.bump_health_epoch()

    def degrade_link(self, key: tuple, factor: float) -> None:
        """Run a link at ``factor`` of its as-built bandwidth (0 < f <= 1)
        until :meth:`restore_link`, a switch recovery included."""
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"degrade factor must be in (0, 1], got {factor}")
        ref = self._link(key)
        ref.bandwidth_factor = factor
        for port, bw in zip(ref.ports, ref.base_bandwidths):
            port.set_bandwidth(bw * factor)
        # Bandwidth does not enter any cached candidate set, but bump the
        # topology epoch anyway so every fault-control primitive has the
        # same contract: mutate, then invalidate route caches.
        self.topology.bump_health_epoch()

    def set_link_error_rate(self, key: tuple, rate: float) -> None:
        """Set a link's instantaneous frame error rate (BER storm) until
        :meth:`restore_link`, a switch recovery included."""
        ref = self._link(key)
        for port in ref.ports:
            port.set_error_rate(rate, seed=self.config.seed)
        ref.error_rate = rate

    def fail_switch(self, switch_id: int) -> None:
        """Whole-switch failure: every attached wire goes down, and stays
        down until the switch is back (a ``restore_link`` meanwhile ends
        only the link's own failure)."""
        sw = self.switches[switch_id]
        if not sw.up:
            return
        sw.up = False
        for ref in self.links.values():
            if switch_id in ref.switches:
                for port in ref.ports:
                    port.fail()
        self.topology.bump_health_epoch()

    def restore_switch(self, switch_id: int) -> None:
        """Bring a failed switch back.  Each attached link keeps its own
        degradation or BER storm, and comes up unless its own failure is
        still in progress or its other switch is still down."""
        sw = self.switches[switch_id]
        if sw.up:
            return
        sw.up = True
        for ref in self.links.values():
            if switch_id in ref.switches:
                self._bring_up(ref)
        self.topology.bump_health_epoch()

    def links_down(self) -> List[tuple]:
        """Keys of all currently-failed links (sorted for determinism)."""
        return sorted(k for k, ref in self.links.items() if not ref.up)

    # -- accounting / invariants --------------------------------------------------

    def packets_injected(self) -> int:
        return sum(nic.pkts_injected for nic in self.nics)

    def packets_delivered(self) -> int:
        return sum(nic.pkts_delivered for nic in self.nics)

    def bytes_delivered(self) -> int:
        return sum(nic.bytes_delivered for nic in self.nics)

    def all_ports(self):
        """Every OutputPort in the fabric as ``(owner_label, port)`` pairs:
        ``("switch.3", port)`` for switch egress ports, ``("nic.7", port)``
        for NIC injection ports.  Deterministic order (switches then NICs,
        each in id order) — the canonical walk for per-port series."""
        for sw in self.switches:
            for port in sw.all_ports():
                yield f"switch.{sw.id}", port
        for nic in self.nics:
            yield f"nic.{nic.node}", nic.out_port

    def packets_dropped(self) -> int:
        """Packets discarded by faults (dead wires/switches, no-route).
        Always 0 on a healthy fabric."""
        total = sum(sw.pkts_dropped for sw in self.switches)
        total += sum(port.pkts_dropped for _, port in self.all_ports())
        return total

    def quiescence_snapshot(self) -> dict:
        """Structured view of everything still in flight right now.

        Plain data only (strings / numbers / lists / dicts), so it can
        cross a worker pipe or land in a result journal verbatim.  This
        is the single source of quiescence diagnostics: rendered by
        :meth:`_stuck_report` for ``assert_quiescent`` failures and
        attached to :class:`~repro.sim.SimStall` by the engine watchdog
        (the simulator's ``stall_diagnostics`` hook is registered at
        build time).
        """
        now = self.sim.now
        stuck = []
        deepest = None

        def port_entry(where, port):
            nonlocal deepest
            pkts = [p for q in port.queues for p in q]
            if not pkts and port.backlog == 0:
                return
            entry = {
                "where": where,
                "port": port.name or port.kind,
                "backlog_bytes": float(port.backlog),
                "queued_pkts": len(pkts),
            }
            if pkts:
                oldest = min(pkts, key=lambda p: (p.inject_time, p.pid))
                entry["oldest"] = {
                    "pid": oldest.pid,
                    "src": oldest.src,
                    "dst": oldest.dst,
                    "seq": oldest.seq,
                    "age_ns": now - oldest.inject_time,
                }
            if deepest is None or entry["queued_pkts"] > deepest["queued_pkts"]:
                deepest = {
                    "port": f"{where} port {entry['port']}",
                    "queued_pkts": entry["queued_pkts"],
                    "backlog_bytes": entry["backlog_bytes"],
                }
            stuck.append(entry)

        for sw in self.switches:
            for port in sw.all_ports():
                port_entry(f"switch {sw.id}", port)
        host_pending = []
        awaiting_ack = []
        for nic in self.nics:
            port_entry(f"nic {nic.node}", nic.out_port)
            pending = sum(s.pending_count for s in nic.pairs.values())
            if pending:
                host_pending.append({"nic": nic.node, "pending_pkts": pending})
            if nic.retrans is not None and nic.retrans.outstanding:
                keys = sorted(nic.retrans.outstanding)[:4]
                awaiting_ack.append(
                    {
                        "nic": nic.node,
                        "outstanding": len(nic.retrans.outstanding),
                        "oldest_keys": [list(k) for k in keys],
                    }
                )
        return {
            "now_ns": now,
            "injected": self.packets_injected(),
            "delivered": self.packets_delivered(),
            "dropped": self.packets_dropped(),
            "stuck": stuck,
            "deepest_voq": deepest,
            "host_pending": host_pending,
            "awaiting_ack": awaiting_ack,
        }

    def _stuck_report(self, limit: int = 12) -> str:
        """Where undelivered packets are parked right now (diagnostics for
        assert_quiescent failures, essential when debugging fault runs).
        Rendered from :meth:`quiescence_snapshot`."""
        snap = self.quiescence_snapshot()
        entries = []
        for e in snap["stuck"]:
            line = (
                f"  {e['where']} port {e['port']}: "
                f"backlog {e['backlog_bytes']:.0f}B, {e['queued_pkts']} queued"
            )
            oldest = e.get("oldest")
            if oldest:
                line += (
                    f", oldest pkt {oldest['pid']} ({oldest['src']}->"
                    f"{oldest['dst']}, seq {oldest['seq']}) "
                    f"age {oldest['age_ns']:.0f}ns"
                )
            entries.append(line)
        for h in snap["host_pending"]:
            entries.append(
                f"  nic {h['nic']}: {h['pending_pkts']} pkts pending in host memory"
            )
        for a in snap["awaiting_ack"]:
            keys = [tuple(k) for k in a["oldest_keys"]]
            entries.append(
                f"  nic {a['nic']}: {a['outstanding']} pkts "
                f"awaiting e2e ack/retransmit (mid, seq): {keys}"
            )
        if not entries:
            return ""
        shown = entries[:limit]
        if len(entries) > limit:
            shown.append(f"  ... and {len(entries) - limit} more locations")
        return "\nstuck packets:\n" + "\n".join(shown)

    def assert_quiescent(self) -> None:
        """After a drained run: everything injected must have arrived (or,
        on a faulted fabric, been accounted as dropped and re-sent) and
        every buffer credit must have been returned (packet conservation).
        On failure the error pinpoints where the stragglers are parked."""
        inj, dlv, drp = (
            self.packets_injected(),
            self.packets_delivered(),
            self.packets_dropped(),
        )
        if inj != dlv + drp:
            detail = f"injected {inj}, delivered {dlv}"
            if drp:
                detail += f", dropped by faults {drp}"
            raise AssertionError(f"packet loss: {detail}{self._stuck_report()}")
        for sw in self.switches:
            for port in sw.all_ports():
                if port.backlog != 0:
                    raise AssertionError(
                        f"residual backlog on {port.name}{self._stuck_report()}"
                    )
                for pool in port.credits:
                    if pool.in_use > 1e-9:
                        raise AssertionError(
                            f"leaked credits on {port.name}{self._stuck_report()}"
                        )
        for nic in self.nics:
            if nic.out_port.backlog != 0:
                raise AssertionError(
                    f"residual backlog on {nic.out_port.name}"
                    f"{self._stuck_report()}"
                )
            if nic.retrans is not None and nic.retrans.outstanding:
                raise AssertionError(
                    f"nic {nic.node} still has unacked packets"
                    f"{self._stuck_report()}"
                )

    def host_port(self, node: int) -> OutputPort:
        """The switch egress port feeding *node* (for telemetry hooks)."""
        return self.switches[self.topology.node_switch(node)].port_to_node[node]

    def node_distance(self, a: int, b: int) -> int:
        """Inter-switch hop count classification used by the paper's Fig. 4:
        1 = same switch, 2 = same group, 3 = different groups."""
        sa, sb = self.topology.node_switch(a), self.topology.node_switch(b)
        if sa == sb:
            return 1
        if self.topology.switch_group(sa) == self.topology.switch_group(sb):
            return 2
        return 3
