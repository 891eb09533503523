"""MPI-like communicator on top of the packet fabric.

:class:`MpiWorld` binds a set of ranks to fabric nodes (possibly several
ranks per node, the paper's PPN knob) and provides each rank with
point-to-point operations, tag matching, and the collectives from
:mod:`repro.mpi.collectives`.  Rank code is written as simulator
processes:

>>> from repro.systems import malbec_mini
>>> fabric = malbec_mini().build()
>>> world = MpiWorld(fabric, nodes=list(range(8)))
>>> def main(rank):
...     if rank.rank == 0:
...         yield rank.send(1, 1024, tag=7)
...     elif rank.rank == 1:
...         msg = yield rank.recv(0, tag=7)
>>> procs = world.spawn(main)
>>> fabric.sim.run()

Matching is FIFO per (source rank, tag): messages between a pair with
equal tags are matched in arrival order (MPI's non-overtaking rule; the
fabric may reorder packets, but message *completion* is what matches).

Send semantics: ``isend`` returns an event that triggers when the whole
message has arrived at the destination NIC (a conservative rendezvous-
like completion that needs no extra protocol traffic).  Eager buffering
would only make victims *less* sensitive to congestion, so this choice
is the faithful one for the paper's congestion experiments.

A send allocates no closure: ``isend`` and ``put`` schedule the bound
:meth:`MpiWorld._inject` with the send's arguments, and the send's
completion event rides on the message, in ``Message.meta``, which this
module owns for every message it sends.  The NIC clears the one-shot
``on_complete`` (:meth:`MpiWorld._completed`) before calling it, and
:meth:`MpiWorld._arrive` clears ``meta`` before it triggers the event,
so a finished message is freed by reference count, not by the cyclic
collector.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.fabric import Fabric
from ..network.packet import Message
from ..sim import Event, Process
from . import collectives as _coll
from .software_stack import StackLayer, layer as _layer

__all__ = ["MpiWorld", "Rank", "TAG_TO_OP"]

#: Collective wire-tag prefixes -> operation names, used to route an
#: operation's packets into a per-operation traffic class (§II-E:
#: "communication libraries could even change traffic classes at a
#: per-message granularity ... MPI could assign different collective
#: operations to different traffic classes").
TAG_TO_OP = {
    "bar": "barrier",
    "ar": "allreduce",
    "rs": "allreduce",
    "ag": "allreduce",
    "a2a": "alltoall",
    "bc": "bcast",
    "gat": "allgather",
    "red": "reduce",
    "sca": "scatter",
    "gth": "gather",
    "rsF": "reduce_scatter",
    "rsH": "reduce_scatter",
    "rsU": "reduce_scatter",
    "ring": "ring_allreduce",
    "p2p": "p2p",
}


class _Matcher:
    """Per-rank tag matcher: FIFO per (src_rank, tag) key."""

    __slots__ = ("sim", "arrived", "waiting")

    def __init__(self, sim):
        self.sim = sim
        self.arrived: Dict[Tuple, deque] = {}
        self.waiting: Dict[Tuple, deque] = {}

    def deliver(self, key: Tuple, msg: Message) -> None:
        waiters = self.waiting.get(key)
        if waiters:
            waiters.popleft().succeed(msg)
            if not waiters:
                del self.waiting[key]
        else:
            self.arrived.setdefault(key, deque()).append(msg)

    def expect(self, key: Tuple) -> Event:
        ev = Event(self.sim)
        queue = self.arrived.get(key)
        if queue:
            ev.succeed(queue.popleft())
            if not queue:
                del self.arrived[key]
        else:
            self.waiting.setdefault(key, deque()).append(ev)
        return ev


class Rank:
    """One MPI rank: the object rank code talks to."""

    __slots__ = ("world", "rank", "node", "_coll_seq")

    def __init__(self, world: "MpiWorld", rank: int, node: int):
        self.world = world
        self.rank = rank
        self.node = node
        self._coll_seq = 0

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def sim(self):
        return self.world.fabric.sim

    # -- point to point ------------------------------------------------------

    def isend(self, dst_rank: int, nbytes: int, tag=0) -> Event:
        """Non-blocking send; event fires when the message has fully
        arrived at the destination (see module docstring)."""
        return self._send(
            dst_rank, nbytes, self.world.tc_for(tag), ("p2p", self.rank, dst_rank, tag)
        )

    def send(self, dst_rank: int, nbytes: int, tag=0):
        """Blocking send (yield it): completes when delivered."""
        return self.isend(dst_rank, nbytes, tag)

    def recv(self, src_rank: int, tag=0) -> Event:
        """Yieldable event whose value is the matched Message."""
        return self.world._matchers[self.rank].expect(("p2p", src_rank, self.rank, tag))

    def put(self, dst_rank: int, nbytes: int) -> Event:
        """One-sided put (MPI_Put): no matching at the target."""
        return self._send(dst_rank, nbytes, self.world.tc, None)

    def _send(self, dst_rank: int, nbytes: int, tc: int, tag) -> Event:
        world = self.world
        done = Event(self.sim)
        # software send overhead before the NIC sees the message
        self.sim.schedule(
            world.stack.overhead_ns,
            world._inject,
            self.node,
            world.nodes[dst_rank],
            nbytes,
            tc,
            tag,
            done,
        )
        return done

    def sendrecv(self, dst_rank: int, src_rank: int, nbytes: int, tag=0):
        """Generator implementing MPI_Sendrecv (yield from it)."""
        send_ev = self.isend(dst_rank, nbytes, tag)
        msg = yield self.recv(src_rank, tag)
        yield send_ev
        return msg

    def compute(self, ns: float) -> float:
        """A pure compute phase (yield the returned delay)."""
        return ns

    # -- collectives (generators; use ``yield from``) ---------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def barrier(self):
        return _coll.barrier(self)

    def allreduce(self, nbytes: int):
        return _coll.allreduce(self, nbytes)

    def alltoall(self, nbytes_per_rank: int):
        return _coll.alltoall(self, nbytes_per_rank)

    def bcast(self, nbytes: int, root: int = 0):
        return _coll.bcast(self, nbytes, root)

    def allgather(self, nbytes: int):
        return _coll.allgather(self, nbytes)

    def reduce(self, nbytes: int, root: int = 0):
        return _coll.reduce(self, nbytes, root)

    def scatter(self, nbytes_per_rank: int, root: int = 0):
        return _coll.scatter(self, nbytes_per_rank, root)

    def gather(self, nbytes_per_rank: int, root: int = 0):
        return _coll.gather(self, nbytes_per_rank, root)

    def reduce_scatter(self, nbytes_total: int):
        return _coll.reduce_scatter(self, nbytes_total)

    def ring_allreduce(self, nbytes: int):
        return _coll.ring_allreduce(self, nbytes)


class MpiWorld:
    """A job: *size* ranks mapped onto fabric *nodes*.

    ``nodes[i]`` is the fabric node hosting rank *i*; repeating a node
    models multiple processes per node (PPN).  ``stack`` selects the
    software layer whose per-message overhead is charged on every
    operation (default "mpi"); ``tc`` is the traffic class of all the
    job's traffic.
    """

    def __init__(
        self,
        fabric: Fabric,
        nodes: Sequence[int],
        stack: str = "mpi",
        tc: int = 0,
        tc_map: Optional[Dict[str, int]] = None,
    ):
        if not nodes:
            raise ValueError("world needs at least one rank")
        for n in nodes:
            if not (0 <= n < fabric.topology.n_nodes):
                raise ValueError(f"node {n} outside the fabric")
        self.fabric = fabric
        self.nodes: List[int] = list(nodes)
        self.size = len(nodes)
        self.stack: StackLayer = _layer(stack)
        self.tc = tc
        #: optional per-operation traffic classes (§II-E), e.g.
        #: ``{"allreduce": 1, "barrier": 1}`` keeps latency-sensitive
        #: collectives in a high-priority class while bulk traffic stays
        #: in ``tc``.  Keys are operation names (see TAG_TO_OP values).
        self.tc_map = dict(tc_map) if tc_map else None
        if self.tc_map:
            for op, cls in self.tc_map.items():
                if not (0 <= cls < len(fabric.config.classes)):
                    raise ValueError(f"tc_map[{op!r}] = {cls} not configured")
        self.ranks = [Rank(self, i, n) for i, n in enumerate(self.nodes)]
        self._matchers = [_Matcher(fabric.sim) for _ in range(self.size)]

    def tc_for(self, tag) -> int:
        """Traffic class for a message, honouring per-operation mapping."""
        if self.tc_map and isinstance(tag, tuple) and tag:
            op = TAG_TO_OP.get(tag[0])
            if op is not None and op in self.tc_map:
                return self.tc_map[op]
        return self.tc

    def _inject(self, src: int, dst: int, nbytes: int, tc: int, tag, done: Event) -> None:
        """Send overhead paid: hand the message to the NIC.  *tag* is
        the wire tag of an ``isend`` and None for a ``put``."""
        msg = self.fabric.send(src, dst, nbytes, tc=tc, tag=tag, on_complete=self._completed)
        msg.meta = done

    def _completed(self, msg: Message) -> None:
        """The NIC has the whole message: charge receive-side overhead."""
        self.fabric.sim.schedule(self.stack.overhead_ns, self._arrive, msg)

    def _arrive(self, msg: Message) -> None:
        """Match an ``isend`` at its destination rank, then complete the
        send, letting go of its event first."""
        done, msg.meta = msg.meta, None
        tag = msg.tag
        if tag is not None:
            self._matchers[tag[2]].deliver(tag, msg)
        done.succeed(msg)

    def spawn(self, main: Callable, *args) -> List[Process]:
        """Start ``main(rank, *args)`` as a process for every rank."""
        return [self.fabric.sim.process(main(r, *args)) for r in self.ranks]

    def run_collective(self, op: Callable, *args) -> List[Process]:
        """Convenience: every rank runs one collective (e.g. measurement)."""
        return self.spawn(lambda r: op(r, *args))
