"""Generator-based simulation processes (SimPy-style, self-contained).

A process is a Python generator driven by the simulator.  The generator
may yield:

* a number — sleep that many nanoseconds;
* an :class:`~repro.sim.engine.Event` — wait until it triggers, receiving
  its value;
* another :class:`Process` — wait for it to finish, receiving its return
  value;
* a list (or tuple) of events and processes, or an :class:`AllOf` —
  wait until all of them trigger, receiving their values in order.

Returning from the generator (plain ``return x``) finishes the process;
``x`` becomes the value of the process's completion event so other
processes can ``result = yield proc``.

A process waits on one thing at a time and nothing cancels a wait, so
every wakeup resumes it: a wait carries no token to tell a live wakeup
from a stale one.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List

from .engine import Event, Simulator

__all__ = ["Process", "AllOf"]


class AllOf(Event):
    """Triggers once every event in *events* has triggered.

    The value is the list of the constituent events' values, in the order
    they were given.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self._events: List[Event] = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev.exception is not None:
            self.fail(ev.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self._events])


class Process:
    """Drives a generator through the simulator.

    ``yield process`` inside another process waits for completion, and
    :attr:`done_event` can be given callbacks directly.
    """

    __slots__ = ("sim", "_gen", "done_event", "_alive")

    def __init__(self, sim: Simulator, gen: Generator):
        if not hasattr(gen, "send"):
            raise TypeError(f"process target must be a generator, got {type(gen)!r}")
        self.sim = sim
        self._gen = gen
        self.done_event = Event(sim)
        self._alive = True
        sim.schedule(0.0, self._step, None, None)

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def exception(self):
        return self.done_event.exception

    # -- engine ------------------------------------------------------------

    def _on_wait_done(self, ev: Event) -> None:
        if ev.exception is not None:
            self._step(None, ev.exception)
        else:
            self._step(ev._value, None)

    def _step(self, value: Any, exc: Any) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.done_event.succeed(stop.value)
            return
        except Exception as err:  # propagate failures to waiters
            self._alive = False
            self.done_event.fail(err)
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            # a sleep: the resume is the timer event itself
            self.sim.schedule(target, self._step, None, None)
            return
        if isinstance(target, Process):
            ev: Event = target.done_event
        elif isinstance(target, Event):
            ev = target
        elif isinstance(target, (list, tuple)):
            ev = AllOf(self.sim, [t.done_event if isinstance(t, Process) else t for t in target])
        else:
            self._alive = False
            self.done_event.fail(
                TypeError(f"process yielded unsupported value: {target!r}")
            )
            return
        ev.add_callback(self._on_wait_done)
