"""Reference oracles for the equivalence suites.

Each production layer in ``src/`` has exactly one implementation.  The
straight-line specifications it is pinned against live here, test-only,
and are injected through seams the production code already has:

* :mod:`.heap_sim` — a binary-heap :class:`~repro.sim.Simulator`
  subclass, passed in via ``FabricConfig.build(sim=HeapSimulator())``;
* :mod:`.delivery` — ``ReferenceNIC``/``ReferenceOutputPort``, swapped in
  by :func:`~.delivery.reference_delivery`, which patches the classes
  ``repro.network.fabric`` builds;
* :mod:`.routing` — the table-free ``ReferenceAdaptiveRouter`` and
  ``ReferenceValiantRouter``, passed in via ``FabricConfig.router_factory``;
* :mod:`.buffers` — ``ReferencePool``, a credit pool whose release walks
  every waiter, handed to ports through ``OutputPort(pools=...)``.

Two more are closed-form checks that need no seam:

* :mod:`.maxmin` — ``MaxMinNetwork``, max-min fair water-filling over
  capacitated links, which the packet simulator's rates are
  cross-validated against (``tests/test_crossvalidation.py``);
* :mod:`.faults` — ``ends_restored``, whether every fault of a
  :class:`~repro.faults.FaultSchedule` is undone by its end: the premise
  the fault-recovery tests assert before they run a schedule.
"""
