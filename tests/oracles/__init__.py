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
"""
