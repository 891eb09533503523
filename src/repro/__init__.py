"""repro — a packet-level reproduction of the SC'20 paper
"An In-Depth Analysis of the Slingshot Interconnect" (De Sensi et al.).

The package is organized as the paper's system stack:

* :mod:`repro.sim` — discrete-event simulation engine (substrate);
* :mod:`repro.network` — packets, switches, NICs, dragonfly fabrics;
* :mod:`repro.core` — Slingshot's contributions: Rosetta, adaptive
  routing, congestion control, traffic classes, HPC Ethernet;
* :mod:`repro.flowsim` — the fluid traffic-class bandwidth model;
* :mod:`repro.mpi` — MPI-like layer (matching, collectives, stack model);
* :mod:`repro.workloads` — GPCNet congestors, ember, app proxies,
  Tailbench, allocation policies, the experiment runner;
* :mod:`repro.analysis` — sample summaries and paper-style reporting;
* :mod:`repro.systems` — the paper's machines (Crystal, Malbec, Shandy).

Quickstart:

>>> from repro.systems import malbec_mini
>>> from repro.mpi import MpiWorld
>>> fabric = malbec_mini().build()
>>> world = MpiWorld(fabric, nodes=list(range(16)))
>>> def job(rank):
...     yield from rank.allreduce(8)
>>> _ = world.spawn(job)
>>> fabric.sim.run()
"""

from . import analysis, core, flowsim, mpi, network, sim, systems, workloads
from .network import Fabric, FabricConfig
from .systems import crystal, malbec, shandy

__version__ = "1.0.0"

__all__ = [
    "sim",
    "network",
    "core",
    "flowsim",
    "mpi",
    "workloads",
    "analysis",
    "systems",
    "Fabric",
    "FabricConfig",
    "crystal",
    "malbec",
    "shandy",
    "__version__",
]
