"""Workloads: congestors, microbenchmarks, application proxies, placement."""

from .allocation import ALLOCATION_POLICIES, split_nodes, victim_count
from .apps import APP_FACTORIES, fft3d, hpcg, lammps, milc, resnet_proxy
from .burst import bursty_incast_congestor
from .ember import grid_dims, halo3d, incast_bench, sweep3d
from .gpcnet import (
    AGGRESSOR_MESSAGE_BYTES,
    alltoall_congestor,
    incast_congestor,
)
from .microbench import (
    allreduce_bench,
    alltoall_bench,
    barrier_bench,
    broadcast_bench,
    pingpong,
)
from .noise import (
    gpcnet_allreduce,
    gpcnet_report,
    random_ring_bandwidth,
    random_ring_latency,
)
from .runner import WorkloadResult, congestion_impact, run_workload
from .tailbench import TAILBENCH_APPS, TailbenchApp, tailbench_client_server

__all__ = [
    "split_nodes",
    "victim_count",
    "ALLOCATION_POLICIES",
    "run_workload",
    "congestion_impact",
    "WorkloadResult",
    "incast_congestor",
    "alltoall_congestor",
    "AGGRESSOR_MESSAGE_BYTES",
    "bursty_incast_congestor",
    "pingpong",
    "allreduce_bench",
    "alltoall_bench",
    "barrier_bench",
    "broadcast_bench",
    "halo3d",
    "sweep3d",
    "incast_bench",
    "grid_dims",
    "milc",
    "hpcg",
    "lammps",
    "fft3d",
    "resnet_proxy",
    "APP_FACTORIES",
    "TailbenchApp",
    "TAILBENCH_APPS",
    "tailbench_client_server",
    "gpcnet_report",
    "gpcnet_allreduce",
    "random_ring_latency",
    "random_ring_bandwidth",
]
