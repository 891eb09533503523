"""Congestion-impact sweep grids (Figs. 8-11) as a reusable library.

Defines the victim column set (a trimmed version of the paper's Fig. 9
columns — one small and one large message size per microbenchmark,
every application), the aggressor rows, and the grid runner shared by
the figure benchmarks and the ``heatmap``/``allocation`` CLI
subcommands.

Every victim/congestor factory is a ``functools.partial`` over a
module-level function (never a lambda) so a grid cell pickles to a
stable content fingerprint, which is what lets a journaled sweep
resume.  ``run_heatmap(..., jobs=N)``
fans the independent cells out and reassembles the same row-major grid
a serial run produces, cell for cell.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .network.units import KiB, MS
from .parallel import run_cells
from .workloads import (
    TAILBENCH_APPS,
    allreduce_bench,
    alltoall_bench,
    alltoall_congestor,
    barrier_bench,
    broadcast_bench,
    congestion_impact,
    fft3d,
    halo3d,
    hpcg,
    incast_bench,
    incast_congestor,
    lammps,
    milc,
    pingpong,
    resnet_proxy,
    split_nodes,
    sweep3d,
    tailbench_client_server,
    victim_count,
)

__all__ = [
    "MAX_NS",
    "app_victims",
    "micro_victims",
    "aggressor_rows",
    "run_heatmap",
]

MAX_NS = 400 * MS
ITER = 6


def app_victims() -> Dict[str, Callable]:
    """Table I victims (HPC + datacenter), trimmed iteration counts."""
    return {
        "MILC": partial(milc, iterations=3),
        "HPCG": partial(hpcg, iterations=3),
        "LAMMPS": partial(lammps, iterations=3),
        "FFT": partial(fft3d, iterations=3),
        "resnet": partial(resnet_proxy, iterations=3),
        "silo": partial(tailbench_client_server, TAILBENCH_APPS["silo"], n_requests=8),
        "sphinx": partial(tailbench_client_server, TAILBENCH_APPS["sphinx"], n_requests=4),
        "xapian": partial(tailbench_client_server, TAILBENCH_APPS["xapian"], n_requests=8),
        "img-dnn": partial(tailbench_client_server, TAILBENCH_APPS["img-dnn"], n_requests=8),
    }


def micro_victims() -> Dict[str, Callable]:
    """The paper's microbenchmark columns, one small + one large size."""
    return {
        "pingpong-8B": partial(pingpong, 8, iterations=ITER),
        "pingpong-128K": partial(pingpong, 128 * KiB, iterations=ITER),
        "allreduce-8B": partial(allreduce_bench, 8, iterations=ITER),
        "allreduce-128K": partial(allreduce_bench, 128 * KiB, iterations=4),
        "alltoall-8B": partial(alltoall_bench, 8, iterations=ITER),
        "alltoall-128K": partial(alltoall_bench, 128 * KiB, iterations=2),
        "barrier": partial(barrier_bench, iterations=ITER),
        "bcast-8B": partial(broadcast_bench, 8, iterations=ITER),
        "halo3d-1K": partial(halo3d, 1 * KiB, iterations=ITER),
        "sweep3d-512B": partial(sweep3d, 512, iterations=ITER),
        "incast-1K": partial(incast_bench, 1 * KiB, iterations=4),
    }


def aggressor_rows() -> List[Tuple[str, Callable, float]]:
    """(label, congestor factory, victim fraction) — the paper's 6 rows."""
    rows = []
    for cong_name, cong in (("a2a", alltoall_congestor), ("incast", incast_congestor)):
        for agg_frac, label in ((0.1, "10%"), (0.5, "50%"), (0.9, "90%")):
            rows.append((f"{cong_name}-{label}", cong, 1.0 - agg_frac))
    return rows


def _heatmap_cell(cell) -> float:
    """One grid cell (module-level: the journal keys results by its name).

    Factories travel in the cell and are instantiated *inside* the
    worker — workload instances are generators, which cannot be pickled
    into the journal's cell fingerprint."""
    config, victim_nodes, victim_factory, aggressor_nodes, congestor_factory, ppn, max_ns = cell
    result = congestion_impact(
        config,
        victim_nodes,
        victim_factory(),
        aggressor_nodes,
        congestor_factory(),
        aggressor_ppn=ppn,
        max_ns=max_ns,
    )
    return result["impact"]


def run_heatmap(
    config,
    victims: Dict[str, Callable],
    nodes: Sequence[int],
    policy: str = "linear",
    ppn: int = 1,
    rows: Sequence[Tuple[str, Callable, float]] = None,
    seed: int = 3,
    max_ns: float = MAX_NS,
    jobs: Optional[int] = 1,
    resilience=None,
) -> Tuple[List[str], List[str], List[List[float]]]:
    """One Fig. 9-style heatmap: rows x victim columns of C = Tc/Ti.

    Cells are independent simulations; *jobs* fans them out through
    :func:`repro.parallel.run_cells` (``None`` = all cores).  Cells are
    built row-major and the flat result list is reshaped back, so the
    grid is identical to a serial run regardless of *jobs*.

    *resilience* (a :class:`repro.resilient.ResilienceConfig`) turns on
    supervision for the grid: hung/killed cells are retried with
    deterministic backoff, cells whose budget runs out appear in the
    grid as :class:`repro.resilient.CellFailure` holes, and a journaled
    sweep can resume after a crash computing only the missing cells.
    """
    rows = list(rows) if rows is not None else aggressor_rows()
    col_labels = list(victims)
    cells = []
    for row_label, congestor_factory, victim_frac in rows:
        victim_nodes, aggressor_nodes = split_nodes(
            list(nodes), victim_count(len(nodes), victim_frac), policy, seed=seed
        )
        for name in col_labels:
            cells.append(
                (config, victim_nodes, victims[name], aggressor_nodes,
                 congestor_factory, ppn, max_ns)
            )
    flat = run_cells(_heatmap_cell, cells, jobs=jobs, resilience=resilience)
    ncols = len(col_labels)
    values = [flat[i * ncols:(i + 1) * ncols] for i in range(len(rows))]
    return [r[0] for r in rows], col_labels, values
