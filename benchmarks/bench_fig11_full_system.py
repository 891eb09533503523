"""Figure 11: congestion impact on applications at full system scale.

Paper (all 1024 Shandy nodes, random allocation — the worst case from
Fig. 10 — with 25/50/75% of nodes given to the aggressor): even at full
scale the congestion control protects applications; the worst observed
slowdown is 3.55x (LAMMPS under a 75% incast aggressor), and all-to-all
aggressors stay harmless.

Bench scale: every node of shandy-mini (96 nodes, same 8-group shape).
"""

from functools import partial

import numpy as np

from conftest import get_systems, run_once, save_result
from repro.analysis import render_heatmap
from repro.sweeps import run_heatmap
from repro.workloads import (
    alltoall_congestor,
    fft3d,
    hpcg,
    incast_congestor,
    lammps,
    milc,
    resnet_proxy,
)


def _victims():
    return {
        "MILC": partial(milc, iterations=3),
        "HPCG": partial(hpcg, iterations=3),
        "LAMMPS": partial(lammps, iterations=3),
        "FFT": partial(fft3d, iterations=3),
        "resnet": partial(resnet_proxy, iterations=3),
    }


def _rows():
    out = []
    for cong_name, cong in (("a2a", alltoall_congestor), ("incast", incast_congestor)):
        for agg_frac, label in ((0.25, "25%"), (0.5, "50%"), (0.75, "75%")):
            out.append((f"{cong_name}-{label}", cong, 1.0 - agg_frac))
    return out


def test_fig11_full_system_applications(benchmark, report):
    _, _, shandy = get_systems()
    config = shandy()
    n = config.params.n_nodes

    def run_grid():
        return run_heatmap(
            config, _victims(), list(range(n)), policy="random", rows=_rows(),
            jobs=None,
        )

    rows, cols, values = run_once(benchmark, run_grid)
    table = render_heatmap(
        rows,
        cols,
        values,
        title=f"Fig. 11 — application impact on all {n} nodes of {config.name} (random)",
    )
    report(table)
    save_result("fig11_full_system", table)

    arr = np.array(values)
    # Paper: worst case 3.55x — congestion control holds at full scale.
    assert arr.max() < 4.0
    # All-to-all rows stay essentially flat.
    assert arr[:3].max() < 1.6
