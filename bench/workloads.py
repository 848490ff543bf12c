"""Seeded inputs for the benchmark workloads.

Every input is drawn from ``random.Random`` seeded with a string that names
the workload, the run seed and the position of the operation, so the same
seed gives the same configs and arguments however long a run lasts.  The
program sees only the generated configs and command-line arguments.
"""

import random

FMO_SITES = 7
FMO_T_FINAL = 12.0
FMO_TIME_POINTS = 81

SMALL_T_FINAL = 12.0
SMALL_TIME_POINTS = 41
# a loss-mode step costs about 1.3 explicit-sink steps (seven jump terms
# against four), so the loss half gets fewer points: both halves then cost
# about the same, and the median operation does not flip between them
SMALL_LOSS_TIME_POINTS = 31

DIMER_GT_STEPS = 97
CMAX_N_MAX = 7
FN_N_MAX = 9


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def fmo7_config(seed: int, index: int) -> dict:
    """7-site network: a nearest-neighbour chain plus two weak long-range
    couplings, explicit sink on the last site, cap 2 (d = 45)."""
    rng = _rng("transport_fmo7", seed, index)
    m = FMO_SITES
    couplings = [[i, i + 1, rng.uniform(0.8, 1.2)] for i in range(m - 1)]
    far = [(i, j) for i in range(m) for j in range(i + 2, m)]
    for i, j in sorted(rng.sample(far, 2)):
        couplings.append([i, j, rng.uniform(0.05, 0.15)])
    return {
        "sites": m,
        "energies": [rng.uniform(-0.3, 0.3) for _ in range(m)],
        "couplings": couplings,
        "dephasing": rng.uniform(0.4, 0.6),
        "exit_site": m - 1,
        "sink_rate": rng.uniform(0.8, 1.2),
        "entry_site": 0,
        "excitation_cap": 2,
        "sink_mode": "explicit",
        "alphas": [rng.uniform(0.1, 0.4)],
        "t_final": FMO_T_FINAL,
        "time_points": FMO_TIME_POINTS,
    }


def small_config(seed: int, index: int) -> dict:
    """3-site chain shaped like ``network_demo.json``.  Even positions have
    an explicit sink (d = 15); odd positions use ``"sink_mode": "loss"``
    with a relaxation rate (d = 10) on a coarser grid."""
    rng = _rng("transport_small_fixed", seed, index)
    config = {
        "sites": 3,
        "energies": [rng.uniform(-0.2, 0.2) for _ in range(3)],
        "couplings": [[0, 1, rng.uniform(0.8, 1.2)], [1, 2, rng.uniform(0.8, 1.2)]],
        "dephasing": rng.uniform(0.3, 0.7),
        "exit_site": 2,
        "sink_rate": rng.uniform(0.8, 1.2),
        "entry_site": 0,
        "excitation_cap": 2,
        "sink_mode": "explicit",
        "alphas": [rng.uniform(0.1, 0.4)],
        "t_final": SMALL_T_FINAL,
        "time_points": SMALL_TIME_POINTS,
    }
    if index % 2:
        config["sink_mode"] = "loss"
        config["relaxation"] = rng.uniform(0.02, 0.1)
        config["time_points"] = SMALL_LOSS_TIME_POINTS
    return config


def dimer_argv(seed: int, index: int) -> list:
    rng = _rng("dimer", seed, index)
    return ["dimer", "--alpha", repr(rng.uniform(0.2, 0.5)),
            "--gt-steps", str(DIMER_GT_STEPS)]


def cmax_argv(seed: int, index: int) -> list:
    rng = _rng("cmax-scan", seed, index)
    alphas = sorted(rng.uniform(0.1, 0.8) for _ in range(4))
    return ["cmax-scan", "--alpha", *(repr(a) for a in alphas),
            "--n-max", str(CMAX_N_MAX)]


def fn_argv() -> list:
    return ["fn-table", "--n-max", str(FN_N_MAX)]
