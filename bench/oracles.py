"""Independent reference computations and the output checks built on them.

Nothing here imports ``excitonsim``.  Every expected value is computed from
the generated inputs alone, or follows from a property the method must
have.  Each ``check_*`` function returns a list of failure messages; an
empty list means the output passed.
"""

import math

import numpy as np
import scipy.linalg

# Absolute tolerance on captured populations.  The adaptive integrator runs
# at rtol 1e-9, and fixed-step RK4 agrees with the exact exponential to
# ~1e-14 on these grids, so 1e-8 leaves room for the integrator and still
# rejects a perturbation of 1e-6.
EFFICIENCY_TOL = 1e-8
# Absolute tolerance on projected concurrence series (values up to 1).
SERIES_TOL = 1e-7
# Dimer columns are closed forms evaluated in double precision.
DIMER_TOL = 1e-10
# cmax-scan values are as small as ~4e-7 for the amplitudes generated, so
# the tolerance is relative.
CMAX_RTOL = 1e-6
FN_RTOL = 1e-6
FN_REFERENCE_RTOL = 1e-12


# --------------------------------------------------------------------------
# single-excitation (Haken-Strobl) master equation

def _per_site(value, m):
    if value is None:
        return [0.0] * m
    if isinstance(value, (int, float)):
        return [float(value)] * m
    return [float(v) for v in value]


def single_excitation_generator(config: dict):
    """Liouvillian of the network restricted to at most one excitation.

    Basis: 0 is the vacuum, 1..m the sites, m+1 the sink in explicit mode.
    Acts on the row-major vectorisation of rho.  Returns (L, dimension).
    """
    m = int(config["sites"])
    explicit = config.get("sink_mode", "explicit") == "explicit"
    d = m + 2 if explicit else m + 1
    h = np.zeros((d, d), dtype=complex)
    for i, e in enumerate(config.get("energies", [0.0] * m)):
        h[1 + i, 1 + i] = e
    for i, j, g in config["couplings"]:
        h[1 + i, 1 + j] = g
        h[1 + j, 1 + i] = np.conj(g)
    jumps = []
    for i, gamma in enumerate(_per_site(config.get("dephasing"), m)):
        # rate 2*gamma on the number operator: 0-1 coherence decays as e^(-gamma t)
        c = np.zeros((d, d))
        c[1 + i, 1 + i] = math.sqrt(2.0 * gamma)
        jumps.append(c)
    for i, rate in enumerate(_per_site(config.get("relaxation"), m)):
        c = np.zeros((d, d))
        c[0, 1 + i] = math.sqrt(rate)
        jumps.append(c)
    exit_ = 1 + int(config["exit_site"])
    sink_rate = float(config.get("sink_rate", 0.0))
    eye = np.eye(d)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    if explicit:
        c = np.zeros((d, d))
        c[m + 1, exit_] = math.sqrt(sink_rate)
        jumps.append(c)
    else:
        loss = np.zeros((d, d))
        loss[exit_, exit_] = sink_rate
        liou -= 0.5 * (np.kron(loss, eye) + np.kron(eye, loss.T))
    for c in jumps:
        cdc = c.T @ c
        liou += np.kron(c, c)
        liou -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return liou, d


def single_excitation_series(config: dict, times) -> np.ndarray:
    """States exp(L t) rho0 on a uniform grid from 0, for rho0 = |entry><entry|.

    Steps with one exact propagator exp(L dt); shape (T, d, d).
    """
    liou, d = single_excitation_generator(config)
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0 or np.ptp(np.diff(times)) > 1e-12 * times[-1]:
        raise ValueError("the oracle needs a uniform grid starting at 0")
    step = scipy.linalg.expm(liou * (times[-1] / (len(times) - 1)))
    vec = np.zeros(d * d, dtype=complex)
    entry = 1 + int(config.get("entry_site", 0))
    vec[entry * d + entry] = 1.0
    out = [vec]
    for _ in times[1:]:
        vec = step @ vec
        out.append(vec)
    return np.array(out).reshape(len(times), d, d)


def captured_fraction(config: dict, rho: np.ndarray) -> float:
    """Share of one excitation captured: sink population, or lost trace."""
    if config.get("sink_mode", "explicit") == "explicit":
        return float(rho[-1, -1].real)
    return 1.0 - float(np.trace(rho).real)


def projected_pair_concurrence(config: dict, rho: np.ndarray) -> float:
    """Entry/exit pair concurrence of the single-excitation projection.

    The pair state has no |11> component, so its Wootters concurrence is
    2|rho_(10,01)| of the normalised pair state (``selftest.py`` checks this
    against the literal Wootters formula).
    """
    weight = float(np.trace(rho).real - rho[0, 0].real)
    if weight < 1e-30:
        return 0.0
    e = 1 + int(config.get("entry_site", 0))
    x = 1 + int(config["exit_site"])
    return 2.0 * abs(rho[e, x]) / weight


def leveled_weights(alpha: float, n_levels: int) -> np.ndarray:
    """Squared amplitudes of the normalised n-level coherent expansion."""
    w = np.array([alpha ** (2 * n) / math.factorial(n) for n in range(n_levels)])
    return w / w.sum()


def time_grid(config: dict) -> np.ndarray:
    return np.linspace(0.0, float(config["t_final"]), int(config["time_points"]))


def _near(actual, expected, tol) -> bool:
    """Elementwise |actual - expected| <= tol; false for NaN, None or a
    shape mismatch, so a broken output cannot pass by comparing false."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= tol))


def check_transport(config: dict, payload: dict) -> list:
    """Checks of a ``transport --format json`` result against the
    single-excitation oracle and the sector properties of the method."""
    failures = []
    times = time_grid(config)
    states = single_excitation_series(config, times)
    oracle_p1 = np.array([projected_pair_concurrence(config, r) for r in states])
    captured = captured_fraction(config, states[-1])
    cap = int(config.get("excitation_cap", 2))
    explicit = config.get("sink_mode", "explicit") == "explicit"
    relaxing = any(_per_site(config.get("relaxation"), int(config["sites"])))
    reports = payload["reports"]
    if len(reports) != len(config["alphas"]):
        return [f"{len(reports)} reports for {len(config['alphas'])} amplitudes"]
    for alpha, rep in zip(config["alphas"], reports):
        tag = f"alpha={alpha:.4g}"
        if rep["alpha"] != alpha or not _near(rep["times"], times, 1e-12):
            failures.append(f"{tag}: report amplitude or time grid differs from the config")
            continue
        expected = leveled_weights(alpha, cap + 1)[1] * captured
        if not _near(rep["efficiency_cap1"], expected, EFFICIENCY_TOL):
            failures.append(f"{tag}: efficiency_cap1 {rep['efficiency_cap1']!r} != "
                            f"single-excitation oracle {expected!r}")
        if not _near(rep["efficiency_restricted"], rep["efficiency_cap1"], EFFICIENCY_TOL):
            failures.append(f"{tag}: efficiency_restricted != efficiency_cap1")
        # the two-excitation sector can deliver at most two excitations
        if not _near(rep["efficiency_full"], rep["efficiency_restricted"],
                     rep["residual_bound"] + EFFICIENCY_TOL):
            failures.append(f"{tag}: |efficiency_full - efficiency_restricted| "
                            "exceeds residual_bound")
        p1 = np.asarray(rep["concurrence_p1"], dtype=float)
        p01 = np.asarray(rep["concurrence_p01"], dtype=float)
        # the restricted run starts with no two-excitation sector, so its
        # single-excitation series is the oracle's, whatever alpha is
        if not _near(rep["concurrence_p1_restricted"], oracle_p1, SERIES_TOL):
            failures.append(f"{tag}: concurrence_p1_restricted differs from the oracle")
        # without relaxation nothing feeds sector 1 from sector 2, so the
        # full run's single-excitation series does not depend on alpha either
        if not relaxing and not _near(p1, oracle_p1, SERIES_TOL):
            failures.append(f"{tag}: concurrence_p1 depends on alpha")
        # C = 2|rho_(10,01)| / weight, and admitting the vacuum only adds weight
        if p01.shape != times.shape or not np.all(p01 <= p1 + SERIES_TOL):
            failures.append(f"{tag}: concurrence_p01 exceeds concurrence_p1")
        # with sector weights fixed in time, the vacuum dilutes by a constant
        elif explicit and not relaxing:
            ratio = alpha ** 2 / (1.0 + alpha ** 2)
            if not _near(p01.max(), p1.max() * ratio, SERIES_TOL):
                failures.append(f"{tag}: max concurrence_p01 != max concurrence_p1 "
                                "* |a|^2/(1+|a|^2)")
    return failures


# --------------------------------------------------------------------------
# two-mode closed forms

def closed_form_concurrence(alpha: float, n_levels: int, gt: float) -> float:
    """Concurrence of |alpha>|0> truncated to k+m < N and exchange-evolved.

    The evolved amplitudes are c_km ~ (a cos gt)^k (i a sin gt)^m / sqrt(k! m!)
    for k+m < N.  C = 2 sqrt(e2) with e2 the second elementary symmetric
    polynomial of the normalised squared singular values, summed from
    pairwise products (the (sum s)^2 - sum s^2 form cancels catastrophically).
    """
    k = np.arange(n_levels)
    fact = np.sqrt([float(math.factorial(int(n))) for n in k])
    row = (alpha * math.cos(gt)) ** k / fact
    col = (1j * alpha * math.sin(gt)) ** k / fact
    coeff = np.outer(row, col) * (k[:, None] + k[None, :] < n_levels)
    s = np.linalg.svd(coeff, compute_uv=False) ** 2
    s = s / s.sum()
    e2 = float(np.sum(np.triu(np.outer(s, s), 1)))
    return 2.0 * math.sqrt(e2)


def fn_closed_form(n_levels: int) -> float:
    """Leading small-amplitude coefficient F_N = 2 sqrt((1 - 2^(1-N)) / N!)."""
    return 2.0 * math.sqrt((1.0 - 2.0 ** (1 - n_levels)) / math.factorial(n_levels))


def _column(payload, name):
    return [row[payload["columns"].index(name)] for row in payload["rows"]]


def check_dimer(alpha: float, gt_steps: int, payload: dict) -> list:
    gts = np.linspace(0.0, 2.0 * np.pi, gt_steps)
    if not _near(_column(payload, "gt"), gts, 1e-12):
        return ["dimer: phase grid differs from --gt-steps"]
    sin2 = np.abs(np.sin(2.0 * gts))
    diluted = alpha ** 2 / (1.0 + alpha ** 2) * sin2
    # the truncated input evolves exactly, so the full-state value is the
    # concurrence of the truncated product state: the truncation level
    dim = int(payload["cutoff_dim"])
    truncation = [closed_form_concurrence(alpha, dim, g) for g in gts]
    expected = {
        "concurrence_p1": (sin2, "|sin 2gt|"),
        "concurrence_p01": (diluted, "|a|^2/(1+|a|^2) |sin 2gt|"),
        "concurrence_decohered": (diluted, "|a|^2/(1+|a|^2) |sin 2gt|"),
        "concurrence_full": (truncation, f"the truncation level at cutoff {dim}"),
    }
    return [f"dimer: {name} != {what}" for name, (values, what) in expected.items()
            if not _near(_column(payload, name), values, DIMER_TOL)]


def check_cmax(alphas, n_max: int, payload: dict) -> list:
    failures = []
    rows = payload["rows"]
    expected_keys = [(a, n) for a in alphas for n in range(2, n_max + 1)]
    if [(r[0], r[1]) for r in rows] != expected_keys:
        return ["cmax-scan: rows do not cover the requested amplitudes and levels"]
    for a, n, value in rows:
        expected = closed_form_concurrence(a, n, math.pi / 4)
        if not _near(value, expected, CMAX_RTOL * expected):
            failures.append(f"cmax-scan: alpha={a:.4g} N={n}: {value!r} != {expected!r}")
    for a in alphas:
        series = [r[2] for r in rows if r[0] == a]
        if not all(later < earlier for earlier, later in zip(series, series[1:])):
            failures.append(f"cmax-scan: alpha={a:.4g}: values do not decrease in N")
    return failures


def check_fn(n_max: int, payload: dict) -> list:
    failures = []
    rows = payload["rows"]
    if [r[0] for r in rows] != list(range(2, n_max + 1)):
        return ["fn-table: rows do not cover N = 2..n_max"]
    for n, estimate, reference, _delta, flag in rows:
        exact = fn_closed_form(n)
        if not _near(estimate, exact, FN_RTOL * exact):
            failures.append(f"fn-table: N={n}: estimate {estimate!r} != F_N {exact!r}")
        if reference is not None and not _near(reference, exact, FN_REFERENCE_RTOL * exact):
            failures.append(f"fn-table: N={n}: reference {reference!r} != F_N {exact!r}")
        if flag:
            failures.append(f"fn-table: N={n}: precision flag raised")
    return failures
