"""Self-tests of the benchmark's inputs, oracles and checks.

Run from the repository root (the default test run does not collect them):

    python3 -m pytest -q bench/selftest.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- inputs

def test_same_seed_same_inputs():
    for index in range(4):
        assert workloads.fmo7_config(5, index) == workloads.fmo7_config(5, index)
        assert workloads.small_config(5, index) == workloads.small_config(5, index)
        assert workloads.dimer_argv(5, index) == workloads.dimer_argv(5, index)
        assert workloads.cmax_argv(5, index) == workloads.cmax_argv(5, index)
    assert workloads.fmo7_config(5, 0) != workloads.fmo7_config(6, 0)
    assert workloads.fmo7_config(5, 0) != workloads.fmo7_config(5, 1)
    assert workloads.cmax_argv(5, 0) != workloads.cmax_argv(6, 0)


def test_generated_shapes(tmp_path):
    fmo = workloads.fmo7_config(3, 0)
    assert fmo["sites"] == 7 and len(fmo["couplings"]) == 8
    assert fmo["sink_mode"] == "explicit" and fmo["excitation_cap"] == 2
    assert workloads.small_config(3, 0)["sink_mode"] == "explicit"
    assert workloads.small_config(3, 1)["sink_mode"] == "loss"
    assert workloads.small_config(3, 1)["relaxation"] > 0
    # every round holds the same operations, whatever the seed
    for name in run.WORKLOADS:
        labels = [[op[0] for op in run.round_ops(name, seed, 0, tmp_path)]
                  for seed in (1, 2)]
        assert labels[0] == labels[1]


# ---------------------------------------------------------------- oracles

def _dimer(**extra):
    config = {"sites": 2, "couplings": [[0, 1, 0.7]], "exit_site": 1,
              "sink_rate": 0.0}
    config.update(extra)
    return config


def test_oracle_coherent_dimer():
    """No dephasing, no sink: P_exit = sin^2(gt), C_p1 = |sin 2gt|."""
    config = _dimer()
    times = np.linspace(0.0, 5.0, 41)
    states = oracles.single_excitation_series(config, times)
    g = 0.7
    np.testing.assert_allclose(states[:, 2, 2].real, np.sin(g * times) ** 2, atol=1e-13)
    conc = [oracles.projected_pair_concurrence(config, r) for r in states]
    np.testing.assert_allclose(conc, np.abs(np.sin(2 * g * times)), atol=1e-13)
    assert all(oracles.captured_fraction(config, r) == 0.0 for r in states)


@pytest.mark.parametrize("mode", ["explicit", "loss"])
def test_oracle_sink_and_relaxation(mode):
    """Uncoupled entry = exit site: captured share Gamma/(Gamma+r)(1-e^-(Gamma+r)t)."""
    gamma, relax = 0.9, 0.3
    config = {"sites": 2, "couplings": [[0, 1, 0.0]], "exit_site": 0,
              "sink_rate": gamma, "relaxation": [relax, 0.0], "sink_mode": mode,
              "dephasing": 0.4}
    times = np.linspace(0.0, 4.0, 21)
    states = oracles.single_excitation_series(config, times)
    captured = [oracles.captured_fraction(config, r) for r in states]
    rate = gamma + relax
    np.testing.assert_allclose(captured, gamma / rate * (1 - np.exp(-rate * times)),
                               atol=1e-13)


def test_oracle_dephasing_rate():
    """The vacuum/site coherence decays as exp(-gamma t)."""
    config = _dimer(couplings=[[0, 1, 0.0]], dephasing=[0.25, 0.0])
    liou, d = oracles.single_excitation_generator(config)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 1] = rho[1, 0] = 0.5
    out = (scipy.linalg.expm(liou * 2.0) @ rho.ravel()).reshape(d, d)
    assert abs(out[0, 1] - 0.5 * math.exp(-0.25 * 2.0)) < 1e-14


def _wootters_literal(rho):
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    spectrum = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    lam = np.sort(np.sqrt(np.abs(spectrum.real)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def test_pair_concurrence_is_literal_wootters():
    rng = np.random.default_rng(0)
    config = {"sites": 3, "couplings": [], "exit_site": 2, "entry_site": 0}
    for _ in range(20):
        d = 5  # vacuum, three sites, sink
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        # pair (entry, exit) reduction of the single-excitation projection
        block = rho[1:, 1:] / np.trace(rho[1:, 1:])
        # block index: 0 entry site, 1 middle site, 2 exit site, 3 sink;
        # pair index: |10> = 2 (entry), |01> = 1 (exit), |00> = 0
        pair = np.zeros((4, 4), dtype=complex)
        in_pair = {0: 2, 2: 1}
        for a in range(4):
            for b in range(4):
                if a in in_pair and b in in_pair:
                    pair[in_pair[a], in_pair[b]] += block[a, b]
                elif a == b:
                    pair[0, 0] += block[a, a]
        assert abs(oracles.projected_pair_concurrence(config, rho)
                   - _wootters_literal(pair)) < 1e-12


def test_closed_forms():
    # N = 2: |00> + a cos|10> + i a sin|01>
    for alpha, gt in [(0.3, 0.4), (0.8, 1.1)]:
        expected = alpha ** 2 / (1 + alpha ** 2) * abs(math.sin(2 * gt))
        assert abs(oracles.closed_form_concurrence(alpha, 2, gt) - expected) < 1e-14
    known = [1.0, 1 / math.sqrt(2), 0.25 * math.sqrt(7 / 3), 1 / (4 * math.sqrt(2)),
             math.sqrt(31 / 10) / 24, 1 / (16 * math.sqrt(5))]
    for n, value in zip(range(2, 8), known):
        assert abs(oracles.fn_closed_form(n) - value) < 1e-15 * value
    # the small-amplitude limit of the SVD form is F_N |a|^N / norm
    for n in range(3, 7):
        alpha = 1e-2
        norm = sum(alpha ** (2 * k) / math.factorial(k) for k in range(n))
        ratio = (oracles.closed_form_concurrence(alpha, n, math.pi / 4) * norm
                 / alpha ** n / oracles.fn_closed_form(n))
        assert abs(ratio - 1) < 1e-3


# ---------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real program outputs on small inputs, one per check."""
    from excitonsim.cli import main

    tmp = tmp_path_factory.mktemp("outputs")

    def produce(argv):
        path = tmp / "result.json"
        assert main(argv + ["--format", "json", "--out", str(path)]) == 0
        return json.loads(path.read_text())

    results = {}
    for mode in ("explicit", "loss"):
        config = workloads.small_config(1, 0 if mode == "explicit" else 1)
        config.update(t_final=4.0, time_points=21)
        cfg_path = tmp / f"{mode}.json"
        cfg_path.write_text(json.dumps(config))
        results[mode] = (config, produce(["transport", "--config", str(cfg_path)]))
    results["dimer"] = (0.4, 25, produce(["dimer", "--alpha", "0.4", "--gt-steps", "25"]))
    results["cmax"] = ([0.3, 0.6], 5,
                       produce(["cmax-scan", "--alpha", "0.3", "0.6", "--n-max", "5"]))
    results["fn"] = (4, produce(["fn-table", "--n-max", "4"]))
    return results


def _perturbed(payload, edit):
    copied = copy.deepcopy(payload)
    edit(copied)
    return copied


def _first_report(edit):
    return lambda p: edit(p["reports"][0])


def _bump(key, index=None, by=1e-5):
    def edit(report):
        if index is None:
            report[key] += by
        else:
            report[key][index] += by
    return edit


TRANSPORT_EDITS = {
    "efficiency_cap1": _bump("efficiency_cap1", by=1e-6),
    "efficiency_restricted": _bump("efficiency_restricted", by=1e-6),
    "residual": lambda r: r.update(efficiency_full=r["efficiency_restricted"]
                                   + 2 * r["residual_bound"]),
    "p1_restricted": _bump("concurrence_p1_restricted", 10),
    "p01_above_p1": lambda r: r.update(concurrence_p01=[c + 1e-3 for c in r["concurrence_p1"]]),
    "times": _bump("times", 3, by=1e-6),
    "nan": lambda r: r.update(efficiency_cap1=float("nan")),
}


@pytest.mark.parametrize("mode", ["explicit", "loss"])
def test_transport_check(outputs, mode):
    config, payload = outputs[mode]
    assert oracles.check_transport(config, payload) == []
    edits = dict(TRANSPORT_EDITS)
    if mode == "explicit":
        edits["p1_alpha"] = _bump("concurrence_p1", 10)
        edits["p01_ratio"] = lambda r: r.update(
            concurrence_p01=[c * 0.999 for c in r["concurrence_p01"]])
    for name, edit in edits.items():
        assert oracles.check_transport(config, _perturbed(payload, _first_report(edit))), name


def test_dimer_check(outputs):
    alpha, steps, payload = outputs["dimer"]
    assert oracles.check_dimer(alpha, steps, payload) == []
    for column in (1, 2, 3, 4):
        for value in (1e-8, float("nan")):
            def edit(p, column=column, value=value):
                p["rows"][5][column] += value
            assert oracles.check_dimer(alpha, steps, _perturbed(payload, edit)), column


def test_cmax_check(outputs):
    alphas, n_max, payload = outputs["cmax"]
    assert oracles.check_cmax(alphas, n_max, payload) == []

    def scale(p):
        p["rows"][2][2] *= 1 + 1e-5

    def drop(p):
        del p["rows"][-1]
    for edit in (scale, drop):
        assert oracles.check_cmax(alphas, n_max, _perturbed(payload, edit))


def test_fn_check(outputs):
    n_max, payload = outputs["fn"]
    assert oracles.check_fn(n_max, payload) == []

    def estimate(p):
        p["rows"][1][1] *= 1 + 1e-5

    def reference(p):
        p["rows"][2][2] *= 1 + 1e-10

    def flag(p):
        p["rows"][0][4] = 1
    for edit in (estimate, reference, flag):
        assert oracles.check_fn(n_max, _perturbed(payload, edit))
