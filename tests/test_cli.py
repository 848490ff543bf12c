import json
import math
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excitonsim import cli
from excitonsim.dynamics import exchange_unitary
from excitonsim.entanglement import concurrence_pure, concurrence_wootters
from excitonsim.states import MAX_LEVELS
from reference import (
    ExcitationProjector,
    apply,
    coherent_truncated,
    decohered_dimer_state,
    fock,
    project_renormalize,
    tensor,
)


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def chain_config(tmp_path, **extra):
    config = {
        "sites": 3,
        "couplings": [[0, 1, 1.0], [1, 2, 1.0]],
        "dephasing": 0.5,
        "exit_site": 2,
        "sink_rate": 1.0,
        "alphas": [0.1, 0.2, 0.4],
        "t_final": 20 * math.pi,
        "time_points": 121,
    }
    config.update(extra)
    path = tmp_path / "network.json"
    path.write_text(json.dumps(config))
    return path


def test_dimer_command_schema_and_goldens(tmp_path):
    out = tmp_path / "dimer.csv"
    assert run_cli(["dimer", "--alpha", "0.3", "--gt-steps", "97",
                    "--out", str(out)]) == 0
    meta, columns, rows = read_csv(out)
    assert meta["tool"] == "excitonsim"
    assert "version" in meta
    assert columns == ["gt", "concurrence_full", "concurrence_p1",
                       "concurrence_p01", "concurrence_decohered"]
    assert len(rows) == 97

    by_gt = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
    first = by_gt[0.0]
    assert all(abs(v) < 1e-12 for v in first)
    quarter = min(by_gt, key=lambda g: abs(g - math.pi / 4))
    assert quarter == pytest.approx(math.pi / 4, abs=1e-12)
    c_full, c_p1, c_p01, c_dec = by_gt[quarter]
    assert c_full <= 1e-7
    assert c_p1 == pytest.approx(1.0, abs=1e-9)
    assert c_p01 == pytest.approx(0.082569, abs=1e-6)
    assert c_dec == pytest.approx(0.082569, abs=1e-6)


def test_dimer_columns_match_general_route(tmp_path):
    # the closed forms against the exchange unitary, the excitation
    # projectors, the Schmidt route and the Wootters formula
    out = tmp_path / "dimer.json"
    for alpha in (0.1, 0.3, 0.45):
        assert run_cli(["dimer", "--alpha", str(alpha), "--gt-steps", "25",
                        "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        dim = payload["cutoff_dim"]
        psi0 = tensor(coherent_truncated(alpha, dim), fock(dim, 0))
        p1 = ExcitationProjector.single(psi0.dims)
        p01 = ExcitationProjector.ground_and_single(psi0.dims)
        for gt, *columns in payload["rows"]:
            evolved = apply(exchange_unitary(psi0.dims, gt), psi0).normalize()
            expected = [
                concurrence_pure(evolved).value,
                concurrence_pure(project_renormalize(evolved, p1)[0]).value,
                concurrence_pure(project_renormalize(evolved, p01)[0]).value,
                concurrence_wootters(decohered_dimer_state(alpha, gt)).value,
            ]
            assert columns == pytest.approx(expected, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", ["30", "1e5"])
def test_dimer_cutoff_search_is_bounded(alpha, capsys):
    # the tail check at MAX_LEVELS levels fails before the cutoff search
    # starts, so exit 3 at once
    start = time.perf_counter()
    assert run_cli(["dimer", "--alpha", alpha]) == 3
    assert time.perf_counter() - start < 1.0
    assert "tail mass" in capsys.readouterr().err


def test_cmax_scan_huge_alpha_exit_code(capsys):
    assert run_cli(["cmax-scan", "--alpha", "1e200"]) == 3
    assert "overflows" in capsys.readouterr().err


def test_dimer_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["dimer", "--alpha", "0.2", "--gt-steps", "33", "--out", str(out1)])
    run_cli(["dimer", "--alpha", "0.2", "--gt-steps", "33", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cmax_scan_monotone(tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(["cmax-scan", "--alpha", "0.3", "0.5", "--n-max", "5",
                    "--out", str(out)]) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["alpha", "n_levels", "max_concurrence"]
    values = {}
    for alpha_s, n_s, c_s in rows:
        values.setdefault(float(alpha_s), []).append((int(n_s), float(c_s)))
    for alpha, series in values.items():
        series.sort()
        cs = [c for _, c in series]
        assert all(b < a for a, b in zip(cs, cs[1:]))
    assert values[0.3][0] == (2, pytest.approx(0.09 / 1.09, abs=1e-9))
    assert values[0.3][1] == (3, pytest.approx(0.017935, abs=1e-6))


def test_fn_table_json(tmp_path):
    out = tmp_path / "fn.json"
    assert run_cli(["fn-table", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "fn-table"
    assert payload["max_abs_delta"] <= 1e-15
    refs = (1.0, 0.7071, 0.3819, 0.1768, 0.0734, 0.0280)
    for row, ref in zip(payload["rows"], refs):
        assert row[1] == pytest.approx(ref, abs=5e-4)
        assert row[4] == 0  # within FN_TOLERANCE


def test_fn_table_tolerance_exit_code(tmp_path, monkeypatch):
    # the estimates are exact, so a failing row needs a reference that is off
    reference = cli.fn_reference
    monkeypatch.setattr(cli, "fn_reference", lambda n: reference(n) + 1e-3)
    out = tmp_path / "fn.csv"
    assert run_cli(["fn-table", "--n-max", "3", "--out", str(out)]) == 3
    _, _, rows = read_csv(out)
    assert [row[4] for row in rows] == ["1", "1"]


def test_transport_command_json(tmp_path):
    config = chain_config(tmp_path)
    out = tmp_path / "report.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["version"]
    assert payload["config"]["sites"] == 3
    reports = payload["reports"]
    assert [r["alpha"] for r in reports] == [0.1, 0.2, 0.4]
    for rep in reports:
        assert 0.0 <= rep["efficiency_full"] <= 1.0
        assert 0.0 <= rep["efficiency_restricted"] <= 1.0
    coeffs = payload["alpha_sq_scaling_coefficients"]
    assert max(coeffs) <= 2.0 * min(coeffs)
    # the resolved network is the whole spec, relaxation included
    network = payload["resolved"]["network"]
    assert network["relaxation"] is None
    assert network["dephasing"] == [0.5] * 3
    assert network["couplings"] == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


def test_transport_zero_alpha(tmp_path):
    config = chain_config(tmp_path, alphas=[0.0], t_final=5.0, time_points=11)
    out = tmp_path / "zero.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    rep = json.loads(out.read_text())["reports"][0]
    assert rep["efficiency_full"] == pytest.approx(0.0, abs=1e-12)
    assert rep["relative_difference"] == 0.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_transport_tiny_alpha(tmp_path, fmt):
    # 1e-200 squares to 0.0: its scaling coefficient is 0.0, as for alpha 0,
    # instead of a division by zero
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "network.json"
    config.write_text(json.dumps({**json.loads(demo.read_text()), "alphas": [1e-200, 0.2]}))
    out = tmp_path / f"report.{fmt}"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", fmt]) == 0
    if fmt == "json":
        coeffs = json.loads(out.read_text())["alpha_sq_scaling_coefficients"]
        assert coeffs[0] == 0.0 and coeffs[1] > 0.0
    else:
        _meta, columns, rows = read_csv(out)
        assert [float(row[columns.index("alpha")]) for row in rows] == [1e-200, 0.2]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_transport_subnormal_alpha_square_writes_valid_json(tmp_path):
    # 1e-160 squares to the subnormal 1e-320: dividing a relative difference
    # by it overflowed to inf, which json writes as the non-JSON Infinity
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "network.json"
    config.write_text(json.dumps({**json.loads(demo.read_text()), "alphas": [1e-160, 0.1]}))
    out = tmp_path / "report.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text(), parse_constant=reject_constant)
    coeffs = payload["alpha_sq_scaling_coefficients"]
    assert coeffs[0] == 0.0 and 0.0 < coeffs[1] < 2.0
    # the capture of the weight above one excitation, about 1e-320 here, not
    # the rounding of a difference of two captures
    assert payload["reports"][0]["relative_difference"] < 1e-300


def test_transport_small_alpha_coefficients_agree(tmp_path):
    # relative_difference / |a|^2 tends to a constant as a -> 0; a
    # difference of two nearly equal captures read 2118 to 0.962 here
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config, out = tmp_path / "network.json", tmp_path / "report.json"
    coeffs = []
    for alphas in ([1e-9, 1e-8, 1e-7, 1e-6], [1e-9, 1e-8, 1e-7, 1e-6, 0.1]):
        config.write_text(json.dumps({**json.loads(demo.read_text()), "alphas": alphas}))
        assert run_cli(["transport", "--config", str(config),
                        "--out", str(out), "--format", "json"]) == 0
        coeffs += json.loads(out.read_text())["alpha_sq_scaling_coefficients"][:4]
    assert max(coeffs) - min(coeffs) <= 1e-6


@pytest.mark.parametrize("relaxation", [None, 0.1])
def test_transport_loss_mode_without_sink_captures_nothing(tmp_path, relaxation):
    # sink rate 0 adds no loss term, so the model preserves the trace: the
    # capture is exactly 0, not the rounding of traces[0] - traces
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "network.json"
    config.write_text(json.dumps({**json.loads(demo.read_text()), "sink_mode": "loss",
                                  "sink_rate": 0, "relaxation": relaxation}))
    out = tmp_path / "report.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    for rep in payload["reports"]:
        for key in ("efficiency_full", "efficiency_restricted", "efficiency_cap1",
                    "normalized_efficiency_full", "normalized_efficiency_restricted",
                    "relative_difference"):
            assert rep[key] == 0.0, key
    assert payload["alpha_sq_scaling_coefficients"] == [0.0] * 3


def test_transport_fixed_step_reproducible(tmp_path):
    config = chain_config(tmp_path, alphas=[0.2], t_final=6.0, time_points=13)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run_cli(["transport", "--config", str(config), "--fixed-step",
                        "--out", str(out), "--format", "json"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_transport_fixed_step_is_a_no_op(tmp_path):
    config = chain_config(tmp_path, alphas=[0.2], t_final=6.0, time_points=13,
                          relaxation=0.05)
    outs = []
    for flags in ([], ["--fixed-step"]):
        out = tmp_path / f"r{len(flags)}.json"
        assert run_cli(["transport", "--config", str(config), *flags,
                        "--out", str(out), "--format", "json"]) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["resolved"]["network"]["relaxation"] == [0.05] * 3
    assert [o["fixed_step"] for o in outs] == [False, True]
    assert outs[0]["reports"] == outs[1]["reports"]


def test_transport_demo_converged(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "demo.json"
    config.write_text(json.dumps({**json.loads(demo.read_text()), "alphas": [0.2]}))
    out = tmp_path / "demo_report.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["reports"][0]["converged"] is True


def test_transport_short_grid_not_converged(tmp_path):
    config = chain_config(tmp_path, alphas=[0.2], t_final=5.0, time_points=11)
    out = tmp_path / "short.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["reports"][0]["converged"] is False


def test_transport_two_point_grid_not_converged(tmp_path):
    # the capture grows from 0 over the one interval, as it does at 3 points
    config = tmp_path / "two.json"
    out = tmp_path / "two_report.json"
    for points in (2, 3):
        config.write_text(json.dumps({"sites": 2, "couplings": [[0, 1, 1]], "exit_site": 1,
                                      "sink_rate": 1, "t_final": 2.0,
                                      "time_points": points}))
        assert run_cli(["transport", "--config", str(config),
                        "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["reports"][0]["converged"] is False


def test_transport_runs_configured_cap(tmp_path):
    reports = {}
    for cap in (2, 3):
        config = chain_config(tmp_path, excitation_cap=cap, alphas=[0.4],
                              t_final=5.0, time_points=21)
        out = tmp_path / f"cap{cap}.json"
        assert run_cli(["transport", "--config", str(config),
                        "--out", str(out), "--format", "json"]) == 0
        reports[cap] = json.loads(out.read_text())["reports"][0]
    assert reports[2]["caps"] == [1, 2]
    assert reports[3]["caps"] == [1, 3]
    assert reports[3]["efficiency_full"] != reports[2]["efficiency_full"]


def test_transport_rejects_cap_one(tmp_path, capsys):
    config = chain_config(tmp_path, excitation_cap=1)
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert "excitation_cap" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("sink_rate", math.nan),
    ("dephasing", math.nan),
    ("relaxation", math.nan),
    ("energies", [math.nan, 0.0, 0.0]),
    ("couplings", [[0, 1, math.nan], [1, 2, 1.0]]),
    # a string or a bool is not a JSON number: these used to run, "dephasing":
    # true at rate 1.0
    ("sink_rate", True),
    ("sink_rate", "1"),
    ("dephasing", "0.5"),
    ("dephasing", True),
    ("energies", ["0", "0", "0"]),
    ("relaxation", "0.1"),
    ("couplings", [[0, 1, True], [1, 2, 1.0]]),
], ids=["sink_rate-nan", "dephasing-nan", "relaxation-nan", "energies-nan",
        "couplings-nan", "sink_rate-bool", "sink_rate-string", "dephasing-string",
        "dephasing-bool", "energies-strings", "relaxation-string", "couplings-bool"])
def test_transport_rejects_non_finite_network_value(tmp_path, capsys, key, value):
    config = chain_config(tmp_path, **{key: value})
    assert run_cli(["transport", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "bad network config" in err
    assert key.removesuffix("s") in err


@pytest.mark.parametrize("key, value, message", [
    ("couplings", [[0, 1, 1.0], [1, 0, 2.0], [1, 2, 1.0]], "given twice"),
    ("couplings", [[0, 1, 1.0], [0, 1, 1.0], [1, 2, 1.0]], "given twice"),
    ("couplings", [[0, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0]], "to itself"),
    ("energies", [0.0], "energies must be 3 finite numbers"),
    ("sites", 10 ** 9, "sites must be from 2 to 200"),
], ids=["couplings-repeated", "couplings-repeated-same-order", "couplings-diagonal",
        "energies-short", "sites-huge"])
def test_transport_rejects_malformed_network(tmp_path, capsys, key, value, message):
    # a repeated pair kept its last value, and a diagonal entry, which the
    # Hamiltonian ignores, set the default grid's time scale; a huge site
    # count is rejected before anything is allocated by it
    config = chain_config(tmp_path, **{key: value})
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("alphas", []),
    ("alphas", ["x"]),
    ("alphas", [math.nan]),
    ("alphas", [True]),
    ("time_points", 2.5),
    ("time_points", 1),
    ("time_points", 0),
    ("t_final", 0),
    ("t_final", -1),
    ("t_final", math.inf),
    ("time_points", 10 ** 9),
], ids=["alphas-empty", "alphas-string", "alphas-nan", "alphas-bool",
        "time_points-fraction", "time_points-one", "time_points-zero",
        "t_final-zero", "t_final-negative", "t_final-inf", "time_points-huge"])
def test_transport_rejects_bad_amplitudes_and_grid(tmp_path, capsys, key, value):
    config = chain_config(tmp_path, **{key: value})
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert key in capsys.readouterr().err


def test_transport_tiny_coupling_without_t_final_exits_2(tmp_path, capsys):
    # ten periods of a coupling of 1e-320 overflow to an infinite grid end
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"sites": 2, "couplings": [[0, 1, 1e-320]],
                                  "exit_site": 1, "sink_rate": 1}))
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_transport_subnormal_t_final_exits_2(tmp_path, capsys, fmt):
    # a subnormal t_final passes every key check, but the linspace grid on it
    # does not increase
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "network.json"
    for t_final in (1e-320, 5e-324):
        config.write_text(json.dumps({**json.loads(demo.read_text()), "t_final": t_final}))
        assert run_cli(["transport", "--config", str(config), "--format", fmt,
                        "--out", str(tmp_path / f"report.{fmt}")]) == 2
        assert "increase strictly" in capsys.readouterr().err


def test_transport_rejects_oversized_cap(tmp_path, capsys, monkeypatch):
    from excitonsim import transport

    def never(*args, **kwargs):
        raise AssertionError("the oversized basis must not be built")

    monkeypatch.setattr(transport, "CappedBasis", never)
    config = chain_config(tmp_path, excitation_cap=20)
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert "10626 states" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("excitation_cap", 2.5),
    ("excitation_cap", True),
    ("exit_site", 1.7),
    ("entry_site", 0.0),
    ("sites", 3.0),
    ("couplings", [[0, 1.5, 1.0], [1, 2, 1.0]]),
], ids=["excitation_cap-fraction", "excitation_cap-bool", "exit_site-fraction",
        "entry_site-float", "sites-float", "couplings-fractional-index"])
def test_transport_rejects_non_integer_value(tmp_path, capsys, key, value):
    # a fraction used to be truncated by int(): cap 2.5 ran at cap 2 and
    # exit site 1.7 put the sink on site 1
    config = chain_config(tmp_path, **{key: value})
    assert run_cli(["transport", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err
    assert (key if key != "couplings" else "coupling site index") in err


def test_transport_time_points_without_t_final(tmp_path):
    # without t_final the default grid (ten periods of the largest coupling)
    # takes the configured number of points
    config = chain_config(tmp_path, alphas=[0.2], time_points=11)
    data = json.loads(config.read_text())
    del data["t_final"]
    config.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert run_cli(["transport", "--config", str(config),
                    "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    times = payload["reports"][0]["times"]
    assert payload["resolved"]["time_points"] == 11
    assert len(times) == 11
    assert times[-1] == pytest.approx(10 * math.pi)


@pytest.mark.parametrize("key, value", [
    ("sink_rate", 1e300),
    ("energies", [1e300, 0.0, 0.0]),
    ("couplings", [[0, 1, 1e308], [1, 2, 1.0]]),
], ids=["sink_rate-huge", "energies-huge", "couplings-huge"])
def test_transport_bounds_taylor_work(tmp_path, capsys, monkeypatch, key, value):
    # a finite but huge rate or coupling would take astronomically many
    # Taylor pieces, or an infinite count: exit 3 before the first piece.
    # The same patch sees the pieces of a run with sane values
    from excitonsim import dynamics

    taylor, calls = dynamics._taylor_piece, []

    def counting(*args):
        calls.append(args[2])
        return taylor(*args)

    monkeypatch.setattr(dynamics, "_taylor_piece", counting)
    assert run_cli(["transport", "--config", str(chain_config(tmp_path, time_points=11))]) == 0
    assert calls
    del calls[:]
    config = chain_config(tmp_path, **{key: value})
    assert run_cli(["transport", "--config", str(config)]) == 3
    assert "Taylor pieces" in capsys.readouterr().err
    assert calls == []


def test_transport_bounds_trajectory_size(tmp_path, capsys, monkeypatch):
    # the seeds at 10^6 time points on 5 and 15 states would take 2.5e8
    # complex entries (4 GB): exit 2 before propagating
    from excitonsim import transport

    def never(*args, **kwargs):
        raise AssertionError("an oversized run must not be propagated")

    monkeypatch.setattr(transport, "lindblad_propagate", never)
    config = chain_config(tmp_path, time_points=10 ** 6)
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert "250000000 trajectory entries" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cmax-scan", "--alpha", "nan"],
    ["cmax-scan", "--alpha", "0"],
    ["cmax-scan", "--alpha", "0.3", "inf"],
    ["dimer", "--alpha", "0"],
    ["dimer", "--alpha", "-0.3"],
    ["dimer", "--gt-steps", "0"],
    ["dimer", "--gt-steps", str(cli.MAX_GT_STEPS + 1)],
    ["dimer", "--dim", "1"],
    ["dimer", "--dim", "two"],
    ["dimer", "--dim", str(MAX_LEVELS + 1)],
    ["fn-table", "--n-max", "1"],
    ["fn-table", "--n-max", str(MAX_LEVELS + 1)],
    ["cmax-scan", "--n-max", "1"],
    ["cmax-scan", "--n-max", str(MAX_LEVELS + 1)],
], ids=lambda argv: "_".join(argv))
def test_table_commands_reject_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert "expected" in capsys.readouterr().err


_ALPHAS = st.one_of(st.floats(1e-300, 1e-3), st.floats(1e-3, 3.0),
                   st.floats(1e3, 1e308))
_LEVELS = st.integers(2, MAX_LEVELS + 2)
_TABLE_ARGV = st.one_of(
    st.builds(lambda alpha, dim: ["dimer", "--alpha", repr(alpha), "--gt-steps", "9"]
              + ([] if dim is None else ["--dim", str(dim)]),
              _ALPHAS, st.none() | _LEVELS),
    st.builds(lambda alphas, n: ["cmax-scan", "--alpha", *map(repr, alphas),
                                 "--n-max", str(n)],
              st.lists(_ALPHAS, min_size=1, max_size=2), _LEVELS),
    st.builds(lambda n: ["fn-table", "--n-max", str(n)], _LEVELS),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(argv=_TABLE_ARGV)
def test_table_commands_exit_codes(argv):
    # tiny, typical and huge amplitudes, level counts past MAX_LEVELS: every
    # run exits 0, 2 or 3 without an escaping exception, and exit 0 writes
    # finite numbers only
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.json"
        try:
            code = run_cli(argv + ["--format", "json", "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3)
        if code == 0:
            rows = json.loads(out.read_text())["rows"]
            assert all(math.isfinite(v) for row in rows for v in row)


# the demo config on a coarser grid: cap 2 and 41 points, so that no mutant
# below builds more than the demo's 15 states or more than 50 time points
_DEMO = {**json.loads((Path(__file__).resolve().parents[1] / "network_demo.json")
                      .read_text()), "time_points": 41}


def _mutants(value):
    """Type swaps to str, bool, list or null; NaN; +-inf; negative; zero;
    empty; huge."""
    negative = -abs(value) if type(value) in (int, float) and value else -1
    return st.sampled_from([str(value), True, False, [value], None, math.nan,
                            math.inf, -math.inf, negative, 0, 0.0, "", [], {},
                            10 ** 9, 1e308])


@st.composite
def _mutated_demo(draw):
    """The demo config with one value, at the top or inside a list, replaced."""
    config = json.loads(json.dumps(_DEMO))
    holder, key = config, draw(st.sampled_from(sorted(config)))
    while isinstance(holder[key], list) and draw(st.booleans()):
        holder, key = holder[key], draw(st.integers(0, len(holder[key]) - 1))
    holder[key] = draw(_mutants(holder[key]))
    return config


def _numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if type(obj) in (int, float) else []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=_mutated_demo())
def test_transport_mutated_config_exit_codes(config):
    # every run exits 0, 2 or 3 without an escaping exception, and exit 0
    # writes finite numbers only
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(config))
        code = run_cli(["transport", "--config", str(path), "--format", "json",
                        "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert all(map(math.isfinite, _numbers(json.loads(out.read_text()))))


def test_transport_huge_alpha_exit_code(tmp_path, capsys):
    config = chain_config(tmp_path, alphas=[1e308])
    assert run_cli(["transport", "--config", str(config)]) == 3
    assert "overflows" in capsys.readouterr().err


def test_transport_tiny_alpha_keeps_projected_concurrence(tmp_path):
    # without relaxation the single-excitation sector evolves on its own, so
    # its projected concurrence does not depend on the amplitude, down to
    # amplitudes whose sector weight |alpha|^2 is far below 1e-30
    config = chain_config(tmp_path, alphas=[1e-8, 1e-16, 1e-20, 1e-100])
    out = tmp_path / "report.csv"
    assert run_cli(["transport", "--config", str(config), "--out", str(out)]) == 0
    _meta, columns, rows = read_csv(out)
    peaks = [float(row[columns.index("max_concurrence_p1")]) for row in rows]
    assert peaks[0] > 0.1
    assert peaks == pytest.approx([peaks[0]] * 4, rel=1e-9, abs=0)


def test_transport_trace_drift_exit_code(monkeypatch, capsys):
    import scipy.sparse

    from excitonsim import dynamics

    # 1e-11 times the identity added to the generator (on the real
    # coordinates too) scales every state by exp(1e-11 t): a trace drift of
    # up to about 6e-10 on the demo grid, already 3.9e-12 after the first
    # interval, above TRACE_TOL (1e-12)
    built, calls = dynamics._real_liouvillian, []

    def drifting(spec):
        calls.append(spec)
        return built(spec) + 1e-11 * scipy.sparse.identity(spec.dims.total ** 2)

    monkeypatch.setattr(dynamics, "_real_liouvillian", drifting)
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    assert run_cli(["transport", "--config", str(demo)]) == 3
    assert "trace drift" in capsys.readouterr().err
    assert calls


def test_transport_negative_state_exit_code(monkeypatch, capsys):
    from excitonsim import dynamics

    # L0 - (L - L0) reverses the sign of the dissipator: still trace
    # preserving, no longer positive, so a propagated state gets a negative
    # eigenvalue that the density-matrix check must turn into exit 3
    built, calls = dynamics._real_liouvillian, []

    def reversed_dissipator(spec):
        calls.append(spec)
        coherent = built(dynamics.LindbladSpec(spec.dims, spec.hamiltonian))
        return coherent - (built(spec) - coherent)

    monkeypatch.setattr(dynamics, "_real_liouvillian", reversed_dissipator)
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    assert run_cli(["transport", "--config", str(demo)]) == 3
    assert "eigenvalue" in capsys.readouterr().err
    assert calls


def test_unrelated_runtime_error_is_not_exit_3(monkeypatch):
    def broken(alpha, n_levels):
        raise RuntimeError("not a numerical tolerance failure")

    monkeypatch.setattr(cli, "max_concurrence", broken)
    with pytest.raises(RuntimeError):
        run_cli(["cmax-scan", "--alpha", "0.3", "--n-max", "2"])


def test_transport_misspelled_key(tmp_path, capsys):
    config = chain_config(tmp_path, dephasng=0.5)
    assert run_cli(["transport", "--config", str(config)]) == 2
    assert "dephasng" in capsys.readouterr().err


def test_transport_config_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"sites\": 3,\n")
    assert run_cli(["transport", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_transport_missing_key(tmp_path):
    bad = tmp_path / "incomplete.json"
    bad.write_text(json.dumps({"sites": 2, "couplings": [[0, 1, 1.0]]}))
    assert run_cli(["transport", "--config", str(bad)]) == 2


def test_transport_missing_file():
    assert run_cli(["transport", "--config", "/nonexistent/config.json"]) == 2


def test_unknown_argument_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["dimer", "--bogus"])
    assert err.value.code == 2


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "excitonsim.cli", "dimer", "--alpha", "0.1",
         "--gt-steps", "5"],
        capture_output=True, text=True, check=True)
    assert "concurrence_p1" in result.stdout


def fresh_python(*args, check=True):
    """Run ``python *args`` in a new interpreter that imports the package
    from its source tree; the pytest process has scipy.sparse loaded."""
    import os
    import subprocess
    import sys

    import excitonsim

    env = {**os.environ, "PYTHONPATH": str(Path(excitonsim.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check)


def test_cli_import_loads_no_scipy_linalg_or_special():
    # only transport's propagation imports scipy, and only scipy.sparse:
    # importing the CLI loads no scipy module at all
    probe = ("import sys, excitonsim.cli; print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')))")
    assert fresh_python("-c", probe).stdout.split() == []


def test_table_commands_load_no_scipy(tmp_path):
    # dimer, cmax-scan and fn-table build no Liouvillian, so a process that
    # runs all three never imports scipy
    probe = (
        "import sys\n"
        "from excitonsim.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [main([*argv, '--out', f'{out}/{argv[0]}.csv']) for argv in\n"
        "         (['dimer', '--gt-steps', '9'], ['cmax-scan'], ['fn-table'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_python("-c", probe).stdout.strip() == "[0, 0, 0] []"
    assert {path.name for path in tmp_path.iterdir()} == {
        "dimer.csv", "cmax-scan.csv", "fn-table.csv"}


def test_transport_in_fresh_process_matches_in_process(capsys):
    # the only run of transport whose propagation has to import scipy.sparse
    # itself: every in-process run finds it loaded
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    argv = ["transport", "--config", str(demo), "--format", "json"]
    fresh = fresh_python("-m", "excitonsim.cli", *argv)
    assert run_cli(argv) == 0
    assert fresh.stdout == capsys.readouterr().out


@pytest.mark.parametrize("sink_rate", [1e307, 3e307])
def test_transport_overflowing_shift_exits_3_without_warning(tmp_path, sink_rate):
    # finite rates whose Liouvillian diagonal sums past the double range: the
    # shift tr/d^2 overflows, so the shifted generator's 1-norm is infinite,
    # a numerical failure with exit 3 and no numpy warning on the way, even
    # where warnings are errors
    demo = Path(__file__).resolve().parents[1] / "network_demo.json"
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({**json.loads(demo.read_text()), "sink_rate": sink_rate}))
    run = fresh_python("-W", "error::RuntimeWarning", "-m", "excitonsim.cli", "transport",
                       "--config", str(config), "--out", str(tmp_path / "out.csv"),
                       check=False)
    assert run.returncode == 3
    assert run.stderr == ("numerical tolerance failure: the generator's 1-norm asks for inf "
                          "Taylor pieces over the grid, above the limit of 100000\n")
