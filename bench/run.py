"""Benchmark of the excitonsim reproduction.

Run from the repository root:

    python3 bench/run.py --workload transport_fmo7 --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``excitonsim.cli.main(argv)`` that
writes its result to a file; the file is checked after the clock stops.
Operations run in whole rounds, one after another, until ``--seconds`` have
passed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("transport_fmo7", "transport_small_fixed", "concurrence_tables")
SETUP_SAMPLES = 3
PROBE = ("import json, sys, time\n"
         "start = time.perf_counter()\n"
         "import excitonsim.cli\n"
         "print(json.dumps({'import_s': time.perf_counter() - start,"
         " 'modules': len(sys.modules)}))\n")


def fresh_import(*flags):
    """Import ``excitonsim.cli`` in a new interpreter; returns (record, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def importtime_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def round_ops(workload: str, seed: int, index: int, workdir: Path):
    """Operations of round ``index``: (label, argv, check) triples."""
    out = ["--format", "json", "--out", str(workdir / "result.json")]
    if workload == "concurrence_tables":
        dimer = workloads.dimer_argv(seed, index)
        cmax = workloads.cmax_argv(seed, index)
        alpha, steps = float(dimer[2]), int(dimer[4])
        alphas = [float(a) for a in cmax[2:-2]]
        return [
            ("dimer", dimer + out, lambda p: oracles.check_dimer(alpha, steps, p)),
            ("cmax-scan", cmax + out,
             lambda p: oracles.check_cmax(alphas, workloads.CMAX_N_MAX, p)),
            ("fn-table", workloads.fn_argv() + out,
             lambda p: oracles.check_fn(workloads.FN_N_MAX, p)),
        ]
    if workload == "transport_fmo7":
        configs, extra = [workloads.fmo7_config(seed, index)], []
    else:
        configs = [workloads.small_config(seed, 2 * index + k) for k in range(2)]
        extra = ["--fixed-step"]
    ops = []
    for k, config in enumerate(configs):
        path = workdir / f"config-{index}-{k}.json"
        path.write_text(json.dumps(config))
        ops.append((f"transport {config['sink_mode']}",
                    ["transport", "--config", str(path), *extra] + out,
                    lambda p, c=config: oracles.check_transport(c, p)))
    return ops


def run_op(main, argv, check, result: Path):
    """Time one CLI call, then check its output.  Returns
    (start, end, exited_ok, failures)."""
    if result.exists():
        result.unlink()
    start = time.perf_counter()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # the program's failure is the op's
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if code != 0:
        return start, end, False, [f"exit status {code}"]
    try:
        payload = json.loads(result.read_text())
        failures = check(payload)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failures = [f"unreadable result: {type(exc).__name__}: {exc}"]
    return start, end, True, failures


def measure(workload, seed, seconds, tracer):
    """Run whole rounds until ``seconds`` have passed.  With a tracer, odd
    rounds are traced and even rounds are not, so both medians exist."""
    from excitonsim.cli import main

    times = {False: [], True: []}
    layers = []
    attempted = failed = wrong = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-{seed}-") as tmp:
        workdir = Path(tmp)
        begin = time.perf_counter()
        index = 0
        while index < (2 if tracer else 1) or time.perf_counter() - begin < seconds:
            traced = tracer is not None and index % 2 == 1
            for label, argv, check in round_ops(workload, seed, index, workdir):
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    start, end, exited_ok, failures = run_op(
                        main, argv, check, workdir / "result.json")
                finally:
                    if traced:
                        tracer.uninstall()
                attempted += 1
                if failures:
                    failed += 1
                    wrong += exited_ok
                    for failure in failures:
                        print(f"FAILED {label} (round {index}): {failure}", file=sys.stderr)
                else:
                    times[traced].append(end - start)
                    if traced:
                        layers.append(tracer.operation(start, end))
                print(f"{label}: {end - start:.3f} s", file=sys.stderr)
            index += 1
    return times, layers, attempted, failed, wrong


def end_to_end(workload, seed, seconds):
    setup = [fresh_import()[0]["import_s"] for _ in range(SETUP_SAMPLES)]
    times, _layers, attempted, failed, wrong = measure(workload, seed, seconds, None)
    ops = times[False]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(ops), "s") if ops else (0.0, "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s") if ops else (0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, failed, wrong


def per_layer(workload, seed, seconds):
    import tracing

    record, stderr = fresh_import("-X", "importtime")
    tracer = tracing.Tracer()
    times, layers, attempted, failed, wrong = measure(workload, seed, seconds, tracer)
    figures = {
        "import.modules": record["modules"],
        "import.scipy_stats_s": importtime_s(stderr, "scipy.stats"),
        "import.mpmath_s": importtime_s(stderr, "mpmath"),
    }
    for name, _unit in tracing.LAYER_METRICS:
        if name not in figures and not name.startswith("trace."):
            figures[name] = sum(op.get(name, 0) for op in layers) / max(len(layers), 1)
    traced = statistics.median(times[True]) if times[True] else 0.0
    untraced = statistics.median(times[False]) if times[False] else 0.0
    figures["trace.op_p50_s"] = traced
    figures["trace.overhead_s"] = traced - untraced
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "operations": layers,
         "traced_s": times[True], "untraced_s": times[False]}, indent=1) + "\n")
    metrics = {name: (figures[name], unit) for name, unit in tracing.LAYER_METRICS}
    return metrics, attempted, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "excitonsim" / "cli.py").is_file():
        print(f"no excitonsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run = per_layer if args.trace else end_to_end
    metrics, attempted, failed, wrong = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
