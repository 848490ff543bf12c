"""Per-module spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``excitonsim`` module namespace that holds it, because ``cli`` and
``transport`` import these functions by name.  ``uninstall`` puts the
originals back.  Spans nest per thread: a span's self time is its duration
minus the time of the spans inside it.  The thread pools in ``dimer`` and
``cmax-scan`` run spans concurrently, so module times are busy time summed
over threads, and ``cli.self_s`` is the operation's wall time minus the
union of the intervals its outermost spans cover.
"""

import inspect
import sys
import threading
import time
from collections import Counter

import scipy.integrate

# span name -> (module, function); several functions may share one span name
SPANS = [
    ("transport.truncation_robustness", "excitonsim.transport", "truncation_robustness"),
    ("transport.build_network", "excitonsim.transport", "build_network"),
    ("transport.pairwise_concurrence", "excitonsim.transport", "pairwise_concurrence"),
    ("transport.unitary_state_series", "excitonsim.transport", "unitary_state_series"),
    ("transport.efficiency", "excitonsim.transport", "efficiency_integrated"),
    ("transport.efficiency", "excitonsim.transport", "efficiency_peak"),
    ("dynamics.lindblad_propagate", "excitonsim.dynamics", "lindblad_propagate"),
    ("dynamics.exchange_unitary", "excitonsim.dynamics", "exchange_unitary"),
    ("entanglement.max_concurrence", "excitonsim.entanglement", "max_concurrence"),
    ("entanglement.concurrence_pure", "excitonsim.entanglement", "concurrence_pure"),
    ("entanglement.concurrence_wootters", "excitonsim.entanglement", "concurrence_wootters"),
    ("states.min_coherent_dim", "excitonsim.states", "min_coherent_dim"),
]

# the README's threshold for the arbitrary-precision path of max_concurrence
HIGH_PRECISION_THRESHOLD = 1e-8

# per-layer metrics, in report order: (name, unit)
LAYER_METRICS = [
    ("import.modules", "count"),
    ("import.scipy_stats_s", "s"),
    ("import.mpmath_s", "s"),
    ("cli.self_s", "s"),
    ("transport.truncation_robustness_s", "s"),
    ("transport.truncation_robustness_calls", "count"),
    ("transport.build_network_s", "s"),
    ("transport.build_network_calls", "count"),
    ("transport.pairwise_concurrence_s", "s"),
    ("transport.pairwise_concurrence_calls", "count"),
    ("transport.unitary_state_series_s", "s"),
    ("transport.efficiency_s", "s"),
    ("dynamics.lindblad_propagate_s", "s"),
    ("dynamics.lindblad_propagate_calls", "count"),
    ("dynamics.rhs_evals", "count"),
    ("dynamics.exchange_unitary_s", "s"),
    ("dynamics.exchange_unitary_calls", "count"),
    ("hilbert.density_matrix_s", "s"),
    ("hilbert.density_matrices", "count"),
    ("entanglement.max_concurrence_s", "s"),
    ("entanglement.max_concurrence_calls", "count"),
    ("entanglement.high_precision_calls", "count"),
    ("entanglement.concurrence_pure_s", "s"),
    ("entanglement.concurrence_pure_calls", "count"),
    ("entanglement.concurrence_wootters_s", "s"),
    ("entanglement.concurrence_wootters_calls", "count"),
    ("states.min_coherent_dim_s", "s"),
    ("states.coherent_tail_calls", "count"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead_s", "s"),
]


def _union_length(intervals, lo, hi) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Collects self time and call counts per span name, per operation."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.reset()

    def reset(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.outer = []

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inner = stack.pop()
                if stack:
                    stack[-1] += end - start
                with self._lock:
                    self.self_s[name] += end - start - inner
                    self.calls[name] += 1
                    if not stack:
                        self.outer.append((start, end))
        return wrapper

    def _count(self, name, fn, amount=lambda args, kwargs, result: 1):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                self.counts[name] += amount(args, kwargs, result)
            return result
        return wrapper

    def _replace(self, original, replacement):
        """Swap ``original`` for ``replacement`` wherever the package holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "excitonsim" and not mod_name.startswith("excitonsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        for name, mod_name, attr in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = original
            if attr == "max_concurrence":
                wrapped = self._count("entanglement.high_precision_calls", original,
                                      _high_precision(original))
            elif attr == "lindblad_propagate":
                wrapped = self._count("dynamics.rhs_evals", original,
                                      _fixed_rhs_evals(original))
            self._replace(original, self._span(name, wrapped))
        states = sys.modules["excitonsim.states"]
        self._replace(states.coherent_tail,
                      self._count("states.coherent_tail_calls", states.coherent_tail))
        # the adaptive integrator reports its right-hand-side evaluations
        solve_ivp = scipy.integrate.solve_ivp
        scipy.integrate.solve_ivp = self._count(
            "dynamics.rhs_evals", solve_ivp, lambda a, k, r: int(r.nfev))
        self._patched.append((scipy.integrate, "solve_ivp", solve_ivp))
        density = sys.modules["excitonsim.hilbert"].DensityMatrix
        post_init = density.__post_init__
        density.__post_init__ = self._span("hilbert.density_matrix", post_init)
        self._patched.append((density, "__post_init__", post_init))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def operation(self, start: float, end: float) -> dict:
        """Per-layer figures of one operation spanning [start, end]."""
        figures = {"cli.self_s": end - start - _union_length(self.outer, start, end)}
        for name, _mod, _attr in SPANS:
            if name != "transport.efficiency":
                figures[name + "_calls"] = self.calls[name]
            figures[name + "_s"] = self.self_s[name]
        figures["hilbert.density_matrix_s"] = self.self_s["hilbert.density_matrix"]
        figures["hilbert.density_matrices"] = self.calls["hilbert.density_matrix"]
        figures.update(self.counts)
        return figures


def _arguments(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _high_precision(max_concurrence):
    bind = _arguments(max_concurrence)

    def amount(args, kwargs, _result):
        given = bind(args, kwargs)
        return int(abs(given["alpha"]) ** given["n_levels"] < HIGH_PRECISION_THRESHOLD)
    return amount


def _fixed_rhs_evals(lindblad_propagate):
    """RK4 makes 4 evaluations per substep; the adaptive path is counted
    from ``solve_ivp``'s ``nfev`` instead."""
    bind = _arguments(lindblad_propagate)

    def amount(args, kwargs, _result):
        given = bind(args, kwargs)
        if given["method"] != "fixed":
            return 0
        return 4 * int(given["fixed_substeps"]) * (len(given["t_grid"]) - 1)
    return amount
