"""In-memory span tracer for the cknlab layers, installed from outside src/.

`Tracer.install()` replaces each traced function with a timing wrapper in
every ``cknlab.*`` module namespace that binds it (``from .grids import d_dx``
binds a second name for the same object), and `uninstall()` puts the
originals back.  A span records name, start, end, parent, operation id and
thread; spans opened on a pool worker thread are parented to the enclosing
``reporting.ordered_map`` span.  Spans stay in memory until `export()`.

`layer_metrics()` turns exported spans and counters into the per-layer
metrics named in BENCHMARK.json.  Self time is a span's duration minus the
union of the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

clock = time.perf_counter


def _stencil_elements(tr, args, kwargs, result):
    tr.count("grids.stencil.elements", np.asarray(args[0]).size)


def _integrate_cells(tr, args, kwargs, result):
    F, h, x0, x_lo, x_hi = args[:5]
    ncell = np.asarray(F).shape[0] - 1
    t_lo = min(max((x_lo - x0) / h, 0.0), ncell)
    t_hi = min(max((x_hi - x0) / h, 0.0), ncell)
    if t_hi > t_lo:
        tr.count("grids.integrate_uniform.cells", math.ceil(t_hi) - math.floor(t_lo))


def _bochner_repeat(tr, args, kwargs, result):
    tr.count("pressure.bochner_k.repeats", tr.seen_before(args[0]))


def _solve_ivp_nfev(tr, args, kwargs, result):
    tr.count("radial_ode.solve_ivp.nfev", result.nfev)


def _minimize_nfev(tr, args, kwargs, result):
    tr.count("radial_ode.minimize_scalar.nfev", result.nfev)


def _sweep_matches(tr, args, kwargs, result):
    tr.count("radial_ode.sweep.matched", result.matched_count)
    tr.count("radial_ode.sweep.shots", len(result.entries))


def _eigen_rows(tr, args, kwargs, result):
    tr.count("spectral.lowest_eigenvalue.rows", args[0].N - 1)


def _csv_bytes(tr, args, kwargs, result):
    tr.count("reporting.csv_text.bytes", len(result))


# (module, attribute, span name, hook run after each call)
TARGETS = (
    ("grids", "d_dx", "grids.d_dx", _stencil_elements),
    ("grids", "d2_dx2", "grids.d2_dx2", _stencil_elements),
    ("grids", "integrate_uniform", "grids.integrate_uniform", _integrate_cells),
    ("cylfield", "theta_derivative", "cylfield.theta_derivative", None),
    ("cylfield", "integrate_mu", "cylfield.integrate_mu", None),
    ("cylfield", "grad_cyl", "cylfield.grad_cyl", None),
    ("pressure", "pressure_of", "pressure.pressure_of", None),
    ("pressure", "bochner_k", "pressure.bochner_k", _bochner_repeat),
    ("pressure", "bochner_decomposition", "pressure.bochner_decomposition", None),
    ("pressure", "divergence_form_residual", "pressure.divergence_form_residual", None),
    ("pressure", "residual_eq_P", "pressure.residual_eq_P", None),
    ("bubble", "bubble_cylinder", "bubble.bubble_cylinder", None),
    ("bubble", "eval_bubble", "bubble.eval_bubble", None),
    ("estimates", "weak_energy", "estimates.weak_energy", None),
    ("estimates", "low_dim_chain", "estimates.low_dim_chain", None),
    ("estimates", "finite_energy_chain", "estimates.finite_energy_chain", None),
    ("estimates", "int_ineq_sides", "estimates.int_ineq_sides", None),
    ("estimates", "superharmonic_lower_bound", "estimates.superharmonic_lower_bound", None),
    ("radial_ode", "shoot", "radial_ode.shoot", None),
    ("radial_ode", "solve_ivp", "radial_ode.solve_ivp", _solve_ivp_nfev),
    ("radial_ode", "match_bubble", "radial_ode.match_bubble", None),
    ("radial_ode", "minimize_scalar", "radial_ode.minimize_scalar", _minimize_nfev),
    ("radial_ode", "radial_rigidity_sweep", "radial_ode.sweep", _sweep_matches),
    ("spectral", "lowest_eigenvalue", "spectral.lowest_eigenvalue", _eigen_rows),
    ("spectral", "fs_crossing", "spectral.fs_crossing", None),
    ("verify", "evaluate_log_field", "verify.evaluate_log_field", None),
    ("verify", "run_identities_suite", "verify.run_identities_suite", None),
    ("verify", "run_estimates_suite", "verify.run_estimates_suite", None),
    ("verify", "run_rigidity_suite", "verify.run_rigidity_suite", None),
    ("verify", "run_spectrum_suite", "verify.run_spectrum_suite", None),
    ("reporting", "json_text", "reporting.json_text", None),
    ("reporting", "csv_text", "reporting.csv_text", _csv_bytes),
    ("params", "derive_params", "params.derive_params", None),
)
ORDERED_MAP = "reporting.ordered_map"
POOL_ITEM = "reporting.ordered_map.item"


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent span, op, thread]
        self.counters = defaultdict(float)
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._seen = {}          # id -> weak reference, for the current operation

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str) -> list:
        st = self._stack()
        rec = [name, clock(), None, st[-1] if st else None, self.op,
               threading.get_ident()]
        self.spans.append(rec)
        st.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = clock()
        self._stack().pop()

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] += amount

    def seen_before(self, obj) -> int:
        with self._lock:
            ref = self._seen.get(id(obj))
            if ref is not None and ref() is obj:
                return 1
            self._seen[id(obj)] = weakref.ref(obj)
            return 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_ordered_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items, *args, **kwargs):
            parent = tracer._open(ORDERED_MAP)

            def item(x):
                st = tracer._stack()
                st.append(parent)   # worker threads start below the map span
                rec = tracer._open(POOL_ITEM)
                try:
                    return item_fn(x)
                finally:
                    tracer._close(rec)
                    st.pop()

            try:
                return fn(item, items, *args, **kwargs)
            finally:
                tracer._close(parent)

        return wrapper

    def install(self) -> None:
        """Wrap every target in each cknlab namespace that binds it."""
        wrapped = {}
        for mod, attr, name, hook in TARGETS:
            original = getattr(sys.modules[f"cknlab.{mod}"], attr)
            wrapped[id(original)] = (original, self._wrap(original, name, hook))
        om = sys.modules["cknlab.reporting"].ordered_map
        wrapped[id(om)] = (om, self._wrap_ordered_map(om))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cknlab" or modname.startswith("cknlab.")):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- output ----------------------------------------------------------
    def export(self) -> list:
        """Spans as [name, start, end, parent index, op, thread] lists."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [[name, start, end, None if parent is None else index[id(parent)], op, tid]
                for name, start, end, parent, op, tid in self.spans]


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans: list) -> dict:
    """Per-name calls, total and self time, plus pool and crossing details."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] is not None:
            children[rec[3]].append(i)
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    pool = {"items": 0, "busy": 0.0, "capacity": 0.0}
    crossing_eigs = 0
    for i, (name, start, end, _, _, _) in enumerate(spans):
        kids = children.get(i, ())
        covered = _union_length([(max(spans[k][1], start), min(spans[k][2], end))
                                 for k in kids])
        st = stats[name]
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += (end - start) - covered
        if name == ORDERED_MAP:
            threads = {spans[k][5] for k in kids}
            pool["items"] += len(kids)
            pool["busy"] += sum(spans[k][2] - spans[k][1] for k in kids)
            pool["capacity"] += (end - start) * max(len(threads), 1)
        elif name == "spectral.fs_crossing":
            stack = list(kids)
            while stack:
                k = stack.pop()
                crossing_eigs += spans[k][0] == "spectral.lowest_eigenvalue"
                stack.extend(children.get(k, ()))
    return {"names": dict(stats), "pool": pool, "crossing_eigs": crossing_eigs}


# Per-layer metric -> (unit, better); values are per traced operation.
LAYER_METRICS = {}


def _layer(name: str, unit: str, better: str = "lower") -> None:
    LAYER_METRICS[name] = (unit, better)


for _mod, _attr, _span, _hook in TARGETS:
    _layer(f"{_span}.calls", "count")
    _layer(f"{_span}.self_s", "s")
for _name in ("verify.run_identities_suite", "verify.run_estimates_suite",
              "verify.run_rigidity_suite", "verify.run_spectrum_suite", ORDERED_MAP):
    _layer(f"{_name}.total_s", "s")
_layer(f"{ORDERED_MAP}.calls", "count")
_layer(f"{ORDERED_MAP}.items", "count")
_layer(f"{ORDERED_MAP}.parallel_eff", "frac", "higher")
_layer("grids.stencil.elements", "count")
_layer("grids.integrate_uniform.cells", "count")
_layer("pressure.bochner_k.repeat_frac", "frac")
_layer("radial_ode.solve_ivp.nfev", "count")
_layer("radial_ode.minimize_scalar.nfev", "count")
_layer("radial_ode.sweep.match_ratio", "frac", "higher")
_layer("spectral.lowest_eigenvalue.rows", "count")
_layer("spectral.fs_crossing.iterations", "count")
_layer("reporting.csv_text.bytes", "B")


def layer_metrics(spans: list, counters: dict, ops: int) -> dict:
    """Per-layer values per traced operation, for every name in LAYER_METRICS."""
    s = span_stats(spans)
    per = 1.0 / max(ops, 1)
    out = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if layer in s["names"] and stat in ("calls", "total_s", "self_s"):
            out[name] = s["names"][layer][stat] * per
        elif name in counters:
            out[name] = counters[name] * per
        else:
            out[name] = 0.0
    def calls(layer: str) -> int:
        return s["names"].get(layer, {}).get("calls", 0)

    pool = s["pool"]
    out[f"{ORDERED_MAP}.items"] = pool["items"] * per
    out[f"{ORDERED_MAP}.parallel_eff"] = pool["busy"] / pool["capacity"] if pool["capacity"] else 0.0
    bk = calls("pressure.bochner_k")
    out["pressure.bochner_k.repeat_frac"] = (
        counters.get("pressure.bochner_k.repeats", 0.0) / bk if bk else 0.0)
    shots = counters.get("radial_ode.sweep.shots", 0.0)
    out["radial_ode.sweep.match_ratio"] = (
        counters.get("radial_ode.sweep.matched", 0.0) / shots if shots else 0.0)
    fs = calls("spectral.fs_crossing")
    out["spectral.fs_crossing.iterations"] = s["crossing_eigs"] / fs if fs else 0.0
    return out
