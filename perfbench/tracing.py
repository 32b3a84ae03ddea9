"""Span tracing of cyglue's layers from outside the package.

``Tracer.install`` replaces each traced function at every attribute the
program looks it up through (module globals, names imported with
``from ... import`` and class attributes), so calls made anywhere inside
the package are recorded. Spans are kept in memory as
(id, name, start, end, parent, op, points) and written as JSONL when the
run ends. Counts that measure wasted work are taken at the same
boundaries:

- distinct sample points of ``GluedStructure.Omega_t`` and of
  ``su3._recover_batch``, found by hashing the inputs, give repeat ratios;
- ``christoffel`` calls whose result is identically zero are calls on a
  constant metric, such as the flat cone chart;
- the integrand ``radial_primitive`` hands to scipy's ``quad_vec`` is
  counted at ``moser.quad_vec``, the name moser looks it up through.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

# (module, attribute path, index of the argument carrying the sample batch).
# The index counts ``self`` for methods; None means the function takes no
# sample batch. link_quadrature counts the nodes it returns, region_norms
# the nodes its form_norm and lower_tensor_norm calls measure.
TRACED = (
    ("forms", "wedge", 0),
    ("forms", "contract", 1),
    ("forms", "pullback", 1),
    ("forms", "hodge_star", 1),
    ("forms", "form_norm", 1),
    ("forms", "lower_tensor_norm", 0),
    ("forms", "KForm.as_tensor", 0),
    ("su3", "recover_su3", 1),
    ("su3", "_recover_batch", 1),
    ("g2", "build_phi_chi", 0),
    ("g2", "metric_from_phi", 0),
    ("g2", "torsion_psi", 1),
    ("cones", "ConeGeometry.fields_at", 1),
    ("cones", "ACGeometry.metric_on_target", 1),
    ("cones", "ACGeometry.correction_dB", 1),
    ("cones", "ACGeometry.log_det_h", 1),
    ("cones", "SyntheticPerturbation.primitive_A", 1),
    ("cones", "SyntheticPerturbation.dA", 1),
    ("cones", "link_quadrature", "nodes"),
    ("cones", "lie_derivative_check", None),
    ("analysis", "christoffel", 1),
    ("analysis", "covariant_derivative", 2),
    ("analysis", "riemann_ricci", 1),
    ("analysis", "kahler_ricci", 1),
    ("analysis", "region_norms", "children"),
    ("analysis", "fd_exterior_derivative", 1),
    ("moser", "radial_primitive", None),
    ("moser", "moser_vector_field", 1),
    ("moser", "moser_integrate", None),
    ("gluing", "GluedStructure.Omega_t", 1),
    ("gluing", "defect_scan", None),
    ("gluing", "thm52_check", None),
)

# the operations of the workloads' rounds, by the names run.py gives them
SUITES = ("pointwise", "cone-verify", "ale-verify", "thm52", "moser",
          "moser_seed12", "glue-scan")
NORM_KERNELS = ("forms.form_norm", "forms.lower_tensor_norm")


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


def per_layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, path, points in TRACED:
        name = span_name(module, path)
        out.append((f"{name}.calls", "count"))
        if points is not None:
            out.append((f"{name}.points", "count"))
        out.append((f"{name}.self_s", "s"))
    out += [
        ("gluing.Omega_t.repeat_ratio", "ratio"),
        ("su3._recover_batch.repeat_ratio", "ratio"),
        ("analysis.christoffel.flat_calls", "count"),
        ("moser.integrand.calls", "count"),
    ]
    out += [(f"cli.{suite}.wall_s", "s") for suite in SUITES]
    return out


def batch_size(obj) -> int:
    """Sample points over the leading batch axes of a form, metric or array."""
    if hasattr(obj, "coeffs"):
        shape = obj.coeffs.shape[:-1]
    elif hasattr(obj, "components"):
        shape = obj.components.shape[:-2]
    else:
        shape = np.shape(obj)[:-1]
    return int(np.prod(shape, dtype=np.int64))


_MIX = np.uint64(0x9E3779B97F4A7C15)


def row_hashes(*arrays) -> np.ndarray:
    """One 64-bit hash per sample, over the trailing axis of each array."""
    n = batch_size(arrays[0])
    words = [np.ascontiguousarray(np.broadcast_to(
        a, np.shape(arrays[0])[:-1] + np.shape(a)[-1:])).reshape(n, -1)
        .view(np.uint64) for a in arrays]
    w = np.concatenate(words, axis=1)
    h = np.zeros(n, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(w.shape[1]):
            z = (h ^ w[:, j]) * _MIX
            h = z ^ (z >> np.uint64(29))
            h = h * _MIX + np.uint64(j + 1)
    return h


class Tracer:
    """Records spans and counts of the traced layers, per op."""

    def __init__(self, cyglue_modules: dict):
        self.mods = cyglue_modules
        self.records = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._hashes = {"Omega_t": [], "_recover_batch": []}
        self.per_op = {}

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker thread: its spans belong to the span the main
        # thread is blocked in, which started the pool
        main = self._main_stack
        return main[-1] if main else None

    def span(self, name: str, points: int, start: float, end: float,
             sid: int, parent):
        self.records.append((sid, name, start, end, parent, self.op, points))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, name: str, fn, points_at, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            points = points_at(args, kwargs, result)
            tracer.span(name, points, start, end, sid, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _points_fn(spec):
        if spec is None or spec == "children":  # children: see metrics()
            return lambda args, kwargs, result: 0
        if spec == "nodes":  # link_quadrature: (points, weights)
            return lambda args, kwargs, result: int(result[0].shape[0])
        return lambda args, kwargs, result: (
            batch_size(args[spec]) if len(args) > spec else 0)

    def _hook(self, name):
        if name == "gluing.GluedStructure.Omega_t":
            return lambda args, kwargs, result: self._hashes["Omega_t"].append(
                row_hashes(np.asarray(args[1], float)))
        if name == "su3._recover_batch":
            return self._recover_hook
        if name == "analysis.christoffel":
            return self._flat_hook
        return None

    def _recover_hook(self, args, kwargs, result):
        Omega = np.asarray(args[1])
        self._hashes["_recover_batch"].append(row_hashes(
            np.real(Omega), np.imag(Omega), np.asarray(args[0], float)))

    def _flat_hook(self, args, kwargs, result):
        if not np.any(result):
            self.count("analysis.christoffel.flat_calls")

    def count(self, key: str, n: int = 1):
        with self._lock:
            op = self.per_op.setdefault(self.op, {})
            op[key] = op.get(key, 0) + n

    def _count_integrand(self):
        """Count the integrand evaluations of moser's quad_vec calls."""
        moser = self.mods["moser"]
        quad_vec = moser.quad_vec

        def counted_quad_vec(f, *args, **kwargs):
            def integrand(u):
                self.count("moser.integrand.calls")
                return f(u)
            return quad_vec(integrand, *args, **kwargs)

        moser.quad_vec = counted_quad_vec

    def install(self):
        """Wrap every traced function at each place it is looked up."""
        self._count_integrand()
        for module, path, points in TRACED:
            name = span_name(module, path)
            owner = self.mods[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(name, original, self._points_fn(points),
                                 self._hook(name))
            if len(parts) > 1:  # a method: the class is the only lookup
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cyglue"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # -- ops -------------------------------------------------------------
    def begin_op(self, op: int):
        self.op = op
        for v in self._hashes.values():
            v.clear()
        self._op_start = time.perf_counter()
        self._op_sid = next(self._ids)
        self._main_stack.append(self._op_sid)

    def end_op(self):
        self._main_stack.pop()
        self.span("op", 0, self._op_start, time.perf_counter(),
                  self._op_sid, None)
        for key, chunks in self._hashes.items():
            if chunks:
                h = np.concatenate(chunks)
                self.count(f"{key}.points_total", int(h.size))
                self.count(f"{key}.points_distinct",
                           int(np.unique(h).size))
        self.op = -1  # calls between ops, such as the checks, are not traced

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict:
        """Self time of every span: duration minus the union of the
        intervals its child spans cover (children of a pool run overlap)."""
        children = {}
        for sid, _, start, end, parent, _, _ in self.records:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.records:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def metrics(self, suite_walls: dict) -> dict:
        """Per-layer metrics, each the median over ops of its per-op value.

        suite_walls maps each suite to {op: the report's wall_time_s}.
        """
        selfs = self.self_times()
        ops = sorted(op for op in {r[5] for r in self.records} if op >= 0)
        table = {op: {} for op in ops}
        names = {r[0]: r[1] for r in self.records}
        # region_norms' nodes are those its norm kernels measure
        nodes = {}
        for _, name, _, _, parent, _, points in self.records:
            if (name in NORM_KERNELS
                    and names.get(parent) == "analysis.region_norms"):
                nodes[parent] = nodes.get(parent, 0) + points
        for sid, name, _, _, _, op, points in self.records:
            if name == "op" or op < 0:
                continue
            points += nodes.get(sid, 0)
            row = table[op]
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
            row[f"{name}.points"] = row.get(f"{name}.points", 0) + points
            row[f"{name}.self_s"] = row.get(f"{name}.self_s", 0.0) + selfs[sid]
        for op in ops:
            counts = self.per_op.get(op, {})
            row = table[op]
            for key in ("analysis.christoffel.flat_calls",
                        "moser.integrand.calls"):
                row[key] = counts.get(key, 0)
            for key, metric in (("Omega_t", "gluing.Omega_t.repeat_ratio"),
                                ("_recover_batch",
                                 "su3._recover_batch.repeat_ratio")):
                total = counts.get(f"{key}.points_total", 0)
                distinct = counts.get(f"{key}.points_distinct", 0)
                row[metric] = total / distinct if distinct else 0.0
            for suite, walls in suite_walls.items():
                row[f"cli.{suite}.wall_s"] = walls.get(op, 0.0)
        out = {}
        for name, unit in per_layer_metric_names():
            values = [table[op].get(name, 0) for op in ops] or [0]
            value = float(np.median(values))
            if unit == "count":
                value = int(round(value))
            out[name] = {"value": value, "unit": unit}
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, points in sorted(
                    self.records):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "points": points}) + "\n")
