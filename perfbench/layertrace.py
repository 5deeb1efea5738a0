"""Per-layer tracing from outside the package.

The package's modules bind names at import (`from .linalg import
sym_eigenvalues`), so a wrapper is useful only if it replaces the function in
every namespace that holds it: each layer module, the package itself, and any
module-level dict that stores it (such as the CLI's closed-form table).
`SpectrumMultiset.from_values` is patched on the class.

Spans (name, start, end, parent span, op id) are kept in memory and written
out at the end. Counters are observed at the call boundary with constant work
(a matrix order, a reference to the result) and reduced only after the pass,
so computing them adds next to nothing to the spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("graphs", "linalg", "spectra", "experiments", "cli")


def _matrix_order(args, kwargs, result, exc):
    m = args[0]
    return m.rows if hasattr(m, "rows") else len(m)


def _order_and_result(args, kwargs, result, exc):
    return args[0].rows, result


def _spectra_pair(args, kwargs, result, exc):
    tol = args[2] if len(args) > 2 else kwargs["tol"]
    return args[0], args[1], tol


def _succeeded(args, kwargs, result, exc):
    return exc is None


# (module, function, observation at the call boundary or None)
LAYER_FUNCTIONS = (
    ("graphs", "neighbourhood_corona", None),
    ("graphs", "is_isomorphic", None),
    ("graphs", "is_switching_isomorphic", None),
    ("graphs", "read_graph", None),
    ("graphs", "write_graph", None),
    ("linalg", "sym_eigenvalues", _matrix_order),
    ("linalg", "det_exact_at", _order_and_result),
    ("linalg", "char_poly_exact", _order_and_result),
    ("linalg", "SpectrumMultiset.from_values", None),
    ("linalg", "spectra_equal", _spectra_pair),
    ("linalg", "real_roots_quadratic", None),
    ("linalg", "real_roots_cubic", None),
    ("spectra", "matrix_of", None),
    ("spectra", "numeric_spectrum", None),
    ("spectra", "closed_form_adjacency", None),
    ("spectra", "closed_form_adjacency_kpq", None),
    ("spectra", "closed_form_laplacian", None),
    ("spectra", "closed_form_netlaplacian", None),
    ("spectra", "realize", None),
    ("spectra", "corona_adjacency_charpoly_eval", _succeeded),
    ("experiments", "random_signed_graph", None),
    ("experiments", "random_connected_positive", None),
    ("experiments", "random_connected_signed", None),
    ("experiments", "random_regular_signed", None),
    ("experiments", "random_net_regular", None),
)
# Entry points: reported as totals only; their self time is not layer work.
ENTRY_FUNCTIONS = (("experiments", "verify_theorem"), ("cli", "main"))

COMPUTED = {
    "linalg.sym_eigenvalues.order_max",
    "linalg.sym_eigenvalues.n3_sum",
    "linalg.det_exact_at.n3_sum",
    "linalg.det_exact_at.value_bits_max",
    "linalg.char_poly_exact.n4_sum",
    "linalg.char_poly_exact.coeff_bits_max",
    "spectra.corona_adjacency_charpoly_eval.useful_ratio",
    "linalg.spectra_equal.min_margin",
}


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.observations: dict[str, list] = defaultdict(list)
        self.op_id: int | None = None
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self, env) -> None:
        modules = {m: getattr(env, m) for m in LAYER_MODULES}
        namespaces = [env.package, *modules.values()]
        specs = [*LAYER_FUNCTIONS, *((m, f, None) for m, f in ENTRY_FUNCTIONS)]
        for module, qualname, observe in specs:
            name = f"{module}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(modules[module], owner_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__, observe)))
                continue
            original = getattr(modules[module], attr)
            wrapped = self._wrap(name, original, observe)
            tables = [vars(ns) for ns in namespaces]
            tables += [v for t in tables for v in t.values() if isinstance(v, dict)]
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        self._undo.append((table, key, original))
                        table[key] = wrapped

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def _wrap(self, name, func, observe):
        spans, stack, observations = self.spans, self.stack, self.observations[name]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            result = exc = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                spans[index] = (name, start, perf_counter(), parent, self.op_id)
                stack.pop()
                if observe is not None:
                    observations.append(observe(args, kwargs, result, exc))

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.append(len(self.spans))
        self.spans.append(("op", perf_counter(), None, None, op_id))

    def end_op(self) -> None:
        index = self.stack.pop()
        name, start, _, parent, op_id = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, op_id)
        self.op_id = None

    # -- reduction -----------------------------------------------------------

    def metrics(self, untraced_wall: float, traced_wall: float) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
            total_s[name] += end - start
        out: dict[str, float] = {}
        for module, qualname, _ in LAYER_FUNCTIONS:
            name = f"{module}.{qualname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for module, qualname in ENTRY_FUNCTIONS:
            name = f"{module}.{qualname}"
            out[f"{name}.total_s"] = total_s[name]
        out.update(self._counters())
        op_time = total_s["op"]
        layer_self = sum(out[f"{m}.{f}.self_s"] for m, f, _ in LAYER_FUNCTIONS)
        out["trace.overhead_ratio"] = traced_wall / untraced_wall
        out["trace.coverage"] = layer_self / op_time if op_time else 0.0
        return out

    def _counters(self) -> dict[str, float]:
        obs = self.observations
        orders = obs["linalg.sym_eigenvalues"]
        dets = obs["linalg.det_exact_at"]
        polys = obs["linalg.char_poly_exact"]
        evals = obs["spectra.corona_adjacency_charpoly_eval"]
        margins = []
        for a, b, tol in obs["linalg.spectra_equal"]:
            if a.total == b.total:
                gap = max((abs(x - y) for x, y in zip(a.values(), b.values())), default=0.0)
                if gap > 0:
                    margins.append(tol / gap)
        return {
            "linalg.sym_eigenvalues.order_max": max(orders, default=0),
            "linalg.sym_eigenvalues.n3_sum": sum(n**3 for n in orders),
            "linalg.det_exact_at.n3_sum": sum(n**3 for n, _ in dets),
            "linalg.det_exact_at.value_bits_max": max(
                (_bits(v) for _, v in dets if v is not None), default=0
            ),
            "linalg.char_poly_exact.n4_sum": sum(n**4 for n, _ in polys),
            "linalg.char_poly_exact.coeff_bits_max": max(
                (_bits(c) for _, p in polys if p is not None for c in p.coeffs), default=0
            ),
            "spectra.corona_adjacency_charpoly_eval.useful_ratio": (
                sum(evals) / len(evals) if evals else 0.0
            ),
            # tol / max|closed - oracle|: how far a comparison was from failing.
            "linalg.spectra_equal.min_margin": min(margins, default=0.0),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def layer_table(metrics: dict[str, float], bypassed: tuple[str, ...]) -> list[str]:
    """Human-readable report of one traced run: layer functions sorted by self
    time, the totals, the computed counters and the bypass predictions."""
    op_total = sum(metrics[f"{m}.{f}.total_s"] for m, f in ENTRY_FUNCTIONS)
    rows = sorted(
        (f"{m}.{f}" for m, f, _ in LAYER_FUNCTIONS),
        key=lambda name: -metrics[f"{name}.self_s"],
    )
    lines = [f"{'layer function':<46} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name in rows:
        self_s = metrics[f"{name}.self_s"]
        share = self_s / op_total if op_total else 0.0
        lines.append(f"{name:<46} {metrics[f'{name}.calls']:>9} {self_s:>10.4f} {share:>7.1%}")
    by_layer: dict[str, float] = defaultdict(float)
    for name in rows:
        by_layer[name.split(".")[0]] += metrics[f"{name}.self_s"]
    lines.append("self time by layer: " + ", ".join(
        f"{layer} {t / op_total:.1%}" if op_total else f"{layer} 0"
        for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])
    ))
    for m, f in ENTRY_FUNCTIONS:
        lines.append(f"total {m}.{f}: {metrics[f'{m}.{f}.total_s']:.4f} s")
    for name in sorted(COMPUTED):
        lines.append(f"computed {name}: {metrics[name]:g}")
    lines.append(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f}, "
                 f"trace.coverage {metrics['trace.coverage']:.3f}")
    for name in bypassed:
        calls = metrics[f"{name}.calls"]
        verdict = "holds" if calls == 0 else "VIOLATED"
        lines.append(f"bypass prediction {verdict}: {name} called {calls} times")
    return lines
