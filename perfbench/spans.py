"""Span tracing of opencob's layers, installed from the benchmark's own code.

``Tracer.install`` replaces each traced function with a timing wrapper in
every opencob module that holds it (``opencob.gluing.smith`` as well as
``opencob.snf.smith``), and wraps three methods on their classes.  While
``enabled`` is set, each call records a span (name, start, end, parent
span) in memory; ``write`` saves the spans when the run ends, and
``layer_metrics`` folds them into the per-layer figures.  No file under
``src/`` changes.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (span name, module, function)
FUNCTIONS = (
    ("snf.smith", "snf", "smith"),
    ("snf.solve_int", "snf", "solve_int"),
    ("snf.solve_exact", "snf", "solve_exact"),
    ("snf.det_bareiss", "snf", "det_bareiss"),
    ("statespace.build", "statespace", "build"),
    ("statespace.action_matrix", "statespace", "action_matrix"),
    ("statespace.bimodule_of", "statespace", "bimodule_of"),
    ("superalg.tensor_middle", "superalg", "tensor_middle"),
    ("superalg.is_graded_iso", "superalg", "is_graded_iso"),
    ("superalg.external_tensor", "superalg", "external_tensor"),
    ("gluing.compose_iso", "gluing", "compose_iso"),
    ("gluing.self_glue_iso", "gluing", "self_glue_iso"),
    ("gluing.quotient_oracle", "gluing", "quotient_oracle"),
    ("gluing.union_iso", "gluing", "union_iso"),
    ("gluing.naturality_square", "gluing", "naturality_square"),
    ("gluing.pants_iso", "gluing", "pants_iso"),
    ("homology.canonical_basis", "homology", "canonical_basis"),
    ("homology.adapted_basis", "homology", "adapted_basis"),
    ("homology.change_of_basis", "homology", "change_of_basis"),
    ("surface.glue_intervals", "surface", "glue_intervals"),
    ("harness.random_composable_pair", "harness", "random_composable_pair"),
    ("harness.random_surface", "harness", "random_surface"),
)
# (span name, module, class, method)
METHODS = (
    ("snf.matmul", "snf", "IntMat", "__matmul__"),
    ("superalg.validate", "superalg", "Bimodule", "validate"),
    ("superalg.check_blocks", "superalg", "GradedMap", "check_blocks"),
)

# Per-layer metrics: (name, unit, better).  Set-up generators (harness.*)
# report seconds per run; every other figure is per verified operation,
# so that runs of different length compare.
PER_LAYER = (
    ("snf.smith.calls", "calls/op", "lower"),
    ("snf.smith.self_s", "s/op", "lower"),
    ("snf.smith.nnz_in", "nnz/op", "lower"),
    ("snf.smith.transform_calls", "calls/op", "lower"),
    ("snf.smith.max_bits", "bits", "lower"),
    ("snf.matmul.calls", "calls/op", "lower"),
    ("snf.matmul.self_s", "s/op", "lower"),
    ("snf.matmul.nnz_out", "nnz/op", "lower"),
    ("snf.solve_int.calls", "calls/op", "lower"),
    ("snf.solve_int.self_s", "s/op", "lower"),
    ("snf.solve_exact.calls", "calls/op", "lower"),
    ("snf.solve_exact.self_s", "s/op", "lower"),
    ("snf.det_bareiss.calls", "calls/op", "lower"),
    ("snf.det_bareiss.self_s", "s/op", "lower"),
    ("statespace.build.calls", "calls/op", "lower"),
    ("statespace.build.self_s", "s/op", "lower"),
    ("statespace.action_matrix.calls", "calls/op", "lower"),
    ("statespace.action_matrix.hit_ratio", "ratio", "higher"),
    ("statespace.action_matrix.self_s", "s/op", "lower"),
    ("statespace.bimodule_of.calls", "calls/op", "lower"),
    ("statespace.bimodule_of.s", "s/op", "lower"),
    ("superalg.tensor_middle.calls", "calls/op", "lower"),
    ("superalg.tensor_middle.self_s", "s/op", "lower"),
    ("superalg.tensor_middle.s", "s/op", "lower"),
    ("superalg.tensor_middle.ambient_dim", "dim/op", "lower"),
    ("superalg.is_graded_iso.calls", "calls/op", "lower"),
    ("superalg.is_graded_iso.self_s", "s/op", "lower"),
    ("superalg.is_graded_iso.s", "s/op", "lower"),
    ("superalg.is_graded_iso.structural", "isos/op", "lower"),
    ("superalg.validate.calls", "calls/op", "lower"),
    ("superalg.validate.self_s", "s/op", "lower"),
    ("superalg.check_blocks.calls", "calls/op", "lower"),
    ("superalg.check_blocks.self_s", "s/op", "lower"),
    ("superalg.external_tensor.calls", "calls/op", "lower"),
    ("superalg.external_tensor.s", "s/op", "lower"),
    ("gluing.compose_iso.s", "s/op", "lower"),
    ("gluing.self_glue_iso.calls", "calls/op", "lower"),
    ("gluing.self_glue_iso.self_s", "s/op", "lower"),
    ("gluing.self_glue_iso.s", "s/op", "lower"),
    ("gluing.self_glue_iso.explicit", "glues/op", "higher"),
    ("gluing.quotient_oracle.calls", "calls/op", "lower"),
    ("gluing.quotient_oracle.self_s", "s/op", "lower"),
    ("gluing.union_iso.s", "s/op", "lower"),
    ("gluing.naturality_square.s", "s/op", "lower"),
    ("gluing.pants_iso.s", "s/op", "lower"),
    ("homology.canonical_basis.calls", "calls/op", "lower"),
    ("homology.canonical_basis.s", "s/op", "lower"),
    ("homology.adapted_basis.calls", "calls/op", "lower"),
    ("homology.adapted_basis.s", "s/op", "lower"),
    ("homology.change_of_basis.calls", "calls/op", "lower"),
    ("homology.change_of_basis.s", "s/op", "lower"),
    ("surface.glue_intervals.calls", "calls/op", "lower"),
    ("surface.glue_intervals.s", "s/op", "lower"),
    ("harness.random_composable_pair.s", "s", "lower"),
    ("harness.random_surface.s", "s", "lower"),
)


def _nnz(mat) -> int:
    return sum(len(col) for col in mat.cols.values())


def _max_bits(sf) -> int:
    bits = max((abs(d).bit_length() for d in sf.diag), default=0)
    for mat in (sf.u, sf.uinv, sf.v, sf.vinv):
        if mat is not None:
            for col in mat.cols.values():
                for v in col.values():
                    bits = max(bits, abs(v).bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list = []
        self.enabled = False
        self.counts: dict = {}     # extra quantities, e.g. "snf.smith.nnz_in"

    def add(self, key: str, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _smith(self, args, kwargs, sf):
        self.add("snf.smith.nnz_in", _nnz(args[0]))
        if any(m is not None for m in (sf.u, sf.uinv, sf.v, sf.vinv)):
            self.add("snf.smith.transform_calls", 1)
        self.counts["snf.smith.max_bits"] = max(
            self.counts.get("snf.smith.max_bits", 0), _max_bits(sf))

    def _matmul(self, args, kwargs, out):
        self.add("snf.matmul.nnz_out", _nnz(out))

    def _tensor_middle(self, args, kwargs, out):
        self.add("superalg.tensor_middle.ambient_dim", args[0].dim * args[1].dim)

    def _is_graded_iso(self, args, kwargs, out):
        if "unimodular[structural]" in getattr(out, "checks", ()):
            self.add("superalg.is_graded_iso.structural", 1)

    def _self_glue_iso(self, args, kwargs, out):
        if out.iso is not None:
            self.add("gluing.self_glue_iso.explicit", 1)

    def _action_matrix(self, args, kwargs):
        if args[1] in args[0].action_cache:
            self.add("statespace.action_matrix.hits", 1)

    def wrap(self, name: str, fn, before=None, after=None):
        ix = len(self.names)
        self.names.append(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack = self.stack
            span = len(self.start)
            self.span_name.append(ix)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[span] = t0
                self.end[span] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and method of the imported opencob."""
        hooks = {"snf.smith": (None, self._smith),
                 "snf.matmul": (None, self._matmul),
                 "superalg.tensor_middle": (None, self._tensor_middle),
                 "superalg.is_graded_iso": (None, self._is_graded_iso),
                 "gluing.self_glue_iso": (None, self._self_glue_iso),
                 "statespace.action_matrix": (self._action_matrix, None)}
        modules = {m: importlib.import_module(f"opencob.{m}")
                   for m in {entry[1] for entry in FUNCTIONS + METHODS}}
        package = [m for n, m in sys.modules.items()
                   if n == "opencob" or n.startswith("opencob.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original, *hooks.get(name, (None, None)))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(modules[module], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr),
                                         *hooks.get(name, (None, None))))

    def write(self, path):
        """Save the spans as gzip'd CSV: name, start and end in ns, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for k in range(len(self.start)):
                out.write(f"{k},{self.names[self.span_name[k]]},"
                          f"{round((self.start[k] - t0) * 1e9)},"
                          f"{round((self.end[k] - t0) * 1e9)},"
                          f"{self.parent[k]}\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Every PER_LAYER figure, from the spans and the extra counts."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for k in range(n):
            ix = self.span_name[k]
            d = self.end[k] - self.start[k]
            calls[ix] += 1
            incl[ix] += d
            own[ix] += d - child[k]
        by_name = {name: ix for ix, name in enumerate(self.names)}
        out = {}
        for metric, unit, _ in PER_LAYER:
            layer, quantity = metric.rsplit(".", 1)
            ix = by_name[layer]
            if quantity == "calls":
                value = calls[ix] / n_ops
            elif quantity == "s":
                value = incl[ix] if unit == "s" else incl[ix] / n_ops
            elif quantity == "self_s":
                value = own[ix] / n_ops
            elif quantity == "hit_ratio":
                value = self.counts.get(f"{layer}.hits", 0) / max(calls[ix], 1)
            elif quantity == "max_bits":
                value = self.counts.get(metric, 0)
            else:
                value = self.counts.get(metric, 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out
