"""Spans around every public call into qprog's modules, from outside the package.

``Tracer.install`` wraps each public function of the eight modules and the
``FieldCtx`` methods that act on arrays, and rebinds every name in the
package that refers to the original: modules import functions by name
(``from .characters import fourier``), so wrapping only the defining module
would miss calls made inside the package.  Each call records a span (name, start,
end, parent) in flat arrays kept in memory; ``write`` saves them when the
run ends.  Inclusive times, call counts and per-layer self times (span time
minus the time its child spans cover) are summed as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("field", "characters", "kernels", "operators", "weil", "constructions", "reporting", "cli")

VEC_METHODS = ("add_vec", "neg_vec", "sub_vec", "mul_vec", "sq_vec", "inv_vec", "div_vec", "pow_vec")

# FieldCtx methods on one element are called per element inside Python loops
# (field construction alone makes ~80k of them at q = 2187).  A span around
# each would time mostly the span itself, so they stay unwrapped and their
# time counts as the caller's self time.  The ``add_table`` property is not
# wrapped either: every ``add_vec`` reads it, and its one-time build is
# inside that ``add_vec`` span.
SCALAR_METHODS = ("check_element", "add", "sub", "neg", "mul", "inv", "div", "pow",
                  "mul_direct", "frobenius", "from_int", "trace")

# Timed per-layer metrics: the spans each one sums.  Where spans of one group
# nest (fourier calls char_matrix, sub_vec calls add_vec), only the outermost
# counts, so no time is counted twice within a metric.
TIME_GROUPS = {
    "field.build_s": ("field.build_field",),
    "field.vec_s": tuple(f"field.FieldCtx.{m}" for m in VEC_METHODS),
    "characters.char_matrix_s": ("characters.char_matrix",),
    "characters.fourier_s": ("characters.fourier", "characters.fourier_inverse"),
    "characters.mult_fourier_s": ("characters.mult_fourier", "characters.mult_fourier_inverse"),
    "kernels.quad_kernel_table_s": ("kernels.quad_kernel_table",),
    "kernels.checks_s": ("kernels.quad_kernel_check", "kernels.pair_kernel_check",
                         "kernels.decomposition_check"),
    "operators.averaging_apply_s": ("operators.averaging_apply", "operators.averaging_apply_fourier"),
    "operators.deviation_norm_s": ("operators.deviation_norm",),
    "operators.sliced_square_form_s": ("operators.sliced_square_form",),
    "operators.sliced_operator_norm_s": ("operators.sliced_operator_norm",),
    "operators.count_progressions_s": ("operators.count_progressions",),
    "weil.weil_scan_s": ("weil.weil_scan",),
    "weil.cell_checks_s": ("weil.substitution_check", "weil.ratio_sum_check"),
    "constructions.plane_census_s": ("constructions.plane_census",),
    "constructions.greedy_s": ("constructions.greedy_progression_free",),
    "reporting.write_s": ("reporting.write_json", "reporting.write_csv"),
}

CONSTRUCTORS = ("constructions.greedy_progression_free", "constructions.quadratic_extension_line",
                "constructions.plane_census")

# name -> unit of every metric ``metrics`` returns
METRIC_UNITS = {
    "field.build_s": "s",
    "field.builds_per_field": "count",
    "field.vec_calls": "count",
    "field.vec_s": "s",
    "field.cache_mb": "MB",
    **{name: "s" for name in TIME_GROUPS if not name.startswith("field.")},
    "constructions.certifications_per_set": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _cache_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_cache_bytes(x) for x in obj)
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer_of: list[int] = []
        self._groups_of: list[tuple[int, ...]] = []
        # one entry per span
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._child = array("d")
        self._stack: list[int] = []
        # running sums
        self._calls: list[int] = []
        self._group_names = list(TIME_GROUPS)
        self._group_active = [0] * len(self._group_names)
        self._group_time = [0.0] * len(self._group_names)
        self._self_time = [0.0] * len(LAYERS)
        # per operation
        self.op_first_span = array("i")
        self._op_fields: list = []
        self._builds = 0
        self._distinct = 0
        self._cache_mb = 0.0
        self._restore: list = []

    # -- span recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(LAYERS.index(name.split(".", 1)[0]))
            self._groups_of.append(tuple(
                g for g, members in enumerate(TIME_GROUPS.values()) if name in members))
            self._calls.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self._child.append(0.0)
        stack.append(idx)
        for g in self._groups_of[nid]:
            self._group_active[g] += 1
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        dur = t - self.start[idx]
        parent = self.parent[idx]
        if parent >= 0:
            self._child[parent] += dur
        self._self_time[self._layer_of[nid]] += dur - self._child[idx]
        self._calls[nid] += 1
        for g in self._groups_of[nid]:
            self._group_active[g] -= 1
            if self._group_active[g] == 0:
                self._group_time[g] += dur

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:  # one span per resumption
                    idx = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(idx, nid)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, nid)

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers and the FieldCtx methods
        that act on whole arrays."""
        import qprog
        from qprog import field

        modules = {layer: importlib.import_module(f"qprog.{layer}") for layer in LAYERS}
        package = [qprog, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped where it is defined
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                if attr == "build_field":
                    wrapped = self._note_build(wrapped)
                for holder in package:
                    for key, val in list(vars(holder).items()):
                        if val is obj:
                            setattr(holder, key, wrapped)
                            self._restore.append((holder, key, obj))
        cls = field.FieldCtx
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or attr in SCALAR_METHODS or not inspect.isfunction(obj):
                continue
            setattr(cls, attr, self._wrap(f"field.FieldCtx.{attr}", obj))
            self._restore.append((cls, attr, obj))

    def uninstall(self) -> None:
        for holder, key, obj in reversed(self._restore):
            setattr(holder, key, obj)
        self._restore.clear()

    def _note_build(self, wrapped):
        @functools.wraps(wrapped)
        def build(*args, **kwargs):
            ctx = wrapped(*args, **kwargs)
            self._op_fields.append(ctx)
            return ctx
        return build

    # -- operations ---------------------------------------------------------------

    def begin_op(self) -> None:
        self.op_first_span.append(len(self.start))
        self._op_fields = []

    def end_op(self) -> None:
        """Count field builds against distinct fields, and the bytes their caches hold."""
        self._builds += len(self._op_fields)
        self._distinct += len({(c.p, c.s) for c in self._op_fields})
        held = sum(_cache_bytes(v) for c in self._op_fields for v in c._cache.values())
        self._cache_mb = max(self._cache_mb, held / 2**20)
        self._op_fields = []

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def metrics(self) -> dict[str, float]:
        built = sum(self.calls(c) for c in CONSTRUCTORS)
        out = dict(zip(self._group_names, self._group_time))
        out.update({
            "field.builds_per_field": self._builds / self._distinct if self._distinct else 0.0,
            "field.vec_calls": sum(self.calls(f"field.FieldCtx.{m}") for m in VEC_METHODS),
            "field.cache_mb": self._cache_mb,
            "constructions.certifications_per_set":
                self.calls("constructions.is_progression_free") / built if built else 0.0,
        })
        out.update({f"{layer}.self_s": t for layer, t in zip(LAYERS, self._self_time)})
        return {name: out[name] for name in METRIC_UNITS}

    def write(self, path) -> None:
        """Save the spans: name table, name index, parent index, start and end times."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            op_first_span=np.frombuffer(self.op_first_span, dtype=np.int32),
        )
