"""Per-layer tracing by wrapping qrmat's public functions from outside.

The layers are the package modules.  Each wrapped function belongs to a
*group* named "<layer>.<what>"; the group's figures feed the per-layer
metrics.  Every wrapped call pushes a frame, so a layer's self time is its
frames' durations minus the time their wrapped callees took.  Calls of the
groups in SPAN_GROUPS are also kept as spans (id, name, start, end, parent,
request) and written out when the worker ends; the very frequent leaf calls
(scalar cancellation, matrix compose/apply) are only aggregated, and the
scalar products and sums only counted, so that tracing stays affordable.

`from .linalg import inverse` binds the function again in the importing
module, and _R_BUILDERS holds the R-matrix routes in a dict, so install()
replaces every binding of each original it can find in qrmat's modules:
module attributes, module-level dict values, and class attributes (which
also covers aliases such as FieldElement.__radd__ = __add__).
"""

import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

# (module, attribute or Class.method, group, kind)
#   span   timed, self time, recorded as a span
#   leaf   timed, self time, aggregated only
#   count  call count only
TARGETS = (
    ("qrmat.qscalar", "laurent_cancel", "qscalar.cancel", "leaf"),
    ("qrmat.qscalar", "FieldElement.__mul__", "qscalar.mul", "count"),
    ("qrmat.qscalar", "FieldElement.__add__", "qscalar.add", "count"),
    ("qrmat.cartan", "make_cartan", "cartan.make", "span"),
    ("qrmat.linalg", "inverse", "linalg.elim", "span"),
    ("qrmat.linalg", "kernel", "linalg.elim", "span"),
    ("qrmat.linalg", "solve_many", "linalg.elim", "span"),
    ("qrmat.linalg", "rank", "linalg.elim", "span"),
    ("qrmat.linalg", "SparseMatrix.compose", "linalg.compose", "leaf"),
    ("qrmat.linalg", "SparseMatrix.apply", "linalg.apply", "leaf"),
    ("qrmat.uqmod", "make_irreducible", "uqmod.irreducible", "span"),
    ("qrmat.uqmod", "tensor", "uqmod.tensor", "span"),
    ("qrmat.uqmod", "isotypic_decomposition", "uqmod.isotypic", "span"),
    ("qrmat.uqmod", "verify_module", "uqmod.verify", "span"),
    ("qrmat.bases", "crystal_graph", "bases.crystal", "span"),
    ("qrmat.bases", "compute_global_basis", "bases.global_basis", "span"),
    ("qrmat.bases", "tensor_crystal", "bases.tensor_crystal", "span"),
    ("qrmat.sysmorph", "transport", "sysmorph.transport", "span"),
    ("qrmat.sysmorph", "make_Tw0", "sysmorph.tw0", "span"),
    ("qrmat.rmatrix", "based_tensor", "rmatrix.based_tensor", "span"),
    ("qrmat.rmatrix", "r_theta", "rmatrix.theta", "span"),
    ("qrmat.rmatrix", "r_krls", "rmatrix.krls", "span"),
    ("qrmat.rmatrix", "r_oracle", "rmatrix.oracle", "span"),
    ("qrmat.rmatrix", "braiding", "rmatrix.braiding", "span"),
    ("qrmat.rmatrix", "check_method_agreement", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_scaling", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_hexagon", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_ybe", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_gamma_lemma", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_lemma_identities", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_normalization", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "check_double_braiding", "rmatrix.check", "span"),
    ("qrmat.rmatrix", "RMatrixResult.serialize", "rmatrix.serialize",
     "span"),
    ("qrmat.cli", "main", "cli.main", "span"),
)

ELIM_GROUP = "linalg.elim"
# groups whose argument objects feed rmatrix.repeat_ratio
REPEAT_GROUPS = ("rmatrix.based_tensor", "rmatrix.braiding")
LAYERS = ("qscalar", "cartan", "linalg", "uqmod", "bases", "sysmorph",
          "rmatrix", "cli")

# per-layer metric -> (source, group or layer)
METRICS = {
    "qscalar.cancel_calls": ("calls", "qscalar.cancel"),
    "qscalar.cancel_s": ("time", "qscalar.cancel"),
    "qscalar.mul_calls": ("calls", "qscalar.mul"),
    "qscalar.add_calls": ("calls", "qscalar.add"),
    "cartan.make_calls": ("calls", "cartan.make"),
    "linalg.elim_calls": ("calls", ELIM_GROUP),
    "linalg.elim_s": ("time", ELIM_GROUP),
    "linalg.elim_cells": ("cells", ELIM_GROUP),
    "linalg.compose_calls": ("calls", "linalg.compose"),
    "linalg.compose_s": ("time", "linalg.compose"),
    "linalg.apply_s": ("time", "linalg.apply"),
    "linalg.self_s": ("self", "linalg"),
    "uqmod.irreducible_s": ("time", "uqmod.irreducible"),
    "uqmod.tensor_s": ("time", "uqmod.tensor"),
    "uqmod.isotypic_s": ("time", "uqmod.isotypic"),
    "uqmod.verify_s": ("time", "uqmod.verify"),
    "uqmod.self_s": ("self", "uqmod"),
    "bases.crystal_s": ("time", "bases.crystal"),
    "bases.global_basis_calls": ("calls", "bases.global_basis"),
    "bases.global_basis_s": ("time", "bases.global_basis"),
    "bases.tensor_crystal_s": ("time", "bases.tensor_crystal"),
    "bases.self_s": ("self", "bases"),
    "sysmorph.transport_calls": ("calls", "sysmorph.transport"),
    "sysmorph.transport_s": ("time", "sysmorph.transport"),
    "sysmorph.tw0_s": ("time", "sysmorph.tw0"),
    "sysmorph.self_s": ("self", "sysmorph"),
    "rmatrix.based_tensor_calls": ("calls", "rmatrix.based_tensor"),
    "rmatrix.based_tensor_s": ("time", "rmatrix.based_tensor"),
    "rmatrix.theta_s": ("time", "rmatrix.theta"),
    "rmatrix.krls_s": ("time", "rmatrix.krls"),
    "rmatrix.oracle_s": ("time", "rmatrix.oracle"),
    "rmatrix.braiding_s": ("time", "rmatrix.braiding"),
    "rmatrix.check_s": ("time", "rmatrix.check"),
    "rmatrix.serialize_s": ("time", "rmatrix.serialize"),
    "rmatrix.repeat_ratio": ("repeat", None),
    "rmatrix.self_s": ("self", "rmatrix"),
    "cli.requests": ("calls", "cli.main"),
    "cli.main_self_s": ("self", "cli"),
}


class Tracer:
    """Wraps qrmat's functions and accumulates per-group figures."""

    def __init__(self):
        self.request = -1
        self.calls: Dict[str, int] = defaultdict(int)
        self.time: Dict[str, float] = defaultdict(float)   # outermost calls
        self.self_time: Dict[str, float] = defaultdict(float)   # by layer
        self.cells = 0
        self.depth: Dict[str, int] = defaultdict(int)
        self.stack: List[list] = []        # [span id, start, callee time]
        self.spans: List[tuple] = []
        self.next_id = 0
        self.seen = set()
        self.keep_alive: List[object] = []  # keeps id() keys unique
        self.repeat_calls = 0
        self.repeat_hits = 0

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, group: str, record: bool):
        layer = group.split(".", 1)[0]
        calls, time, self_time, depth = (self.calls, self.time,
                                         self.self_time, self.depth)
        stack, spans = self.stack, self.spans
        elim = group == ELIM_GROUP
        repeat = group in REPEAT_GROUPS

        def wrapper(*args, **kwargs):
            calls[group] += 1
            if elim:
                self.cells += args[0].nrows * args[0].ncols
            if repeat:
                self._note_repeat(group, args)
            sid = -1
            if record:
                sid = self.next_id
                self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            depth[group] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[group] -= 1
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self_time[layer] += dur - frame[2]
                if depth[group] == 0:
                    time[group] += dur
                if record:
                    spans.append((sid, group, frame[1], end, parent,
                                  self.request))
        return wrapper

    def _counted(self, fn, group: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_repeat(self, group: str, args) -> None:
        key = (group,) + tuple(id(a) for a in args[:2])
        self.repeat_calls += 1
        if key in self.seen:
            self.repeat_hits += 1
        else:
            self.seen.add(key)
            self.keep_alive.append(args[:2])

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each target inside qrmat's modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qrmat" or name.startswith("qrmat.")]
        for modname, attr, group, kind in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, meth = attr.rpartition(".")
            original = (getattr(owner, cls_name).__dict__[meth] if cls_name
                        else getattr(owner, attr))
            if kind == "count":
                wrapper = self._counted(original, group)
            else:
                wrapper = self._timed(original, group, kind == "span")
            found = _rebind(modules, original, wrapper)
            if not found:
                raise RuntimeError(f"no binding of {modname}.{attr} found")

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, (source, key) in METRICS.items():
            if source == "calls":
                out[name] = self.calls[key]
            elif source == "time":
                out[name] = self.time[key]
            elif source == "self":
                out[name] = self.self_time[key]
            elif source == "cells":
                out[name] = self.cells
            else:
                out[name] = (self.repeat_hits / self.repeat_calls
                             if self.repeat_calls else 0.0)
        return out

    def spans_obj(self) -> dict:
        return {"fields": ["id", "name", "start", "end", "parent",
                           "request"],
                "spans": self.spans}


def _rebind(modules, original, wrapper) -> int:
    found = 0
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                found += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        found += 1
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, wrapper)
                        found += 1
    return found
