"""Spans recorded from outside the program, by wrapping its public functions.

`Tracer.install()` replaces every public function of the btoep modules,
the public methods of the classes they define and five numpy.linalg
routines with wrappers that record a span while a task is active.  A
function imported by name into another module is bound twice, so every
module namespace is scanned and each binding of a wrapped function is
replaced.  `uninstall()` puts the originals back.

A span is [id, parent id, task id, name, start, end, covered, attrs]:
`covered` is the time its direct child spans cover, so its self time is
end - start - covered.  Spans stay in memory until `write()`.

Computed counts are derived from argument shapes, never measured:
  operators.apply        32 B per vertex per call (read x, write y)
  operators.materialize  16 B per entry of the N x N complex matrix
  linalg.*               textbook flop counts (Golub & Van Loan), x4 for
                         complex input; norm(M, 2) counts as an SVD
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

import numpy as np

import btoep

LAYERS = ("tree", "symbols", "operators", "spectral", "dpp", "verify", "cli")
LINALG = ("svd", "eigh", "eigvalsh", "qr", "norm")


def _op_dim(args, kwargs, out):
    return {"n": args[0].dim}


def _materialize_bytes(args, kwargs, out):
    return {"bytes": 16 * args[0].dim ** 2}


def _norm_iterations(args, kwargs, out):
    return {"iterations": out.iterations}


def _draw(args, kwargs, out):
    return {"n": args[0].dim, "points": len(out.occupied)}


def _flops(name):
    def note(args, kwargs, out):
        a = np.asarray(args[0])
        scale = 4 if np.iscomplexobj(a) else 1
        if a.ndim < 2:
            return {"flops": 2 * a.size * scale}
        m, n = a.shape[-2:]
        batch = int(np.prod(a.shape[:-2]))
        k = min(m, n)
        if name == "svd":
            values_only = not kwargs.get("compute_uv", True)
            f = 4 * m * n * k - 4 * k**3 / 3 if values_only else 4 * m * m * n + 8 * m * n * n + 9 * n**3
        elif name == "eigvalsh":
            f = 4 * n**3 / 3
        elif name == "eigh":
            f = 9 * n**3
        elif name == "qr":  # Householder factor plus forming the reduced Q
            f = 2 * (2 * m * k * k - 2 * k**3 / 3)
        elif (args[1] if len(args) > 1 else kwargs.get("ord")) in (2, -2):
            f = 4 * m * n * k - 4 * k**3 / 3
        else:
            f = 2 * m * n
        return {"flops": int(round(batch * scale * f))}

    return note


# annotations that turn arguments and results into computed counts
NOTES = {
    "operators.apply": _op_dim,
    "operators.materialize": _materialize_bytes,
    "spectral.operator_norm": _norm_iterations,
    "dpp.sample": _draw,
    **{f"linalg.{name}": _flops(name) for name in LINALG},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None  # spans are recorded only while a task runs
        self._undo = []

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1][0] if stack else None, self.task, name, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][6] += span[5] - span[4]
            if note is not None:
                span[7] = note(args, kwargs, out)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"btoep.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for name in LINALG:
            fn = getattr(np.linalg, name)
            wrapped[fn] = self.wrap(f"linalg.{name}", fn)
            self._set(np.linalg, name, wrapped[fn])
        # rebind every name that refers to a wrapped function, wherever it
        # was imported: cli.operator_norm, verify.radial_compress, ...
        for mod in (btoep, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(f"{layer}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(f"{layer}.{attr}", raw))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Spans as JSON lines: id, parent, task, name, start, end, attrs."""
        with open(path, "w") as fh:
            for sid, parent, task, name, start, end, _, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "task": task, "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


VERIFY_SUITES = (
    "radial_compression", "block_decomposition", "case_equalities", "multiplicativity",
    "isometry", "positivity", "weighted_equivalence", "cn_sandwich", "all",
)
SPECTRAL_ROUTINES = ("singular_values", "certify_positive", "norming_vector", "block_norms", "radial_compress")


def layer_metrics(spans, batches) -> dict:
    """Per-layer figures per traced batch, from the spans of those batches.

    Times and counts are per-batch means over the traced batches, so the
    self times of every layer plus bench.unattributed_s add up to
    bench.traced_batch_s.
    """
    nb = len(batches)
    calls, self_s, total_s = {}, {}, {}
    layer_calls, layer_self = {}, {}
    apply_vertices = flops = mat_bytes = iterations = points = 0
    draw_ms = {63: [], 511: []}
    cli_draws = 0
    for _, _, task, name, start, end, covered, attrs in spans:
        own = end - start - covered
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        attrs = attrs or {}
        flops += attrs.get("flops", 0)
        mat_bytes += attrs.get("bytes", 0)
        iterations += attrs.get("iterations", 0)
        if name == "operators.apply":
            apply_vertices += attrs["n"]
        elif name == "dpp.sample":
            points += attrs["points"]
            draw_ms.setdefault(attrs["n"], []).append(1e3 * (end - start))
            cli_draws += task.endswith(":dpp_cli")

    def per(x):
        return x / nb

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    written = sum(b["obs"].get("dpp_cli", {}).get("samples_written", 0) for b in batches)
    obs = [o for b in batches for o in b["obs"].values()]
    traced_s = per(sum(b["batch_s"] for b in batches))
    m = {
        "operators.apply.calls": per(calls.get("operators.apply", 0)),
        "operators.apply.self_s": per(self_s.get("operators.apply", 0.0)),
        "operators.apply.ns_per_vertex": 1e9 * self_s.get("operators.apply", 0.0) / apply_vertices if apply_vertices else 0.0,
        "operators.apply.bytes_computed": per(32 * apply_vertices),
        "operators.materialize.calls": per(calls.get("operators.materialize", 0)),
        "operators.materialize.self_s": per(self_s.get("operators.materialize", 0.0)),
        "operators.materialize.bytes_computed": per(mat_bytes),
        "operators.toeplitz_dense.self_s": per(self_s.get("operators.toeplitz_dense", 0.0)),
        "spectral.operator_norm.calls": per(calls.get("spectral.operator_norm", 0)),
        "spectral.operator_norm.self_s": per(self_s.get("spectral.operator_norm", 0.0)),
        "spectral.operator_norm.iterations": per(iterations),
        "spectral.operator_norm.rel_err": max((o.get("norm_rel_err", 0.0) for o in obs), default=0.0),
        **{f"spectral.{r}.self_s": per(self_s.get(f"spectral.{r}", 0.0)) for r in SPECTRAL_ROUTINES},
        **{f"linalg.{r}.self_s": per(self_s.get(f"linalg.{r}", 0.0)) for r in LINALG},
        "linalg.qr.calls": per(calls.get("linalg.qr", 0)),
        "linalg.dense_flops_computed": per(flops),
        "dpp.build_kernel.calls": per(calls.get("dpp.build_kernel", 0)),
        "dpp.build_kernel.self_s": per(self_s.get("dpp.build_kernel", 0.0)),
        "dpp.sample.draws": per(calls.get("dpp.sample", 0)),
        "dpp.sample.points": per(points),
        "dpp.sample.self_s": per(self_s.get("dpp.sample", 0.0)),
        "dpp.sample.ms_per_draw_n63": med(draw_ms[63]),
        "dpp.sample.ms_per_draw_n511": med(draw_ms[511]),
        "dpp.sssp_diagnostics.self_s": per(self_s.get("dpp.sssp_diagnostics", 0.0)),
        "dpp.draws_per_written_sample": cli_draws / written if written else 0.0,
        "dpp.across_ray_spread_ratio": max((o.get("across_ray_spread_ratio", 0.0) for o in obs), default=0.0),
        **{f"verify.{s}.self_s": per(self_s.get(f"verify.run_{s}", 0.0)) for s in VERIFY_SUITES},
        "cli.main.calls": per(calls.get("cli.main", 0)),
        "cli.main.self_s": per(self_s.get("cli.main", 0.0)),
        "cli.bytes_written": per(sum(o.get("bytes_written", 0) for o in obs)),
        **{f"{layer}.self_s": per(layer_self.get(layer, 0.0)) for layer in (*LAYERS, "linalg")},
        **{f"{layer}.calls": per(layer_calls.get(layer, 0)) for layer in ("symbols", "tree")},
        "bench.traced_batch_s": traced_s,
        "bench.unattributed_s": traced_s - per(sum(layer_self.values())),
        "trace.spans": per(len(spans)),
    }
    return m
