"""Span tracer that patches the package's public functions from outside.

``Tracer.install()`` replaces every public function of each layer module,
and every public method of the classes those modules define, with a
wrapper that records a span (name, start, end, parent).  It also wraps
``numpy.linalg.svd`` and ``numpy.einsum``; those spans are attributed to
the layer that called them and stay inside that layer's self time.
``Tracer.uninstall()`` restores the originals.

Spans live in flat arrays until the run ends; ``layer_metrics`` then
reduces them to the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("model_space", "tensor_ops", "curvature_space", "decomposition",
          "torsion", "curvature_from_torsion", "tables", "tensor_io")

NUMPY_TARGETS = ((np.linalg, "svd", "numpy.linalg.svd"),
                 (np, "einsum", "numpy.einsum"))

BENCH = "bench"   # pseudo-layer for the benchmark's own time
#: package calls the benchmark makes to produce its inputs: traced and
#: timed, but their self time is booked to BENCH, not to their layer
BENCH_CALLS = ("tensor_io.write_tensor",)


class Tracer:
    def __init__(self):
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.enabled = True
        self.bytes_read = 0
        self.svd_work: dict[str, float] = {}
        self._restore: list = []
        self.window = (0.0, 0.0)

    # -- recording -----------------------------------------------------
    def _id(self, name: str, layer: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.layer_of)
            self.layer_of.append(layer)
        return self.name_id[name]

    def _wrap(self, fn, name: str, layer: str, probe=None):
        nid = self._id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(self, args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1])
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                self.stack.pop()
        return wrapper

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"qhcurv.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    owner = BENCH if name in BENCH_CALLS else layer
                    self._patch(mod, attr, self._wrap(obj, name, owner, _PROBES.get(name)))
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{layer}.{attr}", layer)
        for owner, attr, name in NUMPY_TARGETS:
            probe = _svd_probe if attr == "svd" else None
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, "numpy", probe))

    def _install_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- reduction -----------------------------------------------------
    def spans(self) -> dict:
        """Span arrays plus derived duration, self time and owning layer."""
        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=float)
               - np.frombuffer(self.span_start, dtype=float))
        layer = np.array(self.layer_of)[nid]
        is_numpy = layer == "numpy"
        # numpy calls are leaves that stay in their caller's self time;
        # top-level spans (parent -1) add into the spare last slot
        child = np.zeros(len(dur) + 1)
        np.add.at(child, parent[~is_numpy], dur[~is_numpy])
        self_time = dur - child[:-1]
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], BENCH)
        return {"nid": nid, "parent": parent, "dur": dur, "self": self_time,
                "layer": layer, "parent_layer": parent_layer}


def _svd_probe(tracer: Tracer, args, kwargs) -> None:
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    if len(shape) >= 2:
        rows, cols = shape[-2], shape[-1]
        batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
        owner = tracer.layer_of[tracer.span_name[tracer.stack[-1]]] \
            if tracer.stack[-1] >= 0 else BENCH
        work = float(batch) * rows * cols * min(rows, cols)
        tracer.svd_work[owner] = tracer.svd_work.get(owner, 0.0) + work


def _read_probe(tracer: Tracer, args, kwargs) -> None:
    path = args[0] if args else kwargs["path"]
    try:
        tracer.bytes_read += os.path.getsize(path)
    except OSError:
        pass


_PROBES = {"tensor_io.read_tensor": _read_probe}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics, in the units named in BENCHMARK.json."""
    sp = tracer.spans()

    def calls(name):
        return int(np.sum(sp["nid"] == tracer.name_id.get(name, -1)))

    def total(name):
        return float(np.sum(sp["dur"][sp["nid"] == tracer.name_id.get(name, -1)]))

    def self_s(layer):
        return float(np.sum(sp["self"][(sp["layer"] == layer)]))

    def numpy_in(layer, target):
        mask = ((sp["nid"] == tracer.name_id[target]) & (sp["parent_layer"] == layer))
        return int(np.sum(mask)), float(np.sum(sp["dur"][mask]))

    svd_calls, svd_s = numpy_in("curvature_space", "numpy.linalg.svd")
    einsum_calls, _ = numpy_in("curvature_from_torsion", "numpy.einsum")
    state_ms = sp["dur"][sp["nid"] == tracer.name_id.get("tables.evaluate_columns", -1)] * 1e3
    t0, t1 = tracer.window
    layer_self = sum(self_s(layer) for layer in LAYERS)

    out = {f"{layer}.self_s": (self_s(layer), "s") for layer in LAYERS}
    out.update({
        "model_space.build_model_s": (total("model_space.build_model"), "s"),
        "tensor_ops.slot_act_calls": (calls("tensor_ops.slot_act"), "count"),
        "curvature_space.svd_calls": (svd_calls, "count"),
        "curvature_space.svd_s": (svd_s, "s"),
        "curvature_space.svd_work": (tracer.svd_work.get("curvature_space", 0.0), "count"),
        "curvature_space.L_map_calls": (calls("curvature_space.L_map"), "count"),
        "curvature_space.L_sigma_map_calls": (calls("curvature_space.L_sigma_map"), "count"),
        "curvature_space.pair_coords_calls": (calls("curvature_space.to_pair_coords")
                                              + calls("curvature_space.from_pair_coords"),
                                              "count"),
        "curvature_space.curvature_basis_s": (total("curvature_space.curvature_basis"), "s"),
        "curvature_space.certify_s": (total("curvature_space.CurvatureTensor.certify"), "s"),
        "decomposition.gl_blocks_s": (total("decomposition.build_gl_projectors"), "s"),
        "decomposition.sp_bank_s": (total("decomposition.build_sp_projectors"), "s"),
        "decomposition.audit_s": (total("decomposition.dimension_audit"), "s"),
        "decomposition.component_norms_s": (total("decomposition.component_norms"), "s"),
        "torsion.bank_s": (total("torsion.build_torsion_bank"), "s"),
        "torsion.class_mask_s": (total("torsion.TorsionBank.class_mask"), "s"),
        "torsion.from_nabla_omega_s": (total("torsion.torsion_from_nabla_omega"), "s"),
        "curvature_from_torsion.gamma_part_calls":
            (calls("curvature_from_torsion.s2es2h_gamma_part"), "count"),
        "curvature_from_torsion.einsum_calls": (einsum_calls, "count"),
        "tables.states": (len(state_ms), "count"),
        "tables.state_p50_ms": (float(np.median(state_ms)) if len(state_ms) else 0.0, "ms"),
        "tables.context_s": (total("tables.TableContext.build"), "s"),
        "tensor_io.read_s": (total("tensor_io.read_tensor"), "s"),
        "tensor_io.write_s": (total("tensor_io.write_tensor"), "s"),
        "tensor_io.bytes_read": (tracer.bytes_read, "B"),
        "trace.wall_s": (wall_s, "s"),
        "trace.window_s": (t1 - t0, "s"),
        "trace.bench_self_s": (t1 - t0 - layer_self, "s"),
        "trace.spans": (len(sp["dur"]), "count"),
    })
    return out
