"""Per-layer trace of `cst`, installed from outside by wrapping functions.

Each wrapped function adds its inclusive wall time to `<layer>_s` and one to
`<layer>_calls`. A function imported by name into other `cst` modules is
replaced there too, so `from .model import forward_volume` callers are
traced. Every public autodiff kernel (a public function of `cst.autodiff`
annotated to return a Tensor, other than `constant`) counts towards
`autodiff.kernel_calls`; forward matmuls also add 2*M*K*N per batch element
to `autodiff.matmul_gflop`. Updates take a lock, so counts stay exact when
evaluation fans out over threads; times then sum over threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# layer metric prefix -> (module, attribute); "Class.method" patches a class.
TIMED = {
    "autodiff.backward": ("cst.autodiff", "backward"),
    "autodiff.finite_scan": ("cst.autodiff", "_check_finite"),
    "transformer.forward": ("cst.transformer", "forward_corr_transformer"),
    "heads.segment": ("cst.heads", "segment"),
    "heads.classify": ("cst.heads", "classify"),
    "model.prepare_volume": ("cst.model", "prepare_volume"),
    "model.forward_volume": ("cst.model", "forward_volume"),
    "trainer.run_episodes": ("cst.trainer", "run_episodes"),
    "pseudomask.train_enhancer": ("cst.pseudomask", "train_enhancer"),
    "pseudomask.enhance": ("cst.pseudomask", "enhance"),
    "pseudomask.raw_pseudomask": ("cst.pseudomask", "raw_pseudomask"),
    "pseudomask.attention_scores": ("cst.pseudomask", "attention_scores"),
    "pseudomask.downsample_mask": ("cst.pseudomask", "downsample_mask"),
    "objective.compute_loss": ("cst.objective", "compute_loss"),
    "objective.predict_episode": ("cst.objective", "predict_episode"),
    "params.adam_step": ("cst.params", "ParamStore.adam_step"),
    "params.save_checkpoint": ("cst.params", "save_checkpoint"),
    "episodes.sample_episode": ("cst.episodes", "sample_episode"),
    "backbone.synthetic_tokens": ("cst.backbone", "synthetic_tokens"),
    "metrics.update": ("cst.metrics", "MetricAccumulator.update"),
}
NOT_KERNELS = {"constant"}


class Tracer:
    def __init__(self):
        # Layers a run bypasses read exactly zero.
        self.totals = defaultdict(float, {"autodiff.kernel_calls": 0,
                                          "autodiff.matmul_gflop": 0.0})
        for layer in TIMED:
            self.totals[f"{layer}_s"] = 0.0
            self.totals[f"{layer}_calls"] = 0
        self._lock = threading.Lock()
        self._undo = []

    def _add(self, key, amount):
        with self._lock:
            self.totals[key] += amount

    def _timed(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.totals[f"{layer}_s"] += elapsed
                    self.totals[f"{layer}_calls"] += 1
        return wrapper

    def _kernel(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._add("autodiff.kernel_calls", 1)
            if name == "matmul":
                self._add("autodiff.matmul_gflop",
                          2e-9 * out.values.size * args[0].values.shape[-1])
            return out
        return wrapper

    def _replace(self, owner, attr, new):
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for mod_name, module in list(sys.modules.items()):
            if ((mod_name == "cst" or mod_name.startswith("cst."))
                    and module is not owner
                    and getattr(module, attr, None) is old):
                self._undo.append((module, attr, old))
                setattr(module, attr, new)

    def install(self):
        autodiff = importlib.import_module("cst.autodiff")
        for name, fn in list(vars(autodiff).items()):
            if (callable(fn) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == "cst.autodiff"
                    and getattr(fn, "__annotations__", {}).get("return") == "Tensor"
                    and name not in NOT_KERNELS and not isinstance(fn, type)):
                self._replace(autodiff, name, self._kernel(name, fn))
        for layer, (mod_name, path) in TIMED.items():
            owner = importlib.import_module(mod_name)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            if hasattr(owner, attr):
                self._replace(owner, attr, self._timed(layer, getattr(owner, attr)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.totals)
