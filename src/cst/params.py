"""Named parameter storage, the Adam update, and binary checkpoints."""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .autodiff import AutodiffError, Tensor

CHECKPOINT_MAGIC = b"CSTP"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(RuntimeError):
    pass


class ParamStore:
    """Flat dict of dotted-name -> Tensor plus Adam moment buffers."""

    def __init__(self) -> None:
        self.entries: Dict[str, Tensor] = {}
        self.adam_m: Dict[str, np.ndarray] = {}
        self.adam_v: Dict[str, np.ndarray] = {}
        # Step counters are per parameter: bias correction for the model must
        # not depend on how long some other group (the enhancer) pre-trained.
        self.adam_t: Dict[str, int] = {}

    def create(self, name: str, values: np.ndarray, requires_grad: bool = True) -> Tensor:
        if name in self.entries:
            raise KeyError(f"parameter already registered: {name}")
        t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)
        t.zero_grad()
        self.entries[name] = t
        self.adam_m[name] = np.zeros_like(t.values)
        self.adam_v[name] = np.zeros_like(t.values)
        self.adam_t[name] = 0
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> list[str]:
        return list(self.entries.keys())

    def count(self, prefix: str = "") -> int:
        return sum(t.size for name, t in self.entries.items() if name.startswith(prefix))

    def clone_values(self) -> Dict[str, np.ndarray]:
        return {name: t.values.copy() for name, t in self.entries.items()}

    def load_values(self, snapshot: Dict[str, np.ndarray]) -> None:
        for name, vals in snapshot.items():
            self.entries[name].values = np.array(vals, dtype=np.float64)

    def adam_step(self, lr: float, names: Optional[list[str]] = None) -> None:
        """One Adam update (bias-corrected) over `names`, then zero those grads.

        Non-finite gradients abort: divergence must surface, not be averaged
        away by the moment buffers.
        """
        if names is None:
            names = [n for n, t in self.entries.items() if t.requires_grad]
        for name in names:
            p = self.entries[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.values)
            if not np.all(np.isfinite(g)):
                raise AutodiffError(f"adam_step: non-finite gradient for {name}")
            self.adam_t[name] += 1
            t = self.adam_t[name]
            c1 = 1.0 - ADAM_BETA1 ** t
            c2 = 1.0 - ADAM_BETA2 ** t
            m = self.adam_m[name]
            v = self.adam_v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.values -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            p.zero_grad()


def save_checkpoint(store: ParamStore, path) -> None:
    """Write entries as: magic, version, count, then per entry
    name-length + UTF-8 name, rank, extents (u64), raw float64 LE values."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(store.entries)))
        for name, tensor in store.entries.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", tensor.values.ndim))
            for extent in tensor.values.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(tensor.values.astype("<f8").tobytes())


def load_checkpoint(path) -> ParamStore:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    data = path.read_bytes()
    view = memoryview(data)
    if bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path}")
    (version,) = struct.unpack_from("<I", view, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack_from("<I", view, 8)
    offset = 12
    store = ParamStore()
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", view, offset)
            offset += 4
            shape = struct.unpack_from(f"<{rank}Q", view, offset)
            offset += 8 * rank
            n = int(np.prod(shape)) if rank else 1
            vals = np.frombuffer(view, dtype="<f8", count=n, offset=offset).reshape(shape)
            offset += 8 * n
            store.create(name, vals.copy())
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"truncated or corrupt checkpoint {path}: {exc}")
    if offset != len(data):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return store


def init_linear(store: ParamStore, name: str, fan_in: int, fan_out: int,
                rng: np.random.Generator) -> None:
    """He-style fan-in uniform weights plus a zero bias."""
    limit = np.sqrt(6.0 / fan_in)
    store.create(f"{name}.weight", rng.uniform(-limit, limit, size=(fan_in, fan_out)))
    store.create(f"{name}.bias", np.zeros(fan_out))


def init_conv(store: ParamStore, name: str, cin: int, cout: int, k: int,
              rng: np.random.Generator) -> None:
    limit = np.sqrt(6.0 / (cin * k * k))
    store.create(f"{name}.weight", rng.uniform(-limit, limit, size=(cout, cin, k, k)))
    store.create(f"{name}.bias", np.zeros(cout))


def init_norm(store: ParamStore, name: str, channels: int) -> None:
    store.create(f"{name}.scale", np.ones(channels))
    store.create(f"{name}.shift", np.zeros(channels))
