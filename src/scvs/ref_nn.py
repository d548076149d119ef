"""Floating-point reference feed-forward network.

A small fully connected net scoring the similarity of two compounds from
their concatenated 24-value descriptor input: a_i = phi(sum_j w_ij x_j + b_i)
per neuron, tanh or ReLU hidden activations, linear output.  Trained as a
binary active/decoy classifier with Adam on a sigmoid + cross-entropy loss;
the pre-sigmoid output is the ranking score.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT_VERSION = 1

# Hidden-layer configurations keyed by first-hidden-layer size: "48" means a
# [48-24-1] net on the 24-value descriptor input.
ARCH_SHAPES = {
    "12": [24, 12, 6, 1],
    "24": [24, 24, 12, 1],
    "48": [24, 48, 24, 1],
    "64": [24, 64, 32, 1],
    "256": [24, 256, 1],
}


class NumericFailure(ArithmeticError):
    """Non-finite value produced during forward or training."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 256
    rng_seed: int = 0
    val_fraction: float = 0.1
    patience: int = 10

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class Mlp:
    """Weights, biases and the hidden activation choice of one network."""

    def __init__(self, shape, activation: str = "tanh", weights=None, biases=None,
                 trained: bool = False):
        shape = list(int(s) for s in shape)
        if len(shape) < 2 or shape[-1] != 1:
            raise ValueError(f"shape must end in a single output neuron, got {shape}")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"activation must be tanh or relu, got {activation!r}")
        self.shape = shape
        self.activation = activation
        self.trained = trained
        if weights is None:
            self.weights = [np.zeros((o, i)) for i, o in zip(shape[:-1], shape[1:])]
            self.biases = [np.zeros(o) for o in shape[1:]]
        else:
            self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
            self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
            for l, (w, b) in enumerate(zip(self.weights, self.biases)):
                if w.shape != (shape[l + 1], shape[l]) or b.shape != (shape[l + 1],):
                    raise ValueError(f"layer {l} arrays do not match shape {shape}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp(self.shape, self.activation,
                   [w.copy() for w in self.weights], [b.copy() for b in self.biases],
                   trained=self.trained)


def init_mlp(shape, activation: str = "tanh", seed: int = 0) -> Mlp:
    """Seeded uniform init: He-style fan-in scaling for ReLU, Xavier for tanh."""
    rng = np.random.default_rng(seed)
    mlp = Mlp(shape, activation)
    for l, (fi, fo) in enumerate(zip(shape[:-1], shape[1:])):
        if activation == "relu":
            bound = np.sqrt(6.0 / fi)
        else:
            bound = np.sqrt(6.0 / (fi + fo))
        mlp.weights[l] = rng.uniform(-bound, bound, size=(fo, fi))
        mlp.biases[l] = np.zeros(fo)
    return mlp


def _phi(x: np.ndarray, activation: str) -> np.ndarray:
    return np.tanh(x) if activation == "tanh" else np.maximum(x, 0.0)


def forward_batch(mlp: Mlp, x: np.ndarray, keep: bool = False):
    """Pre-sigmoid scores for a (k, n_in) batch; keep=True also returns
    per-layer pre-activations and activations for backprop."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != mlp.shape[0]:
        raise ValueError(f"input width {x.shape[1]} != {mlp.shape[0]}")
    acts = [x]
    pres = []
    h = x
    for l in range(mlp.n_layers):
        with np.errstate(over="ignore", invalid="ignore"):
            z = h @ mlp.weights[l].T + mlp.biases[l]
        if not np.all(np.isfinite(z)):
            raise NumericFailure(f"non-finite pre-activation in layer {l}")
        pres.append(z)
        h = z if l == mlp.n_layers - 1 else _phi(z, mlp.activation)
        acts.append(h)
    out = acts[-1][:, 0]
    if keep:
        return out, pres, acts
    return out


def forward(mlp: Mlp, x) -> float:
    """Pre-sigmoid output of the final neuron for one 24-value input."""
    return float(forward_batch(mlp, np.asarray(x, dtype=np.float64)[None, :])[0])


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> float:
    # max(z,0) - z*y + log(1 + exp(-|z|)): stable for large |z|
    return float(np.mean(np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_grads(mlp: Mlp, x: np.ndarray, y: np.ndarray):
    """Mean BCE(sigmoid(forward)) and its gradients for a batch."""
    z, pres, acts = forward_batch(mlp, x, keep=True)
    k = len(y)
    loss = _bce_with_logits(z, y)
    delta = (_sigmoid(z) - y)[:, None] / k
    gw = [None] * mlp.n_layers
    gb = [None] * mlp.n_layers
    for l in range(mlp.n_layers - 1, -1, -1):
        gw[l] = delta.T @ acts[l]
        gb[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ mlp.weights[l]
            if mlp.activation == "tanh":
                delta = delta * (1.0 - acts[l] ** 2)
            else:
                delta = delta * (pres[l - 1] > 0)
    return loss, gw, gb


def train_adam(mlp: Mlp, x, y, cfg: TrainConfig):
    """Adam on BCE over the ``(k, n_in)`` rows ``x`` and their ``k`` labels
    ``y``; deterministic for a fixed seed.  Returns the trained net and a
    history dict with per-epoch mean train loss (and validation loss when a
    validation split is held out for early stopping)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ValueError("training data is empty")
    if x.ndim != 2 or y.shape != (len(x),):
        raise ValueError(f"expected (k, n_in) rows and k labels, got {x.shape} and {y.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be in {0, 1}")
    rng = np.random.default_rng(cfg.rng_seed)

    n_val = int(round(cfg.val_fraction * len(y)))
    use_val = 0 < n_val < len(y)
    if use_val:
        perm = rng.permutation(len(y))
        val_idx, train_idx = perm[:n_val], perm[n_val:]
        xv, yv = x[val_idx], y[val_idx]
        x, y = x[train_idx], y[train_idx]

    mlp = mlp.copy()
    mw = [np.zeros_like(w) for w in mlp.weights]
    vw = [np.zeros_like(w) for w in mlp.weights]
    mb = [np.zeros_like(b) for b in mlp.biases]
    vb = [np.zeros_like(b) for b in mlp.biases]
    t = 0
    history = {"train_loss": [], "val_loss": [], "stopped_epoch": None}
    best_val = np.inf
    best_state = None
    stale = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(y))
        losses = []
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, gw, gb = loss_and_grads(mlp, x[idx], y[idx])
            if not np.isfinite(loss):
                raise NumericFailure(f"loss diverged at epoch {epoch}, batch {start // cfg.batch_size}")
            losses.append(loss)
            t += 1
            corr1 = 1.0 - cfg.beta1 ** t
            corr2 = 1.0 - cfg.beta2 ** t
            for l in range(mlp.n_layers):
                for g, m, v, p in ((gw[l], mw[l], vw[l], mlp.weights[l]),
                                   (gb[l], mb[l], vb[l], mlp.biases[l])):
                    m *= cfg.beta1
                    m += (1 - cfg.beta1) * g
                    v *= cfg.beta2
                    v += (1 - cfg.beta2) * g * g
                    p -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + cfg.eps)
        history["train_loss"].append(float(np.mean(losses)))
        if use_val:
            val_loss = _bce_with_logits(forward_batch(mlp, xv), yv)
            history["val_loss"].append(val_loss)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_state = ([w.copy() for w in mlp.weights], [b.copy() for b in mlp.biases])
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    history["stopped_epoch"] = epoch
                    break

    if use_val and best_state is not None:
        mlp.weights, mlp.biases = best_state
    mlp.trained = True
    return mlp, history


def gradient_check(mlp: Mlp, x, label: int, epsilon: float = 1e-5) -> float:
    """Max relative error of backprop vs central finite differences of the loss."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)[None, :]
    y = np.array([float(label)])
    _, gw, gb = loss_and_grads(mlp, x, y)

    def loss_at() -> float:
        z = forward_batch(mlp, x)
        return _bce_with_logits(z, y)

    worst = 0.0
    for analytic, params in ((gw, mlp.weights), (gb, mlp.biases)):
        for g, p in zip(analytic, params):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + epsilon
                hi = loss_at()
                flat_p[i] = orig - epsilon
                lo = loss_at()
                flat_p[i] = orig
                numeric = (hi - lo) / (2 * epsilon)
                denom = max(abs(numeric), abs(flat_g[i]), 1e-3)
                worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst


def oversample(y, seed: int = 0) -> np.ndarray:
    """Row indices that balance the labels ``y``: every row once, then
    minority rows drawn with replacement until the class counts are equal."""
    y = np.asarray(y)
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if not len(pos) or not len(neg):
        raise ValueError("oversample needs both classes present")
    everything = np.arange(len(y))
    if len(pos) == len(neg):
        return everything
    minority, gap = (pos, len(neg) - len(pos)) if len(pos) < len(neg) else (neg, len(pos) - len(neg))
    rng = np.random.default_rng(seed)
    return np.concatenate([everything, minority[rng.integers(0, len(minority), size=gap)]])


# ---------------------------------------------------------------------------
# Model files: same envelope as the hardware network, with real-valued
# weights and an activation field; the version tag lets the CLI dispatch.


def save_mlp(mlp: Mlp, path) -> None:
    doc = {
        "kind": "mlp",
        "version": MODEL_FORMAT_VERSION,
        "activation": mlp.activation,
        "trained": mlp.trained,
        "layers": [
            {
                "fan_in": int(w.shape[1]),
                "fan_out": int(w.shape[0]),
                "weights": [float(v) for v in w.reshape(-1)],
                "bias": [float(v) for v in b],
            }
            for w, b in zip(mlp.weights, mlp.biases)
        ],
    }
    write_json(doc, path)


def write_json(doc, path) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON document in ``path``; a file that is not UTF-8, not JSON or
    nested too deeply to parse raises a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


# The JSON value types that each declarable field type admits (a bool is
# neither an integer nor a number) and its name in messages; a field
# declared ``object`` admits any value.
_KINDS = {int: ({int}, "an integer"), float: ({int, float}, "a number"),
          bool: ({bool}, "true or false"), str: ({str}, "a string"),
          list: ({list}, "a list"), dict: ({dict}, "a JSON object")}


def require_fields(doc, fields: dict, path, where: str = "") -> dict:
    """``doc`` itself when it is a JSON object holding every field of
    ``fields``, a map of names to types, with a value of its type; otherwise
    a ValueError naming the file, ``where`` in it and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {where or 'document '}is not a JSON object")
    for name, kind in fields.items():
        if name not in doc:
            raise ValueError(f"{path}: {where}missing field {name!r}")
        if kind is not object and type(doc[name]) not in _KINDS[kind][0]:
            raise ValueError(f"{path}: {where}field {name!r} must be {_KINDS[kind][1]}, "
                             f"got {reprlib.repr(doc[name])}")
    return doc


def json_array(doc: dict, name: str, dtype, path, where: str = "") -> np.ndarray:
    """Field ``name`` of ``doc``, a list of numbers in the range of ``dtype``
    (integers for an integer dtype), as an array of ``dtype``; otherwise a
    ValueError naming the file, ``where`` in it and the field."""
    admitted = _KINDS[int if np.issubdtype(dtype, np.integer) else float][0]
    try:
        if isinstance(doc[name], list) and {type(v) for v in doc[name]} <= admitted:
            return np.array(doc[name], dtype=dtype)
    except OverflowError:
        pass
    raise ValueError(f"{path}: {where}field {name!r} must be a list of "
                     f"{np.dtype(dtype).name} values")


def model_layers(doc, path, kind: str, what: str, fields: dict, layer_fields: dict) -> list:
    """The layer objects of the model document ``doc`` read from ``path``.
    The shared envelope must hold ``kind`` (errors call such a file a
    ``what`` file) and the format version, the document ``fields`` and a
    non-empty ``layers`` list, and every layer ``layer_fields``.  Each layer
    comes paired with its place in the file (``"layer i "``) for error
    messages."""
    if require_fields(doc, {"kind": object}, path)["kind"] != kind:
        raise ValueError(f"{path}: not a {what} file (kind={doc.get('kind')!r})")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {doc.get('version')!r}")
    layers = require_fields(doc, {**fields, "layers": list}, path)["layers"]
    if not layers:
        raise ValueError(f"{path}: field 'layers' must be a non-empty list")
    return [(f"layer {i} ", require_fields(l, layer_fields, path, f"layer {i} "))
            for i, l in enumerate(layers)]


def placed(path, where: str, build, *args):
    """``build(*args)``; a ValueError it raises is prefixed with the file and
    the place in it (``layer i ``, ``lfsr1 ``, or none for the network)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}{exc}") from None


def build_mlp(doc, path) -> Mlp:
    """The float network that the model document ``doc``, read from
    ``path``, holds; a constructor's or reshape's error names the file and
    the place in it."""
    layers = model_layers(doc, path, "mlp", "float-network", {"activation": str},
                          {"fan_in": int, "fan_out": int, "weights": list, "bias": list})
    if "trained" in doc:  # optional: a file without it holds a trained net
        require_fields(doc, {"trained": bool}, path)
    shape = [layers[0][1]["fan_in"]] + [l["fan_out"] for _, l in layers]
    weights = [placed(path, where, np.reshape, json_array(l, "weights", np.float64, path, where),
                      (l["fan_out"], l["fan_in"]))
               for where, l in layers]
    biases = [json_array(l, "bias", np.float64, path, where) for where, l in layers]
    return placed(path, "", Mlp, shape, doc["activation"], weights, biases,
                  doc.get("trained", True))


def load_mlp(path) -> Mlp:
    return build_mlp(read_json(path), path)
