"""Stochastic hardware network model.

Mirrors the accelerator datapath: inputs and weights are converted to bipolar
bitstreams by two shared LFSRs (inputs, zero signal and every accumulator
reconversion ride R_x(t); weights ride R_w(t)), each neuron multiplies with an
XNOR array, sums with an accumulative parallel counter, right-shifts the
counter word to fit the stream resolution, converts back to the stochastic
domain and applies ReLU as a single OR gate against the correlated zero(t)
signal.  The final neuron's shifted counter word, read in the binary domain,
is the score.

Window layout: the network inputs, zero(t) and every reconversion ride R_x
from phase 0, so every layer's input streams come from one window, and layer
l's weights ride R_w from phase l*N.  The bias line is the word 2^(b-1),
above every generator word, i.e. a constant all-ones stream.

Every model of the network runs one word-domain forward path: per layer a
product model yields the APC values, which are floored by the layer's shift,
saturated to b bits and passed on as max(word, 0), the OR-ReLU of fully
correlated streams.  Two product models plug into it.  The bit-true one
(``ScSimulator``) counts the XNOR agreement of the actual streams by prefix
popcount: read in the sorted order of the input window, every input stream is
a prefix of ones, so each product is one partial-word popcount of a weight
stream packed in that order.  The ideal one (``fixed_point_reference`` and the
shift calibration in ``quantize_weights``) multiplies the exact window values
of the same words in real arithmetic, which separates stochastic noise from
quantization error.  Both read the same count table per window: the number
of window words below each word, which is the prefix length of an input
stream and gives every stream's value (2r - n)/n.
Exactly two generators serve the whole network, and repeat runs are
bit-identical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import sc_core as sc
from .ref_nn import (Mlp, MODEL_FORMAT_VERSION, json_array, model_layers, placed, read_json,
                     require_fields, write_json)
from .sc_core import BitStream, GateKind, Lfsr, WordSequence


class CorrelationViolation(ValueError):
    """An operation that requires shared-generator streams got foreign ones."""


# Default generator pair: distinct primitive polynomials, seeds picked by a
# decorrelation sweep (lowest multiplier error and per-neuron noise among
# candidate phase pairs).
def default_lfsr1(width: int = sc.DEFAULT_WIDTH) -> Lfsr:
    return Lfsr(width, sc.MAXIMAL_TAPS[width][0], seed=41 % (1 << width) or 1)


def default_lfsr2(width: int = sc.DEFAULT_WIDTH) -> Lfsr:
    return Lfsr(width, sc.MAXIMAL_TAPS[width][1], seed=1987 % (1 << width) or 1)


class ScLayer:
    """Quantized weights and normalization of one hardware layer.

    ``scale`` is the per-layer dequantization factor: float weight ~=
    decoded word * scale.  ``norm_shift`` is the arithmetic right shift
    applied to the APC word before reconversion.
    """

    def __init__(self, fan_in: int, fan_out: int, norm_shift: int, scale: float,
                 weights_q: np.ndarray, bias_q: np.ndarray | None):
        self.fan_in = int(fan_in)
        self.fan_out = int(fan_out)
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError(f"fan_in and fan_out must be >= 1, "
                             f"got {self.fan_in} and {self.fan_out}")
        self.norm_shift = int(norm_shift)
        self.scale = float(scale)
        self.weights_q = np.asarray(weights_q, dtype=np.int32).reshape(fan_out, fan_in)
        self.bias_q = None if bias_q is None else np.asarray(bias_q, dtype=np.int32).reshape(fan_out)
        if self.norm_shift < 0:
            raise ValueError("norm_shift must be >= 0")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def n_inputs(self) -> int:
        """Physical input count including the constant bias line."""
        return self.fan_in + (1 if self.bias_q is not None else 0)


class ScNetwork:
    """Layer stack plus the two LFSR configurations of the hardware model."""

    def __init__(self, layers, lfsr1: Lfsr, lfsr2: Lfsr,
                 stream_len: int = 4095, width: int = sc.DEFAULT_WIDTH):
        if not layers or layers[-1].fan_out != 1:
            raise ValueError("network must end in a single output neuron")
        for a, b in zip(layers[:-1], layers[1:]):
            if a.fan_out != b.fan_in:
                raise ValueError(f"layer shapes do not chain: {a.fan_out} -> {b.fan_in}")
        if (lfsr1.taps, lfsr1.seed) == (lfsr2.taps, lfsr2.seed):
            raise ValueError("lfsr1 and lfsr2 must differ in polynomial or seed")
        if lfsr1.width != width or lfsr2.width != width:
            raise ValueError("LFSR widths must match the word width")
        if stream_len < 1:
            raise ValueError("stream_len must be >= 1")
        half = 1 << (width - 1)
        for i, l in enumerate(layers):
            if l.weights_q.min() < -half or l.weights_q.max() > half - 1:
                raise ValueError(f"layer {i} weight words exceed {width}-bit range")
        self.layers = list(layers)
        self.lfsr1 = lfsr1
        self.lfsr2 = lfsr2
        self.stream_len = int(stream_len)
        self.width = int(width)
        self._sim = None

    @property
    def input_width(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_scale(self) -> float:
        """Accumulated factor between the decoded score and the float net's score."""
        half = 1 << (self.width - 1)
        a = 1.0
        for l in self.layers:
            gain = self.stream_len / ((1 << l.norm_shift) * half)
            a *= gain / l.scale
        return a

    def simulator(self) -> "ScSimulator":
        if self._sim is None:
            self._sim = ScSimulator(self)
        return self._sim


def min_norm_shift(n_inputs: int, stream_len: int, width: int) -> int:
    """Smallest shift for which the normalized word can never overflow b bits."""
    half = 1 << (width - 1)
    return max(0, math.ceil(math.log2(n_inputs * stream_len / half)))


# ---------------------------------------------------------------------------
# Generator windows and the shared word-domain forward path


def _windows(lfsr1: Lfsr, lfsr2: Lfsr, n: int,
             n_layers: int) -> tuple[WordSequence, list[WordSequence]]:
    """The input window and every layer's weight window.

    The network inputs, zero(t) and every reconversion ride R1 from phase 0,
    so one window A serves the inputs of every layer.  Layer ``li``'s weights
    ride R2 from phase li*N, so consecutive layers use consecutive stretches
    of the weight generator.
    """
    return lfsr1.word_sequence(n), [lfsr2.word_sequence(n, (li * n) % lfsr2.period)
                                    for li in range(n_layers)]


def _rank(window: WordSequence) -> np.ndarray:
    """Count table of a window: ``rank[x + 2^(b-1)]`` = #{t: W_t < x}, the ones
    of the comparator stream of word x.  Entry 2^b = n serves the bias word
    2^(b-1), above every generator word."""
    half = 1 << (window.width - 1)
    return np.concatenate([[0], np.cumsum(np.bincount(window.words + half,
                                                       minlength=2 * half))])


def _values(rank: np.ndarray, words) -> np.ndarray:
    """Exact decoded value (2r - n)/n of each word's comparator stream over
    the window counted by ``rank``."""
    n = int(rank[-1])
    return (2.0 * rank[words + (len(rank) >> 1)] - n) / n


def _input_rows(net: "ScNetwork", x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != net.input_width:
        raise ValueError(f"input width {x.shape[1]} != {net.input_width}")
    return x


def _forward(x: np.ndarray, n_layers: int, width: int, layer_apc):
    """The word-domain datapath every model of the network shares.

    ``layer_apc(li, words)`` is the product model: it returns the APC values
    of layer ``li`` for the layer's (k, fan_in) input words, and the layer's
    normalization shift.  Each layer floors the APC by that shift, saturates
    it to b bits and hands max(word, 0) on: the OR with zero(t), which rides
    the same window, keeps exactly the larger of two comparator streams.
    Returns the decoded final words, the saturated words of every layer and
    the number of words that saturated.
    """
    half = 1 << (width - 1)
    words = sc.encode_array(x, width)
    layer_words, saturations = [], 0
    for li in range(n_layers):
        apc, shift = layer_apc(li, words)
        # exact for integer APCs, so it is the hardware's arithmetic shift
        shifted = np.floor(apc / (1 << shift))
        saturations += int(np.count_nonzero((shifted < -half) | (shifted > half - 1)))
        layer_words.append(np.clip(shifted, -half, half - 1).astype(np.int64))
        words = np.maximum(layer_words[-1], 0)
    return layer_words[-1][:, 0] / half, layer_words, saturations


def _ideal_apc(words: np.ndarray, rank_a: np.ndarray, rank_b: np.ndarray,
               weights_q: np.ndarray, bias_q: np.ndarray | None) -> np.ndarray:
    """Ideal product model: exact window values times real products, with
    input words counted over the input window A and weight words over the
    layer's weight window B.

    The bias line (word 2^(b-1), above every generator word) decodes to
    exactly 1, so its products are the bias words' own values.
    """
    dot = _values(rank_a, words) @ _values(rank_b, weights_q).T
    if bias_q is not None:
        dot = dot + _values(rank_b, bias_q)
    return dot * int(rank_b[-1])


# ---------------------------------------------------------------------------
# Spec-level operations


def relu_via_or(s: BitStream, zero: BitStream) -> BitStream:
    """ReLU as a single OR gate; both streams must share R_x(t)."""
    if s.origin != zero.origin:
        raise CorrelationViolation(
            f"OR-ReLU needs fully correlated streams; got {s.origin!r} vs {zero.origin!r}"
        )
    out = sc.gate_eval(GateKind.OR, s, zero)
    # The OR of two nested comparator streams is itself a comparator stream
    # of the same generator, so the lineage is preserved.
    return BitStream(out.packed, out.n, origin=s.origin)


def sc_neuron_forward(x_streams, w_row, lfsr1_words: WordSequence, lfsr2_words: WordSequence,
                      norm_shift: int, width: int = sc.DEFAULT_WIDTH,
                      apply_relu: bool = True, diagnostics: dict | None = None) -> BitStream:
    """One stochastic neuron: XNOR array -> APC -> shift -> saturate ->
    reconversion against R_x(t) -> OR with the correlated zero signal."""
    x_streams = list(x_streams)
    w_row = [w if isinstance(w, sc.FixedWord) else sc.FixedWord(int(w), width) for w in w_row]
    if len(x_streams) != len(w_row):
        raise ValueError(f"{len(x_streams)} inputs vs {len(w_row)} weights")
    n = x_streams[0].n
    products = [
        sc.gate_eval(GateKind.XNOR, x, sc.to_stochastic(w, lfsr2_words, n))
        for x, w in zip(x_streams, w_row)
    ]
    apc = sc.apc_accumulate(products, n)
    word = apc >> norm_shift
    half = 1 << (width - 1)
    if word < -half or word > half - 1:
        if diagnostics is not None:
            diagnostics["saturations"] = diagnostics.get("saturations", 0) + 1
        word = max(-half, min(half - 1, word))
    s = sc.to_stochastic(sc.FixedWord(word, width), lfsr1_words, n)
    if not apply_relu:
        return s
    zero = sc.to_stochastic(sc.FixedWord(0, width), lfsr1_words, n)
    return relu_via_or(s, zero)


# ---------------------------------------------------------------------------
# Quantization


def quantize_weights(mlp: Mlp, width: int = sc.DEFAULT_WIDTH, clip_quantile: float = 1.0,
                     stream_len: int = 4095, lfsr1: Lfsr | None = None,
                     lfsr2: Lfsr | None = None, use_bias: bool = True,
                     calib: np.ndarray | None = None, margin: float = 1.0,
                     gain_cap: float = 0.5) -> ScNetwork:
    """Post-training quantization of a ReLU reference net.

    Per layer, weights are divided by the clip_quantile-quantile of their
    magnitudes, clipped to [-1, 1) and rounded to b-bit words; the applied
    scale goes into the layer bookkeeping so the decision function is
    preserved up to quantization (the decoded score is the float score times
    ``ScNetwork.output_scale``).  Biases become an extra weight against a
    constant +1 input line, pre-scaled by the accumulated attenuation of the
    preceding layers.

    Without calibration data the shift is the worst-case no-overflow value,
    which wastes most of the word range on deep nets; passing ``calib``
    (feature-scaled training rows) picks the smallest per-layer shift whose
    calibration words stay within ``margin`` of full scale, the normalization
    the hardware needs to fit the bit-stream resolution.  ``gain_cap`` bounds
    the per-layer decoded gain so that weak layers are never amplified to the
    point where stochastic multiplication noise dominates the word.
    """
    if not mlp.trained:
        raise ValueError("refusing to quantize an untrained network")
    if mlp.activation != "relu":
        raise ValueError(
            "hardware model needs ReLU hidden layers; retrain the reference net with ReLU"
        )
    if not 0 < clip_quantile <= 1:
        raise ValueError("clip_quantile must be in (0, 1]")
    lfsr1 = lfsr1 or default_lfsr1(width)
    lfsr2 = lfsr2 or default_lfsr2(width)
    half = 1 << (width - 1)
    n = stream_len
    x_window, w_windows = _windows(lfsr1, lfsr2, n, mlp.n_layers)
    rank_a, ranks_b = _rank(x_window), [_rank(w) for w in w_windows]
    layers = []
    attenuation = 1.0

    def quantize_layer(li, words):
        # Quantize layer li; its APC over the calibration rows (none when
        # uncalibrated) picks the shift before the forward pass applies it.
        nonlocal attenuation
        w = mlp.weights[li]
        bias = mlp.biases[li] if use_bias else None
        pool = np.abs(w).reshape(-1)
        if bias is not None:
            pool = np.concatenate([pool, np.abs(bias) * attenuation])
        s = float(np.quantile(pool, clip_quantile)) if np.any(pool > 0) else 1.0
        if s == 0.0:
            s = 1.0
        w_q = sc.encode_array(w / s, width)
        bias_q = None if bias is None else sc.encode_array(bias * attenuation / s, width)

        n_inputs = w.shape[1] + (1 if bias_q is not None else 0)
        shift = min_norm_shift(n_inputs, n, width)
        apc = _ideal_apc(words, rank_a, ranks_b[li], w_q, bias_q)
        peak = float(np.max(np.abs(apc), initial=0.0))
        if peak > 0:
            cap_floor = max(0, math.ceil(math.log2(n / (gain_cap * half))))
            needed = max(cap_floor, math.ceil(math.log2(peak / (margin * (half - 1)))))
            shift = min(shift, needed)
        gain = n / ((1 << shift) * half)
        layers.append(ScLayer(w.shape[1], w.shape[0], shift, s, w_q, bias_q))
        attenuation *= gain / s
        return apc, shift

    rows = np.empty((0, mlp.shape[0])) if calib is None else calib
    _forward(np.atleast_2d(np.asarray(rows, dtype=np.float64)), mlp.n_layers, width,
             quantize_layer)
    return ScNetwork(layers, lfsr1, lfsr2, stream_len=n, width=width)


# ---------------------------------------------------------------------------
# Bit-true simulator


class _PrefixTables(NamedTuple):
    """One layer's weight streams, read in the sorted order of the input window.

    ``packs`` and ``prefix`` hold, for every 64-bit block q and input line i
    at row ``q * n_inputs + i``, each neuron's weight-stream bits and the
    number of ones before the block; ``ones`` is each weight stream's total
    (n_inputs, fan_out) and ``offset`` the per-neuron constant n_inputs*n -
    2*sum(ones) of the APC.
    """

    packs: np.ndarray
    prefix: np.ndarray
    ones: np.ndarray
    offset: np.ndarray


def _prefix_tables(order: np.ndarray, w_window: WordSequence,
                   weights: np.ndarray) -> _PrefixTables:
    """Prefix-popcount tables of one layer for its (fan_out, n_inputs) weights.

    ``order`` is the stable sort order of the input window A; read in it,
    every input stream is a prefix of ones.  The weight streams are built per
    distinct weight word, without comparing each word against the window: bit
    t of the stream of the u-th smallest word is set iff u >= first[t], the
    number of distinct words <= B_t, so a 64-bit block of every stream is a
    running sum over u of the block's bits binned by ``first``.
    """
    n = len(order)
    values, inverse = np.unique(weights, return_inverse=True)
    first = np.searchsorted(values, w_window.words[order], side="right")
    t = np.arange(n)
    # one block more than r = n can address, so the gather never runs off the end
    bins = np.zeros((n // 64 + 1, len(values) + 1), dtype=np.uint64)
    np.add.at(bins, (t >> 6, first), np.uint64(1) << (t & 63).astype(np.uint64))
    packs = np.cumsum(bins[:, :-1], axis=1, dtype=np.uint64)
    counts = np.bitwise_count(packs).astype(np.int32)
    totals = np.cumsum(counts, axis=0, dtype=np.int32)
    lines = inverse.reshape(weights.shape).T.reshape(-1)
    ones = totals[-1, lines].reshape(weights.shape[::-1])
    return _PrefixTables(
        np.take(packs, lines, axis=1).reshape(-1, weights.shape[0]),
        np.take(totals - counts, lines, axis=1).reshape(-1, weights.shape[0]), ones,
        weights.shape[1] * n - 2 * ones.sum(axis=0, dtype=np.int64))


class ScSimulator:
    """Bit-true product model of one network by prefix popcount.

    Every stream entering a layer's XNOR array is a comparator stream of one
    generator window: the inputs of the window A, the weights of the layer's
    window B, the bias line is all ones.  In the stable sort order of A the
    stream of input word x is a prefix: ones in its first r = #{t: A_t < x}
    bits.  Against a weight stream with c ones, d of them in that prefix, the
    XNOR array therefore agrees on d + (n - r - c + d) bits, and the bipolar
    product count is 4d - 2r - 2c + n.  The weight streams are packed once, in
    that order, with the popcount before each 64-bit block, so every d is one
    partial-word popcount.  The result is the XNOR popcount of the actual
    streams, bit for bit.

    Counts generator instantiations (two for any network) and saturation
    events.  Inference is a pure function of (network, input); repeat runs
    are bit-identical.
    """

    def __init__(self, net: ScNetwork):
        self.net = net
        self.saturation_count = 0
        self.rng_instantiations = len({(g.width, g.taps, g.seed) for g in (net.lfsr1, net.lfsr2)})
        x_window, w_windows = _windows(net.lfsr1, net.lfsr2, net.stream_len, len(net.layers))
        order = np.argsort(x_window.words, kind="stable")
        self._rank = _rank(x_window)
        self._tables = []
        for layer, w_window in zip(net.layers, w_windows):
            wq = layer.weights_q
            if layer.bias_q is not None:
                wq = np.concatenate([wq, layer.bias_q[:, None]], axis=1)
            self._tables.append(_prefix_tables(order, w_window, wq))

    def _prefix_apc(self, li: int, words: np.ndarray, counts: list | None = None):
        """APC of layer ``li`` for its (k, fan_in) input words.  Appends the
        prefix lengths r (k, n_inputs) of the input streams and the ones d
        (k, n_inputs, fan_out) of every weight stream inside them to
        ``counts`` when given."""
        half = 1 << (self.net.width - 1)
        tables = self._tables[li]
        if self.net.layers[li].bias_q is not None:
            # the bias word 2^(b-1) is above every generator word: r = n
            words = np.concatenate([words, np.full((len(words), 1), half)], axis=1)
        r = self._rank[words + half]
        rows = (r >> 6) * r.shape[1] + np.arange(r.shape[1])
        partial = tables.packs[rows]
        partial &= ((np.uint64(1) << (r & 63).astype(np.uint64)) - np.uint64(1))[..., None]
        d = tables.prefix[rows]
        d += np.bitwise_count(partial)
        if counts is not None:
            counts.append((r, d))
        apc = 4 * d.sum(axis=1) - 2 * r.sum(axis=1)[:, None] + tables.offset
        return apc, self.net.layers[li].norm_shift

    def _run(self, x, layer_apc):
        net = self.net
        scores, words, saturations = _forward(_input_rows(net, x), len(net.layers), net.width,
                                              layer_apc)
        self.saturation_count += saturations
        return scores, words

    def infer(self, x) -> float:
        return float(self._run(np.asarray(x, dtype=np.float64)[None, :], self._prefix_apc)[0][0])

    def infer_many(self, x: np.ndarray, chunk: int = 128) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(len(x))
        for i in range(0, len(x), chunk):
            out[i:i + chunk] = self._run(x[i:i + chunk], self._prefix_apc)[0]
        return out

    def trace(self, x):
        """Per-layer product stream values, APC words and decoded outputs."""
        counts = []
        scores, words = self._run(np.asarray(x, dtype=np.float64)[None, :],
                                  lambda li, w: self._prefix_apc(li, w, counts))
        n = self.net.stream_len
        products = [np.ascontiguousarray(
                        ((4 * d - 2 * r[:, :, None] - 2 * t.ones + n) / n).transpose(0, 2, 1))
                    for (r, d), t in zip(counts, self._tables)]
        # a hidden layer's output is the next layer's input stream, of value (2r - n)/n
        outs = [(2 * r[:, :layer.fan_out] - n) / n
                for (r, _), layer in zip(counts[1:], self.net.layers)] + [scores]
        return float(scores[0]), [{"products": p, "words": w, "out_values": o}
                                  for p, w, o in zip(products, words, outs)]


# ---------------------------------------------------------------------------
# Fixed-point reference: same quantization, same shifts, real arithmetic


def fixed_point_reference(net: ScNetwork, x):
    """Ideal-product reference: exact stream values for every conversion, real
    products, real accumulation with the same floor shift and saturation.
    The difference between this and the bit-true simulator is the stochastic
    multiplication noise alone.  A 1-D input gives a float, a batch an array."""
    x = np.asarray(x, dtype=np.float64)
    x_window, w_windows = _windows(net.lfsr1, net.lfsr2, net.stream_len, len(net.layers))
    rank_a, ranks_b = _rank(x_window), [_rank(w) for w in w_windows]

    def layer_apc(li, words):
        layer = net.layers[li]
        return (_ideal_apc(words, rank_a, ranks_b[li], layer.weights_q, layer.bias_q),
                layer.norm_shift)

    scores = _forward(_input_rows(net, x), len(net.layers), net.width, layer_apc)[0]
    return float(scores[0]) if x.ndim == 1 else scores


# ---------------------------------------------------------------------------
# Network files


def save_sc_network(net: ScNetwork, path) -> None:
    doc = {
        "kind": "sc_network",
        "version": MODEL_FORMAT_VERSION,
        "width": net.width,
        "stream_len": net.stream_len,
        "lfsr1": {"taps": list(net.lfsr1.taps), "seed": net.lfsr1.seed},
        "lfsr2": {"taps": list(net.lfsr2.taps), "seed": net.lfsr2.seed},
        "layers": [
            {
                "fan_in": l.fan_in,
                "fan_out": l.fan_out,
                "norm_shift": l.norm_shift,
                "scale": l.scale,
                "weights": [int(v) for v in l.weights_q.reshape(-1)],
                "bias": None if l.bias_q is None else [int(v) for v in l.bias_q],
            }
            for l in net.layers
        ],
    }
    write_json(doc, path)


def build_sc_network(doc, path) -> ScNetwork:
    """The hardware network that the model document ``doc``, read from
    ``path``, holds; a constructor's range error names the file and the place
    in it (``layer i ``, ``lfsr1 ``)."""
    entries = model_layers(
        doc, path, "sc_network", "hardware-network",
        {"width": int, "stream_len": int, "lfsr1": dict, "lfsr2": dict},
        {"fan_in": int, "fan_out": int, "norm_shift": int, "scale": float, "weights": list,
         "bias": object})
    layers = [
        placed(path, where, ScLayer, l["fan_in"], l["fan_out"], l["norm_shift"], l["scale"],
               json_array(l, "weights", np.int32, path, where),
               None if l["bias"] is None else json_array(l, "bias", np.int32, path, where))
        for where, l in entries
    ]
    gens = [(f"{k} ", require_fields(doc[k], {"taps": list, "seed": int}, path, f"{k} "))
            for k in ("lfsr1", "lfsr2")]
    lfsr1, lfsr2 = (placed(path, where, Lfsr, doc["width"],
                           tuple(json_array(g, "taps", np.int64, path, where).tolist()), g["seed"])
                    for where, g in gens)
    return placed(path, "", ScNetwork, layers, lfsr1, lfsr2, doc["stream_len"], doc["width"])


def load_sc_network(path) -> ScNetwork:
    return build_sc_network(read_json(path), path)
