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
stream and gives every stream's value (2r - n)/n.  ``gate_level_scores``
defines what bit-true means: it composes the network neuron by neuron from
the packed-stream spec ops, and the engine must equal it bit for bit.
Exactly two generators serve the whole network, and repeat runs are
bit-identical.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import ref_nn, sc_core as sc
from .ref_nn import Mlp, json_array, model_layers, placed, require_fields, write_model
from .sc_core import BitStream, GateKind, Lfsr, WordSequence


class CorrelationViolation(ValueError):
    """An operation that requires shared-generator streams got foreign ones."""


# Default generator pair: distinct primitive polynomials and two fixed seeds
# that no sweep here chose.  At a stream length of one period the pair acts
# only through the relative phase of its two generators.  On the README
# walkthrough's relu48 net (make-bench --seed 2024), this pair's phase ranks
# 192nd of the 4095 by calibration MAE, so the choice is still open.
DEFAULT_SEEDS = (41, 1987)

# Default stream length: one period of a generator of the default width.
DEFAULT_STREAM_LEN = (1 << sc.DEFAULT_WIDTH) - 1

# Largest per-layer decoded gain n / (2^shift * 2^(b-1)) that shift
# calibration may pick.  Calibration lowers the shift of a layer whose words
# are small; without a cap, a weak layer would be amplified until the
# stochastic multiplication noise of its XNOR array, not its signal, fills
# the word.
GAIN_CAP = 0.5


def generator(width: int, index: int, seed: int) -> Lfsr:
    """Generator R1 (``index`` 0) or R2 (1) of a ``width``-bit network: its
    tabled maximal polynomial for the width (``sc_core.MAXIMAL_TAPS``), and
    the seed folded into a nonzero register state."""
    return Lfsr(width, sc.MAXIMAL_TAPS[width][index], seed % (1 << width) or 1)


def default_lfsr1(width: int = sc.DEFAULT_WIDTH) -> Lfsr:
    return generator(width, 0, DEFAULT_SEEDS[0])


def default_lfsr2(width: int = sc.DEFAULT_WIDTH) -> Lfsr:
    return generator(width, 1, DEFAULT_SEEDS[1])


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
        self.norm_shift = int(norm_shift)
        self.scale = float(scale)
        self.weights_q = np.asarray(weights_q, dtype=np.int32).reshape(fan_out, fan_in)
        self.bias_q = None if bias_q is None else np.asarray(bias_q, dtype=np.int32).reshape(fan_out)
        # an APC fits an int64, so a shift of 63 already floors it to 0 or -1
        if not 0 <= self.norm_shift <= 63:
            raise ValueError(f"norm_shift must be in [0, 63], got {self.norm_shift}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")

    @property
    def n_inputs(self) -> int:
        """Physical input count including the constant bias line."""
        return self.fan_in + (1 if self.bias_q is not None else 0)


class ScNetwork:
    """Layer stack plus the two LFSR configurations of the hardware model;
    ``shape`` keeps ``ref_nn.network_shape``'s rule."""

    def __init__(self, layers, lfsr1: Lfsr, lfsr2: Lfsr,
                 stream_len: int = DEFAULT_STREAM_LEN, width: int = sc.DEFAULT_WIDTH):
        self.shape = ref_nn.network_shape([(l.fan_in, l.fan_out) for l in layers])
        sc.check_width(width)
        if (lfsr1.taps, lfsr1.seed) == (lfsr2.taps, lfsr2.seed):
            raise ValueError("lfsr1 and lfsr2 must differ in polynomial or seed")
        if lfsr1.width != width or lfsr2.width != width:
            raise ValueError("LFSR widths must match the word width")
        if stream_len < 1:
            raise ValueError("stream_len must be >= 1")
        half = 1 << (width - 1)
        for i, l in enumerate(layers):
            for name, q in (("weight", l.weights_q), ("bias", l.bias_q)):
                if q is not None and (q.min() < -half or q.max() > half - 1):
                    raise ValueError(f"layer {i} {name} words exceed {width}-bit range")
        self.layers = list(layers)
        self.lfsr1 = lfsr1
        self.lfsr2 = lfsr2
        self.stream_len = int(stream_len)
        self.width = int(width)
        self._engine = None  # (rank, prefix tables) of the bit-true simulator

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
        """A bit-true simulator of this network.  The engine's tables are
        built once and kept here; they hold no reference back to the
        network, so a dropped network frees them at once."""
        return ScSimulator(self)


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
    if x.shape[1] != net.shape[0]:
        raise ValueError(f"input width {x.shape[1]} != {net.shape[0]}")
    return x


def _forward(x: np.ndarray, n_layers: int, width: int, layer_apc):
    """The word-domain datapath every model of the network shares.

    ``layer_apc(li, words)`` is the product model: it returns the APC values
    of layer ``li`` for the layer's (k, fan_in) input words, and the layer's
    normalization shift.  Each layer floors the APC by that shift, saturates
    it to b bits and hands max(word, 0) on: the OR with zero(t), which rides
    the same window, keeps exactly the larger of two comparator streams.
    Returns the decoded final words and the number of words that saturated.
    """
    half = 1 << (width - 1)
    words = sc.encode_array(x, width)
    saturations = 0
    for li in range(n_layers):
        apc, shift = layer_apc(li, words)
        # exact for integer APCs, so it is the hardware's arithmetic shift
        shifted = np.floor(apc / (1 << shift))
        saturations += int(np.count_nonzero((shifted < -half) | (shifted > half - 1)))
        clipped = np.clip(shifted, -half, half - 1).astype(np.int64)
        words = np.maximum(clipped, 0)
    return clipped[:, 0] / half, saturations


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


def sc_neuron_word(x_streams, w_row, lfsr2_words: WordSequence, norm_shift: int,
                   width: int = sc.DEFAULT_WIDTH) -> tuple[sc.FixedWord, bool]:
    """The word step of one stochastic neuron: XNOR array against the weight
    streams on R_w(t) -> APC -> arithmetic shift -> saturation to b bits.
    Returns the word and whether it saturated."""
    x_streams = list(x_streams)
    w_row = [w if isinstance(w, sc.FixedWord) else sc.FixedWord(int(w), width) for w in w_row]
    if len(x_streams) != len(w_row):
        raise ValueError(f"{len(x_streams)} inputs vs {len(w_row)} weights")
    n = x_streams[0].n
    products = [
        sc.gate_eval(GateKind.XNOR, x, sc.to_stochastic(w, lfsr2_words, n))
        for x, w in zip(x_streams, w_row)
    ]
    word = sc.apc_accumulate(products, n) >> norm_shift
    half = 1 << (width - 1)
    saturated = word < -half or word > half - 1
    return sc.FixedWord(max(-half, min(half - 1, word)), width), saturated


def sc_neuron_forward(x_streams, w_row, lfsr1_words: WordSequence, lfsr2_words: WordSequence,
                      norm_shift: int, width: int = sc.DEFAULT_WIDTH) -> BitStream:
    """One stochastic neuron: the word step, reconversion against R_x(t),
    then the OR with the correlated zero signal."""
    x_streams = list(x_streams)
    word, _ = sc_neuron_word(x_streams, w_row, lfsr2_words, norm_shift, width)
    n = x_streams[0].n
    zero = sc.to_stochastic(sc.FixedWord(0, width), lfsr1_words, n)
    return relu_via_or(sc.to_stochastic(word, lfsr1_words, n), zero)


def gate_level_scores(net: ScNetwork, X) -> tuple[np.ndarray, int]:
    """Scores of the rows ``X`` and the number of saturated words, composed
    neuron by neuron from the spec ops: the definition of bit-true inference
    that every faster engine must equal, bit for bit.

    Inputs, reconversions and zero(t) ride LFSR1 from phase 0, layer ``li``'s
    weights ride LFSR2 from phase li*N and the bias line is a constant
    all-ones stream.  A hidden neuron is the word step, reconverted and
    OR-ed with zero(t) as in ``sc_neuron_forward``; the output neuron stops
    at its saturated word, read in the binary domain.  Every saturated word,
    hidden or output, counts.
    """
    n, width = net.stream_len, net.width
    r1 = net.lfsr1.word_sequence(n)
    ones = sc.constant_stream(True, n)
    zero = sc.to_stochastic(sc.FixedWord(0, width), r1)
    scores, saturations = [], 0
    for x in X:
        streams = [sc.to_stochastic(sc.FixedWord(int(w), width), r1)
                   for w in sc.encode_array(x, width)]
        for li, layer in enumerate(net.layers):
            r2 = net.lfsr2.word_sequence(n, (li * n) % net.lfsr2.period)
            rows = layer.weights_q.tolist()
            if layer.bias_q is not None:
                rows = [row + [b] for row, b in zip(rows, layer.bias_q.tolist())]
                streams = streams + [ones]
            words = [sc_neuron_word(streams, row, r2, layer.norm_shift, width) for row in rows]
            saturations += sum(saturated for _, saturated in words)
            if li < len(net.layers) - 1:
                streams = [relu_via_or(sc.to_stochastic(word, r1), zero) for word, _ in words]
        scores.append(words[0][0].to_real())
    return np.array(scores), saturations


# ---------------------------------------------------------------------------
# Quantization


def quantize_weights(mlp: Mlp, width: int = sc.DEFAULT_WIDTH,
                     stream_len: int = DEFAULT_STREAM_LEN, lfsr1: Lfsr | None = None,
                     lfsr2: Lfsr | None = None, use_bias: bool = True,
                     calib: np.ndarray | None = None) -> ScNetwork:
    """Post-training quantization of a ReLU reference net.

    Per layer, weights are divided by their largest magnitude and rounded to
    b-bit words; the applied scale goes into the layer bookkeeping so the
    decision function is preserved up to quantization (the decoded score is
    the float score times ``ScNetwork.output_scale``).  Biases become an
    extra weight against a constant +1 input line, pre-scaled by the
    accumulated attenuation of the preceding layers.

    Without calibration data the shift is the worst-case no-overflow value,
    which wastes most of the word range on deep nets; passing ``calib``
    (feature-scaled training rows) picks the smallest per-layer shift whose
    calibration words stay within full scale and whose decoded gain stays
    within ``GAIN_CAP``, the normalization the hardware needs to fit the
    bit-stream resolution.
    """
    if mlp.activation != "relu":
        raise ValueError(
            "hardware model needs ReLU hidden layers; retrain the reference net with ReLU"
        )
    lfsr1 = lfsr1 or default_lfsr1(width)
    lfsr2 = lfsr2 or default_lfsr2(width)
    half = 1 << (width - 1)
    n = stream_len
    x_window, w_windows = _windows(lfsr1, lfsr2, n, mlp.n_layers)
    rank_a, ranks_b = _rank(x_window), [_rank(w) for w in w_windows]
    cap_floor = max(0, math.ceil(math.log2(n / (GAIN_CAP * half))))
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
        s = float(pool.max()) or 1.0
        w_q = sc.encode_array(w / s, width)
        bias_q = None if bias is None else sc.encode_array(bias * attenuation / s, width)

        n_inputs = w.shape[1] + (1 if bias_q is not None else 0)
        shift = min_norm_shift(n_inputs, n, width)
        apc = _ideal_apc(words, rank_a, ranks_b[li], w_q, bias_q)
        peak = float(np.max(np.abs(apc), initial=0.0))
        if peak > 0:
            shift = min(shift, max(cap_floor, math.ceil(math.log2(peak / (half - 1)))))
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
    at row ``q * fan_in + i``, each neuron's weight-stream bits and the
    number of ones before the block, in the count type of the stream length
    (``_count_dtype``: 2 bytes while n < 2^15), so a weight costs n/8 bytes
    of stream bits plus 2 per block; ``ones`` is each weight stream's total
    (fan_in, fan_out), in the same type, and ``offset`` the per-neuron
    constant of the APC: fan_in*n - 2*sum(ones), plus the bias line's
    product.  ``acc`` is the integer type that sums the layer's d over its
    lines (``_sum_dtype``); every sum widens to it before it is scaled.
    """

    packs: np.ndarray
    prefix: np.ndarray
    ones: np.ndarray
    offset: np.ndarray
    acc: type


def _sum_dtype(n_inputs: int, n: int) -> type:
    """The accumulator of a layer's d sums: 4 * sum(d) over its input lines
    is at most 4 * n_inputs * n, so int32 while that stays below 2^31 and
    int64 from there on (the stream length has no upper bound)."""
    return np.int32 if 4 * n_inputs * n < 1 << 31 else np.int64


def _count_dtype(n: int) -> type:
    """The narrowest signed type that holds every count of ones of an n-bit
    stream, 0..n: int16 while n < 2^15, int32 beyond (and int64 from 2^31,
    as the stream length has no upper bound)."""
    return np.int16 if n < 1 << 15 else np.int32 if n < 1 << 31 else np.int64


def _prefix_tables(order: np.ndarray, w_window: WordSequence, weights: np.ndarray,
                   bias: np.ndarray | None) -> _PrefixTables:
    """Prefix-popcount tables of one layer for its (fan_out, fan_in) weights
    and its (fan_out,) bias words, or None.

    ``order`` is the stable sort order of the input window A; read in it,
    every input stream is a prefix of ones.  The weight streams are built per
    distinct weight word, without comparing each word against the window: bit
    t of the stream of the u-th smallest word is set iff u >= first[t], the
    number of distinct words <= B_t, so a 64-bit block of every stream is a
    running sum over u of the block's bits binned by ``first``.  The bias
    line is all ones (r = n, so d = c), and its product 2c - n, with c the
    ones of the bias word's stream, goes into ``offset``; it has no rows.

    One (blocks, distinct words) array is built: the binned bits, summed in
    place into every stream's blocks.  Their popcounts, uint8, are summed in
    place in the count type into the ones before each block; each per-line
    table is taken from these.
    """
    n = len(order)
    fan_out, fan_in = weights.shape
    values, inverse = np.unique(weights, return_inverse=True)
    first = np.searchsorted(values, w_window.words[order], side="right")
    t = np.arange(n)
    # one block more than r = n can address, so the gather never runs off the
    # end; the last column, the bits above every distinct word, is never taken
    packs = np.zeros((n // 64 + 1, len(values) + 1), dtype=np.uint64)
    np.add.at(packs, (t >> 6, first), np.uint64(1) << (t & 63).astype(np.uint64))
    np.cumsum(packs, axis=1, out=packs)
    # row q: the ones before block q; the row after the last block: the totals
    prefix = np.zeros((len(packs) + 1, packs.shape[1]), dtype=_count_dtype(n))
    prefix[1:] = np.bitwise_count(packs)
    np.cumsum(prefix, axis=0, out=prefix)
    lines = inverse.reshape(weights.shape).T.reshape(-1)
    ones = prefix[-1, lines].reshape(fan_in, fan_out)
    offset = fan_in * n - 2 * ones.sum(axis=0, dtype=np.int64)
    if bias is not None:
        # c = #{t: B_t < bias word}
        offset += 2 * _rank(w_window)[bias + (1 << (w_window.width - 1))] - n
    return _PrefixTables(np.take(packs, lines, axis=1).reshape(-1, fan_out),
                         np.take(prefix[:-1], lines, axis=1).reshape(-1, fan_out), ones,
                         offset, _sum_dtype(fan_in + (bias is not None), n))


def _ones_inside(tables: _PrefixTables, r: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Ones d (len(lines), ..., fan_out) of every neuron's weight stream on
    each of the input ``lines`` inside the first r bits, for that line's
    prefix lengths ``r`` (len(lines), ...), in the tables' count type (2
    bytes while n < 2^15); a caller widens them to ``acc`` as it sums them.
    Line-major, so a sum over the lines adds whole contiguous blocks."""
    rows = (r >> 6) * len(tables.ones) + lines.reshape((-1,) + (1,) * (r.ndim - 1))
    partial = np.take(tables.packs, rows, axis=0)
    partial &= ((np.uint64(1) << (r & 63).astype(np.uint64)) - np.uint64(1))[..., None]
    d = np.take(tables.prefix, rows, axis=0)
    d += np.bitwise_count(partial)
    return d


# Bit-true inference runs a batch in chunks of about this many (row, line,
# neuron) counts gathered in its widest layer (``_row_work``): 128 rows of 25
# varying lines into 48 neurons, whose temporaries, 8 + 2 + 1 bytes per
# gathered count (the masked block, its 16-bit count and the popcount), stay
# near 1.7 MB, and never fewer than one row.
INFER_CHUNK_WORDS = 128 * 25 * 48


def _row_work(layers, x: np.ndarray) -> int:
    """The most (line, neuron) counts that any layer gathers per row of the
    batch ``x``, and at least 1.  Layer 0 gathers only the lines that vary
    over the batch: a line constant over the whole batch is constant in
    every chunk and folded.  A later layer gathers at most its fan_in lines."""
    varying = int(np.count_nonzero((x != x[:1]).any(axis=0)))
    return max(1, varying * layers[0].fan_out, *(l.fan_in * l.fan_out for l in layers[1:]))


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

    The APC is an integer sum over input lines.  The bias line's product
    is the same for every row and is folded into a per-neuron constant when
    the tables are built.  A line whose input word is the same in every row
    of a chunk (the crystal ligand's half of a screening batch, a hidden
    neuron that ReLU holds at zero) is counted once and added to that
    constant; only the other lines are gathered per row.  ``infer_many``
    runs a batch in chunks of ``INFER_CHUNK_WORDS`` gathered counts of the
    widest layer (``_row_work``), so wide nets take fewer rows at a time and
    no net's temporaries outgrow the budget.

    Counts generator instantiations (two for any network) and saturation
    events.  Inference is a pure function of (network, input); repeat runs
    are bit-identical.  The tables are built by the first simulator of a
    network and shared by the later ones.
    """

    def __init__(self, net: ScNetwork):
        self.net = net
        self.saturation_count = 0
        self.rng_instantiations = len({(g.width, g.taps, g.seed) for g in (net.lfsr1, net.lfsr2)})
        if net._engine is None:
            x_window, w_windows = _windows(net.lfsr1, net.lfsr2, net.stream_len,
                                           len(net.layers))
            order = np.argsort(x_window.words, kind="stable")
            net._engine = _rank(x_window), [
                _prefix_tables(order, w_window, layer.weights_q, layer.bias_q)
                for layer, w_window in zip(net.layers, w_windows)]
        self._rank, self._tables = net._engine

    def _prefix_apc(self, li: int, words: np.ndarray):
        """APC of layer ``li`` for its (k >= 1, fan_in) input words, from the
        prefix lengths r (k, fan_in) of the input streams and the ones d of
        every weight stream inside them.

        A line whose r is the same in every row (every line of a single row)
        has the same d in every row too, so its terms are counted once, from
        the first row, into the per-neuron constant.
        """
        tables = self._tables[li]
        r = self._rank[words + (1 << (self.net.width - 1))]
        fixed = (r == r[0]).all(axis=0)
        const, vary = np.flatnonzero(fixed), np.flatnonzero(~fixed)
        r_const, r_vary = r[0, const], r.T[vary]
        d_const = _ones_inside(tables, r_const, const)
        d_vary = _ones_inside(tables, r_vary, vary)
        constant = tables.offset + 4 * d_const.sum(axis=0, dtype=tables.acc) - 2 * r_const.sum()
        apc = 4 * d_vary.sum(axis=0, dtype=tables.acc) - 2 * r_vary.sum(axis=0)[:, None] + constant
        return apc, self.net.layers[li].norm_shift

    def infer_many(self, x: np.ndarray) -> np.ndarray:
        """Scores of a batch of input rows, in chunks of as many rows as
        ``INFER_CHUNK_WORDS`` holds gathered (row, line, neuron) counts of
        the widest layer."""
        net = self.net
        x = _input_rows(net, x)
        chunk = max(1, INFER_CHUNK_WORDS // _row_work(net.layers, x))
        out = np.empty(len(x))
        for i in range(0, len(x), chunk):
            out[i:i + chunk], saturations = _forward(x[i:i + chunk], len(net.layers), net.width,
                                                     self._prefix_apc)
            self.saturation_count += saturations
        return out


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
    layers = [
        {
            "fan_in": l.fan_in,
            "fan_out": l.fan_out,
            "norm_shift": l.norm_shift,
            "scale": l.scale,
            "weights": [int(v) for v in l.weights_q.reshape(-1)],
            "bias": None if l.bias_q is None else [int(v) for v in l.bias_q],
        }
        for l in net.layers
    ]
    write_model(path, "sc_network", layers, width=net.width, stream_len=net.stream_len,
                lfsr1={"taps": list(net.lfsr1.taps), "seed": net.lfsr1.seed},
                lfsr2={"taps": list(net.lfsr2.taps), "seed": net.lfsr2.seed})


def build_sc_network(doc, path) -> ScNetwork:
    """The hardware network that the model document ``doc``, read from
    ``path``, holds; a constructor's range error names the file and the place
    in it (``layer i ``, ``lfsr1 ``).  Each generator must run its width's
    tabled polynomial, ``sc_core.MAXIMAL_TAPS[width][i]``."""
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
    placed(path, "", sc.check_width, doc["width"])  # before the generators of that width
    gens = [(f"{k} ", require_fields(doc[k], {"taps": list, "seed": int}, path, f"{k} "))
            for k in ("lfsr1", "lfsr2")]
    lfsr1, lfsr2 = (placed(path, where, Lfsr, doc["width"],
                           tuple(json_array(g, "taps", np.int64, path, where).tolist()), g["seed"])
                    for where, g in gens)
    for (where, _), lfsr, tabled in zip(gens, (lfsr1, lfsr2), sc.MAXIMAL_TAPS[doc["width"]]):
        if lfsr.taps != tabled:
            raise ValueError(f"{path}: {where}taps must be the tabled polynomial {list(tabled)} "
                             f"of width {lfsr.width}, got {list(lfsr.taps)}")
    return placed(path, "", ScNetwork, layers, lfsr1, lfsr2, doc["stream_len"], doc["width"])
