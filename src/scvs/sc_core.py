"""Hardware-faithful stochastic computing primitives.

Bipolar coding: an N-bit boolean stream with N1 ones and N0 zeros carries the
value p = (N1 - N0) / (N0 + N1), in [-1, +1].  Binary words are b-bit two's
complement, interpreted as value/2^(b-1).  Conversion between the two domains
is a comparator against a pseudo-random word sequence R(t); logic gates on
streams implement arithmetic whose semantics depend on the correlation of
their inputs (product for decorrelated XNOR, min/max/1-|x-y| for fully
correlated AND/OR/XNOR).

Streams are stored packed, 64 bits per machine word, so gate evaluation and
popcounts are word-parallel.  Everything here is a pure function of its
inputs; values are immutable after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DEFAULT_WIDTH = 12

# Primitive feedback polynomials, exponent notation (x^12+x^11+x^10+x^4+1 and
# x^12+x^6+x^4+x+1).  Distinct polynomials keep the two generators of a
# network mutually decorrelated.
DEFAULT_TAPS_1 = (12, 11, 10, 4)
DEFAULT_TAPS_2 = (12, 6, 4, 1)

# Two distinct maximal-length polynomials per register width, each verified
# by full-period enumeration (see the LFSR tests).
MAXIMAL_TAPS = {
    4: ((4, 3), (4, 1)),
    5: ((5, 3), (5, 4, 3, 2)),
    6: ((6, 5), (6, 1)),
    7: ((7, 6), (7, 3)),
    8: ((8, 6, 5, 4), (8, 7, 6, 1)),
    9: ((9, 5), (9, 4)),
    10: ((10, 7), (10, 3)),
    11: ((11, 9), (11, 2)),
    12: (DEFAULT_TAPS_1, DEFAULT_TAPS_2),
    13: ((13, 12, 11, 8), (13, 4, 3, 1)),
    14: ((14, 13, 12, 2), (14, 5, 3, 1)),
    15: ((15, 14), (15, 1)),
    16: ((16, 15, 13, 4), (16, 12, 3, 1)),
}

# The word widths the model supports: those with tabled polynomials.  A
# register walks its whole period before its first word is read, so the
# bound also keeps that walk short.
MIN_WIDTH, MAX_WIDTH = min(MAXIMAL_TAPS), max(MAXIMAL_TAPS)

_CORRELATION_EPS = 1e-9


class CorrelationUndefined(ValueError):
    """The correlation metric's normalizer vanished (constant/extreme stream)."""


# ---------------------------------------------------------------------------
# Fixed-point words


@dataclass(frozen=True)
class FixedWord:
    """A b-bit two's complement word carrying a bipolar value value/2^(b-1)."""

    value: int
    width: int = DEFAULT_WIDTH

    def __post_init__(self):
        half = 1 << (self.width - 1)
        if not -half <= self.value <= half - 1:
            raise ValueError(
                f"word {self.value} outside two's complement range of {self.width} bits"
            )

    def to_real(self) -> float:
        return self.value / (1 << (self.width - 1))


def check_width(width: int) -> None:
    if not MIN_WIDTH <= width <= MAX_WIDTH:
        raise ValueError(f"SC width {width} outside [{MIN_WIDTH}, {MAX_WIDTH}]")


def encode(v: float, width: int = DEFAULT_WIDTH) -> FixedWord:
    """Round a real in [-1, 1) to the nearest representable b-bit word."""
    half = 1 << (width - 1)
    word = int(round(v * half))
    word = max(-half, min(half - 1, word))
    return FixedWord(word, width)


def encode_array(v: np.ndarray, width: int = DEFAULT_WIDTH) -> np.ndarray:
    half = 1 << (width - 1)
    return np.clip(np.rint(np.asarray(v, dtype=np.float64) * half), -half, half - 1).astype(
        np.int32
    )


# ---------------------------------------------------------------------------
# Bit streams


def _packed_words(n: int) -> int:
    return (n + 63) // 64


def _tail_mask(n: int) -> np.ndarray:
    """All-ones uint64 mask with the pad bits of the last word cleared."""
    mask = np.full(_packed_words(n), ~np.uint64(0), dtype=np.uint64)
    tail = n % 64
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean array (last axis = time) into uint64 words."""
    bits = np.asarray(bits, dtype=bool)
    n = bits.shape[-1]
    pad = (-n) % 64
    if pad:
        shape = bits.shape[:-1] + (pad,)
        bits = np.concatenate([bits, np.zeros(shape, dtype=bool)], axis=-1)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    bits = np.unpackbits(packed.view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :n].astype(bool)


def _popcount(packed: np.ndarray) -> np.ndarray:
    return np.bitwise_count(packed)


class BitStream:
    """Fixed-length boolean sequence carrying one bipolar-coded value.

    ``origin`` identifies the word sequence the stream was generated from;
    streams sharing an origin are fully correlated by construction and gate
    outputs carry a "derived" origin.
    """

    __slots__ = ("packed", "n", "origin")

    def __init__(self, packed: np.ndarray, n: int, origin: str = "unknown"):
        if n < 1:
            raise ValueError("a stream needs at least one bit")
        if packed.dtype != np.uint64 or packed.shape != (_packed_words(n),):
            raise ValueError("packed buffer does not match the declared length")
        packed.flags.writeable = False
        self.packed = packed
        self.n = n
        self.origin = origin

    @classmethod
    def from_bools(cls, bits, origin: str = "unknown") -> "BitStream":
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("a stream needs at least one bit")
        return cls(_pack(bits), bits.size, origin)

    @classmethod
    def from_string(cls, s: str, origin: str = "unknown") -> "BitStream":
        """Build from a "0101"-style string, first character = first cycle."""
        s = s.replace(" ", "")
        return cls.from_bools([c == "1" for c in s], origin)

    def to_bools(self) -> np.ndarray:
        return _unpack(self.packed, self.n)

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.to_bools())

    def ones(self) -> int:
        return int(_popcount(self.packed).sum())

    @property
    def value(self) -> float:
        """Decoded bipolar value (N1 - N0) / N."""
        return (2 * self.ones() - self.n) / self.n

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.packed, other.packed))

    def __hash__(self):
        return hash((self.n, self.packed.tobytes()))

    def __repr__(self) -> str:
        head = self.to_string() if self.n <= 32 else self.to_string()[:32] + "..."
        return f"BitStream({head}, n={self.n}, value={self.value:+.4f}, origin={self.origin!r})"


def constant_stream(bit: bool, n: int, origin: str = "const") -> BitStream:
    packed = _tail_mask(n) if bit else np.zeros(_packed_words(n), dtype=np.uint64)
    return BitStream(packed, n, origin)


# ---------------------------------------------------------------------------
# LFSR pseudo-random generator


@dataclass(frozen=True)
class Lfsr:
    """Fibonacci linear feedback shift register.

    ``taps`` lists the feedback polynomial exponents (the register width must
    appear); without them the register takes its width's first tabled
    polynomial, ``MAXIMAL_TAPS[width][0]``.  With a primitive polynomial the
    state walks all 2^width - 1 nonzero states before repeating.  Emitted
    words are the raw state reinterpreted as a signed two's complement word:
    uniform over all words except 0, which never occurs (the locked-up state
    is excluded), a documented <= 1/(2^width - 1) bias.
    """

    width: int = DEFAULT_WIDTH
    taps: tuple[int, ...] | None = None
    seed: int = 1

    def __post_init__(self):
        if self.taps is None:
            if self.width not in MAXIMAL_TAPS:
                raise ValueError(f"no tabled polynomial for a {self.width}-bit register")
            object.__setattr__(self, "taps", MAXIMAL_TAPS[self.width][0])
        if self.seed == 0 or not 0 < self.seed < (1 << self.width):
            raise ValueError("seed must be a nonzero state of the register")
        if not self.taps or max(self.taps) != self.width or min(self.taps) < 1:
            raise ValueError("taps must be polynomial exponents in [1, width], including width")

    @property
    def tap_mask(self) -> int:
        m = 0
        for e in self.taps:
            m |= 1 << (e - 1)
        return m

    def step(self, state: int) -> int:
        if state == 0:
            raise ValueError("LFSR state 0 locks the register")
        fb = (state & self.tap_mask).bit_count() & 1
        return ((state << 1) | fb) & ((1 << self.width) - 1)

    def states(self, count: int) -> np.ndarray:
        """The first ``count`` raw states, starting at the seed."""
        out = np.empty(count, dtype=np.int64)
        s = self.seed
        for i in range(count):
            out[i] = s
            s = self.step(s)
        return out

    @property
    def period(self) -> int:
        """Actual cycle length of the state sequence."""
        return len(self._period_words())

    @property
    def is_maximal(self) -> bool:
        return self.period == (1 << self.width) - 1

    def _period_words(self) -> np.ndarray:
        """Signed words of one whole cycle from the seed.  The register is
        walked once per (width, taps, seed) and the words are cached."""
        key = (self.width, self.taps, self.seed)
        words = _WORDS_CACHE.get(key)
        if words is None:
            raw = [self.seed]
            s = self.step(self.seed)
            # The width tap makes the step a bijection on nonzero states, so
            # every seed returns.
            while s != self.seed:
                raw.append(s)
                s = self.step(s)
            raw = np.array(raw, dtype=np.int64)
            half = 1 << (self.width - 1)
            words = np.where(raw >= half, raw - (1 << self.width), raw).astype(np.int32)
            words.flags.writeable = False
            _WORDS_CACHE[key] = words
        return words

    def word_sequence(self, count: int, phase: int = 0) -> "WordSequence":
        """Signed words emitted from ``phase`` steps in; wraps past the period."""
        period = self.period
        base = self._period_words()
        idx = (phase + np.arange(count)) % period
        origin = f"lfsr(w={self.width},taps={self.taps},seed={self.seed},phase={phase % period})"
        return WordSequence(base[idx], self.width, origin)


_WORDS_CACHE: dict = {}


def lfsr_next(lfsr: Lfsr, state: int) -> tuple[FixedWord, int]:
    """Emit the current state as a signed word, then advance one step."""
    if state == 0:
        raise ValueError("LFSR state 0 locks the register")
    half = 1 << (lfsr.width - 1)
    word = state - (1 << lfsr.width) if state >= half else state
    return FixedWord(word, lfsr.width), lfsr.step(state)


@dataclass(frozen=True)
class WordSequence:
    """A run of RNG words with the identity of the generator that made them."""

    words: np.ndarray
    width: int
    origin: str

    def __post_init__(self):
        self.words.flags.writeable = False

    def __len__(self) -> int:
        return len(self.words)


# ---------------------------------------------------------------------------
# Conversion


def to_stochastic(x: FixedWord, rng: WordSequence, n: int | None = None) -> BitStream:
    """Comparator conversion: bit t is (X > R(t))."""
    if x.width != rng.width:
        raise ValueError(f"word width {x.width} does not match RNG width {rng.width}")
    if n is None:
        n = len(rng)
    if n > len(rng):
        raise ValueError(f"need {n} RNG words, only {len(rng)} available")
    return BitStream(comparator_streams(x.value, rng, n), n, rng.origin)


def comparator_streams(words, rng: WordSequence, n: int) -> np.ndarray:
    """Packed comparator streams of an array of words at once: row i packs
    bits t = 0..n-1 of (words[i] > R(t))."""
    return _pack(np.asarray(words)[..., None] > rng.words[:n])


def counter_trace(s: BitStream) -> np.ndarray:
    """Signed up/down counter contents after each cycle (+1 per one, -1 per zero)."""
    steps = np.where(s.to_bools(), 1, -1)
    return np.cumsum(steps)


# ---------------------------------------------------------------------------
# Gates and the accumulative parallel counter


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    XNOR = "xnor"


def gate_eval(kind: GateKind, a: BitStream, b: BitStream) -> BitStream:
    """Elementwise gate application; the result carries a derived origin."""
    if a.n != b.n:
        raise ValueError(f"stream lengths differ: {a.n} vs {b.n}")
    return BitStream(_gate_packed(kind, a.packed, b.packed, a.n), a.n, origin="derived")


def _gate_packed(kind: GateKind, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The gate on packed n-bit streams of any broadcastable shapes; pad bits
    stay clear."""
    if kind is GateKind.AND:
        return a & b
    if kind is GateKind.OR:
        return a | b
    if kind is GateKind.XNOR:
        return ~(a ^ b) & _tail_mask(n)
    raise ValueError(f"unknown gate {kind!r}")


def apc_accumulate(columns, n: int | None = None) -> int:
    """Sum (+1 per one, -1 per zero) over all cycles of all input streams.

    This is the accumulative parallel counter: an exact integer in
    [-n_inputs*N, +n_inputs*N] with no randomness of its own.
    """
    columns = list(columns)
    if not columns:
        raise ValueError("APC needs at least one input stream")
    if n is None:
        n = columns[0].n
    total = 0
    for s in columns:
        if s.n != n:
            raise ValueError(f"stream length {s.n} differs from window {n}")
        total += 2 * s.ones() - n
    return total


# ---------------------------------------------------------------------------
# Correlation metric and the analytic gate laws


def _ones(packed: np.ndarray) -> np.ndarray:
    return _popcount(packed).sum(axis=-1, dtype=np.int64)


def _correlation(x, y, matches, n: int):
    """SC correlation (clamped to [-1, 1]) and its normalizer, elementwise,
    for streams of values x and y that agree on ``matches`` of n bits."""
    cov = (2 * matches - n) / n - x * y
    denom = np.where(cov >= 0, 1.0 - np.abs(x - y) - x * y, 1.0 - np.abs(x + y) + x * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        # |cov| <= denom exactly; the clamp only absorbs rounding
        return np.clip(cov / denom, -1.0, 1.0), denom


def sc_correlation(a: BitStream, b: BitStream) -> float:
    """SC correlation (Alaghi & Hayes, ICCD 2013) of two bipolar streams.

    The covariance of the streams over the largest covariance of the same
    sign that streams of values x and y can have: 1 - |x-y| - xy when they
    share a generator (+1), 1 - |x+y| + xy when they are as unlike as their
    values allow (-1).  0 means full decorrelation.
    Raises :class:`CorrelationUndefined` when the normalizer vanishes
    (constant or extreme-valued streams) instead of guessing a number.
    """
    if a.n != b.n:
        raise ValueError(f"stream lengths differ: {a.n} vs {b.n}")
    x, y = a.value, b.value
    c, denom = _correlation(x, y, a.n - int(_ones(a.packed ^ b.packed)), a.n)
    if abs(denom) < _CORRELATION_EPS:
        raise CorrelationUndefined(
            f"correlation undefined: normalizer {denom:.3e} vanishes for x={x:+.4f}, y={y:+.4f}"
        )
    return float(c)


def gate_law(kind: GateKind, x, y, c):
    """Closed-form gate output as a function of input values and correlation,
    elementwise: the decorrelated output f(0) blended linearly with f(+1) for
    c >= 0 and with f(-1) for c < 0, the outputs at the two correlation
    extremes."""
    if kind is GateKind.AND:
        f0 = (x * y + x + y - 1.0) * 0.5
        f_pos, f_neg = np.minimum(x, y), np.maximum(x + y, 0.0) - 1.0
    elif kind is GateKind.OR:
        f0 = (x + y + 1.0 - x * y) * 0.5
        f_pos, f_neg = np.maximum(x, y), np.minimum(x + y, 0.0) + 1.0
    elif kind is GateKind.XNOR:
        f0, f_pos, f_neg = x * y, 1.0 - np.abs(x - y), np.abs(x + y) - 1.0
    else:
        raise ValueError(f"unknown gate {kind!r}")
    return np.where(c >= 0, f0 * (1.0 - c) + c * f_pos, (1.0 + c) * f0 - c * f_neg)


def expected_gate_output(kind: GateKind, x: float, y: float, c: float) -> float:
    """:func:`gate_law` at one point, with x, y and C checked to lie in [-1, 1]."""
    for name, v in (("x", x), ("y", y), ("C", c)):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"{name}={v} outside [-1, 1]")
    return float(gate_law(kind, x, y, c))


_SWEEP_BLOCK = 1 << 21  # 16 MiB of uint64 per broadcast temporary


def gate_sweep(kind: GateKind, a: np.ndarray, b: np.ndarray, n: int):
    """The gate on every pairing of the packed n-bit streams ``a`` (k, words)
    and ``b`` (m, words), as three (k, m) arrays: the measured output value,
    the SC correlation (NaN where it is undefined) and :func:`gate_law` at
    that correlation (the measured value where it is undefined).  Rows of
    ``a`` go through in blocks of at most ``_SWEEP_BLOCK`` packed words."""
    rows = max(1, _SWEEP_BLOCK // b.size)
    blocks = [_sweep_block(kind, a[i:i + rows], b, n) for i in range(0, len(a), rows)]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _sweep_block(kind: GateKind, a: np.ndarray, b: np.ndarray, n: int):
    a, b = a[:, None], b[None, :]
    x, y = ((2 * _ones(s) - n) / n for s in (a, b))
    z = (2 * _ones(_gate_packed(kind, a, b, n)) - n) / n
    c, denom = _correlation(x, y, n - _ones(a ^ b), n)
    undefined = np.abs(denom) < _CORRELATION_EPS
    formula = np.where(undefined, z, gate_law(kind, x, y, c))
    c[undefined] = np.nan
    return z, c, formula


def comparator_value(word: int, width: int = DEFAULT_WIDTH) -> float:
    """Decoded value of the comparator stream for ``word`` over one full period.

    The LFSR never emits state 0, so the staircase is (2*word + 1)/(2^width - 1)
    for word <= 0 and (2*word - 1)/(2^width - 1) above.
    """
    half = 1 << (width - 1)
    n = (1 << width) - 1
    below = np.asarray(word) + half - (np.asarray(word) > 0)
    return (2 * below - n) / n
