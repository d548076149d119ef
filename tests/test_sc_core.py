"""Stochastic-computing primitive tests.

The 8-cycle waveform fixtures reproduce a published bipolar-multiplier trace:
a 4-bit R(t) sequence converting X=0.000 and Y=0.100 (two's complement), with
the XNOR output and up/down counter contents checked bit for bit.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvs import sc_core as sc
from scvs.sc_core import BitStream, GateKind, Lfsr

N_FULL = 4095

# R(t) waveform words: 0.010, 1.010, 1.110, 0.110, 1.001, 0.111, 1.000, 0.011
# read as 4-bit two's complement.
R_FIG = [2, -6, -2, 6, -7, 7, -8, 3]


def _fig_rng():
    return sc.WordSequence(np.array(R_FIG, dtype=np.int32), 4, "fig-rng")


@pytest.fixture(scope="module")
def lfsr1_words():
    return Lfsr().word_sequence(N_FULL)


@pytest.fixture(scope="module")
def lfsr2_words():
    return Lfsr(taps=sc.DEFAULT_TAPS_2).word_sequence(N_FULL)


class TestFixedWord:
    def test_range_enforced(self):
        sc.FixedWord(-2048)
        sc.FixedWord(2047)
        with pytest.raises(ValueError):
            sc.FixedWord(2048)
        with pytest.raises(ValueError):
            sc.FixedWord(-2049)

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1, np.nextafter(1, 0), size=500):
            assert abs(sc.encode(v).to_real() - v) < 2 ** -11

    def test_encode_examples(self):
        assert sc.encode(0.5).value == 1024
        assert sc.encode(-1.0).value == -2048
        assert sc.encode(1.0).value == 2047  # clipped to the top word


class TestLfsr:
    def test_4bit_full_period_enumeration(self):
        # Derived oracle: iterate x^4+x^3+1 from seed 0b0001 and collect states.
        l = Lfsr(width=4, taps=(4, 3), seed=1)
        states = l.states(15)
        assert len(set(states.tolist())) == 15
        assert 0 not in states
        assert l.step(int(states[-1])) == 1  # wraps back to the seed
        assert l.period == 15

    def test_short_cycle_period_and_words(self):
        # x^4 alone rotates the register: a 4-state cycle, not the maximal 15
        l = Lfsr(width=4, taps=(4,), seed=1)
        assert l.period == 4 and not l.is_maximal
        seq = l.word_sequence(6, phase=7)
        assert seq.words.tolist() == [-8, 1, 2, 4, -8, 1]
        assert seq.origin == "lfsr(w=4,taps=(4,),seed=1,phase=3)"

    def test_state_after_period_equals_seed(self):
        for l in (Lfsr(), Lfsr(taps=sc.DEFAULT_TAPS_2, seed=77), Lfsr(width=4, taps=(4, 3))):
            s = l.seed
            for _ in range(l.period):
                s = l.step(s)
            assert s == l.seed

    def test_12bit_histogram_every_nonzero_word_once(self):
        words = Lfsr().word_sequence(N_FULL).words
        assert len(np.unique(words)) == N_FULL
        assert 0 not in words
        assert words.min() == -2048 and words.max() == 2047

    def test_second_polynomial_is_maximal(self):
        assert Lfsr(taps=sc.DEFAULT_TAPS_2).is_maximal

    def test_every_tabled_polynomial_is_maximal(self):
        for width, (taps_a, taps_b) in sc.MAXIMAL_TAPS.items():
            assert taps_a != taps_b
            assert Lfsr(width, taps_a, 1).is_maximal
            assert Lfsr(width, taps_b, 1).is_maximal

    def test_default_taps_are_the_widths_first_tabled_polynomial(self):
        for width, (taps_a, _) in sc.MAXIMAL_TAPS.items():
            lfsr = Lfsr(width=width)
            assert lfsr == Lfsr(width, taps_a, 1)
            assert np.array_equal(lfsr.states(40), Lfsr(width, taps_a, 1).states(40))
        assert Lfsr() == Lfsr(sc.DEFAULT_WIDTH, sc.DEFAULT_TAPS_1, 1)
        with pytest.raises(ValueError, match="no tabled polynomial for a 3-bit register"):
            Lfsr(width=3)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(seed=0)
        with pytest.raises(ValueError):
            Lfsr().step(0)
        with pytest.raises(ValueError):
            sc.lfsr_next(Lfsr(), 0)

    def test_lfsr_next_emits_then_advances(self):
        l = Lfsr(width=4, taps=(4, 3), seed=12)
        word, state = sc.lfsr_next(l, 12)
        assert word.value == -4  # 0b1100 reinterpreted signed
        assert state == l.step(12)

    def test_word_sequence_wraps_cyclically(self):
        l = Lfsr(width=4, taps=(4, 3), seed=1)
        w = l.word_sequence(45).words
        assert np.array_equal(w[:15], w[15:30])
        assert np.array_equal(l.word_sequence(15, phase=7).words, np.roll(w[:15], -7))


class TestConversion:
    def test_fig_waveform_x(self):
        s = sc.to_stochastic(sc.FixedWord(0, 4), _fig_rng())
        assert s.to_string() == "01101010"
        assert s.value == 0.0

    def test_fig_waveform_y(self):
        s = sc.to_stochastic(sc.FixedWord(4, 4), _fig_rng())
        assert s.to_string() == "11101011"
        assert s.value == 0.5

    def test_max_word_over_full_period(self, lfsr1_words):
        # All ones except the single cycle where R(t) = max word.
        s = sc.to_stochastic(sc.FixedWord(2047), lfsr1_words)
        assert s.ones() == N_FULL - 1
        assert s.value == 1.0 - 2.0 / N_FULL

    def test_min_word_is_all_zeros(self, lfsr1_words):
        s = sc.to_stochastic(sc.FixedWord(-2048), lfsr1_words)
        assert s.ones() == 0
        assert s.value == -1.0

    def test_width_mismatch_rejected(self, lfsr1_words):
        with pytest.raises(ValueError):
            sc.to_stochastic(sc.FixedWord(0, 4), lfsr1_words)

    def test_from_stochastic_examples(self):
        assert BitStream.from_string("11111111").value == 1.0
        assert BitStream.from_string("00101110").value == 0.0
        assert BitStream.from_string("01111110").value == 0.5

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            BitStream.from_bools([])

    def test_counter_trace_matches_fig_waveform(self):
        # Counter contents for z=00101110: 1.111,1.110,1.111,1.110,1.111,0.000,0.001,0.000
        trace = sc.counter_trace(BitStream.from_string("00101110"))
        assert trace.tolist() == [-1, -2, -1, -2, -1, 0, 1, 0]
        assert trace[-1] == 0  # register Q latches 0.000

    def test_full_period_conversion_deterministic(self, lfsr1_words):
        x = sc.encode(0.37)
        a = sc.to_stochastic(x, lfsr1_words)
        b = sc.to_stochastic(x, Lfsr().word_sequence(N_FULL))
        assert a == b
        assert a.value == sc.comparator_value(x.value)


class TestGates:
    def test_fig_multiplier_xnor_uncorrelated(self):
        # x=0.0 from R(t), y=0.5 independent: z = 00101110, decoding to 0.0.
        x = sc.to_stochastic(sc.FixedWord(0, 4), _fig_rng())
        y = BitStream.from_string("10111011")
        z = sc.gate_eval(GateKind.XNOR, x, y)
        assert z.to_string() == "00101110"
        assert z.value == 0.0

    def test_fig_xnor_correlated(self):
        # Same R(t) for both inputs: XNOR computes 1-|x-y| = 0.5, not the product.
        rng = _fig_rng()
        x = sc.to_stochastic(sc.FixedWord(0, 4), rng)
        y = sc.to_stochastic(sc.FixedWord(4, 4), rng)
        z = sc.gate_eval(GateKind.XNOR, x, y)
        assert z.to_string() == "01111110"
        assert z.value == 0.5

    def test_and_idempotent(self):
        rng = np.random.default_rng(3)
        s = BitStream.from_bools(rng.random(777) < 0.4)
        assert sc.gate_eval(GateKind.AND, s, s) == s

    def test_length_mismatch_rejected(self):
        a = BitStream.from_string("010")
        b = BitStream.from_string("0101")
        with pytest.raises(ValueError):
            sc.gate_eval(GateKind.OR, a, b)

    def test_truth_tables(self):
        a = BitStream.from_string("0011")
        b = BitStream.from_string("0101")
        assert sc.gate_eval(GateKind.AND, a, b).to_string() == "0001"
        assert sc.gate_eval(GateKind.OR, a, b).to_string() == "0111"
        assert sc.gate_eval(GateKind.XNOR, a, b).to_string() == "1001"


class TestApc:
    def test_all_ones_two_streams(self):
        s = constant = sc.constant_stream(True, 4)
        assert sc.apc_accumulate([s, constant]) == 8

    def test_bipolar_sum_zero(self):
        up = sc.constant_stream(True, 6)
        down = sc.constant_stream(False, 6)
        half = BitStream.from_string("010101")
        assert sc.apc_accumulate([up, down, half]) == 0

    def test_matches_naive_popcount_oracle(self):
        rng = np.random.default_rng(11)
        streams = [BitStream.from_bools(rng.random(N_FULL) < p) for p in rng.random(7)]
        naive = sum(int(s.to_bools().sum()) - int((~s.to_bools()).sum()) for s in streams)
        assert sc.apc_accumulate(streams) == naive

    def test_partition_linearity(self):
        rng = np.random.default_rng(5)
        streams = [BitStream.from_bools(rng.random(512) < p) for p in rng.random(6)]
        whole = sc.apc_accumulate(streams)
        assert whole == sc.apc_accumulate(streams[:2]) + sc.apc_accumulate(streams[2:])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sc.apc_accumulate([])


class TestCorrelation:
    def test_same_rng_gives_plus_one(self, lfsr1_words):
        for xv, yv in [(0.3, -0.6), (0.0, 0.5), (-0.9, 0.8)]:
            a = sc.to_stochastic(sc.encode(xv), lfsr1_words)
            b = sc.to_stochastic(sc.encode(yv), lfsr1_words)
            assert sc.sc_correlation(a, b) == pytest.approx(1.0, abs=2 / N_FULL)

    def test_independent_lfsrs_near_zero(self, lfsr1_words, lfsr2_words):
        a = sc.to_stochastic(sc.encode(0.0), lfsr1_words)
        b = sc.to_stochastic(sc.encode(0.0), lfsr2_words)
        assert abs(sc.sc_correlation(a, b)) < 0.05

    def test_identical_zero_mean_stream_exactly_one(self):
        s = BitStream.from_string("0101" * 8)
        assert sc.sc_correlation(s, s) == 1.0

    def test_constant_stream_undefined(self):
        a = sc.constant_stream(True, 64)
        b = BitStream.from_bools(np.arange(64) % 3 == 0)
        with pytest.raises(sc.CorrelationUndefined):
            sc.sc_correlation(a, b)

    def test_clamped_to_unit_interval(self, lfsr1_words, lfsr2_words):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = sc.to_stochastic(sc.encode(rng.uniform(-1, 1)), lfsr1_words)
            b = sc.to_stochastic(sc.encode(rng.uniform(-1, 1)), lfsr2_words)
            try:
                c = sc.sc_correlation(a, b)
            except sc.CorrelationUndefined:
                continue
            assert -1.0 <= c <= 1.0


class TestExpectedGateOutput:
    def test_xnor_uncorrelated_is_product(self):
        assert sc.expected_gate_output(GateKind.XNOR, 0.0, 0.5, 0.0) == 0.0
        assert sc.expected_gate_output(GateKind.XNOR, 0.6, -0.5, 0.0) == pytest.approx(-0.3)

    def test_xnor_correlated_is_similarity(self):
        assert sc.expected_gate_output(GateKind.XNOR, 0.0, 0.5, 1.0) == 0.5

    def test_and_identity_element(self):
        for p in np.linspace(-1, 1, 9):
            assert sc.expected_gate_output(GateKind.AND, 1.0, p, 0.0) == pytest.approx(p)

    def test_and_correlated_is_min(self):
        assert sc.expected_gate_output(GateKind.AND, 0.3, -0.2, 1.0) == pytest.approx(-0.2)

    def test_or_correlated_is_max(self):
        assert sc.expected_gate_output(GateKind.OR, 0.3, -0.2, 1.0) == pytest.approx(0.3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sc.expected_gate_output(GateKind.AND, 1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            sc.expected_gate_output(GateKind.AND, 0.5, 0.0, -1.01)


class TestOracleConsistency:
    """Eq.-3 forms are exact identities given the measured correlation."""

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_fuzzed_streams_match_formula(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
        for _ in range(200):
            n = int(rng.integers(64, 2048))
            a = BitStream.from_bools(rng.random(n) < rng.uniform(0.15, 0.85))
            b = BitStream.from_bools(rng.random(n) < rng.uniform(0.15, 0.85))
            try:
                c = sc.sc_correlation(a, b)
            except sc.CorrelationUndefined:
                continue
            z = sc.gate_eval(kind, a, b).value
            expected = sc.expected_gate_output(kind, a.value, b.value, c)
            assert z == pytest.approx(expected, abs=2 / n)

    def test_anticorrelated_short_streams(self):
        # Covariance -0.64: a normalizer of 0.16, the bound for positive
        # covariance, would read C = -4.
        a, b = BitStream.from_string("11110"), BitStream.from_string("00001")
        c = sc.sc_correlation(a, b)
        assert -1.0 <= c <= 1.0
        for kind in GateKind:
            z = sc.gate_eval(kind, a, b).value
            assert z == pytest.approx(sc.expected_gate_output(kind, a.value, b.value, c), abs=1e-12)

    @given(st.integers(2, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_streams(self, n, seed):
        rng = np.random.default_rng(seed)
        a = BitStream.from_bools(rng.random(n) < 0.5)
        b = BitStream.from_bools(rng.random(n) < 0.5)
        try:
            c = sc.sc_correlation(a, b)
        except sc.CorrelationUndefined:
            return
        for kind in GateKind:
            z = sc.gate_eval(kind, a, b).value
            assert z == pytest.approx(sc.expected_gate_output(kind, a.value, b.value, c), abs=2 / n)


class TestFullPeriodDeterminism:
    def test_repeat_runs_bit_identical(self):
        runs = []
        for _ in range(2):
            ws = Lfsr().word_sequence(N_FULL)
            s = sc.to_stochastic(sc.encode(-0.123), ws)
            runs.append(s.packed.tobytes())
        assert runs[0] == runs[1]

    def test_convergence_on_grid(self, lfsr1_words, lfsr2_words):
        errs = []
        for xv in np.arange(-1.0, 1.0001, 0.1):
            a = sc.to_stochastic(sc.encode(xv), lfsr1_words)
            for yv in np.arange(-1.0, 1.0001, 0.1):
                b = sc.to_stochastic(sc.encode(yv), lfsr2_words)
                z = sc.gate_eval(GateKind.XNOR, a, b)
                errs.append(abs(z.value - xv * yv))
        assert max(errs) <= 0.05
