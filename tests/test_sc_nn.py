"""Hardware network tests: quantization, the OR-gate ReLU, single neurons,
whole-network inference and the fixed-point reference."""

import contextlib
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvs import cli, ref_nn, sc_core as sc, sc_nn
from scvs.sc_core import Lfsr
from scvs.sc_nn import (
    CorrelationViolation,
    ScLayer,
    ScNetwork,
    default_lfsr1,
    default_lfsr2,
    fixed_point_reference,
    min_norm_shift,
    quantize_weights,
    relu_via_or,
    sc_neuron_forward,
    sc_neuron_word,
)

N = 4095
HALF = 2048


def _mlp_from(weights, biases=None, activation="relu"):
    if biases is None:
        biases = [np.zeros(w.shape[0]) for w in weights]
    return ref_nn.Mlp(activation, weights, biases)


@pytest.fixture(scope="module")
def r1():
    return default_lfsr1().word_sequence(N)


@pytest.fixture(scope="module")
def r2():
    return default_lfsr2().word_sequence(N)


class TestQuantize:
    def test_plain_layer_scale_one(self):
        mlp = _mlp_from([np.array([[0.5, -0.25, 1.0]])])
        net = quantize_weights(mlp, use_bias=False)
        layer = net.layers[0]
        assert layer.scale == 1.0
        assert layer.weights_q.tolist() == [[1024, -512, 2047]]

    def test_outlier_scale_folded(self):
        mlp = _mlp_from([np.array([[0.1, 0.1, 10.0]])])
        net = quantize_weights(mlp, use_bias=False)
        layer = net.layers[0]
        assert layer.scale == pytest.approx(10.0)
        dequant = layer.weights_q / HALF * layer.scale
        np.testing.assert_allclose(dequant, [[0.1, 0.1, 10.0]], atol=2 ** -11 * 10)

    def test_all_zero_layer_guard(self):
        mlp = _mlp_from([np.zeros((2, 3)), np.zeros((1, 2))])
        net = quantize_weights(mlp)
        assert net.layers[0].scale == 1.0
        assert not net.layers[0].weights_q.any()

    def test_tanh_rejected(self):
        mlp = _mlp_from([np.ones((1, 2))], activation="tanh")
        with pytest.raises(ValueError, match="ReLU"):
            quantize_weights(mlp)

    def test_shift_defaults_to_no_overflow_bound(self):
        mlp = _mlp_from([np.ones((4, 24)), np.ones((1, 4))])
        net = quantize_weights(mlp)
        for layer in net.layers:
            assert layer.norm_shift >= min_norm_shift(layer.n_inputs, N, 12)

    def test_calibration_never_exceeds_bound_or_gain_cap(self):
        rng = np.random.default_rng(0)
        mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=5)
        net = quantize_weights(mlp, calib=rng.uniform(-1, 1, (64, 24)))
        for layer in net.layers:
            gain = N / ((1 << layer.norm_shift) * HALF)
            assert gain <= sc_nn.GAIN_CAP + 1e-12
            assert layer.norm_shift <= min_norm_shift(layer.n_inputs, N, 12)


class TestReluViaOr:
    def test_negative_input_clamps_to_zero_signal(self, r1):
        s = sc.to_stochastic(sc.encode(-0.5), r1)
        zero = sc.to_stochastic(sc.encode(0.0), r1)
        out = relu_via_or(s, zero)
        assert out.value == pytest.approx(0.0, abs=2 / N)

    def test_positive_input_passes_through(self, r1):
        s = sc.to_stochastic(sc.encode(0.5), r1)
        zero = sc.to_stochastic(sc.encode(0.0), r1)
        assert relu_via_or(s, zero).value == pytest.approx(0.5, abs=2 / N)

    def test_sweep_is_exact_max_of_stream_values(self, r1):
        # Shared-generator comparator streams are nested, so the OR is the
        # order statistic exactly, with no stochastic tolerance at all.
        zero = sc.to_stochastic(sc.encode(0.0), r1)
        for v in np.arange(-1.0, 1.001, 0.125):
            s = sc.to_stochastic(sc.encode(v), r1)
            out = relu_via_or(s, zero)
            assert out.ones() == max(s.ones(), zero.ones())
            assert out.origin == s.origin

    def test_foreign_lineage_rejected(self, r1, r2):
        s = sc.to_stochastic(sc.encode(0.5), r1)
        zero = sc.to_stochastic(sc.encode(0.0), r2)
        with pytest.raises(CorrelationViolation):
            relu_via_or(s, zero)


class TestScNeuron:
    def test_upper_saturation(self, r1, r2):
        x = [sc.constant_stream(True, N), sc.constant_stream(True, N)]
        word, saturated = sc_neuron_word(x, [2047, 2047], r2, norm_shift=1)
        assert sc.to_stochastic(word, r1).value == pytest.approx(1.0, abs=0.01)
        assert saturated

    def test_balanced_inputs_cancel(self, r1, r2):
        x = [sc.to_stochastic(sc.encode(0.5), r1), sc.to_stochastic(sc.encode(-0.5), r1)]
        w = [sc.encode(0.5), sc.encode(0.5)]
        out = sc_neuron_forward(x, w, r1, r2, norm_shift=min_norm_shift(2, N, 12))
        assert out.value == pytest.approx(0.0, abs=0.05)

    def test_relu_clamps_negative_preactivation(self, r1, r2):
        x = [sc.to_stochastic(sc.encode(-1.0), r1)] * 2
        out = sc_neuron_forward(x, [2047, 2047], r1, r2, norm_shift=1)
        assert out.value == pytest.approx(0.0, abs=2 / N)

    def test_relu_neuron_sweep_tracks_max(self, r1, r2):
        # Identity-ish neuron: one input, weight +1, unit gain.
        for v in np.arange(-1.0, 1.001, 0.25):
            x = [sc.to_stochastic(sc.encode(v), r1)]
            out = sc_neuron_forward(x, [2047], r1, r2, norm_shift=1)
            assert out.value == pytest.approx(max(v, 0.0), abs=0.05)

    def test_input_weight_count_mismatch(self, r1, r2):
        with pytest.raises(ValueError):
            sc_neuron_forward([sc.constant_stream(True, N)], [1, 2], r1, r2, 1)


@contextlib.contextmanager
def _rows_per_chunk(net, X, rows):
    """Within the block, ``infer_many`` runs ``net`` over the batch ``X``
    ``rows`` rows per chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc_nn, "INFER_CHUNK_WORDS", rows * sc_nn._row_work(net.layers, X))
        yield


def _random_net(shape, seed, calib_rng):
    mlp = ref_nn.init_mlp(shape, "relu", seed=seed)
    return mlp, quantize_weights(mlp, calib=calib_rng.uniform(-1, 1, (64, 24)))


def _layer0_words(net, X):
    """Layer 0's saturated words (rows, fan_out): each neuron scored alone, as
    a one-neuron network on the same generators."""
    layer = net.layers[0]
    cols = []
    for i in range(layer.fan_out):
        bias = None if layer.bias_q is None else layer.bias_q[i:i + 1]
        neuron = ScLayer(layer.fan_in, 1, layer.norm_shift, layer.scale, layer.weights_q[i], bias)
        one = ScNetwork([neuron], net.lfsr1, net.lfsr2, net.stream_len, net.width)
        cols.append(one.simulator().infer_many(X) * (1 << (net.width - 1)))
    return np.stack(cols, axis=1).astype(np.int64)


class TestScNetwork:
    def test_single_layer_output_is_raw_score(self, r1, r2):
        # The final neuron carries no ReLU: negative scores must survive.
        layer = ScLayer(1, 1, 1, 1.0, np.array([[2047]]), None)
        net = ScNetwork([layer], default_lfsr1(), default_lfsr2())
        for v in (-0.75, -0.25, 0.25, 0.75):
            assert net.simulator().infer_many([v])[0] == pytest.approx(v, abs=0.05)

    def test_zero_input_matches_reference(self):
        rng = np.random.default_rng(3)
        _, net = _random_net([24, 12, 6, 1], 7, rng)
        x = np.zeros(24)
        assert net.simulator().infer_many(x)[0] == pytest.approx(
            fixed_point_reference(net, x), abs=0.05)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        _, net = _random_net([24, 12, 6, 1], 7, rng)
        for x in (np.zeros(10), np.empty((0, 10))):
            with pytest.raises(ValueError):
                net.simulator().infer_many(x)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(4)
        _, net = _random_net([24, 12, 6, 1], 11, rng)
        x = rng.uniform(-1, 1, 24)
        a = ScNetwork(net.layers, net.lfsr1, net.lfsr2).simulator().infer_many(x)[0]
        b = ScNetwork(net.layers, net.lfsr1, net.lfsr2).simulator().infer_many(x)[0]
        assert a == b

    def test_two_rng_economy(self):
        rng = np.random.default_rng(5)
        _, net = _random_net([24, 48, 24, 1], 13, rng)
        sim = net.simulator()
        assert sim.rng_instantiations == 2

    def test_batch_equals_single(self):
        rng = np.random.default_rng(6)
        _, net = _random_net([24, 12, 6, 1], 17, rng)
        X = rng.uniform(-1, 1, (7, 24))
        sim = net.simulator()
        with _rows_per_chunk(net, X, 3):
            batch = sim.infer_many(X)
        singles = np.array([sim.infer_many(x)[0] for x in X])
        np.testing.assert_array_equal(batch, singles)

    def test_inference_memory_is_bounded_by_work(self):
        # Chunks hold a fixed number of gathered counts of the widest layer,
        # on a batch whose 24 inputs all vary and on a screening batch, whose
        # first 12 (the crystal ligand's) are the same in every row.
        rng = np.random.default_rng(8)
        _, net = _random_net(ref_nn.ARCH_SHAPES["256"], 23, rng)
        X = rng.uniform(-1, 1, (3600, 24))
        screening = X.copy()
        screening[:, :12] = X[0, :12]
        sim = net.simulator()
        for batch in (X, screening):
            tracemalloc.start()
            try:
                sim.infer_many(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3e6

    def test_rows_per_chunk_follow_the_gathered_lines(self):
        # With all 24 inputs varying the 24-256-1 net takes 25 rows at a time
        # (24 lines into 256 neurons) and a 24-48-24-1 net 133 (48 into 24 in
        # layer 1).  On a screening batch layer 0 gathers 12 lines, so the
        # 24-256-1 net takes 50 rows and the 24-48-24-1 net still 133.
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (360, 24))
        screening = X.copy()
        screening[:, :12] = X[0, :12]
        for arch, want in (("256", [25, 50]), ("48", [133, 133])):
            _, net = _random_net(ref_nn.ARCH_SHAPES[arch], 23, rng)
            assert [sc_nn.INFER_CHUNK_WORDS // sc_nn._row_work(net.layers, batch)
                    for batch in (X, screening)] == want, arch

    def test_simulator_cached_across_equivalent_phases(self):
        rng = np.random.default_rng(9)
        _, net = _random_net([24, 12, 6, 1], 21, rng)
        a, b = net.simulator(), net.simulator()
        assert a._rank is b._rank
        assert all(ta is tb for ta, tb in zip(a._tables, b._tables))

    def test_dropped_network_frees_its_tables(self):
        # No reference cycle holds the tables: reference counting alone
        # frees them once the network and its simulators are gone.
        rng = np.random.default_rng(9)
        _, net = _random_net([24, 12, 6, 1], 21, rng)
        gc.disable()
        try:
            sim = net.simulator()
            sim.infer_many(rng.uniform(-1, 1, (3, 24)))
            packs, rank = weakref.ref(sim._tables[0].packs), weakref.ref(sim._rank)
            del net, sim
            assert packs() is None and rank() is None
        finally:
            gc.enable()

    def test_mismatched_generators_rejected(self):
        layer = ScLayer(1, 1, 1, 1.0, np.array([[100]]), None)
        with pytest.raises(ValueError, match="differ"):
            ScNetwork([layer], default_lfsr1(), default_lfsr1())


class TestCorrelationDiscipline:
    def test_input_vs_weight_streams_decorrelated(self, r1, r2):
        rng = np.random.default_rng(2)
        cs = []
        for _ in range(60):
            a = sc.to_stochastic(sc.encode(rng.uniform(-0.75, 0.75)), r1)
            b = sc.to_stochastic(sc.encode(rng.uniform(-0.75, 0.75)), r2)
            cs.append(abs(sc.sc_correlation(a, b)))
        assert np.mean(cs) < 0.05
        assert np.quantile(cs, 0.95) < 0.1

    def test_reconverted_stream_fully_correlated_with_zero(self, r1):
        zero = sc.to_stochastic(sc.encode(0.0), r1)
        for word in (-900, -1, 37, 1200):
            s = sc.to_stochastic(sc.FixedWord(word), r1)
            assert sc.sc_correlation(s, zero) == pytest.approx(1.0, abs=2 / N)


class TestReferenceFidelity:
    def test_end_to_end_parity_sample(self):
        rng = np.random.default_rng(14)
        errs = []
        for seed in (2, 3):
            _, net = _random_net([24, 24, 12, 1], seed, rng)
            X = rng.uniform(-1, 1, (40, 24))
            errs.append(np.abs(net.simulator().infer_many(X) -
                               fixed_point_reference(net, X)))
        e = np.concatenate(errs)
        assert e.mean() <= 0.05
        assert e.max() <= 0.15

    def test_reference_returns_scalar_only_for_1d_input(self):
        rng = np.random.default_rng(16)
        _, net = _random_net([24, 12, 6, 1], 5, rng)
        X = rng.uniform(-1, 1, (3, 24))
        batch = fixed_point_reference(net, X)
        assert batch.shape == (3,)
        one = fixed_point_reference(net, X[:1])
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        single = fixed_point_reference(net, X[0])
        assert isinstance(single, float)
        assert one[0] == single == batch[0]

    def test_trained_hw48_tracks_reference_on_1000_pairs(self):
        # A 48-24-1 hardware model built from an actually trained ReLU net.
        from scvs import screening, synth
        from scvs.ref_nn import TrainConfig, train_adam

        targets = synth.make_benchmark(seed=31, n_targets=4, n_actives=30, n_decoys=90)
        train, _, scaler = screening.build_split(targets, screening.SplitSpec(seed=1))
        x, y = screening.pair_arrays(train, scaler)
        mlp, _ = train_adam(ref_nn.init_mlp([24, 48, 24, 1], "relu", seed=4),
                            x, y, TrainConfig(epochs=30, batch_size=64, rng_seed=5))
        net = quantize_weights(mlp, calib=x)
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (1000, 24))
        with _rows_per_chunk(net, X, 32):
            err = np.abs(net.simulator().infer_many(X) - fixed_point_reference(net, X))
        assert err.mean() <= 0.1


class TestSimulatorAgainstNeuronOp:
    def test_layer_math_matches_per_neuron_composition(self):
        # The packed batched datapath must agree bit for bit with the
        # network composed neuron by neuron from the spec ops.
        rng = np.random.default_rng(41)
        _, net = _random_net([24, 12, 6, 1], 37, rng)
        x = rng.uniform(-1, 1, (1, 24))
        sim = net.simulator()
        want, saturations = sc_nn.gate_level_scores(net, x)
        np.testing.assert_array_equal(sim.infer_many(x), want)
        assert sim.saturation_count == saturations

    def test_hidden_streams_identical_to_neuron_op(self, r1, r2):
        rng = np.random.default_rng(43)
        _, net = _random_net([24, 12, 6, 1], 39, rng)
        x = rng.uniform(-1, 1, 24)
        words = _layer0_words(net, x)[0]
        layer = net.layers[0]
        w_seq = net.lfsr2.word_sequence(N)
        for i in range(layer.fan_out):
            xs = [sc.to_stochastic(sc.FixedWord(int(w)), r1) for w in sc.encode_array(x)]
            xs.append(sc.constant_stream(True, N))
            ws = [int(v) for v in layer.weights_q[i]] + [int(layer.bias_q[i])]
            out = sc_neuron_forward(xs, ws, r1, w_seq, layer.norm_shift)
            assert out.value == sc.to_stochastic(sc.FixedWord(max(int(words[i]), 0)), r1).value


@st.composite
def _small_nets(draw):
    """Tiny random hardware nets over every supported width, with stream
    lengths on both sides of the generator period, optional bias lines,
    shifts small enough to saturate and, in some, a hidden neuron whose
    weight streams are all zeros (dead in most batches); and a batch of one
    to four rows in which any subset of the columns (none, some or all)
    holds one value in every row."""
    width = draw(st.integers(4, 16))
    half = 1 << (width - 1)
    period = (1 << width) - 1
    n = draw(st.one_of(st.integers(1, period), st.integers(period + 1, 3 * period)))
    shape = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(1, 3), max_size=2)) + [1]
    dead = draw(st.integers(-1, len(shape) - 3))  # the hidden layer of the dead neuron
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(shape[:-1], shape[1:])):
        weights = rng.integers(-half, half, (fan_out, fan_in))
        bias = rng.integers(-half, half, fan_out) if draw(st.booleans()) else None
        if li == dead:
            # All-zero weight streams: the bias product is -n and every other
            # product the complement of its input, so the APC sits below 0
            # unless the inputs lie mostly below zero(t).
            weights[0] = -half
            if bias is not None:
                bias[0] = -half
        n_inputs = fan_in + (bias is not None)
        shift = draw(st.integers(0, min_norm_shift(n_inputs, n, width)))
        layers.append(ScLayer(fan_in, fan_out, shift, 1.0, weights, bias))
    net = ScNetwork(layers, default_lfsr1(width), default_lfsr2(width), stream_len=n, width=width)
    X = rng.uniform(-1, 1, (draw(st.integers(1, 4)), shape[0]))
    held = draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0]))
    X[:, held] = X[0, held]
    return net, X


class TestGateLevelEquality:
    @given(_small_nets())
    @settings(max_examples=40, deadline=None)
    def test_infer_many_equals_neuron_composition(self, case):
        net, X = case
        sim = sc_nn.ScSimulator(net)
        want, saturations = sc_nn.gate_level_scores(net, X)
        with _rows_per_chunk(net, X, 2):
            np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations


def _fixed_net(width, n, seed, shape=(3, 3, 1)):
    """Small deterministic net with bias lines; shift 0 in the first layer
    saturates it, so the next layer sees words 0 and 2^(b-1)-1."""
    half = 1 << (width - 1)
    rng = np.random.default_rng(seed)
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(shape[:-1], shape[1:])):
        shift = 0 if li == 0 else min_norm_shift(fan_in + 1, n, width)
        layers.append(ScLayer(fan_in, fan_out, shift, 1.0,
                              rng.integers(-half, half, (fan_out, fan_in)),
                              rng.integers(-half, half, fan_out)))
    return ScNetwork(layers, default_lfsr1(width), default_lfsr2(width), stream_len=n, width=width)


class TestPrefixEngineEdges:
    """Deterministic corners of the prefix-popcount engine, each checked for
    exact equality with the gate-level composition."""

    def test_extreme_input_words(self):
        net = _fixed_net(12, N, seed=1)
        X = np.array([[-1.0] * 3, [0.0] * 3, [1.0] * 3, [-1.0, 0.0, 1.0]])
        assert set(sc.encode_array(X).reshape(-1)) == {-HALF, 0, HALF - 1}
        sim = sc_nn.ScSimulator(net)
        want, saturations = sc_nn.gate_level_scores(net, X)
        np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations
        assert {0, HALF - 1} <= set(np.maximum(_layer0_words(net, X), 0).reshape(-1))

    @pytest.mark.parametrize("n", [64, 65, 128, 129, 255, 256, 3 * 255 + 7])
    def test_stream_lengths_at_width_8(self, n):
        # 64*m and 64*m+1 bits, the period, period+1 and beyond two periods
        net = _fixed_net(8, n, seed=n)
        X = np.random.default_rng(n).uniform(-1, 1, (4, 3))
        sim = sc_nn.ScSimulator(net)
        want, saturations = sc_nn.gate_level_scores(net, X)
        np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations

    def test_chunking_and_empty_batch(self):
        net = _fixed_net(8, 255, seed=3)
        X = np.random.default_rng(3).uniform(-1, 1, (7, 3))
        crystal = X.copy()
        crystal[:, :2] = X[0, :2]  # two of the three columns hold one value
        for batch in (X, crystal):
            want, saturations = sc_nn.gate_level_scores(net, batch)
            for chunk in (1, 3, len(batch) + 5):
                sim = net.simulator()
                with _rows_per_chunk(net, batch, chunk):
                    np.testing.assert_array_equal(sim.infer_many(batch), want)
                assert sim.saturation_count == saturations
        empty = net.simulator().infer_many(np.empty((0, 3)))
        assert empty.shape == (0,)

    @pytest.mark.parametrize("n", [1, 14, 15, 16, 33, 64])
    def test_constant_line_fold_over_every_input_pair(self, n):
        # Every pair of 4-bit input words, sorted by the first, through a
        # 2-3-1 net with bias lines, at stream lengths 1, P - 1, P, P + 1
        # and 2P + 3 of the period P = 15, and at 64, where the bias line's
        # prefix r = n ends on a 64-bit block boundary.  The bias line is
        # folded when the tables are built.  One-row chunks fold every line,
        # 16-row chunks hold the first column constant and one 256-row chunk
        # folds only lines that ReLU holds at zero.
        net = _fixed_net(4, n, seed=n, shape=(2, 3, 1))
        words = np.arange(-8, 8)
        X = np.array([[a, b] for a in words for b in words]) / 8
        want, saturations = sc_nn.gate_level_scores(net, X)
        for chunk in (1, 16, 256):
            sim = net.simulator()
            with _rows_per_chunk(net, X, chunk):
                np.testing.assert_array_equal(sim.infer_many(X), want, err_msg=f"chunk {chunk}")
            assert sim.saturation_count == saturations

    @pytest.mark.parametrize("use_bias", [False, True])
    def test_screening_layout(self, use_bias):
        # A 24-256-1 net at width 8 with a short stream, over a batch whose
        # first 12 inputs (the crystal ligand's half) are equal in every row:
        # layer 0 is the widest and gathers 12 lines into 256 neurons per
        # row.  Budgets of 5, 3, 2 and 1 such rows give 1, 2, 3 and 5 chunks.
        rng = np.random.default_rng(24)
        mlp = ref_nn.init_mlp(ref_nn.ARCH_SHAPES["256"], "relu", seed=256)
        mlp.biases = [rng.uniform(-0.5, 0.5, b.shape) for b in mlp.biases]
        net = quantize_weights(mlp, width=8, stream_len=100, use_bias=use_bias,
                               calib=rng.uniform(-0.5, 0.5, (16, 24)))
        X = rng.uniform(-1, 1, (5, 24))
        X[:, :12] = X[0, :12]
        assert sc_nn._row_work(net.layers, X) == 12 * 256
        want, saturations = sc_nn.gate_level_scores(net, X)
        assert saturations > 0
        forward = sc_nn._forward
        for rows, chunks in ((5, [5]), (3, [3, 2]), (2, [2, 2, 1]), (1, [1] * 5)):
            sim, seen = net.simulator(), []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sc_nn, "INFER_CHUNK_WORDS", rows * 12 * 256)
                mp.setattr(sc_nn, "_forward",
                           lambda x, *rest: seen.append(len(x)) or forward(x, *rest))
                np.testing.assert_array_equal(sim.infer_many(X), want, err_msg=f"{rows} rows")
            assert seen == chunks
            assert sim.saturation_count == saturations

    def test_sum_dtype_rule(self):
        # |4 * sum(d)| <= 4 * n_inputs * n, a multiple of 4: int32 holds every
        # such bound up to 2^31 - 4, the last below 2^31, and int64 takes
        # over at 2^31.  Pinned on the rule, without a stream that long.
        assert np.iinfo(np.int32).max >= (1 << 31) - 4
        for n_inputs, n, want in ((1, (1 << 29) - 1, np.int32), (1, 1 << 29, np.int64),
                                  (2, (1 << 28) - 1, np.int32), (2, 1 << 28, np.int64),
                                  (257, 4095, np.int32), (1 << 29, 1, np.int64)):
            assert sc_nn._sum_dtype(n_inputs, n) is want, (n_inputs, n)

    def test_count_dtype_rule(self):
        # A count of ones lies in 0..n: int16 holds it up to n = 2^15 - 1,
        # int32 from 2^15 and int64 from 2^31, without a stream that long.
        for n, want in ((1, np.int16), ((1 << 15) - 1, np.int16), (1 << 15, np.int32),
                        ((1 << 31) - 1, np.int32), (1 << 31, np.int64)):
            assert sc_nn._count_dtype(n) is want, n
            assert np.iinfo(want).max >= n

    @pytest.mark.parametrize("n, counts", [((1 << 15) - 1, np.int16), (1 << 15, np.int32)])
    def test_both_count_types_at_width_16(self, n, counts):
        # Either side of the 2-byte count limit.  Layer 1's first weight is
        # the largest word, 2^15 - 1, above every word of the layer's window
        # at n = 2^15, so its stream is all ones and its counts reach n.
        base = _fixed_net(16, n, seed=16)
        top = base.layers[1]
        weights = top.weights_q.copy()
        weights[0, 0] = (1 << 15) - 1
        net = ScNetwork([base.layers[0], ScLayer(top.fan_in, 1, top.norm_shift, 1.0, weights,
                                                 top.bias_q)],
                        base.lfsr1, base.lfsr2, stream_len=n, width=16)
        X = np.random.default_rng(16).uniform(-1, 1, (4, 3))
        X[0], X[1] = -1.0, 1.0
        sim = net.simulator()
        assert [t.prefix.dtype for t in sim._tables] == [counts, counts]
        want, saturations = sc_nn.gate_level_scores(net, X)
        np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations > 0

    def test_table_bytes_of_the_widest_paper_net(self):
        # 24-256-1 at width 12 and n = 4095: every (block, line, neuron)
        # holds 8 bytes of stream bits and a 2-byte count of the ones before
        # the block, over n // 64 + 1 blocks; the bias lines have no rows.
        _, net = _random_net(ref_nn.ARCH_SHAPES["256"], 23, np.random.default_rng(8))
        assert (net.width, net.stream_len) == (12, N)
        tables = net.simulator()._tables
        for layer, t in zip(net.layers, tables):
            assert t.packs.nbytes + t.prefix.nbytes == \
                (N // 64 + 1) * layer.fan_in * layer.fan_out * (8 + 2)
        assert sum(t.packs.nbytes + t.prefix.nbytes for t in tables) <= 4.1e6

    def test_table_build_holds_one_working_array(self):
        # Besides the tables it returns, building a layer holds one uint64
        # (blocks, distinct words) array and its 2-byte counts, little else.
        _, net = _random_net(ref_nn.ARCH_SHAPES["256"], 23, np.random.default_rng(8))
        cells = max((N // 64 + 1) * (len(np.unique(l.weights_q)) + 1) for l in net.layers)
        tracemalloc.start()
        try:
            tables = net.simulator()._tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for t in tables for a in (t.packs, t.prefix, t.ones, t.offset))
        assert peak - kept < 12 * cells

    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_every_product_count_is_the_xnor_popcount(self, width):
        # Every input word and the bias word against every weight word, at
        # every phase of the weight window, over stream lengths 1, P - 1, P,
        # P + 1 and 2P + 3 of the generator period P: the engine's count
        # 4d - 2r - 2c + n is the XNOR popcount of the comparator streams,
        # as agreements minus disagreements, and so is the bias line's
        # product that the tables fold into their offset.  Width 6 is the
        # smallest at which a prefix length r reaches a 64-bit block
        # boundary.
        half = 1 << (width - 1)
        lfsr1, lfsr2 = sc_nn.generator(width, 0, 41), sc_nn.generator(width, 1, 1987)
        period = lfsr2.period
        lengths = (1, period - 1, period, period + 1, 2 * period + 3)
        words = np.arange(-half, half)

        def stream_rows(window):
            # each word's stream built once, over the longest length
            return np.array([sc.to_stochastic(sc.FixedWord(int(w), width), window).to_bools()
                             for w in words], dtype=np.int64)

        x_rows = np.vstack([stream_rows(lfsr1.word_sequence(lengths[-1])),
                            sc.constant_stream(True, lengths[-1]).to_bools()])
        ranks = {n: sc_nn._rank(lfsr1.word_sequence(n))[np.append(words, half) + half]
                 for n in lengths}
        orders = {n: np.argsort(lfsr1.word_sequence(n).words, kind="stable") for n in lengths}
        checked = 0
        for phase in range(period):
            w_rows = stream_rows(lfsr2.word_sequence(lengths[-1], phase))
            for n in lengths:
                x, w = x_rows[:, :n], w_rows[:, :n]
                want = 2 * (x @ w.T + (1 - x) @ (1 - w).T) - n
                window = lfsr2.word_sequence(n, phase)
                tables = sc_nn._prefix_tables(orders[n], window, words[:, None], None)
                r = ranks[n]
                d = sc_nn._ones_inside(tables, r, np.zeros(len(r), dtype=np.intp))
                got = 4 * d - 2 * r[:, None] - 2 * tables.ones + n
                np.testing.assert_array_equal(got, want, err_msg=f"phase {phase}, n {n}")
                # each weight word as a one-input neuron's bias word, against
                # the all-ones stream (the last row of ``want``)
                biased = sc_nn._prefix_tables(orders[n], window, words[:, None], words)
                np.testing.assert_array_equal(biased.offset - tables.offset, want[-1],
                                              err_msg=f"bias, phase {phase}, n {n}")
                checked += want.size
        assert checked == period * len(lengths) * (2 * half + 1) * 2 * half


def _sc_digest(arch, width):
    """sha256 over every output of both product models, for the ``arch`` net
    quantized at ``width`` with the stream length at the generator period
    and at a third of it, calibrated or not, with bias lines or without."""
    h = hashlib.sha256()

    def put(*values):
        for v in values:
            a = np.asarray(v)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())

    period = (1 << width) - 1
    rng = np.random.default_rng(width * 1000 + int(arch))
    mlp = ref_nn.init_mlp(ref_nn.ARCH_SHAPES[arch], "relu", seed=int(arch))
    mlp.biases = [rng.uniform(-0.5, 0.5, b.shape) for b in mlp.biases]
    calib, X = rng.uniform(-1, 1, (32, 24)), rng.uniform(-1, 1, (24, 24))
    X[0], X[1] = -1.0, 1.0
    for n in (period, period // 3):
        for rows in (None, calib):
            for use_bias in (False, True):
                net = quantize_weights(mlp, width=width, stream_len=n, calib=rows,
                                       use_bias=use_bias)
                for layer in net.layers:
                    put(layer.weights_q, -1 if layer.bias_q is None else layer.bias_q,
                        layer.norm_shift, layer.scale)
                sim = net.simulator()
                with _rows_per_chunk(net, X, 10):
                    scores = sim.infer_many(X)
                put(scores, sim.saturation_count,
                    fixed_point_reference(net, X), fixed_point_reference(net, X[2]))
    return h.hexdigest()


class TestBitIdentityGuard:
    """Pinned sha256 of quantized words, shifts and scales, bit-true scores and
    saturations, and fixed-point scores: a refactor of either product model
    that moves a single bit fails here."""

    DIGESTS = {
        ("12", 8): "5d2b294b644f6ec9f2276de5142188bab1dc35bbc570e9423395e20ad316284b",
        ("12", 12): "748019a9722311f3e7f08da9e5b3d92d804b6093b5f5dd3138393c53c9043cec",
        ("48", 8): "1798f7a8f556faa4b491c3989c0aad4ea40d2bffab036668ea911b5582902762",
        ("48", 12): "7cbeb6b1d5b08f3f8994683c2d2fa0871c1a4b3d920fdff85e8a8f88af480828",
        ("256", 8): "f615dc3bb816e3f6a7e07d7702b1709721f35f8f213ad8950ebac2bd48a4e1cb",
        ("256", 12): "436498500dbe15f2980a39f890457cc5c6b82b19859d1ee275016989b26055ec",
    }

    @pytest.mark.parametrize("arch,width", list(DIGESTS))
    def test_outputs_unchanged(self, arch, width):
        assert _sc_digest(arch, width) == self.DIGESTS[arch, width]


class TestSaturation:
    def test_counter_records_clamped_words(self):
        # shift 0 with strong weights drives the APC word far past 12 bits
        layer = ScLayer(4, 1, 0, 1.0, np.full((1, 4), 2047, dtype=np.int32), None)
        net = ScNetwork([layer], default_lfsr1(), default_lfsr2())
        sim = net.simulator()
        out = sim.infer_many([0.9, 0.9, 0.9, 0.9])[0]
        assert sim.saturation_count == 1
        assert out == (2048 - 1) / 2048  # clamped to the top word


class TestOtherWidths:
    def test_full_stack_at_width_8(self):
        rng = np.random.default_rng(59)
        mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=61)
        net = quantize_weights(mlp, width=8, stream_len=255,
                               calib=rng.uniform(-1, 1, (64, 24)))
        assert net.lfsr1.period == 255 and net.lfsr2.period == 255
        X = rng.uniform(-1, 1, (30, 24))
        err = np.abs(net.simulator().infer_many(X) - fixed_point_reference(net, X))
        assert err.mean() <= 0.15  # noise scales with sqrt(4095/255)


class TestPartialWindow:
    def test_short_stream_network_still_tracks_reference(self):
        rng = np.random.default_rng(47)
        mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=51)
        net = quantize_weights(mlp, stream_len=1023,
                               calib=rng.uniform(-1, 1, (64, 24)))
        X = rng.uniform(-1, 1, (30, 24))
        err = np.abs(net.simulator().infer_many(X) - fixed_point_reference(net, X))
        assert err.mean() <= 0.1  # 4x shorter window, ~2x the noise

    def test_window_decode_is_exact_for_any_length(self, r1):
        # the count table's decode must equal the actual stream value
        for n in (7, 100, 512, 4095):
            rank = sc_nn._rank(default_lfsr1().word_sequence(n))
            assert rank[-1] == n  # the bias word's all-ones stream
            for v in (-0.9, -0.1, 0.0, 0.4, 0.99):
                w = sc.encode(v)
                s = sc.to_stochastic(w, r1, n)
                assert s.ones() == rank[w.value + HALF]
                assert s.value == sc_nn._values(rank, w.value)


def _relu_net_with_biases(seed=3):
    """A seeded [24, 12, 6, 1] ReLU net with nonzero biases, and 40
    calibration rows in [-1, 1]."""
    rng = np.random.default_rng(seed)
    mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=seed)
    mlp.biases = [rng.normal(0, 0.2, b.shape) for b in mlp.biases]
    return mlp, rng.uniform(-1, 1, (40, 24))


def _advanced(g, k):
    """Generator g started k steps later: its stream rotated by k."""
    return Lfsr(g.width, g.taps, int(g.states(k + 1)[-1]))


class TestGeneratorPhase:
    """At n = period every window holds each nonzero word once, and every
    layer's weights ride R2 from phase 0.  Each XNOR count is then a sum over
    one whole cycle of both generators, so the pair acts only through its
    relative phase, and the ideal model does not see the seeds at all."""

    WIDTHS = (4, 5, 6, 8, 12)

    @staticmethod
    def _calibrated(lfsr1, lfsr2, n):
        """(net, bit-true scores, shifts) of the calibrated net."""
        mlp, rows = _relu_net_with_biases()
        net = quantize_weights(mlp, width=lfsr1.width, stream_len=n, lfsr1=lfsr1,
                               lfsr2=lfsr2, calib=rows)
        return net, net.simulator().infer_many(rows), [l.norm_shift for l in net.layers]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_same_phase_gives_identical_scores_and_shifts(self, width):
        g1, g2 = default_lfsr1(width), default_lfsr2(width)
        _, scores, shifts = self._calibrated(g1, g2, g1.period)
        for k in (1, 5):
            _, moved, moved_shifts = self._calibrated(_advanced(g1, k), _advanced(g2, k),
                                                      g1.period)
            assert moved.tobytes() == scores.tobytes() and moved_shifts == shifts

    @pytest.mark.parametrize("width", WIDTHS)
    def test_other_phase_gives_other_scores(self, width):
        g1, g2 = default_lfsr1(width), default_lfsr2(width)
        _, scores, _ = self._calibrated(g1, g2, g1.period)
        _, other, _ = self._calibrated(g1, _advanced(g2, 5), g1.period)
        assert other.tobytes() != scores.tobytes()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_two_periods_double_every_count(self, width):
        # The streams repeat exactly, so every APC doubles and calibration
        # raises every shift by one: the floored words are the same.
        g1, g2 = default_lfsr1(width), default_lfsr2(width)
        _, scores, shifts = self._calibrated(g1, g2, g1.period)
        _, doubled, doubled_shifts = self._calibrated(g1, g2, 2 * g1.period)
        assert doubled.tobytes() == scores.tobytes()
        assert doubled_shifts == [s + 1 for s in shifts]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_ideal_model_ignores_the_seeds(self, width):
        g1, g2 = default_lfsr1(width), default_lfsr2(width)
        net, _, shifts = self._calibrated(g1, g2, g1.period)
        other, _, other_shifts = self._calibrated(_advanced(g1, 3), _advanced(g2, 11), g1.period)
        _, rows = _relu_net_with_biases()
        assert other_shifts == shifts
        assert fixed_point_reference(other, rows).tobytes() == \
            fixed_point_reference(net, rows).tobytes()


    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_engine_equals_gate_level_at_every_phase(self, width):
        # R1 keeps seed 41 and R2 takes every nonzero state, so the sweep
        # meets each relative phase of the pair once, at n = period.
        rng = np.random.default_rng(width)
        mlp = ref_nn.init_mlp([3, 2, 1], "relu", seed=width)
        mlp.biases = [rng.normal(0, 0.2, b.shape) for b in mlp.biases]
        rows = rng.uniform(-1, 1, (4, 3))
        period = (1 << width) - 1
        g1 = sc_nn.generator(width, 0, 41)
        net = quantize_weights(mlp, width=width, stream_len=period, lfsr1=g1,
                               lfsr2=sc_nn.generator(width, 1, 1), calib=rows)
        assert all(l.bias_q is not None for l in net.layers)
        distinct = set()
        for seed in range(1, period + 1):
            phased = ScNetwork(net.layers, g1, sc_nn.generator(width, 1, seed),
                               stream_len=period, width=width)
            sim = phased.simulator()
            got = sim.infer_many(rows)
            want, saturations = sc_nn.gate_level_scores(phased, rows)
            assert got.tobytes() == want.tobytes(), seed
            assert sim.saturation_count == saturations, seed
            distinct.add(got.tobytes())
        assert len(distinct) > 1  # the phase does move the scores


class TestOutputScale:
    # The fixed-point reference differs from the float score times
    # ``output_scale`` only by rounding weights and inputs to words and by
    # each layer's floor shift; seeds 0-5 of this net read at most 4.4 LSB.
    # The bit-true score adds the stochastic multiplication noise on top.
    TOLERANCE_LSB = 8

    @pytest.mark.parametrize("width", [8, 12])
    def test_fixed_point_score_is_float_score_times_output_scale(self, width):
        mlp, rows = _relu_net_with_biases()
        net = quantize_weights(mlp, width=width, stream_len=(1 << width) - 1, calib=rows)
        sim = net.simulator()
        sim.infer_many(rows)
        assert sim.saturation_count == 0
        half = 1 << (width - 1)
        want = ref_nn.forward_batch(mlp, rows) * net.output_scale
        assert np.ptp(want) * half > 4 * self.TOLERANCE_LSB  # scores spread over many LSB
        err = np.abs(fixed_point_reference(net, rows) - want) * half
        assert err.max() <= self.TOLERANCE_LSB


class TestNetworkFile:
    def test_round_trip_preserves_inference(self, tmp_path):
        rng = np.random.default_rng(21)
        _, net = _random_net([24, 12, 6, 1], 23, rng)
        path = tmp_path / "hw.json"
        sc_nn.save_sc_network(net, path)
        loaded = cli.load_model(path)
        x = rng.uniform(-1, 1, 24)
        assert loaded.simulator().infer_many(x)[0] == net.simulator().infer_many(x)[0]

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(22)
        _, net = _random_net([24, 12, 6, 1], 29, rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        sc_nn.save_sc_network(net, a)
        sc_nn.save_sc_network(net, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=1)
        path = tmp_path / "m.json"
        ref_nn.save_mlp(mlp, path)
        with pytest.raises(ValueError, match="kind"):
            sc_nn.build_sc_network(ref_nn.read_json(path), path)
