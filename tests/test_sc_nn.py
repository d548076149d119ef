"""Hardware network tests: quantization, the OR-gate ReLU, single neurons,
whole-network inference and the fixed-point reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvs import ref_nn, sc_core as sc, sc_nn
from scvs.sc_core import GateKind, Lfsr
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
    sc_network_infer,
    sc_neuron_forward,
)

N = 4095
HALF = 2048


def _mlp_from(weights, biases=None, activation="relu", trained=True):
    shape = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    if biases is None:
        biases = [np.zeros(w.shape[0]) for w in weights]
    m = ref_nn.Mlp(shape, activation, weights, biases, trained=trained)
    return m


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

    def test_untrained_rejected(self):
        mlp = _mlp_from([np.ones((1, 2))], trained=False)
        with pytest.raises(ValueError, match="untrained"):
            quantize_weights(mlp)

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
        mlp.trained = True
        net = quantize_weights(mlp, calib=rng.uniform(-1, 1, (64, 24)), gain_cap=0.5)
        for layer in net.layers:
            gain = N / ((1 << layer.norm_shift) * HALF)
            assert gain <= 0.5 + 1e-12
            assert layer.norm_shift <= min_norm_shift(layer.n_inputs, N, 12)

    def test_clip_quantile_validated(self):
        mlp = _mlp_from([np.ones((1, 2))])
        with pytest.raises(ValueError):
            quantize_weights(mlp, clip_quantile=0.0)


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
        diag = {}
        out = sc_neuron_forward(x, [2047, 2047], r1, r2, norm_shift=1, diagnostics=diag)
        assert out.value == pytest.approx(1.0, abs=0.01)
        assert diag["saturations"] == 1

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


def _random_net(shape, seed, calib_rng):
    mlp = ref_nn.init_mlp(shape, "relu", seed=seed)
    mlp.trained = True
    return mlp, quantize_weights(mlp, calib=calib_rng.uniform(-1, 1, (64, 24)))


class TestScNetwork:
    def test_single_layer_output_is_raw_score(self, r1, r2):
        # The final neuron carries no ReLU: negative scores must survive.
        layer = ScLayer(1, 1, 1, 1.0, np.array([[2047]]), None)
        net = ScNetwork([layer], default_lfsr1(), default_lfsr2())
        for v in (-0.75, -0.25, 0.25, 0.75):
            assert sc_network_infer(net, [v]) == pytest.approx(v, abs=0.05)

    def test_zero_input_matches_reference(self):
        rng = np.random.default_rng(3)
        _, net = _random_net([24, 12, 6, 1], 7, rng)
        x = np.zeros(24)
        assert sc_network_infer(net, x) == pytest.approx(
            fixed_point_reference(net, x), abs=0.05)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        _, net = _random_net([24, 12, 6, 1], 7, rng)
        with pytest.raises(ValueError):
            sc_network_infer(net, np.zeros(10))

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(4)
        _, net = _random_net([24, 12, 6, 1], 11, rng)
        x = rng.uniform(-1, 1, 24)
        a = ScNetwork(net.layers, net.lfsr1, net.lfsr2).simulator().infer(x)
        b = ScNetwork(net.layers, net.lfsr1, net.lfsr2).simulator().infer(x)
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
        batch = sim.infer_many(X, chunk=3)
        singles = np.array([sim.infer(x) for x in X])
        np.testing.assert_array_equal(batch, singles)

    def test_recon_phase_parameter(self):
        rng = np.random.default_rng(8)
        _, net = _random_net([24, 12, 6, 1], 19, rng)
        x = rng.uniform(-1, 1, 24)
        lockstep = sc_network_infer(net, x)
        offset = sc_network_infer(net, x, recon_phase=137)
        assert lockstep == pytest.approx(offset, abs=0.1)

    def test_simulator_cached_across_equivalent_phases(self):
        rng = np.random.default_rng(9)
        _, net = _random_net([24, 12, 6, 1], 21, rng)
        period = net.lfsr1.period
        sim = net.simulator(5)
        assert net.simulator(5 + period) is sim
        last = net.simulator(-1)
        assert last.recon_phase == period - 1
        assert net.simulator(period - 1) is last
        assert net.simulator(-1) is last

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
    def test_per_neuron_quantization_path_within_4_over_n(self):
        # Rebuilding each neuron from its measured product-stream values with
        # real division and direct decode can differ from the bit-true path
        # only by the floor of the shift and the reconversion staircase.
        rng = np.random.default_rng(12)
        for seed in (0, 1):
            _, net = _random_net([24, 12, 6, 1], seed, rng)
            sim = net.simulator()
            for _ in range(5):
                x = rng.uniform(-1, 1, 24)
                _, layers = sim.trace(x)
                for li, (layer, tr) in enumerate(zip(net.layers, layers)):
                    dot = tr["products"].sum(axis=2)[0]
                    real = np.clip(dot * N / (1 << layer.norm_shift) / HALF,
                                   -1.0, (HALF - 1) / HALF)
                    if li < len(net.layers) - 1:
                        real = np.maximum(real, 0.0)
                    got = np.asarray(tr["out_values"]).reshape(-1)
                    assert np.max(np.abs(got - real)) <= 4 / N + 1e-12

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
        train_pairs, _, _ = screening.build_split(targets, screening.SplitSpec(seed=1))
        mlp, _ = train_adam(ref_nn.init_mlp([24, 48, 24, 1], "relu", seed=4),
                            train_pairs, TrainConfig(epochs=30, batch_size=64, rng_seed=5))
        net = quantize_weights(mlp, calib=np.stack([p.features for p in train_pairs]))
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, (1000, 24))
        err = np.abs(net.simulator().infer_many(X, chunk=32) -
                     fixed_point_reference(net, X))
        assert err.mean() <= 0.1


class TestSimulatorAgainstNeuronOp:
    def test_layer_math_matches_per_neuron_composition(self, r1, r2):
        # The packed batched datapath must agree bit for bit with composing
        # the readable single-neuron operation by hand.
        rng = np.random.default_rng(41)
        _, net = _random_net([24, 12, 6, 1], 37, rng)
        x = rng.uniform(-1, 1, 24)
        sim = net.simulator()
        got = sim.infer(x)

        words = sc.encode_array(x)
        streams = [sc.to_stochastic(sc.FixedWord(int(w)), r1) for w in words]
        for li, layer in enumerate(net.layers):
            w_seq = net.lfsr2.word_sequence(N, phase=(li * N) % net.lfsr2.period)
            outs = []
            for i in range(layer.fan_out):
                xs = list(streams)
                ws = [int(v) for v in layer.weights_q[i]]
                if layer.bias_q is not None:
                    xs = xs + [sc.constant_stream(True, N)]
                    ws = ws + [int(layer.bias_q[i])]
                outs.append(sc_neuron_forward(
                    xs, ws, r1, w_seq, layer.norm_shift,
                    apply_relu=li < len(net.layers) - 1))
            if li < len(net.layers) - 1:
                streams = outs
            else:
                by_hand = outs[0].value  # pre-reconversion word, stream domain
        # the final layer emits the binary word directly; compare the word
        # recovered from the per-neuron stream path against the simulator
        assert abs(by_hand - got) <= 2 / N

    def test_hidden_streams_identical_to_neuron_op(self, r1, r2):
        rng = np.random.default_rng(43)
        _, net = _random_net([24, 12, 6, 1], 39, rng)
        x = rng.uniform(-1, 1, 24)
        _, traces = net.simulator().trace(x)
        layer = net.layers[0]
        w_seq = net.lfsr2.word_sequence(N)
        for i in range(layer.fan_out):
            xs = [sc.to_stochastic(sc.FixedWord(int(w)), r1) for w in sc.encode_array(x)]
            xs.append(sc.constant_stream(True, N))
            ws = [int(v) for v in layer.weights_q[i]] + [int(layer.bias_q[i])]
            out = sc_neuron_forward(xs, ws, r1, w_seq, layer.norm_shift)
            assert out.value == pytest.approx(traces[0]["out_values"].reshape(-1)[i], abs=1e-12)


def _gate_level_scores(net, X, recon_phase):
    """Scores and saturation count composed neuron by neuron from the spec ops.

    Inputs ride LFSR1 from phase 0, reconversion and zero(t) ride it from
    ``recon_phase``, layer ``li``'s weights ride LFSR2 from phase li*N and
    the bias line is a constant all-ones stream.
    """
    n, width = net.stream_len, net.width
    half = 1 << (width - 1)
    r1 = net.lfsr1.word_sequence(n)
    recon = net.lfsr1.word_sequence(n, recon_phase)
    ones = sc.constant_stream(True, n)
    diag = {"saturations": 0}
    scores = []
    for x in X:
        streams = [sc.to_stochastic(sc.FixedWord(int(w), width), r1)
                   for w in sc.encode_array(x, width)]
        for li, layer in enumerate(net.layers):
            r2 = net.lfsr2.word_sequence(n, (li * n) % net.lfsr2.period)
            rows = [[int(w) for w in row] for row in layer.weights_q]
            inputs = list(streams)
            if layer.bias_q is not None:
                rows = [row + [int(b)] for row, b in zip(rows, layer.bias_q)]
                inputs.append(ones)
            if li < len(net.layers) - 1:
                streams = [sc_neuron_forward(inputs, row, recon, r2, layer.norm_shift,
                                             width, diagnostics=diag) for row in rows]
                continue
            products = [sc.gate_eval(GateKind.XNOR, s, sc.to_stochastic(sc.FixedWord(w, width), r2))
                        for s, w in zip(inputs, rows[0])]
            word = sc.apc_accumulate(products) >> layer.norm_shift
            if not -half <= word <= half - 1:
                diag["saturations"] += 1
            scores.append(max(-half, min(half - 1, word)) / half)
    return np.array(scores), diag["saturations"]


@st.composite
def _small_nets(draw):
    """Tiny random hardware nets over every supported width, with stream
    lengths on both sides of the generator period, optional bias lines and
    shifts small enough to saturate."""
    width = draw(st.integers(4, 16))
    half = 1 << (width - 1)
    period = (1 << width) - 1
    n = draw(st.one_of(st.integers(1, period), st.integers(period + 1, 3 * period)))
    shape = [draw(st.integers(1, 4))] + draw(st.lists(st.integers(1, 3), max_size=2)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    layers = []
    for fan_in, fan_out in zip(shape[:-1], shape[1:]):
        bias = rng.integers(-half, half, fan_out) if draw(st.booleans()) else None
        n_inputs = fan_in + (bias is not None)
        shift = draw(st.integers(0, min_norm_shift(n_inputs, n, width)))
        layers.append(ScLayer(fan_in, fan_out, shift, 1.0,
                              rng.integers(-half, half, (fan_out, fan_in)), bias))
    net = ScNetwork(layers, default_lfsr1(width), default_lfsr2(width), stream_len=n, width=width)
    recon_phase = draw(st.one_of(st.just(0), st.integers(1, 2 * period)))
    return net, rng.uniform(-1, 1, (3, shape[0])), recon_phase


class TestGateLevelEquality:
    @given(_small_nets())
    @settings(max_examples=40, deadline=None)
    def test_infer_many_equals_neuron_composition(self, case):
        net, X, recon_phase = case
        sim = sc_nn.ScSimulator(net, recon_phase=recon_phase)
        want, saturations = _gate_level_scores(net, X, recon_phase)
        np.testing.assert_array_equal(sim.infer_many(X, chunk=2), want)
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
        want, saturations = _gate_level_scores(net, X, 0)
        np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations
        hidden = np.concatenate([sim.trace(x)[1][0]["words"].reshape(-1) for x in X])
        assert {0, HALF - 1} <= set(np.maximum(hidden, 0))

    @pytest.mark.parametrize("n", [64, 65, 128, 129, 255, 256, 3 * 255 + 7])
    def test_stream_lengths_at_width_8(self, n):
        # 64*m and 64*m+1 bits, the period, period+1 and beyond two periods
        net = _fixed_net(8, n, seed=n)
        X = np.random.default_rng(n).uniform(-1, 1, (4, 3))
        sim = sc_nn.ScSimulator(net, recon_phase=100)
        want, saturations = _gate_level_scores(net, X, 100)
        np.testing.assert_array_equal(sim.infer_many(X), want)
        assert sim.saturation_count == saturations

    def test_chunking_and_empty_batch(self):
        net = _fixed_net(8, 255, seed=3)
        X = np.random.default_rng(3).uniform(-1, 1, (7, 3))
        want, _ = _gate_level_scores(net, X, 0)
        sim = net.simulator()
        for chunk in (1, 3, len(X) + 5):
            np.testing.assert_array_equal(sim.infer_many(X, chunk=chunk), want)
        empty = sim.infer_many(np.empty((0, 3)))
        assert empty.shape == (0,)

    @pytest.mark.parametrize("width,n,recon_phase", [(12, N, 37), (8, 300, 0)])
    def test_trace_products_are_xnor_stream_values(self, width, n, recon_phase):
        net = _fixed_net(width, n, seed=width, shape=(3, 2, 1))
        x = np.array([-1.0, 0.3, 1.0])
        _, layers = net.simulator(recon_phase).trace(x)
        r1 = net.lfsr1.word_sequence(n)
        recon = net.lfsr1.word_sequence(n, recon_phase)
        words, window = sc.encode_array(x, width), r1
        for li, (layer, got) in enumerate(zip(net.layers, layers)):
            r2 = net.lfsr2.word_sequence(n, (li * n) % net.lfsr2.period)
            streams = [sc.to_stochastic(sc.FixedWord(int(w), width), window) for w in words]
            streams.append(sc.constant_stream(True, n))
            rows = np.concatenate([layer.weights_q, layer.bias_q[:, None]], axis=1)
            want = [[sc.gate_eval(GateKind.XNOR, s,
                                  sc.to_stochastic(sc.FixedWord(int(w), width), r2)).value
                     for s, w in zip(streams, row)] for row in rows]
            assert got["products"].dtype == np.float64
            np.testing.assert_array_equal(got["products"], np.array([want]))
            words, window = np.maximum(got["words"][0], 0), recon


class TestSaturation:
    def test_counter_records_clamped_words(self):
        # shift 0 with strong weights drives the APC word far past 12 bits
        layer = ScLayer(4, 1, 0, 1.0, np.full((1, 4), 2047, dtype=np.int32), None)
        net = ScNetwork([layer], default_lfsr1(), default_lfsr2())
        sim = net.simulator()
        out = sim.infer([0.9, 0.9, 0.9, 0.9])
        assert sim.saturation_count == 1
        assert out == (2048 - 1) / 2048  # clamped to the top word


class TestReconPhase:
    def test_reference_tracks_simulator_at_any_phase(self):
        rng = np.random.default_rng(53)
        _, net = _random_net([24, 12, 6, 1], 57, rng)
        X = rng.uniform(-1, 1, (25, 24))
        for phase in (0, 137, 2049):
            got = sc_nn.ScSimulator(net, recon_phase=phase).infer_many(X)
            ref = fixed_point_reference(net, X, recon_phase=phase)
            assert np.abs(got - ref).max() <= 0.12


class TestOtherWidths:
    def test_full_stack_at_width_8(self):
        rng = np.random.default_rng(59)
        mlp = ref_nn.init_mlp([24, 12, 6, 1], "relu", seed=61)
        mlp.trained = True
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
        mlp.trained = True
        net = quantize_weights(mlp, stream_len=1023,
                               calib=rng.uniform(-1, 1, (64, 24)))
        X = rng.uniform(-1, 1, (30, 24))
        err = np.abs(net.simulator().infer_many(X) - fixed_point_reference(net, X))
        assert err.mean() <= 0.1  # 4x shorter window, ~2x the noise

    def test_window_decode_is_exact_for_any_length(self, r1):
        # the reference's window decode must equal the actual stream value
        from scvs.sc_nn import _window_value_fn
        for n in (7, 100, 512, 4095):
            fn = _window_value_fn(r1.words[:n])
            for v in (-0.9, -0.1, 0.0, 0.4, 0.99):
                w = sc.encode(v)
                s = sc.to_stochastic(w, r1, n)
                assert s.value == fn(w.value)


class TestNetworkFile:
    def test_round_trip_preserves_inference(self, tmp_path):
        rng = np.random.default_rng(21)
        _, net = _random_net([24, 12, 6, 1], 23, rng)
        path = tmp_path / "hw.json"
        sc_nn.save_sc_network(net, path)
        loaded = sc_nn.load_sc_network(path)
        x = rng.uniform(-1, 1, 24)
        assert sc_network_infer(loaded, x) == sc_network_infer(net, x)

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
            sc_nn.load_sc_network(path)
