"""Reference network tests: forward oracles, Adam training, gradient checks,
oversampling."""

import copy
import hashlib
import json

import numpy as np
import pytest

from scvs import cli, ref_nn, sc_nn
from scvs.ref_nn import (
    Mlp,
    TrainConfig,
    forward_batch,
    gradient_check,
    init_mlp,
    loss_and_grads,
    oversample,
    train_adam,
)


def _pairwise_auc(scores, labels):
    # Brute-force pairwise comparison, ties counting one half.
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _zero_net(shape):
    # A ReLU net of ``shape`` whose weights and biases are all zero.
    return Mlp("relu", [np.zeros((o, i)) for i, o in zip(shape[:-1], shape[1:])],
               [np.zeros(o) for o in shape[1:]])


def _toy_separable(n=200, seed=0):
    # Two well-separated 2D blobs, zero-padded up to the 24-wide input.
    rng = np.random.default_rng(seed)
    x, y = np.zeros((n, 24)), np.zeros(n)
    for i in range(n):
        label = i % 2
        center = 0.5 if label else -0.5
        f = np.zeros(24)
        f[:2] = rng.normal(center, 0.15, size=2)
        x[i], y[i] = np.clip(f, -1, 1), label
    return x, y


class TestConstructor:
    def test_shape_read_from_arrays(self):
        mlp = _zero_net([24, 12, 6, 1])
        assert mlp.shape == [24, 12, 6, 1] and mlp.n_layers == 3

    def test_last_layer_must_have_one_output(self):
        with pytest.raises(ValueError, match=r"single output neuron, got \[3, 2\]"):
            Mlp("relu", [np.zeros((2, 3))], [np.zeros(2)])

    def test_one_bias_per_layer(self):
        with pytest.raises(ValueError):
            Mlp("relu", [np.zeros((4, 3)), np.zeros((1, 4))], [np.zeros(4)])

    # (fan_in, fan_out) of each layer of a shape that breaks the rule, and
    # the message both networks give for it
    BAD_SHAPES = [
        ([], "a network needs at least one layer"),
        ([(3, 0), (0, 1)], "layer 0 fan_in and fan_out must be >= 1, got 3 and 0"),
        ([(3, 4), (5, 1)], "layer 1 fan_in 5 != layer 0 fan_out 4"),
        ([(3, 2)], "shape must end in a single output neuron, got [3, 2]"),
    ]

    @pytest.mark.parametrize("pairs,message", BAD_SHAPES,
                             ids=["no-layers", "zero-width", "broken-chain", "two-outputs"])
    def test_float_and_hardware_nets_keep_one_shape_rule(self, pairs, message):
        with pytest.raises(ValueError) as float_error:
            Mlp("relu", [np.zeros((o, i)) for i, o in pairs], [np.zeros(o) for _, o in pairs])
        layers = [sc_nn.ScLayer(i, o, 0, 1.0, np.zeros((o, i)), None) for i, o in pairs]
        with pytest.raises(ValueError) as hardware_error:
            sc_nn.ScNetwork(layers, sc_nn.default_lfsr1(), sc_nn.default_lfsr2())
        assert str(float_error.value) == str(hardware_error.value) == message


class TestForward:
    def test_zero_net_outputs_zero(self):
        mlp = _zero_net([24, 12, 6, 1])
        assert forward_batch(mlp, np.random.default_rng(0).uniform(-1, 1, 24))[0] == 0.0

    def test_constructed_absolute_value(self):
        mlp = Mlp("relu", [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
                  [np.zeros(2), np.zeros(1)])
        for x in (-1.3, -0.2, 0.0, 0.7, 2.5):
            assert forward_batch(mlp, [x])[0] == pytest.approx(abs(x))

    def test_matches_straight_line_evaluator(self):
        rng = np.random.default_rng(42)
        for activation in ("tanh", "relu"):
            mlp = init_mlp([5, 7, 3, 1], activation, seed=9)
            x = rng.uniform(-2, 2, 5)
            h = x
            for l in range(mlp.n_layers):
                z = np.array([mlp.weights[l][i] @ h + mlp.biases[l][i]
                              for i in range(len(mlp.biases[l]))])
                if l < mlp.n_layers - 1:
                    h = np.tanh(z) if activation == "tanh" else np.where(z > 0, z, 0.0)
                else:
                    h = z
            assert forward_batch(mlp, x)[0] == pytest.approx(h[0], abs=1e-12)

    def test_activation_bounds(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (20, 24))
        for activation, check in (("tanh", lambda a: np.all(np.abs(a) < 1)),
                                  ("relu", lambda a: np.all(a >= 0))):
            mlp = init_mlp([24, 12, 6, 1], activation, seed=2)
            _, acts = ref_nn._layer_values(mlp, x)
            for hidden in acts[1:-1]:
                assert check(hidden)

    def test_nonfinite_input_flagged_with_layer(self):
        mlp = init_mlp([2, 2, 1], "relu", seed=0)
        with pytest.raises(ref_nn.NumericFailure, match="layer 0"):
            forward_batch(mlp, [np.inf, 0.0])


def _noisy_rows(n=90, seed=12):
    # Labels from two features plus noise, so validation loss turns up early.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 24))
    return x, (x[:, 0] - x[:, 1] + rng.normal(0.0, 0.5, size=n) > 0).astype(np.float64)


def _adam_digest(net, history) -> str:
    h = hashlib.sha256(json.dumps(history).encode())
    for p in net.weights + net.biases:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


ADAM_CASES = {
    "early-stop": ([24, 12, 6, 1], "relu",
                   TrainConfig(learning_rate=0.05, epochs=40, batch_size=32, rng_seed=2,
                               val_fraction=0.3, patience=1)),
    "no-validation": ([24, 8, 1], "tanh",
                      TrainConfig(learning_rate=0.01, epochs=6, batch_size=64, rng_seed=3,
                                  val_fraction=0.0)),
    "many-batches": ([24, 16, 8, 1], "tanh",
                     TrainConfig(learning_rate=0.003, epochs=4, batch_size=7, rng_seed=4,
                                 val_fraction=0.2, patience=10)),
}
ADAM_DIGESTS = {
    "early-stop": "dc8493bd8ec1065c62058bcc2901a96fd24232e7dad0ef95043d49e607cb3a7f",
    "no-validation": "e577a68a5fafb908a19c6b299a0f7d7c52591346eebf69b64fa9a2ba21f74966",
    "many-batches": "a719d12da541870d6460eae20596b0ed5a8a88b5c3d1657a43f0c62bb54405e1",
}


class TestTraining:
    def test_zero_learning_rate_is_identity(self):
        pairs = _toy_separable(40)
        mlp = init_mlp([24, 12, 6, 1], "relu", seed=3)
        before = [w.copy() for w in mlp.weights]
        trained, _ = train_adam(mlp, *pairs, TrainConfig(learning_rate=0.0, epochs=3,
                                                         val_fraction=0.0))
        for w0, w1 in zip(before, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_trained_arrays_are_views_of_one_vector(self):
        # one Adam step updates every layer only while the net's arrays stay
        # views of the flat parameter vector
        trained, _ = train_adam(init_mlp([24, 4, 1], "relu", seed=3), *_toy_separable(40),
                                TrainConfig(epochs=1, val_fraction=0.0))
        base = trained.weights[0].base
        assert base is not None and base.ndim == 1
        assert all(p.base is base for p in trained.weights + trained.biases)

    def test_single_step_matches_hand_computed_adam(self):
        x, y = np.linspace(-1, 1, 24)[None, :], np.array([1.0])
        mlp = init_mlp([24, 4, 1], "relu", seed=5)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, batch_size=1, val_fraction=0.0)

        # Independent gradient: central finite differences on the loss.
        def loss_of(m):
            z = forward_batch(m, x)[0]
            return float(np.maximum(z, 0) - z * y[0] + np.log1p(np.exp(-np.abs(z))))

        expect = copy.deepcopy(mlp)
        eps = 1e-6
        for arrs in (expect.weights, expect.biases):
            for p in arrs:
                flat = p.reshape(-1)
                g = np.empty_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    hi = loss_of(expect)
                    flat[i] = orig - eps
                    lo = loss_of(expect)
                    flat[i] = orig
                    g[i] = (hi - lo) / (2 * eps)
                # First Adam step: m_hat = g, v_hat = g^2.
                flat -= cfg.learning_rate * g / (np.abs(g) + ref_nn.ADAM_EPS)

        trained, _ = train_adam(mlp, x, y, cfg)
        for a, b in zip(trained.weights + trained.biases, expect.weights + expect.biases):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_separable_toy_reaches_high_auc(self):
        x, y = _toy_separable(200)
        mlp = init_mlp([24, 12, 6, 1], "relu", seed=7)
        trained, history = train_adam(
            mlp, x, y, TrainConfig(epochs=200, batch_size=32, val_fraction=0.0,
                                   rng_seed=1))
        auc = _pairwise_auc(forward_batch(trained, x), y)
        assert auc > 0.99
        assert history["train_loss"][-1] < history["train_loss"][0]

    def test_fixed_seed_bit_identical_curves(self):
        pairs = _toy_separable(60)
        cfg = TrainConfig(epochs=5, batch_size=16, rng_seed=11)
        _, h1 = train_adam(init_mlp([24, 12, 6, 1], "tanh", seed=1), *pairs, cfg)
        _, h2 = train_adam(init_mlp([24, 12, 6, 1], "tanh", seed=1), *pairs, cfg)
        assert h1["train_loss"] == h2["train_loss"]
        assert h1["val_loss"] == h2["val_loss"]

    @pytest.mark.parametrize("case", sorted(ADAM_DIGESTS))
    def test_trained_weights_pinned(self, case):
        # digests of the weights, biases and history, as a per-layer Adam
        # loop computed them
        shape, activation, cfg = ADAM_CASES[case]
        trained, history = train_adam(init_mlp(shape, activation, seed=9), *_noisy_rows(), cfg)
        assert (history["stopped_epoch"] is not None) == (case == "early-stop")
        assert _adam_digest(trained, history) == ADAM_DIGESTS[case]

    def test_runs_from_one_net_share_no_arrays(self):
        net = init_mlp([24, 8, 4, 1], "relu", seed=2)
        kept = [p.copy() for p in net.weights + net.biases]
        cfg = TrainConfig(epochs=3, batch_size=16, val_fraction=0.25, patience=1)
        a, _ = train_adam(net, *_noisy_rows(), cfg)
        b, _ = train_adam(net, *_noisy_rows(), cfg)
        for p, q in zip(net.weights + net.biases, kept):
            np.testing.assert_array_equal(p, q)
        for one, other in ((net, a), (net, b), (a, b)):
            assert not any(np.shares_memory(p, q) for p in one.weights + one.biases
                           for q in other.weights + other.biases)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train_adam(init_mlp([24, 2, 1], "relu"), np.empty((0, 24)), np.empty(0),
                       TrainConfig())

    @pytest.mark.parametrize("x, y, match", [
        (np.zeros((4, 24)), [0, 1, 2, 0], "labels must be in"),
        (np.vstack([np.zeros((3, 24)), np.full((1, 24), np.nan)]), [0, 1, 0, 1],
         "must be finite"),
        (np.zeros((4, 24)), [0, 1, 0], "k labels"),
        (np.zeros(24), [1], "k labels"),
    ], ids=["label-2", "nan-row", "short-y", "1-d-x"])
    def test_malformed_data_rejected(self, x, y, match):
        with pytest.raises(ValueError, match=match):
            train_adam(init_mlp([24, 2, 1], "relu"), x, y, TrainConfig(epochs=1))


class TestGradientCheck:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_small_nets_pass(self, activation):
        rng = np.random.default_rng(17)
        for i in range(5):
            mlp = init_mlp([6, 5, 3, 1], activation, seed=100 + i)
            x = rng.uniform(-1, 1, 6)
            assert gradient_check(mlp, x, int(rng.integers(2))) < 1e-4

    def test_zero_net_agrees_at_zero(self):
        mlp = _zero_net([4, 3, 1])
        assert gradient_check(mlp, np.ones(4), 0) < 1e-6

    def test_corrupted_gradient_detected(self, monkeypatch):
        mlp = init_mlp([4, 3, 1], "tanh", seed=3)
        real = ref_nn.loss_and_grads

        def tampered(m, x, y):
            loss, gw, gb = real(m, x, y)
            gw[0] = gw[0] + 0.01
            return loss, gw, gb

        monkeypatch.setattr(ref_nn, "loss_and_grads", tampered)
        assert gradient_check(mlp, np.ones(4) * 0.3, 1) > 1e-2

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            gradient_check(_zero_net([2, 1]), [0, 0], 0, epsilon=1e-8)


class TestOversample:
    def _labels(self, n_pos, n_neg):
        return np.array([1] * n_pos + [0] * n_neg)

    def test_minority_upsampled_to_balance(self):
        y = self._labels(10, 90)
        rows = oversample(y, seed=0)
        labels = list(y[rows])
        assert labels.count(1) == labels.count(0) == 90
        assert set(rows[y[rows] == 1]) == set(range(10))  # originals all retained

    def test_balanced_unchanged(self):
        np.testing.assert_array_equal(oversample(self._labels(5, 5), seed=1), np.arange(10))

    def test_deterministic_per_seed(self):
        y = self._labels(1, 5)
        np.testing.assert_array_equal(oversample(y, seed=42), oversample(y, seed=42))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            oversample(self._labels(5, 0), seed=0)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        mlp = init_mlp([24, 12, 6, 1], "tanh", seed=9)
        path = tmp_path / "m.json"
        ref_nn.save_mlp(mlp, path)
        loaded = cli.load_model(path)
        x = np.linspace(-1, 1, 24)
        assert forward_batch(loaded, x)[0] == pytest.approx(forward_batch(mlp, x)[0], abs=1e-15)
        assert loaded.activation == "tanh" and loaded.shape == [24, 12, 6, 1]

    def test_save_byte_deterministic(self, tmp_path):
        mlp = init_mlp([24, 12, 6, 1], "relu", seed=13)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ref_nn.save_mlp(mlp, a)
        ref_nn.save_mlp(mlp, b)
        assert a.read_bytes() == b.read_bytes()
