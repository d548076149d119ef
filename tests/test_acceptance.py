"""Acceptance gate: one check per criterion, each at its stated tolerance.

Run under pytest (one test per criterion) or standalone::

    python tests/test_acceptance.py

which prints one PASS/FAIL line per criterion and exits nonzero on failure.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from scvs import mpe, ref_nn, sc_core as sc, sc_nn, screening, synth
from scvs.ref_nn import TrainConfig
from scvs.sc_core import BitStream, GateKind
from scvs.sc_nn import default_lfsr1, default_lfsr2, fixed_point_reference, quantize_weights

N = 4095
GRID = np.round(np.arange(-1.0, 1.0001, 0.1), 10)


def criterion_1_multiplier_fidelity() -> str:
    r1 = default_lfsr1().word_sequence(N)
    r2 = default_lfsr2().word_sequence(N)
    errs = []
    for xv in GRID:
        a = sc.to_stochastic(sc.encode(xv), r1)
        for yv in GRID:
            b = sc.to_stochastic(sc.encode(yv), r2)
            z = sc.gate_eval(GateKind.XNOR, a, b)
            errs.append(abs(z.value - xv * yv))
    errs = np.array(errs)
    assert errs.max() <= 0.05, f"max multiplier error {errs.max():.4f} > 0.05"
    assert errs.mean() <= 0.02, f"mean multiplier error {errs.mean():.4f} > 0.02"
    return f"XNOR multiplier on 0.1 grid: max {errs.max():.4f} <= 0.05, mean {errs.mean():.4f} <= 0.02"


def criterion_2_correlated_exactness() -> str:
    r1 = default_lfsr1().word_sequence(N)
    checked = 0
    for xv, yv in itertools.product(GRID, GRID):
        a = sc.to_stochastic(sc.encode(xv), r1)
        b = sc.to_stochastic(sc.encode(yv), r1)
        na, nb = a.ones(), b.ones()
        # Shared-generator comparator streams are nested, so the gate outputs
        # are exact integer-count identities; zero tolerance.
        assert sc.gate_eval(GateKind.AND, a, b).ones() == min(na, nb)
        assert sc.gate_eval(GateKind.OR, a, b).ones() == max(na, nb)
        assert sc.gate_eval(GateKind.XNOR, a, b).ones() == N - abs(na - nb)
        checked += 1
    return f"shared-R(t) AND=min, OR=max, XNOR=1-|x-y| exact on {checked} grid points"


def criterion_3_gate_law_oracle() -> str:
    rng = np.random.default_rng(33)
    worst = 0.0
    for kind in GateKind:
        done = 0
        while done < 1000:
            n = int(rng.integers(128, N + 1))
            a = BitStream.from_bools(rng.random(n) < rng.uniform(0.1, 0.9))
            b = BitStream.from_bools(rng.random(n) < rng.uniform(0.1, 0.9))
            try:
                c = sc.sc_correlation(a, b)
            except sc.CorrelationUndefined:
                continue
            z = sc.gate_eval(kind, a, b).value
            expect = sc.expected_gate_output(kind, a.value, b.value, c)
            err = abs(z - expect)
            worst = max(worst, err * n / 2)  # in units of the 2/n budget
            assert err <= 2 / n, f"{kind.name}: |measured-formula| {err:.2e} > 2/{n}"
            done += 1
    return f"3000 fuzzed pairs: measured gate output matches the correlation law " \
           f"(worst {worst:.3f} of the 2/N budget)"


def criterion_4_correlation_anchors() -> str:
    r1 = default_lfsr1().word_sequence(N)
    r2 = default_lfsr2().word_sequence(N)
    for xv, yv in ((0.0, 0.0), (0.3, -0.4), (-0.8, 0.6), (0.5, 0.5)):
        a = sc.to_stochastic(sc.encode(xv), r1)
        b = sc.to_stochastic(sc.encode(yv), r1)
        c = sc.sc_correlation(a, b)
        assert abs(c - 1.0) <= 2 / N, f"shared-RNG C {c} not +1 within 2/N"
    a = sc.to_stochastic(sc.encode(0.0), r1)
    b = sc.to_stochastic(sc.encode(0.0), r2)
    c_ind = sc.sc_correlation(a, b)
    assert abs(c_ind) < 0.05, f"independent-LFSR |C| {abs(c_ind):.4f} >= 0.05"
    return f"shared RNG C=+1 within 2/N; independent LFSRs |C|={abs(c_ind):.4f} < 0.05"


def criterion_5_waveform_regression() -> str:
    rt = sc.WordSequence(np.array([2, -6, -2, 6, -7, 7, -8, 3], dtype=np.int32), 4, "fig")
    x = sc.to_stochastic(sc.FixedWord(0, 4), rt)
    assert x.to_string() == "01101010" and x.value == 0.0
    # decorrelated multiply: independent y at 0.5 -> product 0.0
    y_free = BitStream.from_string("10111011")
    z = sc.gate_eval(GateKind.XNOR, x, y_free)
    assert z.to_string() == "00101110" and z.value == 0.0
    trace = sc.counter_trace(z)
    assert trace.tolist() == [-1, -2, -1, -2, -1, 0, 1, 0] and trace[-1] == 0
    # shared R(t): same gate computes similarity 1-|x-y| = 0.5
    y_corr = sc.to_stochastic(sc.FixedWord(4, 4), rt)
    assert y_corr.to_string() == "11101011" and y_corr.value == 0.5
    z_corr = sc.gate_eval(GateKind.XNOR, x, y_corr)
    assert z_corr.to_string() == "01111110" and z_corr.value == 0.5
    return "8-cycle traces reproduced bit for bit (x=0.0, y=0.5, z=0.0 / counter Q=0.000 / correlated z=0.5)"


def criterion_6_network_parity(nets_per_shape: int = 20, inputs_per_net: int = 1000) -> str:
    rng = np.random.default_rng(66)
    lines = []
    overall = []
    for arch in ("12", "24", "48"):
        shape = ref_nn.ARCH_SHAPES[arch]
        errs = []
        for k in range(nets_per_shape):
            mlp = ref_nn.init_mlp(shape, "relu", seed=7000 + k)
            net = quantize_weights(mlp, calib=rng.uniform(-1, 1, (128, 24)))
            x = rng.uniform(-1, 1, (inputs_per_net, 24))
            with pytest.MonkeyPatch.context() as mp:  # 32 rows per chunk
                mp.setattr(sc_nn, "INFER_CHUNK_WORDS", 32 * sc_nn._row_work(net.layers, x))
                got = net.simulator().infer_many(x)
            ref = fixed_point_reference(net, x)
            errs.append(np.abs(got - np.asarray(ref)))
        errs = np.concatenate(errs)
        assert errs.mean() <= 0.05, f"[{arch}] MAE {errs.mean():.4f} > 0.05"
        assert errs.max() <= 0.15, f"[{arch}] per-sample max {errs.max():.4f} > 0.15"
        lines.append(f"[{'-'.join(map(str, shape[1:]))}] MAE {errs.mean():.4f}, max {errs.max():.4f}")
        overall.append(errs)
    pooled = np.concatenate(overall)
    return (f"{3 * nets_per_shape} nets x {inputs_per_net} inputs: " + "; ".join(lines) +
            f"; pooled MAE {pooled.mean():.4f}")


def criterion_7_gradient_check(configs: int = 100) -> str:
    rng = np.random.default_rng(77)
    shapes = ([24, 8, 4, 1], [10, 6, 3, 1], [6, 5, 1], [12, 12, 1])
    worst = 0.0
    for i in range(configs):
        activation = "tanh" if i % 2 else "relu"
        shape = shapes[i % len(shapes)]
        mlp = ref_nn.init_mlp(shape, activation, seed=9000 + i)
        x = rng.uniform(-1, 1, shape[0])
        err = ref_nn.gradient_check(mlp, x, int(rng.integers(2)))
        worst = max(worst, err)
        assert err < 1e-4, f"config {i} ({activation} {shape}): rel error {err:.2e} >= 1e-4"
    return f"{configs} random configurations, both activations: worst relative error {worst:.2e} < 1e-4"


def criterion_8_metric_oracles(lists: int = 500) -> str:
    rng = np.random.default_rng(88)

    def brute_auc(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return wins / (len(pos) * len(neg))

    checked = 0
    while checked < lists:
        n = int(rng.integers(10, 200))
        labels = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)
        entries = sorted(
            [(f"c{i:04d}", float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))],
            key=lambda e: (-e[1], e[0]))
        ranked = screening.RankedList("fuzz", entries)
        assert abs(screening.auc(ranked) - brute_auc(scores, labels)) <= 1e-12
        for x in (1, 5, 10, 25):
            n_top = int(np.ceil(x / 100 * n))
            tp = sum(e[2] for e in entries[:n_top])
            assert screening.enrichment_factor(ranked, x) == tp * 100 / (x * labels.sum())
        checked += 1

    labels = np.array([1] * 25 + [0] * 225)
    efs = []
    for _ in range(200):
        scores = rng.permutation(250).astype(float)
        entries = sorted(
            [(f"c{i:04d}", float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))],
            key=lambda e: (-e[1], e[0]))
        efs.append(screening.enrichment_factor(screening.RankedList("r", entries), 10))
    mean_ef = float(np.mean(efs))
    assert abs(mean_ef - 1.0) <= 0.2, f"random-ranking EF mean {mean_ef:.3f} outside 1.0 +/- 0.2"
    return f"{lists} fuzzed lists match both metric oracles; random-ranking EF mean {mean_ef:.3f}"


def criterion_9_descriptor_oracle(molecules: int = 500) -> str:
    rng = np.random.default_rng(99)

    def molecule(positions, charges):
        """Molecule "m" as a one-molecule table."""
        return mpe.MoleculeTable(["m"], np.array([0, len(charges)]), positions, charges,
                                 [""] * len(charges))

    def brute(m):
        energies = []
        for i, j in itertools.combinations(range(len(m.charges)), 2):
            energies.append((mpe.pairing_energy(m, i, j), i, j))
        pos = sorted([e for e in energies if e[0] > 0], key=lambda t: (-t[0], t[1], t[2]))[:6]
        neg = sorted([e for e in energies if e[0] < 0], key=lambda t: (t[0], t[1], t[2]))[:6]
        p, q = np.zeros(6), np.zeros(6)
        p[:len(pos)] = [e[0] for e in pos]
        q[:len(neg)] = [e[0] for e in neg]
        return np.concatenate([p, q])

    for _ in range(molecules):
        n = int(rng.integers(1, 13))
        # per atom: its charge, then x, y, z
        rows = np.array([[rng.normal(0, 0.5), *rng.uniform(-6, 6, 3)] for _ in range(n)])
        m = molecule(rows[:, 1:], rows[:, 0])
        got = mpe.mpe_vector(m)
        np.testing.assert_allclose(got, brute(m), atol=1e-12)

        perm = rng.permutation(n)
        shuffled = molecule(m.positions[perm], m.charges[perm])
        np.testing.assert_allclose(mpe.mpe_vector(shuffled), got, atol=1e-9)

        qmat, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.uniform(-20, 20, 3)
        moved = molecule(m.positions @ qmat.T + shift, m.charges)
        np.testing.assert_allclose(mpe.mpe_vector(moved), got, atol=1e-9)
    return f"{molecules} random molecules match brute force; permutation and rigid-motion invariance at 1e-9"


def criterion_10_desk_scale_end_to_end() -> str:
    t0 = time.time()
    targets = synth.make_benchmark(seed=2024)
    train, test, scaler = screening.build_split(targets, screening.SplitSpec(seed=7))
    x, y = screening.pair_arrays(train, scaler)
    cfg = TrainConfig(epochs=60, batch_size=64, rng_seed=3)
    sw, _ = ref_nn.train_adam(
        ref_nn.init_mlp(ref_nn.ARCH_SHAPES["64"], "tanh", seed=1), x, y, cfg)
    relu, _ = ref_nn.train_adam(
        ref_nn.init_mlp(ref_nn.ARCH_SHAPES["48"], "relu", seed=2), x, y, cfg)
    hw = quantize_weights(relu, calib=x)

    sw_aucs, hw_aucs = [], []
    for t, idx in test:
        sub = screening.TargetData(t.target_id, t.crystal, [t.compounds[i] for i in idx])
        sw_aucs.append(screening.auc(screening.score_library(sw, sub, scaler)))
        hw_aucs.append(screening.auc(screening.score_library(hw, sub, scaler)))
    sw_mean, hw_mean = float(np.mean(sw_aucs)), float(np.mean(hw_aucs))
    elapsed = time.time() - t0
    assert sw_mean >= 0.85, f"software pipeline mean AUC {sw_mean:.3f} < 0.85"
    assert sw_mean - hw_mean <= 0.10, \
        f"hardware degradation {sw_mean - hw_mean:.3f} > 0.10"
    assert elapsed < 600, f"end-to-end took {elapsed:.0f}s >= 10 min"
    return (f"10 pseudo-targets: Sw-64 mean AUC {sw_mean:.3f} >= 0.85, Hw-48 {hw_mean:.3f} "
            f"(degradation {sw_mean - hw_mean:+.3f} <= 0.10) in {elapsed:.0f}s")


def criterion_11_published_figures_not_reproduced() -> str:
    base = screening.PUBLISHED_BASELINES
    assert base["sw64-published"]["auc"] == 0.83
    assert base["sw64-published"]["ef1"] == 20.71
    assert base["hw48-published"]["auc"] == 0.76
    assert screening.PUBLISHED_THRESHOLD_ROWS["sw64-published"] == {
        "lt_0.5": 0, "ge_0.6": 96, "ge_0.7": 85, "ge_0.8": 61, "ge_0.9": 29, "ge_0.95": 15}
    assert screening.PUBLISHED_PER_TARGET_ROWS["sw64-published"]["auc_mean"] == 0.94
    assert screening.PUBLISHED_PER_TARGET_ROWS["sw64-published"]["auc_std"] == 0.048
    note = screening.REPRODUCIBILITY_NOTE
    assert "not reproduced at desk scale" in note
    assert "out of scope" in note  # speed/energy columns
    # the evaluate/compare reports embed these verbatim (exercised in the CLI tests)
    return "published DUD-E figures carried as labeled literature constants with an explicit non-reproduction statement"


CRITERIA = [
    (1, criterion_1_multiplier_fidelity),
    (2, criterion_2_correlated_exactness),
    (3, criterion_3_gate_law_oracle),
    (4, criterion_4_correlation_anchors),
    (5, criterion_5_waveform_regression),
    (6, criterion_6_network_parity),
    (7, criterion_7_gradient_check),
    (8, criterion_8_metric_oracles),
    (9, criterion_9_descriptor_oracle),
    (10, criterion_10_desk_scale_end_to_end),
    (11, criterion_11_published_figures_not_reproduced),
]


def _report(num, fn):
    summary = fn()
    print(f"ACCEPTANCE {num:2d} PASS — {summary}")


def test_criterion_01():
    _report(1, criterion_1_multiplier_fidelity)


def test_criterion_02():
    _report(2, criterion_2_correlated_exactness)


def test_criterion_03():
    _report(3, criterion_3_gate_law_oracle)


def test_criterion_04():
    _report(4, criterion_4_correlation_anchors)


def test_criterion_05():
    _report(5, criterion_5_waveform_regression)


def test_criterion_06():
    _report(6, criterion_6_network_parity)


def test_criterion_07():
    _report(7, criterion_7_gradient_check)


def test_criterion_08():
    _report(8, criterion_8_metric_oracles)


def test_criterion_09():
    _report(9, criterion_9_descriptor_oracle)


def test_criterion_10():
    _report(10, criterion_10_desk_scale_end_to_end)


def test_criterion_11():
    _report(11, criterion_11_published_figures_not_reproduced)


if __name__ == "__main__":
    failed = []
    for num, fn in CRITERIA:
        try:
            _report(num, fn)
        except AssertionError as exc:
            print(f"ACCEPTANCE {num:2d} FAIL — {exc}")
            failed.append(num)
    if failed:
        print(f"{len(failed)} criteria failed: {failed}")
        sys.exit(1)
    print("all 11 acceptance criteria passed")
