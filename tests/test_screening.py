"""Screening protocol tests: splits, ranking, AUC/EF against brute-force
oracles, threshold tables, the per-target protocol and the synthetic
benchmark generator."""

import hashlib

import numpy as np
import pytest

from scvs import mpe, ref_nn, screening, synth
from scvs.mpe import FeatureScaler, Molecule, MpeVector
from scvs.ref_nn import TrainConfig
from scvs.sc_nn import quantize_weights
from scvs.screening import (
    Metrics,
    RankedList,
    SplitError,
    SplitSpec,
    TargetData,
    UndefinedMetric,
    auc,
    build_split,
    compute_metrics,
    enrichment_factor,
    pair_arrays,
    per_target_protocol,
    score_library,
    threshold_table,
)


def _vec(rng) -> MpeVector:
    return MpeVector(np.sort(rng.uniform(0, 100, 6))[::-1], np.sort(rng.uniform(-100, 0, 6)))


def _target(rng, tid="t0", n_act=10, n_dec=100) -> TargetData:
    compounds = [(f"a{i:03d}", _vec(rng), 1) for i in range(n_act)]
    compounds += [(f"d{i:03d}", _vec(rng), 0) for i in range(n_dec)]
    return TargetData(tid, _vec(rng), compounds)


def _ranked(scores, labels, tid="t") -> RankedList:
    entries = sorted(
        [(f"c{i:04d}", float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))],
        key=lambda e: (-e[1], e[0]))
    return RankedList(tid, entries)


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def recount_ef(scores, labels, x):
    order = np.argsort([-s for s in scores], kind="stable")
    n_top = int(np.ceil(x / 100 * len(scores)))
    tp = sum(labels[i] for i in order[:n_top])
    return tp * 100 / (x * sum(labels))


class TestBuildSplit:
    def test_default_fraction_arithmetic(self):
        # 50% of 10 actives and 10% of 100 decoys train; the other 95 test.
        rng = np.random.default_rng(0)
        t = _target(rng, n_act=10, n_dec=100)
        ((_, train),), ((_, test),), scaler = build_split([t], SplitSpec(seed=1))
        assert len(train) == 5 + 10
        assert len(test) == 110 - 15
        assert scaler.fitted

    def test_full_fractions_leave_no_test(self):
        rng = np.random.default_rng(1)
        with pytest.raises(SplitError, match="test set is empty"):
            build_split([_target(rng)], SplitSpec(1.0, 1.0, 2))

    def test_zero_sample_class_names_target(self):
        rng = np.random.default_rng(2)
        t = _target(rng, n_act=10, n_dec=4)  # 10% of 4 decoys rounds to 0
        with pytest.raises(SplitError, match="t0"):
            build_split([t], SplitSpec(seed=3))

    def test_deterministic_and_disjoint(self):
        rng = np.random.default_rng(3)
        targets = [_target(rng, f"t{i}") for i in range(3)]
        a_train, a_test, _ = build_split(targets, SplitSpec(seed=11))
        b_train, b_test, _ = build_split(targets, SplitSpec(seed=11))
        key = lambda sides: [(t.target_id, t.ids[i]) for t, idx in sides for i in idx]
        assert key(a_train) == key(b_train) and key(a_test) == key(b_test)
        assert not set(key(a_train)) & set(key(a_test))

    def test_features_are_scaled_and_24_wide(self):
        rng = np.random.default_rng(4)
        train, test, scaler = build_split([_target(rng)], SplitSpec(seed=5))
        for side in (train, test):
            x, _ = pair_arrays(side, scaler)
            assert x.shape[1:] == (24,)
            assert np.all(np.abs(x) <= 1.0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(active_fraction=0.0)


class TestScoreLibrary:
    def test_constant_scorer_ranks_by_compound_id(self):
        rng = np.random.default_rng(5)
        t = _target(rng, n_act=3, n_dec=5)
        scaler = FeatureScaler(np.full(24, -300.0), np.full(24, 300.0))
        ranked = score_library(lambda f: 1.0, t, scaler)
        ids = [e[0] for e in ranked.entries]
        assert ids == sorted(ids)

    def test_perfect_oracle_puts_actives_on_top(self):
        rng = np.random.default_rng(6)
        t = _target(rng, n_act=4, n_dec=8)
        scaler = FeatureScaler(np.full(24, -300.0), np.full(24, 300.0))
        # label-leaking stub: scores follow compound order, which the scorer
        # sees row by row
        labels_in_order = iter([label for _, _, label in t.compounds])
        ranked = score_library(lambda f: float(next(labels_in_order)) + 0.0, t, scaler)
        labels = [e[2] for e in ranked.entries]
        assert labels == sorted(labels, reverse=True)
        assert auc(ranked) == 1.0

    def test_mlp_scoring_consistent_with_forward(self):
        rng = np.random.default_rng(7)
        t = _target(rng, n_act=3, n_dec=3)
        scaler = FeatureScaler(np.full(24, -300.0), np.full(24, 300.0))
        mlp = ref_nn.init_mlp([24, 6, 1], "tanh", seed=1)
        ranked = score_library(mlp, t, scaler)
        by_id = {cid: (vec, label) for cid, vec, label in t.compounds}
        for cid, score, _ in ranked.entries:
            feats = scaler.transform(mpe.pair_features(t.crystal, by_id[cid][0]))
            assert score == pytest.approx(ref_nn.forward(mlp, feats))


    @staticmethod
    def _python_order(ids, scores, labels):
        return sorted(zip(ids, scores, labels), key=lambda e: (-e[1], e[0]))

    def _ranked_by_stub(self, ids, scores, labels):
        rng = np.random.default_rng(13)
        t = TargetData("t", _vec(rng), [(cid, _vec(rng), l) for cid, l in zip(ids, labels)])
        in_order = iter(scores)
        scaler = FeatureScaler(np.full(24, -300.0), np.full(24, 300.0))
        return score_library(lambda f: next(in_order), t, scaler)

    @pytest.mark.parametrize("ids,scores", [
        (["b", "a\x00", "a"], [1.0, 1.0, 1.0]),           # NUL-suffixed id sorts after its prefix
        (["z", "y", "x", "w"], [0.0, -0.0, 0.0, -0.0]),    # signed zeros tie
        (["c", "c", "b", "c"], [2.0, 1.0, 2.0, 2.0]),      # a repeated id keeps compound order
    ])
    def test_order_matches_python_sort(self, ids, scores):
        labels = [i % 2 for i in range(len(ids))]
        ranked = self._ranked_by_stub(ids, scores, labels)
        assert repr(ranked.entries) == repr(self._python_order(ids, scores, labels))

    def test_order_matches_python_sort_on_random_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ids = ["".join(rng.choice(["a", "b", "\x00", "é"], size=rng.integers(0, 3)))
                   for _ in range(n)]
            scores = [float(v) for v in rng.choice([0.0, -0.0, 1.5, -2.0], size=n)]
            labels = rng.integers(0, 2, size=n).tolist()
            ranked = self._ranked_by_stub(ids, scores, labels)
            assert repr(ranked.entries) == repr(self._python_order(ids, scores, labels))
            np.testing.assert_array_equal(ranked.scores, [e[1] for e in ranked.entries])
            np.testing.assert_array_equal(ranked.labels, [e[2] for e in ranked.entries])


class TestTargetArrays:
    def test_pair_matrix_rows_are_pair_features(self):
        rng = np.random.default_rng(15)
        t = _target(rng, n_act=4, n_dec=9)
        assert t.pair_matrix.shape == (13, 24)
        for row, (_, vec, _) in zip(t.pair_matrix, t.compounds):
            # crystal ligand's 12 features first, then the candidate's
            assert row.tobytes() == mpe.pair_features(t.crystal, vec).tobytes()

    def test_columns_follow_compounds(self):
        rng = np.random.default_rng(16)
        t = TargetData("t", _vec(rng), [("a\x00", _vec(rng), 1), ("a", _vec(rng), 0)])
        assert t.ids == ["a\x00", "a"] and all(type(i) is str for i in t.ids)
        assert t.labels.tolist() == [1, 0]
        assert (t.n_actives, t.n_decoys) == (1, 1)

    def test_empty_target(self):
        t = TargetData("t", _vec(np.random.default_rng(17)), [])
        assert t.pair_matrix.shape == (0, 24) and t.ids == [] and t.n_actives == 0
        ranked = score_library(lambda f: 0.0, t, FeatureScaler(np.zeros(24), np.ones(24)))
        assert ranked.entries == [] and ranked.scores.shape == (0,)


def _digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(r if isinstance(r, bytes) else repr(r).encode())
    return h.hexdigest()


def _pair_records(sides, x, y):
    # (target id, compound id, label) and the row bytes of every pair, in side order
    keys = [(t.target_id, t.ids[i]) for t, idx in sides for i in idx.tolist()]
    for key, row, label in zip(keys, x, y, strict=True):
        yield (*key, int(label))
        yield row.tobytes()


class TestReportBytesGuard:
    """sha256 of what the reports are made of, on the seed-2024 benchmark:
    any refactor of the split, the pair rows, the scaling or the ranking
    that moves a byte fails here."""

    @pytest.fixture(scope="class")
    def bench(self):
        targets = synth.make_benchmark(seed=2024)
        return targets, build_split(targets, SplitSpec(seed=7))

    def test_build_split(self, bench):
        _, (train, test, scaler) = bench
        assert _digest([*_pair_records(train, *pair_arrays(train, scaler)), b"|",
                        *_pair_records(test, *pair_arrays(test, scaler)),
                        scaler.mins.tobytes(), scaler.maxs.tobytes()]) == \
            "cb7760f3dfc2407e881bacd2babecdf3741f7711d00ab2d78890ad7355f01615"

    def test_per_target_protocol_split(self, bench, monkeypatch):
        targets, _ = bench
        seen, calls = [], {}
        train_adam, score = ref_nn.train_adam, screening.score_library
        arrays, oversample = screening.pair_arrays, ref_nn.oversample

        def recording_pair_arrays(sides, scaler):
            calls["sides"] = sides
            return arrays(sides, scaler)

        def recording_oversample(y, seed=0):
            calls["rows"] = oversample(y, seed=seed)
            return calls["rows"]

        def recording_train_adam(mlp, x, y, cfg):
            ((target, idx),) = calls["sides"]
            seen.extend(_pair_records([(target, idx[calls["rows"]])], x, y))
            return train_adam(mlp, x, y, cfg)

        def recording_score(model, target, scaler):
            ranked = score(model, target, scaler)
            seen.append(b"|")
            seen.extend(ranked.entries)
            return ranked

        monkeypatch.setattr(screening, "pair_arrays", recording_pair_arrays)
        monkeypatch.setattr(ref_nn, "oversample", recording_oversample)
        monkeypatch.setattr(ref_nn, "train_adam", recording_train_adam)
        monkeypatch.setattr(screening, "score_library", recording_score)
        _, metrics = per_target_protocol(targets[0],
                                         TrainConfig(epochs=1, batch_size=64, rng_seed=3))
        seen.append(metrics.as_dict())
        assert _digest(seen) == \
            "3d316d37d8970c06f8d4b50ff761b40a2a28dc59d330be8fefdd639207aee106"

    def test_score_library_entries(self, bench):
        targets, (_, _, scaler) = bench
        mlp = ref_nn.init_mlp(ref_nn.ARCH_SHAPES["48"], "relu", seed=1)
        mlp.trained = True  # quantize refuses an untrained net; the weights stay seeded
        hw = quantize_weights(mlp)
        for model, want in (
                (mlp, "5f6e9f6defe17d6c78c9a61a175326eded24715fc06bb8fe5ddccf4c21a1e39a"),
                (hw, "7d96d0296b07095d1fe8ced6c6e2849380fbf34b01ff22346912d3440592a87d")):
            entries = (e for t in targets for e in score_library(model, t, scaler).entries)
            assert _digest(entries) == want


class TestAuc:
    def test_perfect_inverted_tied(self):
        assert auc(_ranked([3, 2, 3, 1, 0, 1], [1, 1, 1, 0, 0, 0])) == 1.0
        assert auc(_ranked([0, 1, 0, 3, 2, 3], [1, 1, 1, 0, 0, 0])) == 0.0
        assert auc(_ranked([1, 1, 1, 1], [1, 0, 1, 0])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            auc(_ranked([1, 2], [1, 1]))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(10, 50))
            labels = (rng.random(n) < 0.3).astype(int)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            got = auc(_ranked(scores, labels))
            assert got == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        labels = (rng.random(40) < 0.4).astype(int)
        scores = rng.normal(size=40)
        base = auc(_ranked(scores, labels))
        assert auc(_ranked(np.exp(scores), labels)) == pytest.approx(base, abs=1e-12)
        assert auc(_ranked(3 * scores - 7, labels)) == pytest.approx(base, abs=1e-12)


class TestEnrichmentFactor:
    def test_single_active_ranked_first_hits_bound(self):
        labels = [1] + [0] * 99
        scores = list(range(100, 0, -1))
        assert enrichment_factor(_ranked(scores, labels), 1) == 100.0

    def test_uniform_interleaving_is_chance(self):
        labels = [1, 0] * 50
        scores = list(range(100, 0, -1))
        for x in (10, 20, 50, 100):
            assert enrichment_factor(_ranked(scores, labels), x) == pytest.approx(1.0, abs=0.3)

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(20, 120))
            labels = (rng.random(n) < 0.2).astype(int)
            if labels.sum() == 0:
                continue
            scores = rng.normal(size=n)
            r = _ranked(scores, labels)
            for x in (1, 5, 10, 37.5):
                assert enrichment_factor(r, x) == pytest.approx(
                    recount_ef(list(scores), list(labels), x), abs=1e-12)

    def test_random_ranking_averages_one(self):
        rng = np.random.default_rng(11)
        labels = np.array([1] * 20 + [0] * 180)
        efs = []
        for _ in range(200):
            scores = rng.permutation(200).astype(float)
            efs.append(enrichment_factor(_ranked(scores, labels), 10))
        assert np.mean(efs) == pytest.approx(1.0, abs=0.2)

    def test_x_range_validated(self):
        r = _ranked([1, 0], [1, 0])
        with pytest.raises(ValueError):
            enrichment_factor(r, 0)
        with pytest.raises(ValueError):
            enrichment_factor(r, 101)


class TestThresholdTable:
    def test_all_perfect(self):
        assert threshold_table([1.0, 1.0]) == {
            "lt_0.5": 0, "ge_0.6": 100, "ge_0.7": 100,
            "ge_0.8": 100, "ge_0.9": 100, "ge_0.95": 100}

    def test_mixed_example(self):
        assert threshold_table([0.4, 0.65, 0.96]) == {
            "lt_0.5": 33, "ge_0.6": 67, "ge_0.7": 33,
            "ge_0.8": 33, "ge_0.9": 33, "ge_0.95": 33}

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetric):
            threshold_table([])


class TestPerTargetProtocol:
    def test_separable_target_scores_high(self):
        targets = synth.make_benchmark(seed=5, n_targets=1, n_actives=40, n_decoys=120)
        cfg = TrainConfig(epochs=60, batch_size=32, rng_seed=2, val_fraction=0.0)
        _, metrics = per_target_protocol(targets[0], cfg)
        assert metrics.auc > 0.95
        assert metrics.n_total == 8 + 24  # the held-out 20%

    def test_zero_epochs_is_null_model(self):
        # Unlearnable noise target: an untrained net must rank near chance.
        rng = np.random.default_rng(12)
        t = _target(rng, n_act=30, n_dec=90)
        cfg = TrainConfig(epochs=0, rng_seed=3, val_fraction=0.0)
        _, metrics = per_target_protocol(t, cfg)
        assert abs(metrics.auc - 0.5) < 0.35

    def test_tiny_target_split_error(self):
        rng = np.random.default_rng(12)
        t = _target(rng, n_act=1, n_dec=10)
        with pytest.raises(SplitError):
            per_target_protocol(t, TrainConfig(epochs=1))


class TestTargetTypes:
    def test_duplicate_ids_across_classes_rejected(self):
        m = Molecule("same", [[0, 0, 0]], [0.1], "C")
        with pytest.raises(ValueError, match="both classes"):
            screening.target_descriptors("t", m, [m], [m])

    def test_descriptor_conversion_counts_failures(self):
        good = Molecule("ok", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5], "CC")
        bad = Molecule("bad", [[0, 0, 0], [0, 0, 0]], [0.5, 0.5], "CC")
        data = screening.target_descriptors("t", good, [good], [bad])
        assert data.n_skipped == 1
        assert [c[0] for c in data.compounds] == ["ok"]

    def test_cache_lookup_used(self):
        m = Molecule("m1", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5], "CC")
        fake = MpeVector(np.array([9.0, 0, 0, 0, 0, 0]), np.zeros(6))
        data = screening.target_descriptors("t", m, [m], [], cache={"m1": fake})
        assert data.crystal.most_positive == 9.0


class TestSyntheticBenchmark:
    def test_deterministic(self):
        a = synth.make_benchmark(seed=3, n_targets=2, n_actives=5, n_decoys=7)
        b = synth.make_benchmark(seed=3, n_targets=2, n_actives=5, n_decoys=7)
        for ta, tb in zip(a, b):
            assert ta.target_id == tb.target_id
            np.testing.assert_array_equal(ta.crystal.features, tb.crystal.features)
            for (ida, va, la), (idb, vb, lb) in zip(ta.compounds, tb.compounds):
                assert (ida, la) == (idb, lb)
                np.testing.assert_array_equal(va.features, vb.features)

    def test_counts_and_classes(self):
        targets = synth.make_benchmark(seed=4, n_targets=3, n_actives=6, n_decoys=9)
        assert len(targets) == 3
        for t in targets:
            assert t.n_actives == 6 and t.n_decoys == 9

    def test_realized_molecule_reproduces_descriptor(self):
        targets = synth.make_benchmark(seed=8, n_targets=1, n_actives=2, n_decoys=2)
        for cid, vec, _ in targets[0].compounds:
            mol = synth.realize_molecule(vec, cid)
            back = mpe.mpe_vector(mol)
            np.testing.assert_allclose(back.features, vec.features, rtol=1e-3, atol=0.02)


class TestMetricsContainer:
    def test_compute_metrics_round_trip(self):
        r = _ranked([5, 4, 3, 2, 1, 0], [1, 1, 0, 1, 0, 0])
        m = compute_metrics(r)
        assert m.n_actives == 3 and m.n_total == 6
        assert set(m.ef) == {1, 5, 10}
        d = m.as_dict()
        assert d["auc"] == round(m.auc, 4)

    def test_aggregate_layout(self):
        r1 = _ranked([5, 4, 3, 2], [1, 1, 0, 0])
        r2 = _ranked([5, 4, 3, 2], [0, 1, 1, 0])
        agg = screening.aggregate_metrics({"a": compute_metrics(r1), "b": compute_metrics(r2)})
        assert agg["n_targets"] == 2
        assert set(agg["threshold_table"]) == set(screening.AUC_BUCKETS)
        assert "ef1_mean" in agg and "ef10_std" in agg
