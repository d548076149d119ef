"""Screening protocol tests: splits, ranking, AUC/EF against brute-force
oracles, threshold tables, the per-target protocol and the synthetic
benchmark generator."""

import hashlib

import numpy as np
import pytest

from scvs import mpe, ref_nn, screening, synth
from scvs.mpe import FeatureScaler, MoleculeTable
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


def _vec(rng) -> np.ndarray:
    return np.concatenate([np.sort(rng.uniform(0, 100, 6))[::-1],
                           np.sort(rng.uniform(-100, 0, 6))])


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
        np.testing.assert_array_equal(scaler.mins, t.pair_matrix[train].min(axis=0))
        np.testing.assert_array_equal(scaler.maxs, t.pair_matrix[train].max(axis=0))

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


@pytest.fixture
def row_scorer(monkeypatch):
    """Lets ``score_library`` score with a stub: a plain function of one
    scaled row, called row by row in compound order."""
    monkeypatch.setattr(screening, "_score_fn",
                        lambda stub: lambda feats: np.array([float(stub(f)) for f in feats]))


class TestScoreLibrary:
    @pytest.mark.usefixtures("row_scorer")
    def test_constant_scorer_ranks_by_compound_id(self):
        rng = np.random.default_rng(5)
        t = _target(rng, n_act=3, n_dec=5)
        scaler = FeatureScaler(np.full(24, -300.0), np.full(24, 300.0))
        ranked = score_library(lambda f: 1.0, t, scaler)
        ids = [e[0] for e in ranked.entries]
        assert ids == sorted(ids)

    @pytest.mark.usefixtures("row_scorer")
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
            assert score == pytest.approx(ref_nn.forward_batch(mlp, feats)[0])


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
    @pytest.mark.usefixtures("row_scorer")
    def test_order_matches_python_sort(self, ids, scores):
        labels = [i % 2 for i in range(len(ids))]
        ranked = self._ranked_by_stub(ids, scores, labels)
        assert repr(ranked.entries) == repr(self._python_order(ids, scores, labels))

    @pytest.mark.usefixtures("row_scorer")
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
        assert (np.count_nonzero(t.labels == 1), np.count_nonzero(t.labels == 0)) == (1, 1)

    @pytest.mark.usefixtures("row_scorer")
    def test_empty_target(self):
        t = TargetData("t", _vec(np.random.default_rng(17)), [])
        assert t.pair_matrix.shape == (0, 24) and t.ids == []
        assert np.count_nonzero(t.labels == 1) == 0
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
        arrays = screening.pair_arrays

        def recording_pair_arrays(sides, scaler):
            calls["sides"] = sides
            return arrays(sides, scaler)

        def recording_train_adam(mlp, x, y, cfg, balance=False):
            seen.extend(_pair_records(calls["sides"], x, y))
            seen.append(repr(balance).encode())
            return train_adam(mlp, x, y, cfg, balance)

        def recording_score(model, target, scaler):
            ranked = score(model, target, scaler)
            seen.append(b"|")
            seen.extend(ranked.entries)
            return ranked

        monkeypatch.setattr(screening, "pair_arrays", recording_pair_arrays)
        monkeypatch.setattr(ref_nn, "train_adam", recording_train_adam)
        monkeypatch.setattr(screening, "score_library", recording_score)
        _, metrics = per_target_protocol(targets[0],
                                         TrainConfig(epochs=1, batch_size=64, rng_seed=3))
        seen.append(metrics.as_dict())
        assert _digest(seen) == \
            "9117fd83cca7cca3063d4244d84af4919484cc74824d6488ab1a50c0536b626c"

    def test_score_library_entries(self, bench):
        targets, (_, _, scaler) = bench
        mlp = ref_nn.init_mlp(ref_nn.ARCH_SHAPES["48"], "relu", seed=1)
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

    def test_tied_ranks_are_brute_force_midranks(self):
        rng = np.random.default_rng(10)
        for n in (0, 1, 2, 7, 60, 301):
            values = rng.integers(0, 6, n).astype(float)  # few values: heavy ties
            want = [np.count_nonzero(values < v) + (np.count_nonzero(values == v) + 1) / 2
                    for v in values]
            assert screening._tied_ranks(values).tolist() == want

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
        # Training needs one epoch; at learning rate 0 it keeps the initial
        # weights, as zero epochs did.
        rng = np.random.default_rng(12)
        t = _target(rng, n_act=30, n_dec=90)
        cfg = TrainConfig(epochs=1, learning_rate=0.0, rng_seed=3, val_fraction=0.0)
        _, metrics = per_target_protocol(t, cfg)
        assert abs(metrics.auc - 0.5) < 0.35

    def test_validation_rows_are_not_training_rows(self, monkeypatch):
        # Early stopping must watch rows that the net never trains on, so the
        # training side is oversampled only after the validation rows are out.
        t = _target(np.random.default_rng(4), n_act=10, n_dec=100)
        rows = {"train": set(), "val": set()}
        inside = []
        train_adam, loss_and_grads, forward_batch = (
            ref_nn.train_adam, ref_nn.loss_and_grads, ref_nn.forward_batch)

        def recording_train_adam(*args, **kwargs):
            inside.append(True)
            try:
                return train_adam(*args, **kwargs)
            finally:
                inside.pop()

        def recording_loss_and_grads(mlp, x, y):
            rows["train"].update(map(np.ndarray.tobytes, x))
            return loss_and_grads(mlp, x, y)

        def recording_forward_batch(mlp, x):
            if inside:  # inside train_adam, only the validation rows go forward
                rows["val"].update(map(np.ndarray.tobytes, x))
            return forward_batch(mlp, x)

        monkeypatch.setattr(ref_nn, "train_adam", recording_train_adam)
        monkeypatch.setattr(ref_nn, "loss_and_grads", recording_loss_and_grads)
        monkeypatch.setattr(ref_nn, "forward_batch", recording_forward_batch)
        per_target_protocol(t, TrainConfig(epochs=2, batch_size=32, rng_seed=1))
        assert rows["train"] and rows["val"]
        assert not rows["val"] & rows["train"]

    def test_tiny_target_split_error(self):
        rng = np.random.default_rng(12)
        t = _target(rng, n_act=1, n_dec=10)
        with pytest.raises(SplitError):
            per_target_protocol(t, TrainConfig(epochs=1))


def _molecule(mol_id, positions, charges) -> MoleculeTable:
    """One carbon molecule as a one-molecule table."""
    return MoleculeTable([mol_id], np.array([0, len(charges)]),
                         np.asarray(positions, dtype=np.float64),
                         np.asarray(charges, dtype=np.float64), ["C"] * len(charges))


def _tables(*groups):
    """One molecule table per list of one-molecule tables."""
    return [MoleculeTable([m.ids[0] for m in mols], np.cumsum([0] + [len(m.charges) for m in mols]),
                          np.concatenate([np.empty((0, 3))] + [m.positions for m in mols]),
                          np.concatenate([np.empty(0)] + [m.charges for m in mols]),
                          [e for m in mols for e in m.elements]) for mols in groups]


class TestTargetTypes:
    def test_duplicate_ids_across_classes_rejected(self):
        m = _molecule("same", [[0, 0, 0]], [0.1])
        with pytest.raises(ValueError, match="both classes"):
            screening.target_descriptors("t", *_tables([m], [m], [m]))

    def test_descriptor_conversion_counts_failures(self):
        good = _molecule("ok", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5])
        bad = _molecule("bad", [[0, 0, 0], [0, 0, 0]], [0.5, 0.5])
        data = screening.target_descriptors("t", *_tables([good], [good], [bad]))
        assert data.n_skipped == 1
        assert [c[0] for c in data.compounds] == ["ok"]

    def test_failures_warned_in_order_and_cache_kept(self, caplog):
        def pair(mol_id, gap):
            return _molecule(mol_id, [[0, 0, 0], [gap, 0, 0]], [0.5, -0.5])

        crystal = pair("x", 1.0)
        actives = [pair("a0", 0.0), pair("a1", 2.0), pair("a2", 0.0)]
        decoys = [pair("d0", 0.0), pair("d1", 3.0)]
        fake = np.array([0.0] * 6 + [-9.0, 0, 0, 0, 0, 0])
        with caplog.at_level("WARNING", logger="scvs.screening"):
            data = screening.target_descriptors("t", *_tables([crystal], actives, decoys),
                                                cache={"a1": fake})
        assert [c[0] for c in data.compounds] == ["a1", "d1"]
        assert data.compounds[0][1] is fake and data.n_skipped == 3
        assert [r.getMessage().split(":")[1] for r in caplog.records] == [
            " skipping a0", " skipping a2", " skipping d0"]

    def test_failing_crystal_fails_target_before_any_warning(self, caplog):
        crystal = _molecule("x", [[0, 0, 0], [0, 0, 0]], [0.5, 0.5])
        bad = _molecule("b", [[1, 1, 1], [1, 1, 1]], [0.5, 0.5])
        with caplog.at_level("WARNING", logger="scvs.screening"):
            with pytest.raises(ValueError, match="^molecule 'x': atoms 0 and 1 are coincident"):
                screening.target_descriptors("t", *_tables([crystal], [bad], []))
        assert not caplog.records

    def test_only_the_first_crystal_molecule_is_described(self, caplog):
        good = _molecule("x", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5])
        bad = _molecule("y", [[0, 0, 0], [0, 0, 0]], [0.5, 0.5])
        with caplog.at_level("WARNING", logger="scvs.screening"):
            data = screening.target_descriptors("t", *_tables([good, bad], [good], []))
        assert data.crystal.tobytes() == mpe.mpe_vector(good).tobytes()
        assert [r.getMessage() for r in caplog.records] == [
            "target t: crystal ligand file holds 2 molecules; using the first, x"]
        caplog.clear()
        with caplog.at_level("WARNING", logger="scvs.screening"):
            screening.target_descriptors("t", *_tables([good], [good], []))
        assert not caplog.records
        with pytest.raises(ValueError, match="crystal ligand file is empty"):
            screening.target_descriptors("t", *_tables([], [good], []))

    def test_cache_lookup_used(self):
        m = _molecule("m1", [[0, 0, 0], [1, 0, 0]], [0.5, -0.5])
        fake = np.array([9.0, 0, 0, 0, 0, 0] + [0.0] * 6)
        data = screening.target_descriptors("t", *_tables([m], [m], []), cache={"m1": fake})
        assert data.crystal[0] == 9.0


def _per_compound_benchmark(seed, n_targets, n_actives, n_decoys):
    """The synthetic benchmark drawn one compound at a time: per target its
    center (six positive, then six negative uniforms), the crystal and each
    active (twelve normals), then each decoy (six positive, then six
    negative uniforms).  Returns (target_id, crystal, compounds) triples."""
    def row(pos, neg):
        return np.concatenate([np.sort(np.maximum(pos, 1.0))[::-1],
                               np.sort(np.minimum(neg, -1.0))])

    rng = np.random.default_rng(seed)
    targets = []
    for t in range(n_targets):
        center = np.concatenate([np.sort(rng.uniform(*synth.POS_RANGE, size=6))[::-1],
                                 np.sort(rng.uniform(*synth.NEG_RANGE, size=6))])

        def active():
            noisy = center + rng.normal(0.0, synth.ACTIVE_NOISE, size=12)
            return row(noisy[:6], noisy[6:])

        tid = f"synt{t:02d}"
        crystal = active()
        compounds = [(f"{tid}_a{i:03d}", active(), 1) for i in range(n_actives)]
        compounds += [(f"{tid}_d{i:03d}", row(rng.uniform(*synth.POS_RANGE, size=6),
                                              rng.uniform(*synth.NEG_RANGE, size=6)), 0)
                      for i in range(n_decoys)]
        targets.append((tid, crystal, compounds))
    return targets


class TestSyntheticBenchmark:
    def test_deterministic(self):
        a = synth.make_benchmark(seed=3, n_targets=2, n_actives=5, n_decoys=7)
        b = synth.make_benchmark(seed=3, n_targets=2, n_actives=5, n_decoys=7)
        for ta, tb in zip(a, b):
            assert ta.target_id == tb.target_id
            np.testing.assert_array_equal(ta.crystal, tb.crystal)
            for (ida, va, la), (idb, vb, lb) in zip(ta.compounds, tb.compounds):
                assert (ida, la) == (idb, lb)
                np.testing.assert_array_equal(va, vb)

    def test_counts_and_classes(self):
        targets = synth.make_benchmark(seed=4, n_targets=3, n_actives=6, n_decoys=9)
        assert len(targets) == 3
        for t in targets:
            assert np.count_nonzero(t.labels == 1) == 6 and np.count_nonzero(t.labels == 0) == 9

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    def test_every_row_is_a_descriptor(self, seed):
        for t in synth.make_benchmark(seed=seed):
            rows = np.array([t.crystal] + [v for _, v, _ in t.compounds])
            assert rows.shape == (361, 12) and rows.dtype == np.float64
            assert mpe._rows_valid(rows)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 7, 11)], ids=["1-1-1", "3-7-11"])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_equals_per_compound_draws(self, seed, sizes):
        got = synth.make_benchmark(seed, *sizes)
        want = _per_compound_benchmark(seed, *sizes)
        assert len(got) == len(want)
        for t, (tid, crystal, compounds) in zip(got, want):
            assert t.target_id == tid and t.crystal.tobytes() == crystal.tobytes()
            assert [(cid, label) for cid, _, label in t.compounds] == \
                [(cid, label) for cid, _, label in compounds]
            assert all(v.tobytes() == w.tobytes()
                       for (_, v, _), (_, w, _) in zip(t.compounds, compounds))

    def test_realized_molecule_reproduces_descriptor(self):
        targets = synth.make_benchmark(seed=8, n_targets=1, n_actives=2, n_decoys=2)
        for cid, vec, _ in targets[0].compounds:
            mol = synth.realize_molecule(vec, cid)
            back = mpe.mpe_vector(mol)
            np.testing.assert_allclose(back, vec, rtol=1e-3, atol=0.02)


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
