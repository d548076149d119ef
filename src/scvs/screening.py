"""Virtual-screening protocol and metrics.

A target couples one crystal ligand with a library of actives and decoys;
every library compound is paired with the crystal ligand and scored by a
network, and the ranked list is summarized by ROC AUC (tie-corrected rank
statistic) and enrichment factors EF(x%) = TP(x%) * 100 / (x * P), the
actives recovered in the top x% relative to chance.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import mpe, ref_nn, sc_nn
from .mpe import FeatureScaler
from .ref_nn import Mlp, TrainConfig

log = logging.getLogger(__name__)

EF_LEVELS = (1, 5, 10)
# The threshold table's buckets, each named by its test: lt_t counts the
# targets with AUC < t, ge_t those with AUC >= t.
AUC_BUCKETS = ("lt_0.5", "ge_0.6", "ge_0.7", "ge_0.8", "ge_0.9", "ge_0.95")


class UndefinedMetric(ValueError):
    """Metric has no value for this input (single-class list, empty window)."""


class SplitError(ValueError):
    """A requested split leaves a class or a side empty."""


@dataclass
class TargetData:
    """Descriptor-level view: what scoring and training actually consume.

    Descriptors are (12,) float64 rows.  Built once from ``compounds``: the
    ``ids`` (Python strings, whose order ranks ties), the int ``labels`` and
    the raw ``(n, 24)`` ``pair_matrix``, each row the crystal ligand's 12
    features then the compound's."""

    target_id: str
    crystal: np.ndarray
    compounds: list  # (compound_id, descriptor row, label)
    n_skipped: int = 0
    ids: list = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    pair_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ids = [c[0] for c in self.compounds]
        self.labels = np.array([c[2] for c in self.compounds], dtype=int)
        rows = np.array([c[1] for c in self.compounds]).reshape(-1, 12)
        self.pair_matrix = np.hstack([np.broadcast_to(self.crystal, rows.shape), rows])


def target_descriptors(target_id: str, crystal: mpe.MoleculeTable, actives: mpe.MoleculeTable,
                       decoys: mpe.MoleculeTable, k: float = mpe.DEFAULT_K,
                       cache: dict | None = None) -> TargetData:
    """Descriptors of one target's molecules: the first molecule of the
    ``crystal`` table, then every one of ``actives`` and ``decoys``.  Each
    id is looked up in the cache first, and only the ids it lacks are
    described.  An id among both the actives and the decoys fails the
    target.  Per-compound failures are skipped with a warning and counted,
    a failing crystal ligand, or none, fails the target."""
    if not len(crystal):
        raise ValueError(f"target {target_id}: crystal ligand file is empty")
    if len(crystal) > 1:
        log.warning("target %s: crystal ligand file holds %d molecules; using the first, %s",
                    target_id, len(crystal), crystal.ids[0])
    dup = set(actives.ids) & set(decoys.ids)
    if dup:
        raise ValueError(f"target {target_id}: ids in both classes: {sorted(dup)[:5]}")

    cache = cache or {}
    vectors = []
    for table, n in ((crystal, 1), (actives, len(actives)), (decoys, len(decoys))):
        found = list(map(cache.get, table.ids[:n]))
        missing = [i for i, v in enumerate(found) if v is None]
        computed = iter(mpe.mpe_vectors(table, k, missing) if missing else ())
        vectors += [next(computed) if v is None else v for v in found]
    if isinstance(vectors[0], ValueError):
        raise vectors[0]
    compounds = []
    labels = [1] * len(actives) + [0] * len(decoys)
    for mol_id, vec, label in zip(actives.ids + decoys.ids, vectors[1:], labels):
        if isinstance(vec, ValueError):
            log.warning("target %s: skipping %s: %s", target_id, mol_id, vec)
        else:
            compounds.append((mol_id, vec, label))
    return TargetData(target_id, vectors[0], compounds, n_skipped=len(labels) - len(compounds))


@dataclass
class SplitSpec:
    active_fraction: float = 0.5
    decoy_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for f in (self.active_fraction, self.decoy_fraction):
            if not 0 < f <= 1:
                raise ValueError(f"split fraction {f} outside (0, 1]")
        if self.seed < 0:
            raise ValueError(f"split seed must be >= 0, got {self.seed}")


def _target_rng(seed: int, target_id: str) -> np.random.Generator:
    # Stable per-target substream regardless of target ordering.
    return np.random.default_rng([seed, zlib.crc32(target_id.encode())])


def _split(target: TargetData, rng: np.random.Generator, fractions) -> tuple:
    """Train and test index arrays of one target: a seeded sample of each
    class's pool (actives at ``fractions[0]``, then decoys at ``fractions[1]``)
    trains, the rest tests; each side lists the actives' pool first, then
    the decoys', each in compound order."""
    train, test = [], []
    for label, frac in zip((1, 0), fractions):
        pool = np.flatnonzero(target.labels == label)
        picks = pool[rng.choice(len(pool), size=round(frac * len(pool)), replace=False)]
        train.append(np.sort(picks))
        test.append(np.setdiff1d(pool, picks))
    return np.concatenate(train), np.concatenate(test)


def pair_arrays(sides, scaler: FeatureScaler) -> tuple:
    """``(x, y)`` of the (target, indices) sides: the scaled pair rows of
    every index, stacked side after side, and their labels."""
    x = np.vstack([target.pair_matrix[idx] for target, idx in sides])
    return scaler.transform(x), np.concatenate([target.labels[idx] for target, idx in sides])


def build_split(targets, spec: SplitSpec):
    """Per target, a seeded sample of actives and decoys goes to the training
    side (paired with the crystal ligand); everything else is test.  The
    feature scaler is fitted on the training rows.
    Returns (train, test, scaler), each side a list of (target, indices)
    pairs indexing ``target.compounds`` and ``target.pair_matrix``."""
    fractions = (spec.active_fraction, spec.decoy_fraction)
    train, test = [], []
    for t in targets:
        t_train, t_test = _split(t, _target_rng(spec.seed, t.target_id), fractions)
        for label, frac in zip((1, 0), fractions):
            if not np.any(t.labels[t_train] == label):
                raise SplitError(
                    f"target {t.target_id}: no {'actives' if label else 'decoys'} "
                    f"left for training at fraction {frac}")
        train.append((t, t_train))
        test.append((t, t_test))
    if not any(len(idx) for _, idx in test):
        raise SplitError("test set is empty; lower the split fractions")
    scaler = FeatureScaler.fit(np.vstack([t.pair_matrix[idx] for t, idx in train]))
    return train, test, scaler


# ---------------------------------------------------------------------------
# Scoring


@dataclass
class RankedList:
    """Library compounds of one target, sorted by score descending; ties
    break on compound id for reproducibility.  ``scores`` and ``labels``
    are the entries' columns as arrays, built once."""

    target_id: str
    entries: list  # (compound_id, score, label)
    scores: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scores = np.array([e[1] for e in self.entries], dtype=np.float64)
        self.labels = np.array([e[2] for e in self.entries], dtype=int)


def _score_fn(model):
    if isinstance(model, Mlp):
        return lambda feats: ref_nn.forward_batch(model, feats)
    if isinstance(model, sc_nn.ScNetwork):
        return lambda feats: model.simulator().infer_many(feats)
    raise TypeError(f"cannot score with {type(model).__name__}")


def score_library(model, target: TargetData, scaler: FeatureScaler) -> RankedList:
    """Score every library compound paired with the crystal ligand."""
    # one elementwise transform of the whole target: the same bytes as row by row
    scores = (_score_fn(model)(scaler.transform(target.pair_matrix)) if target.ids
              else np.empty(0))
    # Descending score, ties in Python string order of the id: a stable sort
    # by id, then a stable sort of that order by score.
    by_id = np.argsort(np.array(target.ids, dtype=object), kind="stable")
    order = by_id[np.argsort(-scores[by_id], kind="stable")].tolist()
    labels = target.labels.tolist()
    entries = [(target.ids[i], float(scores[i]), labels[i]) for i in order]
    return RankedList(target.target_id, entries)


# ---------------------------------------------------------------------------
# Metrics


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tie group sharing the mean of its
    ranks (midranks)."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # group g holds sorted positions bounds[g]:bounds[g + 1]
    bounds = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1], True])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((bounds[:-1] + 1 + bounds[1:]) / 2.0, np.diff(bounds))
    return ranks


def auc(ranked: RankedList) -> float:
    """ROC AUC via the Mann-Whitney rank statistic, ties counting one half."""
    labels = ranked.labels
    p = int(labels.sum())
    n_neg = len(labels) - p
    if p == 0 or n_neg == 0:
        raise UndefinedMetric(f"target {ranked.target_id}: AUC needs both classes")
    ranks = _tied_ranks(ranked.scores)
    r_pos = ranks[labels == 1].sum()
    return (r_pos - p * (p + 1) / 2.0) / (p * n_neg)


def enrichment_factor(ranked: RankedList, x_percent: float) -> float:
    """Actives found in the top x% of the ranking, relative to chance."""
    if not 0 < x_percent <= 100:
        raise ValueError(f"x_percent {x_percent} outside (0, 100]")
    labels = ranked.labels
    p = int(labels.sum())
    if p < 1:
        raise UndefinedMetric(f"target {ranked.target_id}: EF needs at least one active")
    n_top = int(np.ceil(x_percent / 100.0 * len(labels)))
    if n_top == 0:
        raise UndefinedMetric("empty top window")
    tp = int(labels[:n_top].sum())
    return tp * 100.0 / (x_percent * p)


@dataclass
class Metrics:
    auc: float
    ef: dict
    n_actives: int
    n_total: int

    def as_dict(self) -> dict:
        return {
            "auc": round(self.auc, 4),
            "ef": {str(k): round(v, 4) for k, v in self.ef.items()},
            "n_actives": self.n_actives,
            "n_total": self.n_total,
        }


def compute_metrics(ranked: RankedList) -> Metrics:
    return Metrics(
        auc=auc(ranked),
        ef={x: enrichment_factor(ranked, x) for x in EF_LEVELS},
        n_actives=int(ranked.labels.sum()),
        n_total=len(ranked.labels),
    )


def threshold_table(per_target_aucs) -> dict:
    """Percentage of targets under/over the standard AUC thresholds."""
    aucs = np.asarray(list(per_target_aucs), dtype=np.float64)
    if aucs.size == 0:
        raise UndefinedMetric("threshold table needs at least one target")
    pct = lambda mask: int(round(100.0 * mask.sum() / aucs.size))
    return {name: pct(aucs < float(t) if op == "lt" else aucs >= float(t))
            for name in AUC_BUCKETS for op, t in [name.split("_")]}


# ---------------------------------------------------------------------------
# Per-target protocol (specific training per target, 80/20 with oversampling)

PER_TARGET_TRAIN_FRACTION = 0.8


def per_target_protocol(target: TargetData, cfg: TrainConfig, shape=None):
    """Seeded stratified 80/20 split, one model trained for this target
    alone on the training side (oversampled once its validation rows are
    out), metrics on the held-out 20%."""
    shape = shape or ref_nn.ARCH_SHAPES["64"]
    rng = _target_rng(cfg.rng_seed, target.target_id)
    train, test = _split(target, rng, (PER_TARGET_TRAIN_FRACTION,) * 2)
    if any(np.unique(target.labels[side]).size < 2 for side in (train, test)):
        raise SplitError(
            f"target {target.target_id}: cannot hold both classes on both "
            f"sides of the {PER_TARGET_TRAIN_FRACTION:.0%} split")
    scaler = FeatureScaler.fit(target.pair_matrix[train])
    x, y = pair_arrays([(target, train)], scaler)
    mlp, _ = ref_nn.train_adam(ref_nn.init_mlp(shape, "tanh", seed=cfg.rng_seed), x, y, cfg,
                               balance=True)
    test_target = TargetData(target.target_id, target.crystal, [target.compounds[i] for i in test])
    return mlp, compute_metrics(score_library(mlp, test_target, scaler))


# ---------------------------------------------------------------------------
# Aggregation and published comparison constants


def aggregate_metrics(per_target: dict) -> dict:
    """Unweighted mean/std over targets of AUC and the EF levels."""
    aucs = np.array([m.auc for m in per_target.values()])
    out = {
        "n_targets": len(per_target),
        "auc_mean": round(float(aucs.mean()), 4),
        "auc_std": round(float(aucs.std()), 4),
        "threshold_table": threshold_table(aucs),
    }
    for x in EF_LEVELS:
        efs = np.array([m.ef[x] for m in per_target.values()])
        out[f"ef{x}_mean"] = round(float(efs.mean()), 4)
        out[f"ef{x}_std"] = round(float(efs.std()), 4)
    return out


# Published DUD-E results, echoed verbatim in comparison output so a user
# running the full corpus can put local numbers side by side.  These are
# literature constants, never claimed as reproduced by this package; the
# speed/energy columns in particular are platform measurements.
PUBLISHED_BASELINES = {
    "sw64-published": {"auc": 0.83, "ef1": 20.71, "ef5": 9.08, "ef10": 5.63,
                       "speed_inf_s": 31616, "energy_inf_j": 333},
    "hw48-published": {"auc": 0.76, "ef1": 15.07, "ef5": 6.69, "ef10": 4.42,
                       "speed_inf_s": 72727, "energy_inf_j": 3463},
    "esim-pscreen": {"auc": 0.76, "speed_inf_s": 12.3},
    "esim-pfast": {"auc": 0.74, "speed_inf_s": 61.2},
    "esim-pfastf": {"auc": 0.71, "speed_inf_s": 274.9},
    "mraise": {"auc": 0.74, "ef1": 23.45, "ef5": 7.78, "ef10": 4.69},
}

PUBLISHED_THRESHOLD_ROWS = {
    "sw64-published": {"lt_0.5": 0, "ge_0.6": 96, "ge_0.7": 85, "ge_0.8": 61,
                       "ge_0.9": 29, "ge_0.95": 15},
    "hw48-published": {"lt_0.5": 1, "ge_0.6": 86, "ge_0.7": 63, "ge_0.8": 38,
                       "ge_0.9": 16, "ge_0.95": 8},
    "esim-pscreen": {"lt_0.5": 5, "ge_0.6": 81, "ge_0.7": 69, "ge_0.8": 43,
                     "ge_0.9": 17, "ge_0.95": 8},
}

PUBLISHED_PER_TARGET_ROWS = {
    "sw64-published": {"auc_mean": 0.94, "auc_std": 0.048, "ef1_mean": 30.14, "ef1_std": 6.95},
    "nn500-published": {"auc_mean": 0.95, "auc_std": 0.33, "ef1_mean": 37.3, "ef1_std": 14.7},
}

REPRODUCIBILITY_NOTE = (
    "Published DUD-E absolute figures (generic AUC 0.83/0.76, EF1% 20.71, the "
    "threshold rows and the 0.94 +/- 0.048 per-target row) require the full "
    "DUD-E corpus and full-scale training; they are echoed here as literature "
    "constants for side-by-side comparison, not reproduced at desk scale. "
    "Speed and energy columns are hardware-platform measurements and are out "
    "of scope entirely."
)
