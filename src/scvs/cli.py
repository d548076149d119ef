"""Command-line surface for the screening pipeline.

Subcommands: descriptors, train, quantize, evaluate, compare, per-target,
sc-bench, make-bench.  Configuration comes from a plain key=value file plus
flag overrides (flags win); every randomized step draws from seeds recorded
in the outputs, so any command rerun with the same config reproduces its
output files byte for byte.  Throughput is measured per run and therefore
reported on stdout and in an optional sidecar, never inside the report.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from . import mpe, ref_nn, sc_core, sc_nn, screening, synth
from .mpe import FeatureScaler, MoleculeParseError
from .ref_nn import NumericFailure, TrainConfig
from .sc_core import GateKind
from .screening import EF_LEVELS, SplitSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# Exit code of each error kind; an error takes the row of its most specific
# class, so a MoleculeParseError (a ValueError) exits 2.
EXIT_CODES = {OSError: EXIT_IO, MoleculeParseError: EXIT_IO,
              NumericFailure: EXIT_NUMERIC, ValueError: EXIT_VALIDATION}


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejected command line raises
    ValidationError, so it exits 1 like any other validation error and
    prints no usage text; its subparsers are of this class too."""

    def error(self, message):
        raise ValidationError(message)


def _setting(default, *commands):
    """A RunConfig field that ``commands`` take as ``--dashed-name``, typed
    by its default."""
    return field(default=default, metadata={"commands": commands})


_SC = ("quantize", "sc-bench")  # the subcommands that build SC streams
_SPLIT, _TRAIN = SplitSpec(), TrainConfig()  # the library's defaults


@dataclass
class RunConfig:
    """Resolved run parameters.  The train log records the split and
    training settings, the per-target report the training settings (an SC
    model file records its own); K and the LFSR polynomials are constants
    (``mpe.DEFAULT_K``, ``sc_core.MAXIMAL_TAPS``)."""

    width: int = _setting(sc_core.DEFAULT_WIDTH, *_SC)
    stream_len: int = _setting(sc_nn.DEFAULT_STREAM_LEN, *_SC)
    seed1: int = _setting(sc_nn.DEFAULT_SEEDS[0], *_SC)
    seed2: int = _setting(sc_nn.DEFAULT_SEEDS[1], *_SC)
    active_fraction: float = _setting(_SPLIT.active_fraction, "train")
    decoy_fraction: float = _setting(_SPLIT.decoy_fraction, "train")
    split_seed: int = _setting(_SPLIT.seed, "train")
    learning_rate: float = _setting(_TRAIN.learning_rate, "train")
    epochs: int = _setting(_TRAIN.epochs, "train", "per-target")
    batch_size: int = _setting(_TRAIN.batch_size, "train", "per-target")
    train_seed: int = _setting(_TRAIN.rng_seed, "train", "per-target")
    val_fraction: float = _setting(_TRAIN.val_fraction, "train")
    patience: int = _setting(_TRAIN.patience, "train")
    data_dir: str = ""
    models_dir: str = ""
    reports_dir: str = ""

    def validate(self):
        sc_core.check_width(self.width)
        if self.stream_len < 1:
            raise ValidationError("stream_len must be >= 1")
        for name in ("data_dir", "models_dir", "reports_dir"):
            value = getattr(self, name)
            if value and not Path(value).is_dir():
                raise ValidationError(f"{name} {value!r} is not a directory")
        return self

    def lfsrs(self) -> tuple:
        """The generator pair (R1, R2)."""
        return (sc_nn.generator(self.width, 0, self.seed1),
                sc_nn.generator(self.width, 1, self.seed2))

    def recorded(self, names) -> dict:
        """The settings ``names``, as an output records them."""
        return {name: getattr(self, name) for name in names}

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.active_fraction, self.decoy_fraction, self.split_seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, epochs=self.epochs,
            batch_size=self.batch_size, rng_seed=self.train_seed,
            val_fraction=self.val_fraction, patience=self.patience)


# The settings that split_spec and train_config read.
_SPLIT_SETTINGS = ("active_fraction", "decoy_fraction", "split_seed")
_TRAIN_SETTINGS = ("learning_rate", "epochs", "batch_size", "train_seed", "val_fraction", "patience")

_ENV_PATH_KEYS = {"data_dir": "SCVS_DATA_DIR", "models_dir": "SCVS_MODELS_DIR",
                  "reports_dir": "SCVS_REPORTS_DIR"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """defaults < config file < environment (paths only) < explicit flags."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{p}: {exc}") from None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{p}:{line_no}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            values[key] = value
    for key, env in _ENV_PATH_KEYS.items():
        if env in os.environ:
            values[key] = os.environ[env]
    values.update({k: v for k, v in overrides.items() if v is not None})

    cfg = RunConfig()
    valid = {f.name for f in fields(RunConfig)}
    for key, value in values.items():
        if key not in valid:
            raise ValidationError(f"unknown config key {key!r}")
        current = getattr(cfg, key)
        try:
            setattr(cfg, key, type(current)(value))
        except ValueError:
            raise ValidationError(f"config key {key}: cannot parse {value!r}") from None
    return cfg.validate()


def _resolve(path: str, base: str) -> Path:
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _output(path: str, base: str) -> Path:
    """An output flag's path, resolved against ``base``, with its parent
    directory created."""
    out = _resolve(path, base)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"file not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Target loading


def load_manifest(path: Path) -> list:
    doc = ref_nn.read_json(_require_file(path))
    entries = ref_nn.require_fields(doc, {"targets": object}, path)["targets"]
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: targets must be a list of target entries")
    seen = set()
    for i, e in enumerate(entries):
        ref_nn.require_fields(e, {"target_id": str, "crystal_ligand": str, "actives": str,
                                  "decoys": str}, path, f"manifest entry {i} ")
        if e["target_id"] in seen:
            raise ValidationError(f"{path}: manifest entry {i} repeats target_id "
                                  f"{e['target_id']!r}")
        seen.add(e["target_id"])
    return entries


def load_targets(manifest_path: Path, cache: dict | None, k: float):
    """Descriptor-level targets; failing targets are collected, not fatal."""
    targets, failures = [], []
    for entry in load_manifest(manifest_path):
        tid = entry["target_id"]
        try:
            tables = [mpe.parse_molecules(_require_file(Path(entry[key])))
                      for key in ("crystal_ligand", "actives", "decoys")]
            targets.append(screening.target_descriptors(tid, *tables, k, cache))
        except (OSError, ValueError) as exc:
            failures.append({"target_id": tid, "error": str(exc)})
    return targets, failures


def _command_targets(args, cfg: RunConfig):
    """``load_targets`` over a subcommand's --manifest and optional --cache."""
    cache = mpe.read_descriptor_cache(_require_file(_resolve(args.cache, cfg.data_dir))) \
        if args.cache else None
    return load_targets(_resolve(args.manifest, cfg.data_dir), cache, mpe.DEFAULT_K)


def load_model(path: Path):
    doc = ref_nn.read_json(_require_file(path))
    kind = ref_nn.require_fields(doc, {}, path).get("kind")
    build = {"mlp": ref_nn.build_mlp, "sc_network": sc_nn.build_sc_network}.get(kind)
    if build is None:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    return build(doc, path)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_descriptors(args, cfg: RunConfig) -> int:
    errors, entries, written = [], [], set()
    for name in args.inputs:
        path = _resolve(name, cfg.data_dir)
        try:
            table = mpe.parse_molecules(_require_file(path))
        except (OSError, MoleculeParseError) as exc:  # their messages name the file
            errors.append(str(exc))
            continue
        for mol_id, v in zip(table.ids, mpe.mpe_vectors(table)):
            if mol_id in written:  # a cache holds each id once
                v = ValueError(f"molecule {mol_id!r}: id already written")
            if isinstance(v, ValueError):
                errors.append(f"{path}: {v}")
            else:
                entries.append((mol_id, v))
                written.add(mol_id)
    out = _output(args.out, cfg.data_dir)
    mpe.write_descriptor_cache(out, entries)
    print(f"wrote {len(entries)} descriptor rows to {out}")
    if args.scatter:
        scatter = _output(args.scatter, cfg.data_dir)
        mpe.write_scatter_csv(scatter, entries)
        print(f"wrote scatter data for {len(entries)} molecules to {scatter}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_IO if errors else EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    targets, failures = _command_targets(args, cfg)
    if failures:
        for f in failures:
            print(f"error: target {f['target_id']}: {f['error']}", file=sys.stderr)
        return EXIT_IO
    if not targets:
        raise ValidationError("manifest holds no usable targets")

    train, test, scaler = screening.build_split(targets, cfg.split_spec())
    x, y = screening.pair_arrays(train, scaler)
    shape = ref_nn.ARCH_SHAPES[args.arch]
    config = cfg.train_config()  # checked before the seed reaches init_mlp
    mlp, history = ref_nn.train_adam(
        ref_nn.init_mlp(shape, args.activation, seed=config.rng_seed), x, y, config)

    out = _output(args.out, cfg.models_dir)
    ref_nn.save_mlp(mlp, out)
    scaler.save(_output(args.scaler_out, cfg.models_dir))
    log_doc = {
        "config": cfg.recorded(_SPLIT_SETTINGS + _TRAIN_SETTINGS),
        "arch": args.arch,
        "shape": shape,
        "activation": args.activation,
        "n_train_pairs": len(y),
        "n_test_pairs": sum(len(idx) for _, idx in test),
        "train_loss": history["train_loss"],
        "val_loss": history["val_loss"],
        "stopped_epoch": history["stopped_epoch"],
    }
    ref_nn.write_json(log_doc, _output(args.log_out, cfg.models_dir))
    if args.features_out:
        ref_nn.write_csv(_output(args.features_out, cfg.models_dir),
                         ([format(v, ".9g") for v in row] for row in x))
    print(f"trained {args.activation} [{'-'.join(map(str, shape[1:]))}] on "
          f"{len(y)} pairs; model -> {out}")
    return EXIT_OK


def cmd_quantize(args, cfg: RunConfig) -> int:
    mlp = load_model(_resolve(args.model, cfg.models_dir))
    if not isinstance(mlp, ref_nn.Mlp):
        raise ValidationError(f"{args.model}: quantize expects a float-network file")
    calib = None
    if args.calib:
        path = _require_file(_resolve(args.calib, cfg.models_dir))
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.simplefilter("ignore", UserWarning)
                calib = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        if not calib.size:
            raise ValidationError(f"{path}: calibration file holds no rows")
        if calib.shape[1] != mlp.shape[0]:
            raise ValidationError(f"{path}: calibration rows hold {calib.shape[1]} values; "
                                  f"the model takes {mlp.shape[0]} inputs")
        if not np.all(np.isfinite(calib)):
            # numbered from 0, as numpy numbers the rows it cannot convert
            row, col = np.argwhere(~np.isfinite(calib))[0]
            raise ValidationError(f"{path}: non-finite value {calib[row, col]} at row {row}, "
                                  f"column {col}")
    lfsr1, lfsr2 = cfg.lfsrs()
    net = sc_nn.quantize_weights(mlp, width=cfg.width, stream_len=cfg.stream_len,
                                 lfsr1=lfsr1, lfsr2=lfsr2, use_bias=not args.no_bias,
                                 calib=calib)
    out = _output(args.out, cfg.models_dir)
    sc_nn.save_sc_network(net, out)
    print(f"quantized to {cfg.width}-bit words, stream {cfg.stream_len}; "
          f"shifts {[l.norm_shift for l in net.layers]}; model -> {out}")
    return EXIT_OK


def _evaluate_targets(model, targets, scaler):
    t0 = time.perf_counter()
    ranked_lists = [screening.score_library(model, t, scaler) for t in targets]
    elapsed = time.perf_counter() - t0
    per_target, metric_failures = {}, []
    for t, ranked in zip(targets, ranked_lists):
        try:
            per_target[t.target_id] = screening.compute_metrics(ranked)
        except screening.UndefinedMetric as exc:
            metric_failures.append({"target_id": t.target_id, "error": str(exc)})
    inferences = sum(len(ranked.entries) for ranked in ranked_lists)
    return per_target, metric_failures, inferences, elapsed


def cmd_evaluate(args, cfg: RunConfig) -> int:
    path = _resolve(args.model, cfg.models_dir)
    model = load_model(path)
    if model.shape[0] != 24:
        raise ValidationError(f"{path}: the model takes {model.shape[0]} inputs; "
                              f"a descriptor pair has 24")
    scaler = FeatureScaler.load(_require_file(_resolve(args.scaler, cfg.models_dir)))
    targets, failures = _command_targets(args, cfg)
    if not targets:
        raise ValidationError("no usable targets to evaluate")
    per_target, metric_failures, inferences, elapsed = _evaluate_targets(model, targets, scaler)

    report = {
        "model": str(args.model),
        "model_kind": "sc_network" if isinstance(model, sc_nn.ScNetwork) else "mlp",
        "targets": {tid: m.as_dict() for tid, m in per_target.items()},
        "skipped_compounds": {t.target_id: t.n_skipped for t in targets
                              if t.n_skipped and t.target_id in per_target},
        "failed_targets": failures + metric_failures,
        "aggregate": screening.aggregate_metrics(per_target) if per_target else {},
        "published_baselines": screening.PUBLISHED_BASELINES,
        "published_threshold_rows": screening.PUBLISHED_THRESHOLD_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    report_path = _output(args.report, cfg.reports_dir)
    ref_nn.write_json(report, report_path)
    if args.csv:
        ref_nn.write_csv(_output(args.csv, cfg.reports_dir), [
            ["target", "auc", *(f"ef{x}" for x in EF_LEVELS)],
            *([tid] + [format(v, ".4f") for v in (m.auc, *(m.ef[x] for x in EF_LEVELS))]
              for tid, m in sorted(per_target.items()))])
    throughput = inferences / elapsed if elapsed > 0 else float("inf")
    print(f"evaluated {len(per_target)} targets, {inferences} inferences "
          f"at {throughput:.0f} inf/s; report -> {report_path}")
    if args.timing_out:
        ref_nn.write_json({"inferences": inferences, "seconds": elapsed,
                           "inferences_per_second": throughput},
                          _output(args.timing_out, cfg.reports_dir))
    for f in failures + metric_failures:
        print(f"warning: target {f['target_id']} not scored: {f['error']}", file=sys.stderr)
    return EXIT_OK


def _load_report(path: Path) -> dict:
    """An evaluate report whose every target entry holds a numeric ``auc``."""
    doc = ref_nn.require_fields(ref_nn.read_json(_require_file(path)), {"targets": dict}, path)
    for tid, entry in doc["targets"].items():
        ref_nn.require_fields(entry, {"auc": float}, path, f"target {tid!r} ")
    return doc


def cmd_compare(args, cfg: RunConfig) -> int:
    a, b = (_load_report(_resolve(name, cfg.reports_dir))
            for name in (args.report_a, args.report_b))
    shared = sorted(set(a["targets"]) & set(b["targets"]),
                    key=lambda tid: (-a["targets"][tid]["auc"], tid))
    per_target = [
        {
            "target_id": tid,
            "auc_a": a["targets"][tid]["auc"],
            "auc_b": b["targets"][tid]["auc"],
            "delta": round(a["targets"][tid]["auc"] - b["targets"][tid]["auc"], 4),
        }
        for tid in shared
    ]
    out_doc = {
        "report_a": str(args.report_a),
        "report_b": str(args.report_b),
        "per_target_sorted_by_a": per_target,
        "aggregate_a": a.get("aggregate", {}),
        "aggregate_b": b.get("aggregate", {}),
        "published_baselines": screening.PUBLISHED_BASELINES,
        "published_threshold_rows": screening.PUBLISHED_THRESHOLD_ROWS,
        "published_per_target_rows": screening.PUBLISHED_PER_TARGET_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    out = _output(args.out, cfg.reports_dir)
    ref_nn.write_json(out_doc, out)
    if args.csv:
        ref_nn.write_csv(_output(args.csv, cfg.reports_dir), [
            ["target", "auc_a", "auc_b", "delta"],
            *([row["target_id"], row["auc_a"], row["auc_b"], row["delta"]]
              for row in per_target)])
    print(f"compared {len(per_target)} shared targets; -> {out}")
    return EXIT_OK


def cmd_per_target(args, cfg: RunConfig) -> int:
    targets, failures = _command_targets(args, cfg)
    if not targets:
        raise ValidationError("no usable targets")
    shape = ref_nn.ARCH_SHAPES[args.arch]
    rows = {}
    for t in targets:
        try:
            _, metrics = screening.per_target_protocol(t, cfg.train_config(), shape)
            rows[t.target_id] = metrics
        except (screening.SplitError, screening.UndefinedMetric, ValueError) as exc:
            failures.append({"target_id": t.target_id, "error": str(exc)})
    if not rows:
        raise ValidationError("per-target protocol failed on every target")
    aggregate = screening.aggregate_metrics(rows)
    report = {
        "config": cfg.recorded(_TRAIN_SETTINGS),
        "arch": args.arch,
        "targets": {tid: m.as_dict() for tid, m in rows.items()},
        "failed_targets": failures,
        "aggregate": {key: aggregate[key] for key in ("auc_mean", "auc_std",
                                                      "ef1_mean", "ef1_std")},
        "published_per_target_rows": screening.PUBLISHED_PER_TARGET_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    out = _output(args.out, cfg.reports_dir)
    ref_nn.write_json(report, out)
    print(f"per-target protocol on {len(rows)} targets: AUC "
          f"{report['aggregate']['auc_mean']} +/- {report['aggregate']['auc_std']}; "
          f"-> {out}")
    return EXIT_OK


def cmd_sc_bench(args, cfg: RunConfig) -> int:
    if not 0.01 <= args.step <= 2.0:
        raise ValidationError(f"grid step {args.step} outside [0.01, 2.0]")
    n = cfg.stream_len
    grid = np.round(np.arange(-1.0, 1.0001, args.step), 6)
    words = sc_core.encode_array(grid, cfg.width)
    s1, s2 = (sc_core.comparator_streams(words, lfsr.word_sequence(n), n) for lfsr in cfg.lfsrs())
    xs, ys = np.meshgrid(grid, grid, indexing="ij")
    rows = []
    worst = {}
    for kind in GateKind:
        # the second input's generator, and the correlation the regime is named for
        for regime, streams, nominal in (("uncorrelated", s2, 0.0), ("correlated", s1, 1.0)):
            z, c, formula = sc_core.gate_sweep(kind, s1, streams, n)
            c_text = ["undefined" if np.isnan(v) else format(v, ".6f") for v in c.ravel().tolist()]
            rows += zip(repeat(kind.name), repeat(regime), xs.ravel().tolist(),
                        ys.ravel().tolist(), c_text, z.ravel().tolist(), formula.ravel().tolist())
            if kind is GateKind.XNOR or regime == "correlated":
                ideal = sc_core.gate_law(kind, xs, ys, nominal)
                worst[kind.name, regime] = float(np.max(np.abs(z - ideal)))
    out = _output(args.out, cfg.reports_dir)
    ref_nn.write_csv(out, [["gate", "regime", "x", "y", "C_measured", "z_measured", "z_formula"],
                           *rows])
    for (gate, regime), err in sorted(worst.items()):
        print(f"{gate:4s} {regime}: max |measured - ideal| = {err:.6f}")
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_make_bench(args, cfg: RunConfig) -> int:
    for flag in ("targets", "actives", "decoys"):
        if getattr(args, flag) < 1:
            raise ValidationError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    manifest = synth.write_benchmark(
        _resolve(args.out_dir, cfg.data_dir), seed=args.seed, n_targets=args.targets,
        n_actives=args.actives, n_decoys=args.decoys)
    print(f"synthetic benchmark manifest -> {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scvs",
        description="Stochastic-computing screening accelerator model")
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descriptors", help="extract pairing-energy descriptors")
    p.add_argument("inputs", nargs="+", help="molecule files (.mol2, else csv-atoms)")
    p.add_argument("--out", required=True, help="descriptor cache CSV")
    p.add_argument("--scatter", help="also write (id, most+, most-) scatter CSV")
    p.set_defaults(fn=cmd_descriptors)

    p = sub.add_parser("train", help="train the float reference network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", help="descriptor cache CSV")
    p.add_argument("--arch", default="64", choices=sorted(ref_nn.ARCH_SHAPES))
    p.add_argument("--activation", default="tanh", choices=["tanh", "relu"])
    p.add_argument("--out", required=True, help="model JSON")
    p.add_argument("--scaler-out", required=True)
    p.add_argument("--log-out", default="train_log.json")
    p.add_argument("--features-out", help="scaled training features (quantizer calibration)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("quantize", help="quantize a ReLU model for the SC hardware")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--calib", help="CSV of scaled feature rows for shift calibration")
    p.add_argument("--no-bias", action="store_true", help="drop biases (strict figure fidelity)")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("evaluate", help="score a library and report metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache")
    p.add_argument("--scaler", required=True)
    p.add_argument("--report", required=True, help="report JSON")
    p.add_argument("--csv", help="flat per-target CSV")
    p.add_argument("--timing-out", help="throughput sidecar JSON (not in the report)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("compare", help="side-by-side view of two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("per-target", help="train and score one model per target")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache")
    p.add_argument("--arch", default="64", choices=sorted(ref_nn.ARCH_SHAPES))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_per_target)

    p = sub.add_parser("sc-bench", help="gate-law diagnostics sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=0.2, help="grid spacing in [-1, 1]")
    p.set_defaults(fn=cmd_sc_bench)

    p = sub.add_parser("make-bench", help="write the seeded synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--targets", type=int, default=10)
    p.add_argument("--actives", type=int, default=60)
    p.add_argument("--decoys", type=int, default=300)
    p.set_defaults(fn=cmd_make_bench)

    # Each RunConfig setting's flag, on the subcommands its field names.
    for f in fields(RunConfig):
        for command in f.metadata.get("commands", ()):
            sub.choices[command].add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                                              type=type(f.default))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                     if hasattr(args, f.name)}
        return args.fn(args, load_config(args.config, overrides))
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)
        print(f"{'numeric failure' if code == EXIT_NUMERIC else 'error'}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
