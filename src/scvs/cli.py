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
import csv
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import mpe, ref_nn, sc_core, sc_nn, screening, synth
from .mpe import FeatureScaler, MoleculeParseError
from .ref_nn import NumericFailure, TrainConfig
from .sc_core import GateKind, Lfsr
from .screening import SplitSpec

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


def _setting(default, *commands):
    """A RunConfig field that ``commands`` take as ``--dashed-name``, typed
    by its default."""
    return field(default=default, metadata={"commands": commands})


_SC = ("quantize", "sc-bench")  # the subcommands that build SC streams


@dataclass
class RunConfig:
    """Resolved run parameters; embedded in every report for provenance."""

    k: float = mpe.DEFAULT_K  # descriptors' --K, declared in build_parser
    width: int = _setting(12, *_SC)
    stream_len: int = _setting(4095, *_SC)
    seed1: int = _setting(41, *_SC)
    seed2: int = _setting(1987, *_SC)
    # Empty taps select a verified maximal polynomial for the width.
    taps1: str = _setting("", *_SC)
    taps2: str = _setting("", *_SC)
    active_fraction: float = _setting(0.5, "train")
    decoy_fraction: float = _setting(0.1, "train")
    split_seed: int = _setting(0, "train")
    learning_rate: float = _setting(0.001, "train")
    epochs: int = _setting(50, "train", "per-target")
    batch_size: int = _setting(256, "train", "per-target")
    train_seed: int = _setting(0, "train", "per-target")
    val_fraction: float = _setting(0.1, "train")
    patience: int = _setting(10, "train")
    clip_quantile: float = _setting(1.0, "quantize")
    margin: float = _setting(1.0, "quantize")
    gain_cap: float = _setting(0.5, "quantize")
    data_dir: str = ""
    models_dir: str = ""
    reports_dir: str = ""

    def validate(self):
        if not 4 <= self.width <= 16:
            raise ValidationError(f"SC width {self.width} outside [4, 16]")
        if self.stream_len < 1:
            raise ValidationError("stream_len must be >= 1")
        for name in ("data_dir", "models_dir", "reports_dir"):
            value = getattr(self, name)
            if value and not Path(value).is_dir():
                raise ValidationError(f"{name} {value!r} is not a directory")
        return self

    def lfsrs(self) -> tuple:
        """The generator pair (R1, R2)."""
        return tuple(
            Lfsr(self.width, _parse_taps(taps) if taps else default,
                 seed % (1 << self.width) or 1)
            for taps, seed, default in zip((self.taps1, self.taps2), (self.seed1, self.seed2),
                                           sc_core.MAXIMAL_TAPS[self.width]))

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.active_fraction, self.decoy_fraction, self.split_seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, epochs=self.epochs,
            batch_size=self.batch_size, rng_seed=self.train_seed,
            val_fraction=self.val_fraction, patience=self.patience)


_ENV_PATH_KEYS = {"data_dir": "SCVS_DATA_DIR", "models_dir": "SCVS_MODELS_DIR",
                  "reports_dir": "SCVS_REPORTS_DIR"}


def _parse_taps(text: str) -> tuple:
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError:
        raise ValidationError(f"cannot parse taps {text!r}; expected e.g. 12,11,10,4") from None


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


def _infer_format(path: Path) -> str:
    return "mol2-subset" if path.suffix.lower() == ".mol2" else "csv-atoms"


# ---------------------------------------------------------------------------
# Target loading


def load_manifest(path: Path) -> list:
    doc = ref_nn.read_json(_require_file(path))
    entries = ref_nn.require_fields(doc, {"targets": object}, path)["targets"] \
        if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: targets must be a list of target entries")
    for i, e in enumerate(entries):
        ref_nn.require_fields(e, {"target_id": str, "crystal_ligand": str, "actives": str,
                                  "decoys": str}, path, f"manifest entry {i} ")
    return entries


def load_targets(manifest_path: Path, cache: dict | None, k: float):
    """Descriptor-level targets; failing targets are collected, not fatal."""
    targets, failures = [], []
    for entry in load_manifest(manifest_path):
        tid = entry["target_id"]
        try:
            mols = {}
            for key in ("crystal_ligand", "actives", "decoys"):
                p = _require_file(Path(entry[key]))
                mols[key] = mpe.parse_molecules(p, _infer_format(p))
            if not mols["crystal_ligand"]:
                raise ValidationError(f"target {tid}: crystal ligand file is empty")
            targets.append(screening.target_descriptors(
                tid, mols["crystal_ligand"][0], mols["actives"], mols["decoys"], k, cache))
        except (OSError, ValueError) as exc:
            failures.append({"target_id": tid, "error": str(exc)})
    return targets, failures


def _command_targets(args, cfg: RunConfig):
    """``load_targets`` over a subcommand's --manifest and optional --cache."""
    cache = mpe.read_descriptor_cache(_require_file(_resolve(args.cache, cfg.data_dir))) \
        if args.cache else None
    return load_targets(_resolve(args.manifest, cfg.data_dir), cache, cfg.k)


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
    errors = []
    entries = []
    for name in args.inputs:
        path = _resolve(name, cfg.data_dir)
        try:
            mols = mpe.parse_molecules(_require_file(path), args.format or _infer_format(path))
        except (OSError, MoleculeParseError) as exc:  # their messages name the file
            errors.append(str(exc))
            continue
        for m in mols:
            try:
                entries.append((m.id, mpe.mpe_vector(m, cfg.k)))
            except ValueError as exc:
                errors.append(f"{path}: {exc}")
    out = _output(args.out, cfg.data_dir)
    mpe.write_descriptor_cache(out, entries)
    print(f"wrote {len(entries)} descriptor rows to {out}")
    if args.scatter:
        mpe.write_scatter_csv(_output(args.scatter, cfg.data_dir), entries)
        print(f"wrote scatter data for {len(entries)} molecules to {args.scatter}")
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
    mlp, history = ref_nn.train_adam(
        ref_nn.init_mlp(shape, args.activation, seed=cfg.train_seed), x, y, cfg.train_config())

    out = _output(args.out, cfg.models_dir)
    ref_nn.save_mlp(mlp, out)
    scaler.save(_output(args.scaler_out, cfg.models_dir))
    log_doc = {
        "config": asdict(cfg),
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
        with open(_output(args.features_out, cfg.models_dir), "w", newline="") as fh:
            w = csv.writer(fh)
            for row in x:
                w.writerow([format(v, ".9g") for v in row])
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
    net = sc_nn.quantize_weights(
        mlp, width=cfg.width, clip_quantile=cfg.clip_quantile,
        stream_len=cfg.stream_len, lfsr1=lfsr1, lfsr2=lfsr2,
        use_bias=not args.no_bias, calib=calib, margin=cfg.margin,
        gain_cap=cfg.gain_cap)
    out = _output(args.out, cfg.models_dir)
    sc_nn.save_sc_network(net, out)
    print(f"quantized to {cfg.width}-bit words, stream {cfg.stream_len}; "
          f"shifts {[l.norm_shift for l in net.layers]}; model -> {out}")
    return EXIT_OK


def _evaluate_targets(model, targets, scaler):
    results = {}
    inferences = 0
    t0 = time.perf_counter()
    ranked_lists = [screening.score_library(model, t, scaler) for t in targets]
    elapsed = time.perf_counter() - t0
    metric_failures = []
    for t, ranked in zip(targets, ranked_lists):
        inferences += len(ranked.entries)
        try:
            results[t.target_id] = (ranked, screening.compute_metrics(ranked))
        except screening.UndefinedMetric as exc:
            metric_failures.append({"target_id": t.target_id, "error": str(exc)})
    return results, metric_failures, inferences, elapsed


def cmd_evaluate(args, cfg: RunConfig) -> int:
    model = load_model(_resolve(args.model, cfg.models_dir))
    scaler = FeatureScaler.load(_require_file(_resolve(args.scaler, cfg.models_dir)))
    targets, failures = _command_targets(args, cfg)
    if not targets:
        raise ValidationError("no usable targets to evaluate")
    results, metric_failures, inferences, elapsed = _evaluate_targets(model, targets, scaler)
    per_target = {tid: m for tid, (_, m) in results.items()}

    report = {
        "config": asdict(cfg),
        "model": str(args.model),
        "model_kind": "sc_network" if isinstance(model, sc_nn.ScNetwork) else "mlp",
        "targets": {tid: m.as_dict() for tid, m in per_target.items()},
        "skipped_compounds": {tid: r.n_skipped for tid, (r, _) in results.items()
                              if r.n_skipped},
        "failed_targets": failures + metric_failures,
        "aggregate": screening.aggregate_metrics(per_target) if per_target else {},
        "published_baselines": screening.PUBLISHED_BASELINES,
        "published_threshold_rows": screening.PUBLISHED_THRESHOLD_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    report_path = _output(args.report, cfg.reports_dir)
    ref_nn.write_json(report, report_path)
    if args.csv:
        with open(_output(args.csv, cfg.reports_dir), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["target", "auc", "ef1", "ef5", "ef10"])
            for tid in sorted(per_target):
                m = per_target[tid]
                w.writerow([tid] + [format(v, ".4f") for v in
                                    (m.auc, m.ef[1], m.ef[5], m.ef[10])])
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
    ref_nn.write_json(out_doc, _output(args.out, cfg.reports_dir))
    if args.csv:
        with open(_output(args.csv, cfg.reports_dir), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["target", "auc_a", "auc_b", "delta"])
            for row in per_target:
                w.writerow([row["target_id"], row["auc_a"], row["auc_b"], row["delta"]])
    print(f"compared {len(per_target)} shared targets; -> {args.out}")
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
        "config": asdict(cfg),
        "arch": args.arch,
        "targets": {tid: m.as_dict() for tid, m in rows.items()},
        "failed_targets": failures,
        "aggregate": {key: aggregate[key] for key in ("auc_mean", "auc_std",
                                                      "ef1_mean", "ef1_std")},
        "published_per_target_rows": screening.PUBLISHED_PER_TARGET_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    ref_nn.write_json(report, _output(args.out, cfg.reports_dir))
    print(f"per-target protocol on {len(rows)} targets: AUC "
          f"{report['aggregate']['auc_mean']} +/- {report['aggregate']['auc_std']}; "
          f"-> {args.out}")
    return EXIT_OK


def cmd_sc_bench(args, cfg: RunConfig) -> int:
    if not 0.01 <= args.step <= 2.0:
        raise ValidationError(f"grid step {args.step} outside [0.01, 2.0]")
    n = cfg.stream_len
    r1, r2 = (lfsr.word_sequence(n) for lfsr in cfg.lfsrs())
    grid = np.round(np.arange(-1.0, 1.0001, args.step), 6)
    rows = []
    worst = {}
    for kind in GateKind:
        for regime, rng_b in (("uncorrelated", r2), ("correlated", r1)):
            for xv in grid:
                a = sc_core.to_stochastic(sc_core.encode(xv, cfg.width), r1)
                for yv in grid:
                    b = sc_core.to_stochastic(sc_core.encode(yv, cfg.width), rng_b)
                    z = sc_core.gate_eval(kind, a, b).value
                    try:
                        c = sc_core.sc_correlation(a, b)
                        formula = sc_core.expected_gate_output(kind, a.value, b.value, c)
                        c_text = format(c, ".6f")
                    except sc_core.CorrelationUndefined:
                        formula, c_text = z, "undefined"
                    rows.append((kind.name, regime, xv, yv, c_text, z, formula))
                    ideal = {
                        ("XNOR", "uncorrelated"): xv * yv,
                        ("XNOR", "correlated"): 1 - abs(xv - yv),
                        ("AND", "correlated"): min(xv, yv),
                        ("OR", "correlated"): max(xv, yv),
                    }.get((kind.name, regime))
                    if ideal is not None:
                        key = (kind.name, regime)
                        worst[key] = max(worst.get(key, 0.0), abs(z - ideal))
    out = _output(args.out, cfg.reports_dir)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["gate", "regime", "x", "y", "C_measured", "z_measured", "z_formula"])
        for row in rows:
            w.writerow(row)
    for (gate, regime), err in sorted(worst.items()):
        print(f"{gate:4s} {regime}: max |measured - ideal| = {err:.6f}")
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_make_bench(args, cfg: RunConfig) -> int:
    for flag in ("targets", "actives", "decoys"):
        if getattr(args, flag) < 1:
            raise ValidationError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    manifest = synth.write_benchmark(
        _resolve(args.out_dir, cfg.data_dir), seed=args.seed, n_targets=args.targets,
        n_actives=args.actives, n_decoys=args.decoys, k=cfg.k)
    print(f"synthetic benchmark manifest -> {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scvs",
        description="Stochastic-computing screening accelerator model")
    parser.add_argument("--config", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descriptors", help="extract pairing-energy descriptors")
    p.add_argument("inputs", nargs="+", help="molecule files (mol2 or csv-atoms)")
    p.add_argument("--format", choices=["mol2-subset", "csv-atoms"])
    p.add_argument("--out", required=True, help="descriptor cache CSV")
    p.add_argument("--scatter", help="also write (id, most+, most-) scatter CSV")
    p.add_argument("--K", dest="k", type=float, help="pairing-energy constant")
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
    args = build_parser().parse_args(argv)
    try:
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
