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
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import mpe, ref_nn, sc_core, sc_nn, screening, synth
from .mpe import FeatureScaler, MoleculeParseError
from .ref_nn import NumericFailure, TrainConfig
from .sc_core import GateKind, Lfsr
from .screening import SplitSpec, TargetSet

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class ValidationError(ValueError):
    pass


class InputError(OSError):
    pass


@dataclass
class RunConfig:
    """Resolved run parameters; embedded in every report for provenance."""

    k: float = mpe.DEFAULT_K
    width: int = 12
    stream_len: int = 4095
    taps1: str = ""  # empty selects a verified maximal polynomial for the width
    taps2: str = ""
    seed1: int = 41
    seed2: int = 1987
    active_fraction: float = 0.5
    decoy_fraction: float = 0.1
    split_seed: int = 0
    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 256
    train_seed: int = 0
    val_fraction: float = 0.1
    patience: int = 10
    clip_quantile: float = 1.0
    margin: float = 1.0
    gain_cap: float = 0.5
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

    def lfsr1(self) -> Lfsr:
        taps = _parse_taps(self.taps1) if self.taps1 else sc_core.MAXIMAL_TAPS[self.width][0]
        return Lfsr(self.width, taps, self.seed1 % (1 << self.width) or 1)

    def lfsr2(self) -> Lfsr:
        taps = _parse_taps(self.taps2) if self.taps2 else sc_core.MAXIMAL_TAPS[self.width][1]
        return Lfsr(self.width, taps, self.seed2 % (1 << self.width) or 1)

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
            raise InputError(f"config file not found: {p}")
        for line_no, raw in enumerate(p.read_text().splitlines(), start=1):
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
    valid = {f.name: f.type for f in fields(RunConfig)}
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


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise InputError(f"file not found: {path}")
    return path


def _infer_format(path: Path) -> str:
    return "mol2-subset" if path.suffix.lower() == ".mol2" else "csv-atoms"


def _json_dump(doc, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Target loading


def load_manifest(path: Path) -> list:
    with open(_require_file(path)) as fh:
        doc = json.load(fh)
    entries = ref_nn.require_fields(doc, ("targets",), path)["targets"] \
        if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: targets must be a list of target entries")
    for i, e in enumerate(entries):
        ref_nn.require_fields(e, ("target_id", "crystal_ligand", "actives", "decoys"),
                              path, f"manifest entry {i} ")
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
            ts = TargetSet(tid, mols["crystal_ligand"][0], mols["actives"], mols["decoys"])
            targets.append(screening.target_descriptors(ts, k, cache))
        except (OSError, ValueError) as exc:
            failures.append({"target_id": tid, "error": str(exc)})
    return targets, failures


def load_model(path: Path):
    with open(_require_file(path)) as fh:
        kind = ref_nn.require_fields(json.load(fh), (), path).get("kind")
    if kind == "mlp":
        return ref_nn.load_mlp(path)
    if kind == "sc_network":
        return sc_nn.load_sc_network(path)
    raise ValidationError(f"{path}: unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_descriptors(args, cfg: RunConfig) -> int:
    out = _resolve(args.out, cfg.data_dir)
    errors = []
    entries = []
    for name in args.inputs:
        path = _resolve(name, cfg.data_dir)
        try:
            mols = mpe.parse_molecules(_require_file(path), args.format or _infer_format(path))
            for m in mols:
                entries.append((m.id, mpe.mpe_vector(m, cfg.k)))
        except (OSError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
    out.parent.mkdir(parents=True, exist_ok=True)
    mpe.write_descriptor_cache(out, entries)
    print(f"wrote {len(entries)} descriptor rows to {out}")
    if args.scatter:
        mpe.write_scatter_csv(_resolve(args.scatter, cfg.data_dir), entries)
        print(f"wrote scatter data for {len(entries)} molecules to {args.scatter}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_IO if errors else EXIT_OK


def cmd_train(args, cfg: RunConfig) -> int:
    cache = mpe.read_descriptor_cache(_require_file(_resolve(args.cache, cfg.data_dir))) \
        if args.cache else None
    targets, failures = load_targets(_resolve(args.manifest, cfg.data_dir), cache, cfg.k)
    if failures:
        for f in failures:
            print(f"error: target {f['target_id']}: {f['error']}", file=sys.stderr)
        return EXIT_IO
    if not targets:
        raise ValidationError("manifest holds no usable targets")

    train_pairs, test_pairs, scaler = screening.build_split(targets, cfg.split_spec())
    shape = ref_nn.ARCH_SHAPES[args.arch]
    mlp, history = ref_nn.train_adam(
        ref_nn.init_mlp(shape, args.activation, seed=cfg.train_seed),
        train_pairs, cfg.train_config())

    out = _resolve(args.out, cfg.models_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    ref_nn.save_mlp(mlp, out)
    scaler.save(_resolve(args.scaler_out, cfg.models_dir))
    log_doc = {
        "config": asdict(cfg),
        "arch": args.arch,
        "shape": shape,
        "activation": args.activation,
        "n_train_pairs": len(train_pairs),
        "n_test_pairs": len(test_pairs),
        "train_loss": history["train_loss"],
        "val_loss": history["val_loss"],
        "stopped_epoch": history["stopped_epoch"],
    }
    _json_dump(log_doc, _resolve(args.log_out, cfg.models_dir))
    if args.features_out:
        feats = np.stack([p.features for p in train_pairs])
        with open(_resolve(args.features_out, cfg.models_dir), "w", newline="") as fh:
            w = csv.writer(fh)
            for row in feats:
                w.writerow([format(v, ".9g") for v in row])
    print(f"trained {args.activation} [{'-'.join(map(str, shape[1:]))}] on "
          f"{len(train_pairs)} pairs; model -> {out}")
    return EXIT_OK


def cmd_quantize(args, cfg: RunConfig) -> int:
    mlp = load_model(_resolve(args.model, cfg.models_dir))
    if not isinstance(mlp, ref_nn.Mlp):
        raise ValidationError(f"{args.model}: quantize expects a float-network file")
    calib = None
    if args.calib:
        calib = np.loadtxt(_require_file(_resolve(args.calib, cfg.models_dir)), delimiter=",")
    net = sc_nn.quantize_weights(
        mlp, width=cfg.width, clip_quantile=cfg.clip_quantile,
        stream_len=cfg.stream_len, lfsr1=cfg.lfsr1(), lfsr2=cfg.lfsr2(),
        use_bias=not args.no_bias, calib=calib, margin=cfg.margin,
        gain_cap=cfg.gain_cap)
    out = _resolve(args.out, cfg.models_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    cache = mpe.read_descriptor_cache(_require_file(_resolve(args.cache, cfg.data_dir))) \
        if args.cache else None
    targets, failures = load_targets(_resolve(args.manifest, cfg.data_dir), cache, cfg.k)
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
    report_path = _resolve(args.report, cfg.reports_dir)
    _json_dump(report, report_path)
    if args.csv:
        with open(_resolve(args.csv, cfg.reports_dir), "w", newline="") as fh:
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
        _json_dump({"inferences": inferences, "seconds": elapsed,
                    "inferences_per_second": throughput},
                   _resolve(args.timing_out, cfg.reports_dir))
    for f in failures + metric_failures:
        print(f"warning: target {f['target_id']} not scored: {f['error']}", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args, cfg: RunConfig) -> int:
    docs = []
    for name in (args.report_a, args.report_b):
        with open(_require_file(_resolve(name, cfg.reports_dir))) as fh:
            docs.append(json.load(fh))
    a, b = docs
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
    _json_dump(out_doc, _resolve(args.out, cfg.reports_dir))
    if args.csv:
        with open(_resolve(args.csv, cfg.reports_dir), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["target", "auc_a", "auc_b", "delta"])
            for row in per_target:
                w.writerow([row["target_id"], row["auc_a"], row["auc_b"], row["delta"]])
    print(f"compared {len(per_target)} shared targets; -> {args.out}")
    return EXIT_OK


def cmd_per_target(args, cfg: RunConfig) -> int:
    cache = mpe.read_descriptor_cache(_require_file(_resolve(args.cache, cfg.data_dir))) \
        if args.cache else None
    targets, failures = load_targets(_resolve(args.manifest, cfg.data_dir), cache, cfg.k)
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
    aucs = np.array([m.auc for m in rows.values()])
    ef1 = np.array([m.ef[1] for m in rows.values()])
    report = {
        "config": asdict(cfg),
        "arch": args.arch,
        "targets": {tid: m.as_dict() for tid, m in rows.items()},
        "failed_targets": failures,
        "aggregate": {
            "auc_mean": round(float(aucs.mean()), 4),
            "auc_std": round(float(aucs.std()), 4),
            "ef1_mean": round(float(ef1.mean()), 4),
            "ef1_std": round(float(ef1.std()), 4),
        },
        "published_per_target_rows": screening.PUBLISHED_PER_TARGET_ROWS,
        "reproducibility_note": screening.REPRODUCIBILITY_NOTE,
    }
    _json_dump(report, _resolve(args.out, cfg.reports_dir))
    print(f"per-target protocol on {len(rows)} targets: AUC "
          f"{report['aggregate']['auc_mean']} +/- {report['aggregate']['auc_std']}; "
          f"-> {args.out}")
    return EXIT_OK


def cmd_sc_bench(args, cfg: RunConfig) -> int:
    if not 0.01 <= args.step <= 2.0:
        raise ValidationError(f"grid step {args.step} outside [0.01, 2.0]")
    n = cfg.stream_len
    r1 = cfg.lfsr1().word_sequence(n)
    r2 = cfg.lfsr2().word_sequence(n)
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
    out = _resolve(args.out, cfg.reports_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
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
    p.set_defaults(fn=cmd_descriptors, cfg_keys={"k"})

    p = sub.add_parser("train", help="train the float reference network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", help="descriptor cache CSV")
    p.add_argument("--arch", default="64", choices=sorted(ref_nn.ARCH_SHAPES))
    p.add_argument("--activation", default="tanh", choices=["tanh", "relu"])
    p.add_argument("--out", required=True, help="model JSON")
    p.add_argument("--scaler-out", required=True)
    p.add_argument("--log-out", default="train_log.json")
    p.add_argument("--features-out", help="scaled training features (quantizer calibration)")
    for name in ("active_fraction", "decoy_fraction", "split_seed", "learning_rate",
                 "epochs", "batch_size", "train_seed", "val_fraction", "patience"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       type=float if name in ("active_fraction", "decoy_fraction",
                                              "learning_rate", "val_fraction") else int)
    p.set_defaults(fn=cmd_train,
                   cfg_keys={"active_fraction", "decoy_fraction", "split_seed",
                             "learning_rate", "epochs", "batch_size", "train_seed",
                             "val_fraction", "patience"})

    p = sub.add_parser("quantize", help="quantize a ReLU model for the SC hardware")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--calib", help="CSV of scaled feature rows for shift calibration")
    p.add_argument("--no-bias", action="store_true", help="drop biases (strict figure fidelity)")
    for name, typ in (("width", int), ("stream_len", int), ("seed1", int), ("seed2", int),
                      ("taps1", str), ("taps2", str), ("clip_quantile", float),
                      ("margin", float), ("gain_cap", float)):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ)
    p.set_defaults(fn=cmd_quantize,
                   cfg_keys={"width", "stream_len", "seed1", "seed2", "taps1", "taps2",
                             "clip_quantile", "margin", "gain_cap"})

    p = sub.add_parser("evaluate", help="score a library and report metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache")
    p.add_argument("--scaler", required=True)
    p.add_argument("--report", required=True, help="report JSON")
    p.add_argument("--csv", help="flat per-target CSV")
    p.add_argument("--timing-out", help="throughput sidecar JSON (not in the report)")
    p.set_defaults(fn=cmd_evaluate, cfg_keys=set())

    p = sub.add_parser("compare", help="side-by-side view of two reports")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_compare, cfg_keys=set())

    p = sub.add_parser("per-target", help="train and score one model per target")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache")
    p.add_argument("--arch", default="64", choices=sorted(ref_nn.ARCH_SHAPES))
    p.add_argument("--out", required=True)
    for name in ("epochs", "batch_size", "train_seed"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    p.set_defaults(fn=cmd_per_target, cfg_keys={"epochs", "batch_size", "train_seed"})

    p = sub.add_parser("sc-bench", help="gate-law diagnostics sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=0.2, help="grid spacing in [-1, 1]")
    for name, typ in (("width", int), ("stream_len", int), ("seed1", int), ("seed2", int),
                      ("taps1", str), ("taps2", str)):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ)
    p.set_defaults(fn=cmd_sc_bench,
                   cfg_keys={"width", "stream_len", "seed1", "seed2", "taps1", "taps2"})

    p = sub.add_parser("make-bench", help="write the seeded synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--targets", type=int, default=10)
    p.add_argument("--actives", type=int, default=60)
    p.add_argument("--decoys", type=int, default=300)
    p.set_defaults(fn=cmd_make_bench, cfg_keys=set())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {k: getattr(args, k, None) for k in args.cfg_keys}
        cfg = load_config(args.config, overrides)
        return args.fn(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FileNotFoundError, MoleculeParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
