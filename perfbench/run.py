"""Screening benchmark for scvs.

    python3 perfbench/run.py --workload sc-screen|float-screen|pipeline|all \
        [--seed 2024] [--seconds 20] [--trace 0|1]

Runs one workload through the public CLI entry point ``scvs.cli.main`` in
this process (one thread of our own, no ``--workers``), repeating whole
passes until ``--seconds`` have elapsed (at least one pass).  Inputs are
built from ``--seed`` by the commit under test (``make-bench``,
``descriptors``, ``train``, ``quantize``) in a child process before timing
starts.  Outputs are checked (exit codes, report contents, byte-identical
reruns, the gate-level bit-exactness oracle for every SC net); each failed
check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs a warm-up pass, then alternates traced and untraced passes, and reports
the per-layer metrics, including tracing overhead.  The last line of stdout is one JSON object;
a result file with provenance goes to ``perfbench/out/results``.  See
README.md beside this file for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from oracle import oracle_score  # noqa: E402

WORKLOADS = ("sc-screen", "float-screen", "pipeline")
SC_ARCHS = ("12", "24", "48", "64", "256")
N_TARGETS = 10
ORACLE_PER_NET = 8
SETUP_BATCH = 2  # set-up probes before the first pass and after each pass
SETUP_MIN = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "screen_cps": "1/s",
    "peak_rss_mb": "MB",
    "auc_mean": "ratio",
}
"""Every end-to-end metric the untraced run emits, with its unit."""

_PATH_ENV = ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR")


# ---------------------------------------------------------------------------
# Workloads: each is a set of CLI commands run from the run's work directory,
# with every path relative to it so that report bytes do not depend on where
# the checkout lives.


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _bench_files(manifest: str) -> list:
    """Molecule files of a make-bench manifest, README order: crystals,
    actives, decoys."""
    targets = _load_json(manifest)["targets"]
    return [t[key] for key in ("crystal_ligand", "actives", "decoys") for t in targets]


def _make_bench(out_dir, seed, actives=60, decoys=300):
    return ["make-bench", "--out-dir", out_dir, "--seed", str(seed),
            "--targets", str(N_TARGETS), "--actives", str(actives), "--decoys", str(decoys)]


def _evaluate(model, bench, cache, scaler, report, *extra):
    argv = ["evaluate", "--model", model, "--manifest", f"{bench}/manifest.json",
            "--scaler", scaler, "--report", report, *extra]
    return argv + (["--cache", cache] if cache else [])


@dataclass
class Workload:
    name: str
    per_target: int  # compounds per target
    make_prep: object  # seed -> stages, each a list of argv lists (or a callable
    #                    returning one) run in one child process; or None
    make_pass: object  # seed -> list of argv lists (or callables returning one)
    setup_models: list  # model files loaded by setup_s
    oracle: dict = field(default_factory=dict)  # SC nets checked bit-exactly
    check_outputs: object = None  # checks -> None, workload-specific output checks


def _sc_screen() -> Workload:
    def prep(seed):
        train = []
        for a in SC_ARCHS:
            train.append(["train", "--manifest", "prep/bench/manifest.json",
                          "--cache", "prep/cache.csv", "--arch", a, "--activation", "relu",
                          "--out", f"prep/relu{a}.json", "--scaler-out", "prep/scaler.json",
                          "--log-out", f"prep/train_log{a}.json",
                          "--features-out", "prep/feats.csv"])
            train.append(["quantize", "--model", f"prep/relu{a}.json",
                          "--calib", "prep/feats.csv", "--out", f"prep/hw{a}.json"])
        return [[_make_bench("prep/bench", seed)],
                lambda: [["descriptors", *_bench_files("prep/bench/manifest.json"),
                          "--out", "prep/cache.csv"]] + train]

    def one_pass(seed):
        return [_evaluate(f"prep/hw{a}.json", "prep/bench", "prep/cache.csv",
                          "prep/scaler.json", f"pass/hw{a}_report.json") for a in SC_ARCHS]

    models = [f"prep/hw{a}.json" for a in SC_ARCHS]
    return Workload(
        "sc-screen", 60 + 300, prep, one_pass, models,
        oracle={"models": models, "manifest": "prep/bench/manifest.json",
                "cache": "prep/cache.csv", "scaler": "prep/scaler.json"})


def _float_screen() -> Workload:
    def prep(seed):
        return [[_make_bench("prep/bench", seed)],
                lambda: [["descriptors", *_bench_files("prep/bench/manifest.json"),
                          "--out", "prep/cache.csv"],
                         ["train", "--manifest", "prep/bench/manifest.json",
                          "--cache", "prep/cache.csv", "--arch", "64", "--activation", "tanh",
                          "--out", "prep/tanh64.json", "--scaler-out", "prep/scaler.json",
                          "--log-out", "prep/train_log.json"]]]

    def one_pass(seed):
        return [
            lambda: ["descriptors", *_bench_files("prep/bench/manifest.json"),
                     "--out", "pass/cache.csv"],
            _evaluate("prep/tanh64.json", "prep/bench", "pass/cache.csv", "prep/scaler.json",
                      "pass/cached_report.json"),
            _evaluate("prep/tanh64.json", "prep/bench", None, "prep/scaler.json",
                      "pass/parsed_report.json"),
        ]

    def check_outputs(checks):
        a, b = (_load_json(f"pass/{n}_report.json")["targets"] for n in ("cached", "parsed"))
        checks.check(a == b, "cached and parsed descriptors give different per-target metrics")

    return Workload("float-screen", 60 + 300, prep, one_pass, ["prep/tanh64.json"],
                    check_outputs=check_outputs)


def _pipeline() -> Workload:
    def one_pass(seed):
        return [
            _make_bench("pass/bench", seed, actives=20, decoys=100),
            lambda: ["descriptors", *_bench_files("pass/bench/manifest.json"),
                     "--out", "pass/cache.csv", "--scatter", "pass/scatter.csv"],
            ["train", "--manifest", "pass/bench/manifest.json", "--cache", "pass/cache.csv",
             "--arch", "48", "--activation", "relu", "--out", "pass/relu48.json",
             "--scaler-out", "pass/scaler.json", "--log-out", "pass/train_log.json",
             "--features-out", "pass/feats.csv"],
            ["quantize", "--model", "pass/relu48.json", "--calib", "pass/feats.csv",
             "--out", "pass/hw48.json"],
            _evaluate("pass/hw48.json", "pass/bench", "pass/cache.csv", "pass/scaler.json",
                      "pass/hw_report.json", "--csv", "pass/hw.csv"),
            _evaluate("pass/relu48.json", "pass/bench", "pass/cache.csv", "pass/scaler.json",
                      "pass/sw_report.json"),
            ["compare", "--report-a", "pass/sw_report.json", "--report-b", "pass/hw_report.json",
             "--out", "pass/cmp.json"],
            ["per-target", "--manifest", "pass/bench/manifest.json", "--cache", "pass/cache.csv",
             "--out", "pass/pt.json"],
            ["sc-bench", "--out", "pass/gates.csv", "--step", "0.1"],
        ]

    def check_outputs(checks):
        pt = _load_json("pass/pt.json")
        checks.check(not pt["failed_targets"] and len(pt["targets"]) == N_TARGETS,
                     f"per-target: {len(pt['targets'])} targets, failed {pt['failed_targets']}")
        cmp = _load_json("pass/cmp.json")
        checks.check(len(cmp["per_target_sorted_by_a"]) == N_TARGETS,
                     "compare: not every target shared")
        with open("pass/gates.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        # 3 gates x 2 correlation regimes x 21 x 21 grid points at --step 0.1
        checks.check(rows == 3 * 2 * 21 * 21, f"sc-bench: {rows} rows, expected 2646")

    return Workload(
        "pipeline", 20 + 100, None, one_pass, ["pass/hw48.json", "pass/relu48.json"],
        oracle={"models": ["pass/hw48.json"], "manifest": "pass/bench/manifest.json",
                "cache": "pass/cache.csv", "scaler": "pass/scaler.json"},
        check_outputs=check_outputs)


def workload(name: str) -> Workload:
    return {"sc-screen": _sc_screen, "float-screen": _float_screen,
            "pipeline": _pipeline}[name]()


# ---------------------------------------------------------------------------
# Checks


class Checks:
    """Counts attempted and failed operations; keeps failure details."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


def _digest(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _differing(a: dict, b: dict) -> list:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check_pass_outputs(wl: Workload, checks: Checks) -> None:
    """Contents of one pass's outputs that do not depend on timing."""
    expected = N_TARGETS * wl.per_target
    for report in sorted(Path("pass").glob("*report.json")):
        doc = _load_json(report)
        scored = sum(t["n_total"] for t in doc["targets"].values())
        checks.check(not doc["failed_targets"] and not doc["skipped_compounds"]
                     and doc["aggregate"].get("n_targets") == N_TARGETS and scored == expected,
                     f"{report}: {scored}/{expected} compounds, "
                     f"failed targets {doc['failed_targets']}")
    cache = Path("pass/cache.csv")
    if cache.exists():
        with open(cache) as fh:
            rows = sum(1 for _ in fh) - 1
        checks.check(rows == expected + N_TARGETS,
                     f"{cache}: {rows} rows, expected {expected + N_TARGETS}")
    if wl.check_outputs:
        wl.check_outputs(checks)


def oracle_check(wl: Workload, seed: int, checks: Checks) -> float | None:
    """Bit-exactness of ``score_library`` against the gate-level oracle on a
    seeded sample per SC net; returns the mean |bit-true - fixed-point|."""
    if not wl.oracle:
        return None
    from scvs import cli, mpe, sc_core, sc_nn, screening

    spec = wl.oracle
    targets, failures = cli.load_targets(Path(spec["manifest"]),
                                         mpe.read_descriptor_cache(spec["cache"]), mpe.DEFAULT_K)
    checks.check(not failures, f"oracle: targets failed to load: {failures}")
    scaler = mpe.FeatureScaler.load(spec["scaler"])
    pool = [(t, c) for t in targets for c in t.compounds]
    rng = random.Random(seed)
    noise = []
    for model_path in spec["models"]:
        net = cli.load_model(Path(model_path))
        by_target: dict = {}
        for i in sorted(rng.sample(range(len(pool)), ORACLE_PER_NET)):
            t, c = pool[i]
            by_target.setdefault(t.target_id, (t, []))[1].append(c)
        for t, compounds in by_target.values():
            sample = screening.TargetData(t.target_id, t.crystal, compounds)
            scores = {e[0]: e[1] for e in screening.score_library(net, sample, scaler).entries}
            for cid, vec, _ in compounds:
                x = scaler.transform(mpe.pair_features(t.crystal, vec))
                want = oracle_score(net, x, sc_core, sc_nn)
                checks.check(scores.get(cid) == want,
                             f"oracle: {model_path} {cid}: engine {scores.get(cid)} != gates {want}")
                noise.append(abs(want - sc_nn.fixed_point_reference(net, x)))
    return statistics.fmean(noise)


def check_cross_run(wl: Workload, seed: int, digest: dict, source: str,
                    checks: Checks) -> None:
    """Outputs of one workload, seed and source tree must match across runs,
    traced or not; the first run records them."""
    path = OUT / "digests" / f"{source[:16]}-{wl.name}-s{seed}.json"
    if path.exists():
        diff = _differing(_load_json(path), digest)
        checks.check(not diff, f"outputs differ from an earlier run with this seed: {diff}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digest, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Running


def run_child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "scvs_batch.py"), *args],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def prepare(wl: Workload, seed: int) -> None:
    """Build the workload's inputs in a child process (not measured)."""
    if wl.make_prep is None:
        return
    for stage in wl.make_prep(seed):
        commands = stage() if callable(stage) else stage
        Path("prep").mkdir(exist_ok=True)
        argv_file = Path("prep/commands.json")
        argv_file.write_text(json.dumps(commands))
        proc = run_child(["run", str(argv_file)])
        argv_file.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"building inputs failed:\n{proc.stderr}")


def time_setup(wl: Workload, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        proc = run_child(["setup", *wl.setup_models])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_pass(wl: Workload, seed: int, cli, checks: Checks, tracer=None) -> dict:
    """One timed pass in a fresh ``pass`` directory."""
    shutil.rmtree("pass", ignore_errors=True)
    Path("pass").mkdir()
    gc.collect()
    commands = []
    root = tracer.begin("bench.pass") if tracer else None
    t0 = time.perf_counter()
    for step in wl.make_pass(seed):
        argv = step() if callable(step) else step
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(list(argv))
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            rc = traceback.format_exc()
        commands.append((argv, time.perf_counter() - c0, rc))
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    for argv, _, rc in commands:
        checks.check(rc == 0, f"scvs {argv[0]} returned {rc}")
    check_pass_outputs(wl, checks)

    evals = {"sc_network": [0, 0.0], "mlp": [0, 0.0]}
    aucs = {"sc_network": [], "mlp": []}
    for argv, seconds, rc in commands:
        if argv[0] == "evaluate" and rc == 0:
            doc = _load_json(argv[argv.index("--report") + 1])
            kind = doc["model_kind"]
            evals[kind][0] += sum(t["n_total"] for t in doc["targets"].values())
            evals[kind][1] += seconds
            aucs[kind].append(doc["aggregate"]["auc_mean"])
    return {"wall_s": wall, "evals": evals, "aucs": aucs, "digest": _digest(Path("pass")),
            "commands": [{"argv0": a[0], "seconds": s, "rc": rc if rc == 0 else str(rc)}
                         for a, s, rc in commands]}


def traced_pass(wl: Workload, seed: int, cli, checks: Checks, tracer) -> dict:
    """One pass with the wrappers installed; adds its per-layer metrics."""
    tracer.reset()
    tracer.install()
    tracer.on = True
    try:
        p = run_pass(wl, seed, cli, checks, tracer)
    finally:
        tracer.on = False
        tracer.uninstall()
    p["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.simulators,
                                        tracer.missing)
    return p


def _cps(evals: dict, kinds) -> float | None:
    n = sum(evals[k][0] for k in kinds)
    s = sum(evals[k][1] for k in kinds)
    return n / s if n and s > 0 else None


def end_to_end(passes: list, setup_times: list, peak_rss_mb: float) -> tuple:
    """(declared end-to-end metrics, per-model-kind extras) of an untraced run."""
    first = passes[0]
    all_aucs = first["aucs"]["sc_network"] + first["aucs"]["mlp"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "screen_cps": statistics.median(_cps(p["evals"], ("sc_network", "mlp")) for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "auc_mean": statistics.fmean(all_aucs),
    }
    extras = {}
    for kind, prefix in (("sc_network", "sc"), ("mlp", "float")):
        if first["evals"][kind][0]:
            extras[f"{prefix}_screen_cps"] = statistics.median(
                _cps(p["evals"], (kind,)) for p in passes)
            extras[f"{prefix}_auc_mean"] = statistics.fmean(first["aucs"][kind])
    return metrics, extras


def provenance(seed: int, wl: Workload, source: str) -> dict:
    import numpy

    git_sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        git_sha = ref
    return {
        "git_sha": git_sha,
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
        "compounds_per_target": wl.per_target,
        "compounds_per_net": wl.per_target * N_TARGETS,
        "targets": N_TARGETS,
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def source_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "scvs").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def import_scvs():
    """Import the CLI from this checkout's ``src``; fail if it is absent."""
    if not (SRC / "scvs" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'scvs'} not found; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import scvs.cli

    if not Path(scvs.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: scvs imported from {scvs.cli.__file__}, not {SRC}")
    return scvs.cli


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = workload(name)
    loadavg_start = _loadavg()
    source = source_hash()
    cli = import_scvs()
    for key in _PATH_ENV:
        os.environ.pop(key, None)
    work = OUT / "work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        return _measure(wl, seed, seconds, trace, cli, source, loadavg_start)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def _measure(wl, seed, seconds, trace, cli, source, loadavg_start) -> dict:
    t_prep = time.perf_counter()
    prepare(wl, seed)
    prep_s = time.perf_counter() - t_prep
    checks = Checks()
    tracer = tracing.Tracer() if trace else None
    passes, traced, spans = [], [], []
    # Set-up probes are spread over the run, between passes, so that their
    # median samples the same host conditions as the passes; their time does
    # not count against --seconds.
    setup_times, probe_s = [], 0.0

    def probe(repeats):
        nonlocal probe_s
        t = time.perf_counter()
        setup_times.extend(time_setup(wl, repeats))
        probe_s += time.perf_counter() - t

    start = time.perf_counter()
    if tracer:
        # The first pass of a process pays cold-start costs; when tracing, it
        # is a warm-up, so that the traced/untraced pairs after it compare
        # like with like.
        passes.append(run_pass(wl, seed, cli, checks))
    elif all(Path(m).is_file() for m in wl.setup_models):
        probe(SETUP_BATCH)
    while (not (traced if tracer else passes)
           or time.perf_counter() - start - probe_s < seconds):
        if tracer:
            traced.append(traced_pass(wl, seed, cli, checks, tracer))
            spans.append(tracer.spans)
        passes.append(run_pass(wl, seed, cli, checks))
        if not tracer:
            probe(SETUP_BATCH)
    if not tracer:
        probe(max(0, SETUP_MIN - len(setup_times)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base = passes[0]["digest"]
    for i, p in enumerate(passes[1:] + traced, start=1):
        diff = _differing(base, p["digest"])
        checks.check(not diff, f"pass {i} outputs differ from pass 0: {diff}")
    check_cross_run(wl, seed, base, source, checks)

    noise_mae = oracle_check(wl, seed, checks)

    if trace:
        metrics = tracing.median_metrics([p["layers"] for p in traced])
        untraced_wall = statistics.median(p["wall_s"] for p in passes[1:])
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        metrics["sc_nn.noise_mae"] = noise_mae or 0.0
        units = tracing.PER_LAYER
        missing = sorted(set(units) - set(metrics))
        extras = {}
    else:
        metrics, extras = end_to_end(passes, setup_times, peak_rss_mb)
        units = END_TO_END
        missing = []
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
    return {
        "workload": wl.name,
        "trace": int(trace),
        "provenance": provenance(seed, wl, source),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "prep_s": prep_s,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "missing": missing,
        "extras": extras,
        "setup_times": setup_times,
        "passes": [{"wall_s": p["wall_s"], "commands": p["commands"]} for p in passes],
        "traced_passes": [{"wall_s": p["wall_s"], "layers": p["layers"]} for p in traced],
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "_spans": spans,
    }


def write_result(result: dict) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = f"{result['workload']}-s{result['provenance']['seed']}-trace{result['trace']}-" \
           f"{stamp}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = result.pop("_spans")
    if spans:
        with open(results / f"{stem}.spans.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pass", "name", "tag", "start_ns", "end_ns", "parent"])
            for i, pass_spans in enumerate(spans):
                for name, tag, t0, t1, parent in pass_spans:
                    w.writerow([i, name, tag, t0, t1, parent])
    path = results / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def summary_line(result: dict) -> dict:
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def print_human(result: dict, path: Path) -> None:
    print(f"workload {result['workload']}  seed {result['provenance']['seed']}  "
          f"trace {result['trace']}  passes {len(result['passes'])}  "
          f"loadavg {result['loadavg_start']} -> {result['loadavg_end']}")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows += [(k, v, "1/s" if k.endswith("cps") else "ratio")
             for k, v in result["extras"].items()]
    rows.append(("fail_ratio", result["failed"] / result["attempted"],
                 f"of {result['attempted']}"))
    for name, value, unit in rows:
        print(f"  {name:32s} {value:14.6g} {unit}")
    for name in result["missing"]:
        print(f"  {name:32s} {'missing':>14s}")
    print(f"result file: {path.relative_to(ROOT)}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One compute thread: numpy's BLAS would otherwise start a second one that
    # competes for the two cores the benchmark is sized for.  Children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = write_result(result)
    print_human(result, path)
    print(json.dumps(summary_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
