"""The benchmark's program contract: ``perfbench/run.py``'s bit-exactness
oracle check runs against this tree on a small bench, so a refactor that
breaks a name the benchmark uses fails here, not only in a benchmark run."""

import math
from pathlib import Path

import numpy as np
import pytest

from scvs import cli, mpe, sc_core, sc_nn, synth

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_oracle_check_passes_on_a_small_bench(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py and the modules it imports live there
    import run

    monkeypatch.chdir(tmp_path)
    steps = [
        ["make-bench", "--out-dir", "bench", "--seed", "5", "--targets", "2",
         "--actives", "6", "--decoys", "20"],
        lambda: ["descriptors", *run._bench_files("bench/manifest.json"), "--out", "cache.csv"],
        ["train", "--manifest", "bench/manifest.json", "--cache", "cache.csv", "--arch", "12",
         "--activation", "relu", "--out", "relu12.json", "--scaler-out", "scaler.json",
         "--log-out", "train_log.json", "--features-out", "feats.csv"],
        ["quantize", "--model", "relu12.json", "--calib", "feats.csv", "--out", "hw12.json"],
    ]
    for argv in steps:
        assert cli.main(argv() if callable(argv) else argv) == 0
    wl = run.Workload("contract", 6 + 20, None, None, ["hw12.json"],
                      oracle={"models": ["hw12.json"], "manifest": "bench/manifest.json",
                              "cache": "cache.csv", "scaler": "scaler.json"})
    checks = run.Checks()
    noise = run.oracle_check(wl, 5, checks)
    assert checks.attempted > 0 and checks.failures == []
    assert math.isfinite(noise) and noise >= 0


def test_every_benchmark_command_line_parses(monkeypatch):
    # a flag the benchmark passes must not vanish from the CLI unnoticed
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    monkeypatch.setattr(run, "_bench_files", lambda manifest: ["a.csv", "b.csv"])
    argvs = []
    for name in run.WORKLOADS:
        wl = run.workload(name)
        for stage in wl.make_prep(2024) if wl.make_prep else []:
            argvs += stage() if callable(stage) else stage
        argvs += [step() if callable(step) else step for step in wl.make_pass(2024)]
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except (SystemExit, cli.ValidationError):
            pytest.fail(f"the CLI rejects the benchmark's command line {argv}")
    assert argvs


@pytest.mark.parametrize("width,stream_len,bias_layers", [
    (8, 255, {0, 1, 2}),  # one full period, bias lines everywhere
    (8, 300, {1}),        # past the period
    (6, 40, set()),       # inside the period, no bias line
    (6, 130, {0, 2}),     # past two periods
])
def test_oracle_score_is_gate_level_scores(monkeypatch, width, stream_len, bias_layers):
    # perfbench keeps its own gate-level oracle; while two definitions exist
    # they must agree row for row, on nets of the benchmark self-test shape.
    monkeypatch.syspath_prepend(str(BENCH))
    from oracle import oracle_score

    rng = np.random.default_rng(width * stream_len)
    half = 1 << (width - 1)
    shape = [5, 4, 3, 1]
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(shape[:-1], shape[1:])):
        bias = li in bias_layers
        # up to two below the no-overflow shift, so some words saturate
        shift = sc_nn.min_norm_shift(fan_in + bias, stream_len, width) - int(rng.integers(0, 3))
        layers.append(sc_nn.ScLayer(fan_in, fan_out, max(shift, 0), 1.0,
                                    rng.integers(-half, half, (fan_out, fan_in)),
                                    rng.integers(-half, half, fan_out) if bias else None))
    net = sc_nn.ScNetwork(layers, sc_nn.default_lfsr1(width), sc_nn.default_lfsr2(width),
                          stream_len=stream_len, width=width)
    X = rng.uniform(-1, 1, (12, 5))
    X[0], X[1] = -1.0, 1.0
    want = [oracle_score(net, x, sc_core, sc_nn) for x in X]
    assert want == sc_nn.gate_level_scores(net, X)[0].tolist()


def _traced(monkeypatch, fn):
    """``fn()`` and the counts of perfbench's tracer around it; the tracer
    must find every name it wraps."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        tracer.on = True
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.counts


# perfbench's tracer wraps library names and counts calls of them or
# ``len()`` of what they return; a reshaped name would blank its per-layer
# metrics without failing a run.


def test_tracer_finds_every_name_and_counts_parsing(tmp_path, monkeypatch):
    manifest = synth.write_benchmark(tmp_path / "bench", seed=5, n_targets=2, n_actives=6,
                                     n_decoys=20)
    (targets, failures), counts = _traced(
        monkeypatch, lambda: cli.load_targets(manifest, None, mpe.DEFAULT_K))
    assert failures == [] and len(targets) == 2
    assert counts["mpe.parse_calls"] == 6
    assert counts["mpe.molecules_parsed"] == 2 * (1 + 6 + 20)


def test_tracer_counts_written_and_described_molecules(tmp_path, monkeypatch):
    _, counts = _traced(monkeypatch, lambda: synth.write_benchmark(
        tmp_path / "bench", seed=5, n_targets=2, n_actives=6, n_decoys=20))
    assert counts["synth.molecules_written"] == 2 * (1 + 6 + 20)
    vec = synth.make_benchmark(seed=5, n_targets=1, n_actives=1, n_decoys=1)[0].crystal
    molecule = synth.realize_molecule(vec, "m")
    row, counts = _traced(monkeypatch, lambda: mpe.mpe_vector(molecule))
    assert counts["mpe.descriptor_calls"] == 1
    np.testing.assert_allclose(row, vec, rtol=1e-3, atol=0.02)
