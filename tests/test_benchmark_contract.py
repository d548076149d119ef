"""The benchmark's program contract: ``perfbench/run.py``'s bit-exactness
oracle check runs against this tree on a small bench, so a refactor that
breaks a name the benchmark uses fails here, not only in a benchmark run."""

import math
from pathlib import Path

from scvs import cli

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
