"""Self-tests of the benchmark: the gate-level oracle, the tracer and the
metric names.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from oracle import oracle_score  # noqa: E402
from scvs import mpe, sc_core, sc_nn  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tiny_net(width, stream_len, shifts, bias_layers, seed=0):
    rng = np.random.default_rng(seed)
    half = 1 << (width - 1)
    shape = [5, 4, 3, 1]
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(shape[:-1], shape[1:])):
        weights = rng.integers(-half, half, size=(fan_out, fan_in))
        bias = rng.integers(-half, half, size=fan_out) if li in bias_layers else None
        layers.append(sc_nn.ScLayer(fan_in, fan_out, shifts[li], 1.0, weights, bias))
    return sc_nn.ScNetwork(layers, sc_nn.default_lfsr1(width), sc_nn.default_lfsr2(width),
                           stream_len=stream_len, width=width)


@pytest.mark.parametrize("width,stream_len,shifts,bias_layers", [
    (8, 255, (3, 2, 2), {0, 1, 2}),   # one full period
    (8, 300, (0, 0, 0), {1}),         # past the period, saturating shifts
    (6, 40, (2, 1, 1), set()),        # shorter than the period, no bias
])
def test_oracle_matches_simulator_on_tiny_nets(width, stream_len, shifts, bias_layers):
    net = _tiny_net(width, stream_len, shifts, bias_layers)
    x = np.random.default_rng(1).uniform(-1, 1, size=(6, 5))
    engine = net.simulator().infer_many(x)
    gates = [oracle_score(net, row, sc_core, sc_nn) for row in x]
    assert gates == list(engine)


def test_oracle_sees_a_changed_weight():
    net = _tiny_net(8, 255, (3, 2, 2), {0, 1, 2})
    x = np.random.default_rng(2).uniform(-1, 1, size=(8, 5))
    before = [oracle_score(net, row, sc_core, sc_nn) for row in x]
    net.layers[-1].weights_q[0, 0] = -net.layers[-1].weights_q[0, 0] - 1
    after = [oracle_score(net, row, sc_core, sc_nn) for row in x]
    assert before != after


def _declared():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_every_emitted_name_is_declared_and_well_formed():
    doc = _declared()
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == tracing.PER_LAYER
    names = [w["name"] for w in doc["workloads"]] + list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_layer_metrics_names_and_self_time_accounting():
    ms = 1_000_000
    spans = [
        ["bench.pass", "", 0, 100 * ms, -1],
        ["cli.main", "", 1 * ms, 90 * ms, 0],
        ["cli.evaluate", "", 2 * ms, 89 * ms, 1],
        ["screening.score", "", 10 * ms, 60 * ms, 2],
        ["mpe.scale", "", 11 * ms, 12 * ms, 3],
        ["sc_nn.infer", "a48", 20 * ms, 50 * ms, 3],
    ]
    counts = {"mpe.scale_calls": 1, "sc_nn.rows.a48": 300}
    out = tracing.layer_metrics(spans, counts, [])
    assert set(out) == set(tracing.PER_LAYER)
    assert out["trace.wall_s"] == pytest.approx(0.1)
    assert out["trace.self_sum_s"] == pytest.approx(0.1)
    assert sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS) == pytest.approx(0.1)
    assert out["screening.score_self_s"] == pytest.approx(0.019)
    assert out["sc_nn.inf_per_s.a48"] == pytest.approx(10_000)
    assert out["sc_nn.inf_per_s.a12"] == 0.0


def test_tracer_restores_originals_and_marks_missing_names(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("mpe", "NoSuchScaler.transform", "mpe.gone", None, ("mpe.gone_s",))])
    before = (mpe.parse_molecules, mpe.FeatureScaler.transform, sc_core.Lfsr.word_sequence)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mpe.parse_molecules is not before[0]
        tracer.on = True
        root = tracer.begin("bench.pass")
        mpe.FeatureScaler(np.zeros(24), np.ones(24)).transform(np.full(24, 0.5))
        tracer.end(root)
    finally:
        tracer.on = False
        tracer.uninstall()
    assert (mpe.parse_molecules, mpe.FeatureScaler.transform,
            sc_core.Lfsr.word_sequence) == before
    assert tracer.missing == {"mpe.gone_s"}
    assert [s[0] for s in tracer.spans] == ["bench.pass", "mpe.scale"]
    assert tracer.counts["mpe.scale_calls"] == 1


def test_end_to_end_emits_declared_names():
    evals = {"sc_network": [3600, 2.0], "mlp": [0, 0.0]}
    passes = [{"wall_s": w, "evals": evals, "aucs": {"sc_network": [0.9, 0.8], "mlp": []}}
              for w in (3.0, 2.0, 4.0)]
    metrics, extras = run.end_to_end(passes, [0.3, 0.1, 0.2], 100.0)
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["wall_s"] == 3.0 and metrics["setup_s"] == 0.2
    assert metrics["screen_cps"] == 1800.0
    assert extras == {"sc_screen_cps": 1800.0, "sc_auc_mean": pytest.approx(0.85)}
