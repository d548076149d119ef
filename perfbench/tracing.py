"""Span tracing around the public functions of each scvs module.

The wrappers live here, not in the program: ``Tracer.install`` replaces a
module attribute (or a class attribute) with a timing wrapper and
``Tracer.uninstall`` puts the original back.  A public name that does not
exist in the code under test marks its metrics missing instead of failing the
run, so the benchmark keeps working across refactors that rename or reshape a
function.  Counts come from ``len()`` of arguments or return values and from
``getattr`` with a default.

Spans are ``(name, tag, start_ns, end_ns, parent_index)`` tuples kept in
memory; the runner writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter


def _calls(counter):
    return lambda args, result: {counter: 1}


def _len_result(counter, calls=None):
    def count(args, result):
        out = {counter: len(result)}
        if calls:
            out[calls] = 1
        return out
    return count


def _rows_by_arch(args, result):
    return {f"sc_nn.rows.{_arch_tag(args)}": len(args[1])}


def _arch_tag(args):
    layers = getattr(getattr(args[0], "net", None), "layers", None)
    return f"a{layers[0].fan_out}" if layers else ""


SC_ARCHS = ("a12", "a24", "a48", "a64", "a256")

CLI_COMMANDS = ("descriptors", "train", "quantize", "evaluate", "compare",
                "per_target", "sc_bench", "make_bench")

LAYERS = ("mpe", "ref_nn", "sc_nn", "sc_core", "screening", "synth", "cli", "bench")

# (module, attribute path, span name, counter function, metrics the wrapper feeds)
WRAPS = [
    ("mpe", "parse_molecules", "mpe.parse",
     _len_result("mpe.molecules_parsed", calls="mpe.parse_calls"),
     ("mpe.parse_s", "mpe.parse_calls", "mpe.molecules_parsed")),
    ("mpe", "mpe_vector", "mpe.descriptor", _calls("mpe.descriptor_calls"),
     ("mpe.descriptor_s", "mpe.descriptor_calls")),
    ("mpe", "read_descriptor_cache", "mpe.cache_read", None, ("mpe.cache_read_s",)),
    ("mpe", "write_descriptor_cache", "mpe.cache_write", None, ("mpe.cache_write_s",)),
    ("mpe", "FeatureScaler.transform", "mpe.scale", _calls("mpe.scale_calls"),
     ("mpe.scale_s", "mpe.scale_calls")),
    ("ref_nn", "forward_batch", "ref_nn.forward", _len_result("ref_nn.forward_rows"),
     ("ref_nn.forward_s", "ref_nn.forward_rows")),
    ("ref_nn", "train_adam", "ref_nn.train", _calls("ref_nn.train_calls"),
     ("ref_nn.train_s", "ref_nn.train_calls")),
    ("sc_nn", "ScSimulator.__init__", "sc_nn.build", _calls("sc_nn.builds"),
     ("sc_nn.build_s", "sc_nn.builds", "sc_nn.saturations", "sc_nn.rng_instantiations")),
    ("sc_nn", "ScSimulator.infer_many", "sc_nn.infer", _rows_by_arch,
     ("sc_nn.infer_s",) + tuple(f"sc_nn.inf_per_s.{a}" for a in SC_ARCHS)),
    ("sc_nn", "quantize_weights", "sc_nn.quantize", None, ("sc_nn.quantize_s",)),
    ("sc_core", "Lfsr.word_sequence", "sc_core.word_sequence",
     _calls("sc_core.word_sequence_calls"),
     ("sc_core.word_sequence_s", "sc_core.word_sequence_calls")),
    ("sc_core", "gate_eval", "sc_core.gate_eval", _calls("sc_core.gate_eval_calls"),
     ("sc_core.gate_eval_s", "sc_core.gate_eval_calls")),
    ("screening", "score_library", "screening.score", None,
     ("screening.score_s", "screening.score_self_s")),
    ("screening", "compute_metrics", "screening.metrics", None, ("screening.metrics_s",)),
    ("screening", "build_split", "screening.split", None, ("screening.split_s",)),
    ("screening", "per_target_protocol", "screening.per_target", None,
     ("screening.per_target_s",)),
    ("synth", "write_benchmark", "synth.write", None, ("synth.write_s",)),
    ("synth", "realize_molecule", "synth.realize", _calls("synth.molecules_written"),
     ("synth.molecules_written",)),
    ("cli", "main", "cli.main", None, ()),
    ("cli", "load_targets", "cli.load_targets", None, ("cli.load_targets_s",)),
    ("cli", "load_model", "cli.load_model", None, ("cli.load_model_s",)),
] + [("cli", f"cmd_{c}", f"cli.{c}", None, (f"cli.{c}_s",)) for c in CLI_COMMANDS]

# Span names whose inclusive time is reported as ``<name>_s``.
_TIMED = {spec[2] for spec in WRAPS} - {"synth.realize", "cli.main", "sc_nn.infer"}

PER_LAYER = {
    **{name: unit for spec in WRAPS for name, unit in
       ((m, "s" if m.endswith("_s") else "count") for m in spec[4])},
    **{f"sc_nn.inf_per_s.{a}": "1/s" for a in SC_ARCHS},
    "sc_nn.noise_mae": "score",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}
"""Every per-layer metric the traced run emits, with its unit."""


def _resolve(module, path):
    """(owner, attribute name) for ``module.path``, or None if absent."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    """Records spans and counters while installed and ``on``."""

    def __init__(self):
        self.on = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self.simulators: list = []
        self.missing: set = set()
        self._stack: list = []
        self._patched: list = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for mod_name, path, span, count, metrics in WRAPS:
            module = importlib.import_module(f"scvs.{mod_name}")
            target = _resolve(module, path)
            if target is None:
                self.missing.update(metrics)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            # An inherited method is removed again rather than copied onto the class.
            restore = not isinstance(owner, type) or attr in owner.__dict__
            self._patched.append((owner, attr, original, restore))
            setattr(owner, attr, self._wrap(span, original, count,
                                            tag=_arch_tag if span == "sc_nn.infer" else None,
                                            keep=span == "sc_nn.build"))

    def uninstall(self) -> None:
        for owner, attr, original, restore in reversed(self._patched):
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def _wrap(self, name, fn, count, tag=None, keep=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, tag(args) if tag else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if keep:
                tracer.simulators.append(args[0])
            if count is not None:
                try:
                    tracer.counts.update(count(args, result))
                except (TypeError, AttributeError, IndexError):
                    pass
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def reset(self) -> None:
        """Start a new pass: drop spans, counters and simulator references."""
        self.spans, self.counts, self.simulators, self._stack = [], Counter(), [], []


def layer_metrics(spans, counts, simulators, missing=()) -> dict:
    """Per-layer metrics of one traced pass (values in seconds or counts).

    ``spans`` must hold one root span (the pass); self times then add up to
    its duration.
    """
    n = len(spans)
    child = [0] * n
    for name, tag, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = Counter()
    self_by_name = Counter()
    self_by_layer = Counter()
    infer_by_arch = Counter()
    for i, (name, tag, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        total[name] += dur
        own = dur - child[i]
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        if name == "sc_nn.infer":
            infer_by_arch[tag] += dur

    out = {name: 0.0 if unit != "count" else 0 for name, unit in PER_LAYER.items()}
    for name in _TIMED:
        out[f"{name}_s"] = total[name] / 1e9
    for key, value in counts.items():
        if key in out:
            out[key] = value
    out["sc_nn.infer_s"] = total["sc_nn.infer"] / 1e9
    for arch in SC_ARCHS:
        rows = counts.get(f"sc_nn.rows.{arch}", 0)
        out[f"sc_nn.inf_per_s.{arch}"] = rows / (infer_by_arch[arch] / 1e9) if rows else 0.0
    out["screening.score_self_s"] = self_by_name["screening.score"] / 1e9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] / 1e9
    roots = [s for s in spans if s[4] < 0]
    out["trace.wall_s"] = sum(t1 - t0 for _, _, t0, t1, _ in roots) / 1e9
    out["trace.self_sum_s"] = sum(self_by_layer.values()) / 1e9
    sats = [getattr(s, "saturation_count", None) for s in simulators]
    rngs = [getattr(s, "rng_instantiations", None) for s in simulators]
    missing = set(missing)
    if None in sats:
        missing.add("sc_nn.saturations")
    else:
        out["sc_nn.saturations"] = sum(sats)
    if None in rngs:
        missing.add("sc_nn.rng_instantiations")
    else:
        out["sc_nn.rng_instantiations"] = max(rngs, default=0)
    for name in missing:
        out.pop(name, None)
    return out


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counts stay whole numbers); a metric
    missing in any pass is dropped."""
    keys = set.intersection(*(set(p) for p in per_pass)) if per_pass else set()
    return {k: (statistics.median_low if PER_LAYER.get(k) == "count" else statistics.median)(
                [p[k] for p in per_pass]) for k in keys}
