"""Command-line surface tests: the full artifact flow on a tiny synthetic
corpus, exit codes, determinism, config handling."""

import argparse
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from scvs import cli, mpe, ref_nn, sc_nn
from scvs.cli import RunConfig, build_parser, load_config, main

DATA = Path(__file__).parent / "data"
# Two csv-atoms rows whose pairing energy overflows float64.
HUGE_ROWS = "huge,C,0,0,0,1e200\nhuge,C,1,0,0,1e200\n"


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Benchmark + cache + trained models, built once through the CLI."""
    ws = tmp_path_factory.mktemp("cli")
    assert run("make-bench", "--out-dir", ws / "bench", "--seed", "7",
               "--targets", "3", "--actives", "16", "--decoys", "48") == 0
    manifest = ws / "bench" / "manifest.json"
    files = sorted({
        p for t in json.loads(manifest.read_text())["targets"]
        for p in (t["crystal_ligand"], t["actives"], t["decoys"])
    })
    assert run("descriptors", *files, "--out", ws / "cache.csv") == 0
    common = ["--manifest", manifest, "--cache", ws / "cache.csv"]
    assert run("train", *common, "--arch", "48", "--activation", "relu",
               "--out", ws / "relu48.json", "--scaler-out", ws / "scaler.json",
               "--log-out", ws / "log.json", "--features-out", ws / "feats.csv",
               "--epochs", "25", "--batch-size", "32", "--train-seed", "5") == 0
    assert run("quantize", "--model", ws / "relu48.json", "--calib", ws / "feats.csv",
               "--out", ws / "hw48.json") == 0
    return ws, manifest


class TestDescriptors:
    def test_fixture_mol2_row_per_molecule(self, tmp_path):
        out = tmp_path / "cache.csv"
        assert run("descriptors", DATA / "fixture.mol2", "--out", out) == 0
        cache = mpe.read_descriptor_cache(out)
        assert set(cache) == {"ethanol_frag", "salt_pair"}

    def test_scatter_row_count(self, tmp_path):
        out = tmp_path / "cache.csv"
        scatter = tmp_path / "scatter.csv"
        assert run("descriptors", DATA / "fixture_atoms.csv", "--out", out,
                   "--scatter", scatter) == 0
        assert len(scatter.read_text().strip().splitlines()) == 1 + 5

    def test_overflowing_descriptor_exit_2_no_inf_row(self, tmp_path, capsys):
        mols = tmp_path / "mols.csv"
        mols.write_text((DATA / "fixture_atoms.csv").read_text() + HUGE_ROWS)
        out = tmp_path / "cache.csv"
        assert run("descriptors", mols, "--out", out, "--scatter", tmp_path / "s.csv") == 2
        err = capsys.readouterr().err
        assert str(mols) in err and "'huge'" in err and "Traceback" not in err
        assert "inf" not in out.read_text() and "inf" not in (tmp_path / "s.csv").read_text()
        assert len(mpe.read_descriptor_cache(out)) == 5

    def test_failing_molecule_keeps_rest_of_file(self, tmp_path, capsys):
        mols = tmp_path / "mols.csv"
        mols.write_text("molecule_id,element,x,y,z,charge\n" + HUGE_ROWS
                        + "ok1,C,0,0,0,0.4\nok1,O,1.2,0,0,-0.4\n")
        out = tmp_path / "cache.csv"
        assert run("descriptors", mols, "--out", out) == 2
        assert set(mpe.read_descriptor_cache(out)) == {"ok1"}
        err = capsys.readouterr().err
        assert err.count(str(mols)) == 1 and err.count("huge") == 1
        assert "Traceback" not in err

    def test_parse_error_names_file_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("molecule_id,element,x,y,z,charge\nm1,C,0,0,0,abc\n")
        assert run("descriptors", bad, "--out", tmp_path / "cache.csv") == 2
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1 and f"{bad}:2:" in err

    def test_out_is_directory_exit_2(self, tmp_path, capsys):
        assert run("descriptors", DATA / "fixture_atoms.csv", "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.mol2"
        assert run("descriptors", missing, "--out", tmp_path / "c.csv") == 2
        assert str(missing) in capsys.readouterr().err


class TestTrain:
    def test_model_round_trips_and_forward_reproducible(self, workspace):
        ws, _ = workspace
        mlp = ref_nn.load_mlp(ws / "relu48.json")
        x = np.linspace(-1, 1, 24)
        assert ref_nn.forward(mlp, x) == ref_nn.forward(ref_nn.load_mlp(ws / "relu48.json"), x)
        log = json.loads((ws / "log.json").read_text())
        assert log["n_train_pairs"] > 0 and log["shape"] == [24, 48, 24, 1]

    def test_arch_64_selects_published_shape(self, workspace, tmp_path):
        ws, manifest = workspace
        assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--arch", "64", "--out", tmp_path / "sw64.json",
                   "--scaler-out", tmp_path / "s.json", "--log-out", tmp_path / "l.json",
                   "--epochs", "2") == 0
        doc = json.loads((tmp_path / "sw64.json").read_text())
        assert [l["fan_out"] for l in doc["layers"]] == [64, 32, 1]

    def test_rerun_byte_identical(self, workspace, tmp_path):
        ws, manifest = workspace
        outs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv",
                       "--arch", "12", "--out", d / "m.json", "--scaler-out", d / "s.json",
                       "--log-out", d / "l.json", "--epochs", "3", "--train-seed", "9") == 0
            outs.append((d / "m.json").read_bytes())
        assert outs[0] == outs[1]


    def test_undecodable_molecule_file_exit_2_names_file(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        doc = json.loads(manifest.read_text())
        target = doc["targets"][1]
        decoys = tmp_path / "decoys.csv"
        decoys.write_bytes(Path(target["decoys"]).read_bytes() + b"d\xff,C,0,0,0,0\n")
        target["decoys"] = str(decoys)
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        assert run("train", "--manifest", bad_manifest, "--cache", ws / "cache.csv",
                   "--arch", "12", "--out", tmp_path / "m.json",
                   "--scaler-out", tmp_path / "s.json", "--log-out", tmp_path / "l.json",
                   "--epochs", "1") == 2
        err = capsys.readouterr().err
        assert target["target_id"] in err and str(decoys) in err and "decode" in err
        assert "Traceback" not in err


class TestQuantize:
    def test_parameter_echo(self, workspace):
        ws, _ = workspace
        doc = json.loads((ws / "hw48.json").read_text())
        assert doc["width"] == 12 and doc["stream_len"] == 4095
        assert doc["lfsr1"]["taps"] == [12, 11, 10, 4]
        assert doc["lfsr2"]["taps"] == [12, 6, 4, 1]

    def test_tanh_model_rejected(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--arch", "12", "--activation", "tanh", "--out", tmp_path / "t.json",
                   "--scaler-out", tmp_path / "s.json", "--log-out", tmp_path / "l.json",
                   "--epochs", "1") == 0
        assert run("quantize", "--model", tmp_path / "t.json",
                   "--out", tmp_path / "hw.json") == 1
        assert "ReLU" in capsys.readouterr().err

    def test_dequantized_weights_near_originals(self, workspace):
        ws, _ = workspace
        mlp = ref_nn.load_mlp(ws / "relu48.json")
        net = sc_nn.load_sc_network(ws / "hw48.json")
        for w, layer in zip(mlp.weights, net.layers):
            dq = layer.weights_q / 2048.0 * layer.scale
            clipped = np.clip(w, -layer.scale, layer.scale)
            np.testing.assert_allclose(dq, clipped, atol=2 ** -11 * layer.scale + 1e-12)


    def test_calib_width_mismatch_exit_1(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        rows = [line.split(",") for line in (ws / "feats.csv").read_text().splitlines()]
        calib = tmp_path / "narrow.csv"
        calib.write_text("".join(",".join(r[:-1]) + "\n" for r in rows))
        assert run("quantize", "--model", ws / "relu48.json", "--calib", calib,
                   "--out", tmp_path / "hw.json") == 1
        err = capsys.readouterr().err
        assert str(calib) in err and "23" in err and "24" in err
        assert "Traceback" not in err and not (tmp_path / "hw.json").exists()


    @pytest.mark.parametrize("value", ["nan", "x"])
    def test_calib_bad_value_exit_1(self, workspace, tmp_path, capsys, value):
        ws, _ = workspace
        calib = tmp_path / "bad.csv"
        calib.write_text((ws / "feats.csv").read_text() + ",".join([value] * 24) + "\n")
        assert run("quantize", "--model", ws / "relu48.json", "--calib", calib,
                   "--out", tmp_path / "hw.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {calib}: ")
        assert "Traceback" not in err and not (tmp_path / "hw.json").exists()


    def test_empty_calib_exit_1(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        calib = tmp_path / "empty.csv"
        calib.write_text("")
        assert run("quantize", "--model", ws / "relu48.json", "--calib", calib,
                   "--out", tmp_path / "hw.json") == 1
        assert capsys.readouterr().err == f"error: {calib}: calibration file holds no rows\n"
        assert not (tmp_path / "hw.json").exists()


class TestLoadModel:
    def test_each_model_file_read_once(self, workspace, monkeypatch):
        ws, _ = workspace
        read, paths = ref_nn.read_json, []

        def counting_read_json(path):
            paths.append(path)
            return read(path)

        monkeypatch.setattr(ref_nn, "read_json", counting_read_json)
        assert isinstance(cli.load_model(ws / "hw48.json"), sc_nn.ScNetwork)
        assert isinstance(cli.load_model(ws / "relu48.json"), ref_nn.Mlp)
        assert paths == [ws / "hw48.json", ws / "relu48.json"]


class TestEvaluate:
    def test_report_deterministic_across_runs(self, workspace, tmp_path):
        ws, manifest = workspace
        blobs = []
        for sub in ("r1", "r2"):
            rep = tmp_path / f"{sub}.json"
            assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                       "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                       "--report", rep) == 0
            blobs.append(rep.read_bytes())
        assert blobs[0] == blobs[1]

    def test_report_structure_and_note(self, workspace, tmp_path):
        ws, manifest = workspace
        rep = tmp_path / "rep.json"
        csv_out = tmp_path / "rep.csv"
        assert run("evaluate", "--model", ws / "relu48.json", "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", rep, "--csv", csv_out,
                   "--timing-out", tmp_path / "timing.json") == 0
        doc = json.loads(rep.read_text())
        assert len(doc["targets"]) == 3
        assert "auc_mean" in doc["aggregate"]
        assert "sw64-published" in doc["published_baselines"]
        assert "not reproduced at desk scale" in doc["reproducibility_note"]
        assert "inferences_per_second" not in json.dumps(doc["aggregate"])
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "target,auc,ef1,ef5,ef10"
        assert len(lines) == 4
        assert "inferences_per_second" in json.loads((tmp_path / "timing.json").read_text())

    def test_missing_scaler_exit_2(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                   "--scaler", tmp_path / "missing.json", "--report", tmp_path / "r.json") == 2
        assert "missing" in capsys.readouterr().err

    def test_duplicate_cache_id_exit_2(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        lines = (ws / "cache.csv").read_text().splitlines()
        dup_id = lines[2].split(",")[0]
        cache = tmp_path / "dup.csv"
        cache.write_text("\n".join(lines + [lines[2]]) + "\n")
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                   "--cache", cache, "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert str(cache) in err and repr(dup_id) in err and f":{len(lines) + 1}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["short", "long", "unsorted"])
    def test_malformed_cache_row_exit_2_names_line_and_id(self, workspace, tmp_path, capsys,
                                                           fault):
        ws, manifest = workspace
        lines = (ws / "cache.csv").read_text().splitlines()
        fields = lines[2].split(",")
        if fault == "short":
            fields = fields[:-1]
        elif fault == "long":
            fields = fields + ["0"]
        else:
            fields[1:3] = ["0", "5"]
        lines[2] = ",".join(fields)
        cache = tmp_path / "bad.csv"
        cache.write_text("\n".join(lines) + "\n")
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                   "--cache", cache, "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert f"{cache}:3:" in err and repr(fields[0]) in err
        assert "Traceback" not in err

    def test_overflowing_descriptor_skipped_without_cache(self, workspace, tmp_path):
        ws, manifest = workspace
        doc = json.loads(manifest.read_text())
        target = doc["targets"][0]
        actives = tmp_path / "actives.csv"
        actives.write_text(Path(target["actives"]).read_text() + HUGE_ROWS)
        target["actives"] = str(actives)
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        rep = tmp_path / "r.json"
        assert run("evaluate", "--model", ws / "relu48.json", "--manifest", bad_manifest,
                   "--scaler", ws / "scaler.json", "--report", rep) == 0
        assert json.loads(rep.read_text())["skipped_compounds"] == {target["target_id"]: 1}

    @pytest.mark.parametrize("name,path", [
        ("hw48.json", ("layers", 0, "norm_shift")),
        ("hw48.json", ("width",)),
        ("relu48.json", ("activation",)),
        ("manifest.json", ("targets",)),
    ])
    def test_malformed_file_exit_1_names_field(self, workspace, tmp_path, capsys, name, path):
        ws, manifest = workspace
        is_manifest = name == "manifest.json"
        doc = json.loads((manifest if is_manifest else ws / name).read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        bad = tmp_path / name
        bad.write_text(json.dumps(doc))
        model, manifest = (ws / "hw48.json", bad) if is_manifest else (bad, manifest)
        assert run("evaluate", "--model", model, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(path[-1]) in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("field", ["mins", "maxs"])
    def test_scaler_missing_field_exit_1(self, workspace, tmp_path, capsys, field):
        ws, manifest = workspace
        doc = json.loads((ws / "scaler.json").read_text())
        del doc[field]
        scaler = tmp_path / "scaler.json"
        scaler.write_text(json.dumps(doc))
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", scaler,
                   "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert str(scaler) in err and repr(field) in err and "Traceback" not in err

    def test_undecodable_cache_exit_2_names_file(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        lines = (ws / "cache.csv").read_bytes().splitlines(keepends=True)
        cache = tmp_path / "cache.csv"
        cache.write_bytes(b"".join(lines[:3]) + b"\xff" + b"".join(lines[3:]))
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", manifest,
                   "--cache", cache, "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert f"{cache}:4: cannot decode" in err and "Traceback" not in err

    def test_report_under_a_file_exit_2(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("evaluate", "--model", ws / "relu48.json", "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", blocker / "x.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert "Traceback" not in err


class TestCompare:
    def test_fig8_layout_sorted_by_first_report(self, workspace, tmp_path):
        ws, manifest = workspace
        for name, model in (("sw", "relu48.json"), ("hw", "hw48.json")):
            assert run("evaluate", "--model", ws / model, "--manifest", manifest,
                       "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                       "--report", tmp_path / f"{name}.json") == 0
        out = tmp_path / "cmp.json"
        assert run("compare", "--report-a", tmp_path / "sw.json",
                   "--report-b", tmp_path / "hw.json", "--out", out,
                   "--csv", tmp_path / "cmp.csv") == 0
        doc = json.loads(out.read_text())
        rows = doc["per_target_sorted_by_a"]
        assert len(rows) == 3
        aucs_a = [r["auc_a"] for r in rows]
        assert aucs_a == sorted(aucs_a, reverse=True)
        assert all(abs(r["delta"] - (r["auc_a"] - r["auc_b"])) < 1e-9 for r in rows)
        assert "published_per_target_rows" in doc
        assert "nn500-published" in doc["published_per_target_rows"]


    @pytest.mark.parametrize("fault", ["targets", "auc"])
    def test_report_missing_field_exit_1(self, workspace, tmp_path, capsys, fault):
        ws, manifest = workspace
        rep = tmp_path / "rep.json"
        assert run("evaluate", "--model", ws / "relu48.json", "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", rep) == 0
        doc = json.loads(rep.read_text())
        if fault == "targets":
            del doc["targets"]
        else:
            del doc["targets"][sorted(doc["targets"])[-1]]["auc"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("compare", "--report-a", rep, "--report-b", bad,
                   "--out", tmp_path / "cmp.json") == 1
        err = capsys.readouterr().err
        assert str(bad) in err and repr(fault) in err and "Traceback" not in err

    @pytest.mark.parametrize("auc", ["x", True, None, [0.5]])
    def test_non_numeric_auc_exit_1(self, tmp_path, capsys, auc):
        good, bad = tmp_path / "a.json", tmp_path / "b.json"
        good.write_text(json.dumps({"targets": {"t0": {"auc": 0.9}}}))
        bad.write_text(json.dumps({"targets": {"t0": {"auc": auc}}}))
        assert run("compare", "--report-a", good, "--report-b", bad,
                   "--out", tmp_path / "cmp.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(bad) in err and "'t0'" in err and "'auc'" in err


class TestUnreadableInputs:
    @pytest.mark.parametrize("fault", ["bad byte", "truncated", "deep nesting"])
    @pytest.mark.parametrize("name", ["config", "scaler", "relu48.json", "hw48.json",
                                      "manifest", "report"])
    def test_exit_1_names_file(self, workspace, tmp_path, capsys, name, fault):
        ws, manifest = workspace
        data = {
            "config": b"stream_len = 1023\n",
            "scaler": (ws / "scaler.json").read_bytes(),
            "manifest": manifest.read_bytes(),
            "report": json.dumps({"targets": {"t0": {"auc": 0.9}}}).encode(),
        }.get(name) or (ws / name).read_bytes()
        bad = tmp_path / f"bad-{name}"
        bad.write_bytes({"bad byte": data[:9] + b"\xff" + data[9:],
                         "truncated": data[:len(data) // 2],
                         "deep nesting": b"[" * 100_000}[fault])
        if name == "report":
            argv = ["compare", "--report-a", bad, "--report-b", bad, "--out", tmp_path / "c.json"]
        else:
            files = {"model": ws / "relu48.json", "manifest": manifest,
                     "scaler": ws / "scaler.json"}
            files[{"relu48.json": "model", "hw48.json": "model"}.get(name, name)] = bad
            argv = (["--config", bad] if name == "config" else []) + [
                "evaluate", "--model", files["model"], "--manifest", files["manifest"],
                "--cache", ws / "cache.csv", "--scaler", files["scaler"],
                "--report", tmp_path / "r.json"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


# (file, key path into it, a value of the wrong type for the field it names)
WRONG_TYPES = [
    ("hw48.json", ("lfsr1", "taps"), 5),
    ("hw48.json", ("lfsr1", "seed"), "x"),
    ("hw48.json", ("lfsr1", "seed"), [1]),
    ("hw48.json", ("width",), None),
    ("hw48.json", ("stream_len",), 4095.5),
    ("hw48.json", ("layers", 0, "fan_in"), "x"),
    ("hw48.json", ("layers", 0, "fan_in"), None),
    ("hw48.json", ("layers", 0, "norm_shift"), 1.5),
    ("hw48.json", ("layers", 0, "bias"), {}),
    ("hw48.json", ("layers", 0, "weights", 0), None),
    ("hw48.json", ("layers", 0, "weights", 0), 10 ** 30),
    ("relu48.json", ("layers", 0, "fan_in"), "x"),
    ("relu48.json", ("layers", 0, "weights", 0), None),
    ("relu48.json", ("trained",), "no"),
    ("manifest.json", ("targets", 0, "target_id"), 5),
    ("manifest.json", ("targets", 0, "target_id"), [1]),
    ("manifest.json", ("targets", 0, "actives"), 5),
    ("manifest.json", ("targets", 0, "actives"), None),
    ("scaler.json", ("mins", 0), None),
]


def _evaluate_edited(workspace, tmp_path, name, path, value):
    """Exit code of ``evaluate`` on the walkthrough's files with the JSON file
    ``name`` edited to hold ``value`` at ``path``, and the edited file."""
    ws, manifest = workspace
    doc = json.loads((manifest if name == "manifest.json" else ws / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / name
    bad.write_text(json.dumps(doc))
    files = {"model": ws / "hw48.json", "manifest": manifest, "scaler": ws / "scaler.json"}
    files[{"manifest.json": "manifest", "scaler.json": "scaler"}.get(name, "model")] = bad
    return run("evaluate", "--model", files["model"], "--manifest", files["manifest"],
               "--cache", ws / "cache.csv", "--scaler", files["scaler"],
               "--report", tmp_path / "r.json"), bad


# float-model values of the right type that the network rejects: (path to
# the value, value, the place and message the error must show)
FLOAT_MODEL_VALUES = [
    (("activation",), "sigmoid", "activation must be tanh or relu, got 'sigmoid'"),
    (("layers", 0, "fan_out"), 47,
     "layer 0 cannot reshape array of size 1152 into shape (47,24)"),
]


class TestWrongFieldTypes:
    @pytest.mark.parametrize("name,path,value", WRONG_TYPES, ids=[
        f"{name}:{'.'.join(map(str, path))}={value!r}" for name, path, value in WRONG_TYPES])
    def test_exit_1_names_file_and_field(self, workspace, tmp_path, capsys, name, path, value):
        code, bad = _evaluate_edited(workspace, tmp_path, name, path, value)
        assert code == 1
        err = capsys.readouterr().err
        field = [key for key in path if isinstance(key, str)][-1]
        assert err.startswith("error: ") and str(bad) in err and repr(field) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path,value,message", FLOAT_MODEL_VALUES, ids=[
        f"{'.'.join(map(str, path))}={value!r}" for path, value, _ in FLOAT_MODEL_VALUES])
    def test_float_model_value_exit_1_names_file_and_place(self, workspace, tmp_path, capsys,
                                                           path, value, message):
        code, bad = _evaluate_edited(workspace, tmp_path, "relu48.json", path, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {message}\n"


# hardware-model values of the right type but out of range: (path to the
# value, value, the place and message the error must show)
RANGE_ERRORS = [
    (("lfsr1", "seed"), 0, "lfsr1 seed must be a nonzero state"),
    (("width",), 3, "lfsr1 seed must be a nonzero state"),
    (("stream_len",), 0, "stream_len must be >= 1"),
    (("layers", 0, "scale"), 0, "layer 0 scale must be positive"),
    (("layers", 0, "fan_in"), -1, "layer 0 fan_in and fan_out must be >= 1"),
]


class TestModelRangeErrors:
    @pytest.mark.parametrize("path,value,message", RANGE_ERRORS, ids=[
        f"{'.'.join(map(str, path))}={value!r}" for path, value, _ in RANGE_ERRORS])
    def test_exit_1_names_file_and_place(self, workspace, tmp_path, capsys, path, value,
                                         message):
        code, bad = _evaluate_edited(workspace, tmp_path, "hw48.json", path, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err


# every output flag of each subcommand, with the file name it writes there
OUTPUT_FLAGS = {
    "descriptors": {"--out": "cache.csv", "--scatter": "scatter.csv"},
    "train": {"--out": "m.json", "--scaler-out": "s.json", "--log-out": "l.json",
              "--features-out": "f.csv"},
    "quantize": {"--out": "hw.json"},
    "evaluate": {"--report": "r.json", "--csv": "r.csv", "--timing-out": "t.json"},
    "compare": {"--out": "c.json", "--csv": "c.csv"},
    "per-target": {"--out": "pt.json"},
    "sc-bench": {"--out": "gates.csv"},
    "make-bench": {"--out-dir": "bench"},
}


class TestOutputParents:
    @pytest.mark.parametrize("command,flag", [(command, flag) for command, flags in
                                              OUTPUT_FLAGS.items() for flag in flags])
    def test_flag_creates_missing_parent(self, workspace, tmp_path, command, flag):
        ws, manifest = workspace
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"targets": {"t0": {"auc": 0.9}}}))
        data = ["--manifest", manifest, "--cache", ws / "cache.csv"]
        argv = [command, *{
            "descriptors": [DATA / "fixture_atoms.csv"],
            "train": data + ["--arch", "12", "--activation", "relu", "--epochs", "1"],
            "quantize": ["--model", ws / "relu48.json"],
            "evaluate": data + ["--model", ws / "hw48.json", "--scaler", ws / "scaler.json"],
            "compare": ["--report-a", report, "--report-b", report],
            "per-target": data + ["--arch", "12", "--epochs", "1"],
            "sc-bench": ["--step", "2.0"],
            "make-bench": ["--targets", "1", "--actives", "4", "--decoys", "8"],
        }[command]]
        for option, name in OUTPUT_FLAGS[command].items():
            argv += [option, tmp_path / "new" / "sub" / name if option == flag else tmp_path / name]
        assert run(*argv) == 0
        assert (tmp_path / "new" / "sub" / OUTPUT_FLAGS[command][flag]).exists()


class TestScBench:
    def test_columns_and_gate_laws(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("sc-bench", "--out", out, "--step", "0.5") == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gate,regime,x,y,C_measured,z_measured,z_formula"
        rows = [l.split(",") for l in lines[1:]]
        assert {r[0] for r in rows} == {"AND", "OR", "XNOR"}
        # Eq.-3 identity: measured output equals the formula at measured C
        for r in rows:
            if r[4] != "undefined":
                assert abs(float(r[5]) - float(r[6])) <= 2 / 4095 + 1e-9
        # correlated regime: exact order statistics / similarity laws
        stdout = capsys.readouterr().out
        assert "XNOR correlated" in stdout


class TestMakeBench:
    @pytest.mark.parametrize("value", ["-3", "0"])
    @pytest.mark.parametrize("flag", ["--targets", "--actives", "--decoys"])
    def test_count_below_1_exit_1_names_flag(self, tmp_path, capsys, flag, value):
        assert run("make-bench", "--out-dir", tmp_path / "bench", flag, value) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
        assert not (tmp_path / "bench").exists()


class TestPerTarget:
    def test_report_layout(self, workspace, tmp_path):
        ws, manifest = workspace
        out = tmp_path / "pt.json"
        assert run("per-target", "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--arch", "12", "--out", out, "--epochs", "15",
                   "--batch-size", "16") == 0
        doc = json.loads(out.read_text())
        assert set(doc["aggregate"]) == {"auc_mean", "auc_std", "ef1_mean", "ef1_std"}
        assert len(doc["targets"]) == 3
        assert "sw64-published" in doc["published_per_target_rows"]


class TestConfig:
    def test_config_file_flag_override_and_env(self, workspace, tmp_path, monkeypatch):
        ws, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stream_len = 1023\nwidth = 10  # comment\n")
        out_dir = tmp_path / "models"
        out_dir.mkdir()
        monkeypatch.setenv("SCVS_MODELS_DIR", str(out_dir))
        # flag (--stream-len 511) beats config (1023); env supplies models_dir
        assert run("--config", cfg, "quantize", "--model", ws / "relu48.json",
                   "--out", "hw_small.json", "--stream-len", "511",
                   "--seed1", "1", "--seed2", "1") == 0
        doc = json.loads((out_dir / "hw_small.json").read_text())
        assert doc["stream_len"] == 511
        assert doc["width"] == 10

    def test_invalid_width_exit_1(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        assert run("quantize", "--model", ws / "relu48.json",
                   "--out", tmp_path / "x.json", "--width", "3") == 1
        assert "width" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert run("--config", cfg, "quantize", "--model", ws / "relu48.json",
                   "--out", tmp_path / "x.json") == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_removed_workers_key_exit_1(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        cfg = tmp_path / "old.cfg"
        cfg.write_text("workers = 2\n")
        assert run("--config", cfg, "evaluate", "--model", ws / "hw48.json",
                   "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--scaler", ws / "scaler.json", "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert "workers" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_config_file_exit_2(self, workspace, tmp_path):
        ws, _ = workspace
        assert run("--config", tmp_path / "absent.cfg", "quantize",
                   "--model", ws / "relu48.json", "--out", tmp_path / "x.json") == 2

    def test_diverged_training_exit_3(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--arch", "12", "--activation", "relu", "--out", tmp_path / "m.json",
                   "--scaler-out", tmp_path / "s.json", "--log-out", tmp_path / "l.json",
                   "--epochs", "3", "--learning-rate", "1e150") == 3
        assert "non-finite" in capsys.readouterr().err


class TestDescriptorPartialFailure:
    def test_good_files_written_bad_file_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("molecule_id,element,x,y,z,charge\nm1,C,0,0,0,NaN\n")
        out = tmp_path / "cache.csv"
        assert run("descriptors", DATA / "fixture_atoms.csv", bad, "--out", out) == 2
        assert "bad.csv" in capsys.readouterr().err
        assert len(mpe.read_descriptor_cache(out)) == 5  # the good file made it


# (flag, dest, type, default) of every option, per subcommand; None is the
# top-level parser.  Adding, removing or retyping an option is a change to
# the command-line surface and must update this table on purpose.
CLI_SURFACE = {
    None: [("--config", "config", None, None)],
    "descriptors": [
        ("inputs", "inputs", None, None), ("--format", "format", None, None),
        ("--out", "out", None, None), ("--scatter", "scatter", None, None),
        ("--K", "k", "float", None)],
    "train": [
        ("--manifest", "manifest", None, None), ("--cache", "cache", None, None),
        ("--arch", "arch", None, "64"), ("--activation", "activation", None, "tanh"),
        ("--out", "out", None, None), ("--scaler-out", "scaler_out", None, None),
        ("--log-out", "log_out", None, "train_log.json"),
        ("--features-out", "features_out", None, None),
        ("--active-fraction", "active_fraction", "float", None),
        ("--decoy-fraction", "decoy_fraction", "float", None),
        ("--split-seed", "split_seed", "int", None),
        ("--learning-rate", "learning_rate", "float", None),
        ("--epochs", "epochs", "int", None), ("--batch-size", "batch_size", "int", None),
        ("--train-seed", "train_seed", "int", None),
        ("--val-fraction", "val_fraction", "float", None),
        ("--patience", "patience", "int", None)],
    "quantize": [
        ("--model", "model", None, None), ("--out", "out", None, None),
        ("--calib", "calib", None, None), ("--no-bias", "no_bias", None, False),
        ("--width", "width", "int", None), ("--stream-len", "stream_len", "int", None),
        ("--seed1", "seed1", "int", None), ("--seed2", "seed2", "int", None),
        ("--taps1", "taps1", "str", None), ("--taps2", "taps2", "str", None),
        ("--clip-quantile", "clip_quantile", "float", None),
        ("--margin", "margin", "float", None), ("--gain-cap", "gain_cap", "float", None)],
    "evaluate": [
        ("--model", "model", None, None), ("--manifest", "manifest", None, None),
        ("--cache", "cache", None, None), ("--scaler", "scaler", None, None),
        ("--report", "report", None, None), ("--csv", "csv", None, None),
        ("--timing-out", "timing_out", None, None)],
    "compare": [
        ("--report-a", "report_a", None, None), ("--report-b", "report_b", None, None),
        ("--out", "out", None, None), ("--csv", "csv", None, None)],
    "per-target": [
        ("--manifest", "manifest", None, None), ("--cache", "cache", None, None),
        ("--arch", "arch", None, "64"), ("--out", "out", None, None),
        ("--epochs", "epochs", "int", None), ("--batch-size", "batch_size", "int", None),
        ("--train-seed", "train_seed", "int", None)],
    "sc-bench": [
        ("--out", "out", None, None), ("--step", "step", "float", 0.2),
        ("--width", "width", "int", None), ("--stream-len", "stream_len", "int", None),
        ("--seed1", "seed1", "int", None), ("--seed2", "seed2", "int", None),
        ("--taps1", "taps1", "str", None), ("--taps2", "taps2", "str", None)],
    "make-bench": [
        ("--out-dir", "out_dir", None, None), ("--seed", "seed", "int", 2024),
        ("--targets", "targets", "int", 10), ("--actives", "actives", "int", 60),
        ("--decoys", "decoys", "int", 300)],
}


def _surface(parser):
    return [(a.option_strings[0] if a.option_strings else a.dest, a.dest,
             getattr(a.type, "__name__", None), a.default)
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


class TestCliSurface:
    def test_flags_frozen(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {None: _surface(parser)}
        got.update({name: _surface(p) for name, p in sub.choices.items()})
        assert got == CLI_SURFACE

    def test_config_file_accepts_every_key(self, tmp_path, monkeypatch):
        for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR"):
            monkeypatch.delenv(env, raising=False)
        defaults = RunConfig()
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{f.name} = {getattr(defaults, f.name)}\n"
                               for f in fields(RunConfig)))
        assert load_config(str(cfg), {}) == defaults

    def test_environment_sets_the_path_keys(self, tmp_path, monkeypatch):
        for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR"):
            (tmp_path / env).mkdir()
            monkeypatch.setenv(env, str(tmp_path / env))
        cfg = load_config(None, {})
        assert (cfg.data_dir, cfg.models_dir, cfg.reports_dir) == tuple(
            str(tmp_path / env) for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR",
                                            "SCVS_REPORTS_DIR"))


# sha256 of every file the walkthrough below writes.
WALKTHROUGH_SHA256 = {
    "bench/manifest.json":
        "3eb23e1c0d28fdac591e0a7f7fe01e740600adf39694dd63599b50633f1d04c7",
    "bench/synt00/actives.csv":
        "908b1d59317db95b3309e8d5a621e597e96c445dcfa1e5691da5f0a3b913412a",
    "bench/synt00/crystal.csv":
        "8bb9b96e0a7e728483162b45dac7e104a1b9936bd6c2f7b4c8d3f9d418a9889f",
    "bench/synt00/decoys.csv":
        "9c60536bc6e0a3a5c1f8817cc0bbfc53fdf4a05ecf050b8c6fe73d1ea3ed422f",
    "bench/synt01/actives.csv":
        "b996b3d3f3c98ad5ea4d9d522b690110de17942712b24d423b0b0272217d0fbc",
    "bench/synt01/crystal.csv":
        "c3d20a62ef48d9a6235f33a416e84d18a3000d372e1af3e309fe5772ed8252da",
    "bench/synt01/decoys.csv":
        "84eca9e95ad73f25667ffcaba495d8fb6106532ff0771d470abcfa120dc9cc4a",
    "bench/synt02/actives.csv":
        "630ac324aa1892124dcfda8a11d221b92fd365cde44d7b833835b78674baeca5",
    "bench/synt02/crystal.csv":
        "2ffcdb27640696598fe972b81bccec74a052ee246641667203880e77bd0311c2",
    "bench/synt02/decoys.csv":
        "298c30c48f8be293cb52a95af8abb450ba690e3df06a706abbf696015762a33e",
    "cache.csv":
        "02e83995d052b8378d93a2cde16cec0a889201e9de9e15927023a84714026c4b",
    "cmp.csv":
        "4a8a7802e54cf3f088ad6e261aaa19031b532b1bcabe25d296cac602697ee3ce",
    "cmp.json":
        "853090b9bcda98a4ef18b5bfc28b50b2da4b88a9e3034f860b84a0ae9aab1b1d",
    "feats.csv":
        "4419607e8fa17052110ac23c66502f1a017e870946677bb0b8317dce1e145a4b",
    "gates.csv":
        "ab91bc652b659fd4414a763f447b2f5682c9a9cc3d86b622fdbc87b519476a54",
    "hw.csv":
        "2579143082867eb891a991616acf7f351a694b883491e0cd2d3b3106e11a8dbc",
    "hw48.json":
        "2d3013b64bb67c5a6d251d6598adc257dce5cc24a50f02db92a2498214b59770",
    "hw_report.json":
        "8136e95bd6db780c7da0131b44fe32a9a4584e3d9cf35e614c4e9043baa71ad3",
    "pt.json":
        "15779f576061af4c9b0af58aaeae4ec82d7f091ded774c48d9579065733d8aed",
    "relu48.json":
        "2393bf9e0f00c24b387eb28c74df0a9f92cea48256ea8b182f55a842e69589e9",
    "scaler.json":
        "1476fd245690da1ea443623e865ed28aac53caf74312387d1011fd2595cd6a86",
    "scatter.csv":
        "f91ad7cc9680d42621f323a59504806f5bcdbc39c6a7072dd4fb61beb651060b",
    "sw.csv":
        "03c8e700338e9267d342d5dcc98c61419c66f3ad745ff630cef037a4d3cbc371",
    "sw_report.json":
        "429fd8efc12d3c489cc2b0f10c6af32cf291ff2e161f00d414ecd96f38e16a26",
    "train_log.json":
        "3902aadb9796cae60078fe0d544d1a5762d26db9b3c91e76e624c1cf0be05e65",
}


class TestWalkthroughBytes:
    """The README walkthrough on a small bench, run with relative paths from
    a fresh directory: any change that moves a byte of any output fails."""

    def test_every_output_file_pinned(self, tmp_path, monkeypatch):
        for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR"):
            monkeypatch.delenv(env, raising=False)
        monkeypatch.chdir(tmp_path)
        assert run("make-bench", "--out-dir", "bench", "--seed", "7", "--targets", "3",
                   "--actives", "16", "--decoys", "48") == 0
        molecules = [p for t in json.loads(Path("bench/manifest.json").read_text())["targets"]
                     for p in (t["crystal_ligand"], t["actives"], t["decoys"])]
        common = ["--manifest", "bench/manifest.json", "--cache", "cache.csv"]
        for argv in (
                ["descriptors", *molecules, "--out", "cache.csv", "--scatter", "scatter.csv"],
                ["train", *common, "--arch", "48", "--activation", "relu",
                 "--out", "relu48.json", "--scaler-out", "scaler.json",
                 "--log-out", "train_log.json", "--features-out", "feats.csv",
                 "--epochs", "5", "--batch-size", "32"],
                ["quantize", "--model", "relu48.json", "--calib", "feats.csv",
                 "--out", "hw48.json"],
                ["evaluate", "--model", "hw48.json", *common, "--scaler", "scaler.json",
                 "--report", "hw_report.json", "--csv", "hw.csv"],
                ["evaluate", "--model", "relu48.json", *common, "--scaler", "scaler.json",
                 "--report", "sw_report.json", "--csv", "sw.csv"],
                ["compare", "--report-a", "sw_report.json", "--report-b", "hw_report.json",
                 "--out", "cmp.json", "--csv", "cmp.csv"],
                ["per-target", *common, "--arch", "12", "--epochs", "3",
                 "--batch-size", "16", "--out", "pt.json"],
                ["sc-bench", "--out", "gates.csv", "--step", "0.5"]):
            assert run(*argv) == 0, argv
        got = {p.relative_to(tmp_path).as_posix():
               hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
        assert got == WALKTHROUGH_SHA256
