"""Command-line surface tests: the full artifact flow on a tiny synthetic
corpus, exit codes, determinism, config handling."""

import argparse
import contextlib
import hashlib
import io
import json
import re
import reprlib
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvs import cli, mpe, ref_nn, sc_core, sc_nn
from scvs.cli import RunConfig, build_parser, load_config, main
from scvs.sc_core import GateKind

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

    def test_scatter_path_printed_as_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCVS_DATA_DIR", str(tmp_path))
        assert run("descriptors", DATA / "fixture_atoms.csv", "--out", "c.csv",
                   "--scatter", "s.csv") == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"wrote 5 descriptor rows to {tmp_path / 'c.csv'}",
                                    f"wrote scatter data for 5 molecules to {tmp_path / 's.csv'}"]
        assert (tmp_path / "s.csv").is_file()

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

    def test_id_repeated_across_files_written_once(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("molecule_id,element,x,y,z,charge\n"
                         "m1,C,0,0,0,0.4\nm1,O,1.2,0,0,-0.4\n")
        second.write_text("molecule_id,element,x,y,z,charge\n"
                          "m1,N,0,0,0,0.9\nm1,O,2.5,0,0,-0.9\n"
                          "m2,C,0,0,0,0.3\nm2,O,1.1,0,0,-0.3\n")
        alone, out = tmp_path / "alone.csv", tmp_path / "cache.csv"
        assert run("descriptors", first, "--out", alone) == 0
        assert run("descriptors", second, "--out", tmp_path / "second.csv") == 0
        capsys.readouterr()
        assert run("descriptors", first, second, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {second}: molecule 'm1': id already written\n"
        cache = mpe.read_descriptor_cache(out)
        assert list(cache) == ["m1", "m2"]
        np.testing.assert_array_equal(cache["m1"], mpe.read_descriptor_cache(alone)["m1"])
        np.testing.assert_array_equal(
            cache["m2"], mpe.read_descriptor_cache(tmp_path / "second.csv")["m2"])

    def test_mol2_blocks_of_one_name_written_once(self, tmp_path, capsys):
        mols = tmp_path / "twice.mol2"
        mols.write_text((DATA / "fixture.mol2").read_text().replace("salt_pair", "ethanol_frag"))
        out, whole = tmp_path / "cache.csv", tmp_path / "whole.csv"
        assert run("descriptors", DATA / "fixture.mol2", "--out", whole) == 0
        capsys.readouterr()
        assert run("descriptors", mols, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {mols}: molecule 'ethanol_frag': id already written\n"
        cache = mpe.read_descriptor_cache(out)
        assert list(cache) == ["ethanol_frag"]
        np.testing.assert_array_equal(cache["ethanol_frag"],
                                      mpe.read_descriptor_cache(whole)["ethanol_frag"])

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
        mlp = cli.load_model(ws / "relu48.json")
        x = np.linspace(-1, 1, 24)
        assert (ref_nn.forward_batch(mlp, x)[0]
                == ref_nn.forward_batch(cli.load_model(ws / "relu48.json"), x)[0])
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

    @pytest.mark.parametrize("trained", [True, False])
    def test_old_trained_key_changes_no_byte(self, workspace, tmp_path, monkeypatch, trained):
        # float model files once held a "trained" flag; it is read like any
        # other key the reader does not ask for.  Both nets are named alike,
        # relative to their own models dir, so the reports may match byte for byte.
        ws, manifest = workspace
        doc = json.loads((ws / "relu48.json").read_text())
        out = {}
        for name, model in (("plain", doc), ("marked", {**doc, "trained": trained})):
            models = tmp_path / name
            models.mkdir()
            ref_nn.write_json(model, models / "relu48.json")
            monkeypatch.setenv("SCVS_MODELS_DIR", str(models))
            assert run("quantize", "--model", "relu48.json", "--calib", ws / "feats.csv",
                       "--out", "hw48.json") == 0
            for kind in ("relu48", "hw48"):
                assert run("evaluate", "--model", f"{kind}.json", "--manifest", manifest,
                           "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                           "--report", models / f"r-{kind}.json") == 0
            out[name] = [(models / f).read_bytes()
                         for f in ("relu48.json", "hw48.json", "r-relu48.json", "r-hw48.json")]
        assert (ws / "relu48.json").read_bytes() == out["plain"][0] != out["marked"][0]
        assert out["marked"][1:] == out["plain"][1:]

    def test_zero_width_layer_exit_1_names_file_and_layer(self, workspace, tmp_path, capsys):
        # layer 1 has no neurons, and layer 2 takes its none: every array is
        # whole, but the net would score every compound by layer 2's bias
        ws, manifest = workspace
        doc = json.loads((ws / "relu48.json").read_text())
        doc["layers"][1].update(fan_out=0, weights=[], bias=[])
        doc["layers"][2].update(fan_in=0, weights=[])
        bad = tmp_path / "zero.json"
        bad.write_text(json.dumps(doc))
        message = f"error: {bad}: layer 1 fan_in and fan_out must be >= 1, got 48 and 0\n"
        assert run("quantize", "--model", bad, "--calib", ws / "feats.csv",
                   "--out", tmp_path / "hw.json") == 1
        assert capsys.readouterr().err == message and not (tmp_path / "hw.json").exists()
        assert run("evaluate", "--model", bad, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == message and not (tmp_path / "r.json").exists()

    def test_dequantized_weights_near_originals(self, workspace):
        ws, _ = workspace
        mlp = cli.load_model(ws / "relu48.json")
        net = cli.load_model(ws / "hw48.json")
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


class TestRepeatedTargetId:
    @pytest.mark.parametrize("command", ["evaluate", "train", "per-target"])
    def test_exit_1_before_any_molecule_is_read(self, workspace, tmp_path, capsys, monkeypatch,
                                                command):
        ws, manifest = workspace
        doc = json.loads(manifest.read_text())
        doc["targets"].append({**doc["targets"][1], "actives": doc["targets"][2]["actives"]})
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        args = {
            "evaluate": ["--model", ws / "relu48.json", "--scaler", ws / "scaler.json",
                         "--report", out / "r.json", "--csv", out / "r.csv"],
            "train": ["--arch", "12", "--activation", "relu", "--out", out / "m.json",
                      "--scaler-out", out / "s.json", "--log-out", out / "l.json",
                      "--features-out", out / "f.csv", "--epochs", "1"],
            "per-target": ["--arch", "12", "--epochs", "1", "--out", out / "pt.json"],
        }[command]
        parsed = []
        real = mpe.parse_molecules

        def parse_molecules(path):
            parsed.append(path)
            return real(path)

        monkeypatch.setattr(mpe, "parse_molecules", parse_molecules)
        assert run(command, "--manifest", bad, "--cache", ws / "cache.csv", *args) == 1
        tid = doc["targets"][1]["target_id"]
        assert capsys.readouterr().err == \
            f"error: {bad}: manifest entry 3 repeats target_id {tid!r}\n"
        assert parsed == [] and list(out.iterdir()) == []


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["mlp", "sc_network"])
    def test_model_not_taking_24_inputs_exit_1_names_file(self, workspace, tmp_path, capsys,
                                                          kind):
        ws, manifest = workspace
        mlp = ref_nn.init_mlp([12, 4, 1], "relu", seed=0)
        model = tmp_path / "m12.json"
        if kind == "mlp":
            ref_nn.save_mlp(mlp, model)
        else:
            sc_nn.save_sc_network(sc_nn.quantize_weights(mlp), model)
        rep = tmp_path / "r.json"
        assert run("evaluate", "--model", model, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", rep) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(model) in err and "12" in err
        assert "Traceback" not in err and not rep.exists()

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
        # the settings that shape a model live in its file, not in the report
        assert "config" not in doc
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "target,auc,ef1,ef5,ef10"
        assert len(lines) == 4
        assert "inferences_per_second" in json.loads((tmp_path / "timing.json").read_text())

    def test_bare_list_manifest_exit_1(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        bare = tmp_path / "manifest.json"
        bare.write_text(json.dumps(json.loads(manifest.read_text())["targets"]))
        assert run("evaluate", "--model", ws / "hw48.json", "--manifest", bare,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert str(bare) in err and "Traceback" not in err

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


class TestLoadTargets:
    def test_full_cache_builds_no_molecule(self, workspace, monkeypatch):
        ws, manifest = workspace
        cache = mpe.read_descriptor_cache(ws / "cache.csv")

        def refuse(*args, **kwargs):
            raise AssertionError("a cached load built or described a molecule")

        monkeypatch.setattr(mpe, "mpe_vectors", refuse)
        targets, failures = cli.load_targets(manifest, cache, mpe.DEFAULT_K)
        assert failures == [] and len(targets) == 3
        assert [len(t.compounds) for t in targets] == [16 + 48] * 3
        assert all(t.crystal is cache[f"{t.target_id}_crystal"] for t in targets)


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


def _mutated(data: bytes, kind: str, at: int, byte: bytes) -> bytes:
    """``data`` truncated at a byte, with ``byte`` inserted, or with a comma
    dropped or added; ``at`` picks the place."""
    if kind == "truncate":
        return data[:at % len(data)]
    if kind == "drop comma":
        commas = [i for i, b in enumerate(data) if b == ord(",")]
        i = commas[at % len(commas)]
        return data[:i] + data[i + 1:]
    i = at % (len(data) + 1)
    return data[:i] + (b"," if kind == "add comma" else byte) + data[i:]


_MUTATIONS = st.tuples(st.sampled_from(["truncate", "insert", "drop comma", "add comma"]),
                       st.integers(0, 1 << 20), st.sampled_from([b"\xff", b"\0", b'"', b"\r"]))


def _captured(*argv):
    """Exit code and stderr of one command; the command must return a
    documented code, not raise."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    return code, err.getvalue()


def _library_fault(read, path):
    """The MoleculeParseError the library's reader raises for ``path``, or
    None when it reads the file."""
    try:
        read(path)
    except mpe.MoleculeParseError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
        return exc
    return None


def _fresh_dir(ws):
    """A new directory for one example's files: every file is written new,
    none rewritten."""
    return Path(tempfile.mkdtemp(dir=ws))


def _assert_failed_cleanly(code, err, path):
    """A failing command exits 1, 2 or 3 with a message that names ``path``."""
    if code:
        assert err.startswith(("error: ", "numeric failure: ")) and str(path) in err


class TestMutatedInputs:
    """A csv-atoms file and a descriptor cache, truncated, with a byte
    inserted or a comma dropped or added, through ``descriptors`` and a
    cached ``evaluate``: a file the library rejects fails its target (naming
    file and line) or the command (exit 2, naming it); no mutation gives a
    traceback."""

    @given(_MUTATIONS)
    @settings(max_examples=60, deadline=None)
    def test_csv_atoms(self, workspace, mutation):
        ws, manifest = workspace
        doc = json.loads(manifest.read_text())
        target = doc["targets"][1]
        bad = _fresh_dir(ws) / "decoys.csv"
        bad.write_bytes(_mutated(Path(target["decoys"]).read_bytes(), *mutation))
        fault = _library_fault(lambda p: mpe.parse_molecules(p), bad)

        code, err = _captured("descriptors", bad, "--out", bad.parent / "cache.csv")
        _assert_failed_cleanly(code, err, bad)
        if fault is not None:
            assert code == 2 and f"error: {fault}\n" in err

        target["decoys"] = str(bad)
        bad_manifest = bad.parent / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        code, err = _captured("evaluate", "--model", ws / "relu48.json",
                              "--manifest", bad_manifest, "--cache", ws / "cache.csv",
                              "--scaler", ws / "scaler.json", "--report", bad.parent / "r.json")
        assert code == 0
        failed = json.loads((bad.parent / "r.json").read_text())["failed_targets"]
        if fault is not None:
            assert failed == [{"target_id": target["target_id"], "error": str(fault)}]

    @given(_MUTATIONS)
    @settings(max_examples=60, deadline=None)
    def test_descriptor_cache(self, workspace, mutation):
        ws, manifest = workspace
        bad = _fresh_dir(ws) / "cache.csv"
        bad.write_bytes(_mutated((ws / "cache.csv").read_bytes(), *mutation))
        fault = _library_fault(mpe.read_descriptor_cache, bad)
        code, err = _captured("evaluate", "--model", ws / "relu48.json",
                              "--manifest", manifest, "--cache", bad,
                              "--scaler", ws / "scaler.json", "--report", bad.parent / "r.json")
        _assert_failed_cleanly(code, err, bad)
        assert code == (0 if fault is None else 2)
        if fault is not None:
            assert err == f"error: {fault}\n"


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
    # layer 1 itself is whole, but takes 47 inputs where layer 0 gives 48
    (("layers", 1), {"fan_in": 47, "fan_out": 24, "weights": [0.0] * (24 * 47),
                     "bias": [0.0] * 24},
     "layer 1 fan_in 47 != layer 0 fan_out 48"),
    (("layers", 1, "bias"), [0.0] * 23, "layer 1 bias must hold 24 values, got (23,)"),
    # a whole hidden layer of no neurons
    (("layers", 1), {"fan_in": 48, "fan_out": 0, "weights": [], "bias": []},
     "layer 1 fan_in and fan_out must be >= 1, got 48 and 0"),
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
        f"{'.'.join(map(str, path))}={reprlib.repr(value)}"
        for path, value, _ in FLOAT_MODEL_VALUES])
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
    (("width",), 3, "SC width 3 outside [4, 16]"),
    (("stream_len",), 0, "stream_len must be >= 1"),
    (("layers", 0, "scale"), 0, "layer 0 scale must be positive"),
    (("layers", 0, "scale"), float("nan"), "layer 0 scale must be positive and finite"),
    (("layers", 1, "scale"), float("inf"), "layer 1 scale must be positive and finite"),
    (("layers", 0, "bias", 0), 5000, "layer 0 bias words exceed 12-bit range"),
    (("layers", 1, "bias", 2), -2049, "layer 1 bias words exceed 12-bit range"),
    (("layers", 0, "weights", 0), 2048, "layer 0 weight words exceed 12-bit range"),
    (("layers", 0, "fan_in"), -1, "layer 0 fan_in and fan_out must be >= 1"),
    (("layers", 0), {"fan_in": 24, "fan_out": 0, "norm_shift": 0, "scale": 1.0,
                     "weights": [], "bias": []},
     "layer 0 fan_in and fan_out must be >= 1, got 24 and 0"),
    # layer 1 itself is whole, but takes 47 inputs where layer 0 gives 48
    (("layers", 1), {"fan_in": 47, "fan_out": 24, "norm_shift": 4, "scale": 1.0,
                     "weights": [0] * (24 * 47), "bias": [0] * 24},
     "layer 1 fan_in 47 != layer 0 fan_out 48"),
    (("layers", 0, "norm_shift"), -1, "layer 0 norm_shift must be in [0, 63], got -1"),
    (("layers", 0, "norm_shift"), 1100, "layer 0 norm_shift must be in [0, 63], got 1100"),
    (("lfsr1", "taps"), [12, 1],
     "lfsr1 taps must be the tabled polynomial [12, 11, 10, 4] of width 12, got [12, 1]"),
]


class TestModelRangeErrors:
    @pytest.mark.parametrize("path,value,message", RANGE_ERRORS, ids=[
        f"{'.'.join(map(str, path))}={reprlib.repr(value)}" for path, value, _ in RANGE_ERRORS])
    def test_exit_1_names_file_and_place(self, workspace, tmp_path, capsys, path, value,
                                         message):
        code, bad = _evaluate_edited(workspace, tmp_path, "hw48.json", path, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("width,taps", [(3, [3, 2]), (17, [17, 14]), (18, [18, 11])])
    def test_width_outside_bound_exit_1_names_file(self, workspace, tmp_path, capsys, width,
                                                   taps):
        # taps of the file's own width, so only the width bound can reject it
        ws, manifest = workspace
        doc = json.loads((ws / "hw48.json").read_text())
        doc["width"] = width
        doc["lfsr1"]["taps"], doc["lfsr2"]["taps"] = taps, taps[:1] + [1]
        doc["lfsr1"]["seed"] = doc["lfsr2"]["seed"] = 5
        bad = tmp_path / "hw.json"
        bad.write_text(json.dumps(doc))
        assert run("evaluate", "--model", bad, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: SC width {width} outside [4, 16]\n"
        assert not (tmp_path / "r.json").exists()

    def test_swapped_generators_exit_1_names_file(self, workspace, tmp_path, capsys):
        # each polynomial is maximal, but each generator runs the other's
        ws, manifest = workspace
        doc = json.loads((ws / "hw48.json").read_text())
        doc["lfsr1"]["taps"], doc["lfsr2"]["taps"] = doc["lfsr2"]["taps"], doc["lfsr1"]["taps"]
        bad = tmp_path / "hw.json"
        bad.write_text(json.dumps(doc))
        assert run("evaluate", "--model", bad, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", ws / "scaler.json",
                   "--report", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: lfsr1 taps must be the tabled polynomial [12, 11, 10, 4] "
            f"of width 12, got [12, 6, 4, 1]\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("model", ["hw48.json", "relu48.json"])
    @pytest.mark.parametrize("edit,message", [
        ({"mins": float("nan")}, "scaler mins must be finite"),
        ({"maxs": float("inf")}, "scaler maxs must be finite"),
        ({"mins": -1e308, "maxs": 1e308}, "scaler span maxs - mins overflows")],
        ids=["nan-min", "inf-max", "huge-span"])
    def test_bad_scaler_exit_1_names_file(self, workspace, tmp_path, capsys, model, edit,
                                          message):
        ws, manifest = workspace
        doc = json.loads((ws / "scaler.json").read_text())
        for key, value in edit.items():
            doc[key][3] = value
        bad = tmp_path / "scaler.json"
        bad.write_text(json.dumps(doc))
        assert run("evaluate", "--model", ws / model, "--manifest", manifest,
                   "--cache", ws / "cache.csv", "--scaler", bad,
                   "--report", tmp_path / "r.json") == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "r.json").exists()


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

    def test_formula_exact_at_measured_correlation(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("sc-bench", "--out", out, "--step", "0.2") == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        defined = [r for r in rows if r[4] != "undefined"]
        assert any(float(r[4]) < 0 for r in defined)
        for r in defined:
            assert abs(float(r[5]) - float(r[6])) <= 1e-9, r


    @pytest.mark.parametrize("seeds", [(1, 5), (9, 3)], ids=["seeds-1-5", "seeds-9-3"])
    @pytest.mark.parametrize("width", [4, 8, 12])
    @pytest.mark.parametrize("step", [0.5, 0.25, 0.13])
    def test_rows_equal_scalar_spec_ops(self, tmp_path, step, width, seeds):
        # One period per width: 15, 255 and 4095 bits, each with pad bits in
        # its last packed word.
        n = (1 << width) - 1
        settings = ["--width", width, "--stream-len", n, "--seed1", seeds[0], "--seed2", seeds[1]]
        out = tmp_path / "gates.csv"
        assert run("sc-bench", "--out", out, "--step", step, *settings) == 0
        cfg = RunConfig(width=width, stream_len=n, seed1=seeds[0], seed2=seeds[1])
        r1, r2 = (g.word_sequence(n) for g in cfg.lfsrs())
        bits = {GateKind.AND: np.logical_and, GateKind.OR: np.logical_or,
                GateKind.XNOR: np.equal}
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        grid = len(np.arange(-1.0, 1.0001, step))
        assert len(rows) == 3 * 2 * grid * grid
        for gate, regime, x, y, c_text, z_text, formula_text in rows:
            kind = GateKind[gate]
            a = sc_core.to_stochastic(sc_core.encode(float(x), width), r1)
            b = sc_core.to_stochastic(sc_core.encode(float(y), width),
                                      r2 if regime == "uncorrelated" else r1)
            z = sc_core.gate_eval(kind, a, b).value
            assert z_text == str(z)
            # the gate on the unpacked bits, which holds no pad bits to count
            assert z == (2 * int(bits[kind](a.to_bools(), b.to_bools()).sum()) - n) / n
            try:
                c = sc_core.sc_correlation(a, b)
            except sc_core.CorrelationUndefined:
                assert (c_text, formula_text) == ("undefined", z_text)
                continue
            assert c_text == format(c, ".6f")
            formula = sc_core.expected_gate_output(kind, a.value, b.value, c)
            assert formula_text == str(formula)
            # Eq. 3 holds exactly at the measured correlation
            assert abs(formula - z) <= 1e-9

    @pytest.mark.parametrize("block", [None, 1], ids=["one-block", "block-per-row"])
    def test_step_0_03_bytes_pinned(self, tmp_path, monkeypatch, block):
        if block:
            monkeypatch.setattr(sc_core, "_SWEEP_BLOCK", block)
        out = tmp_path / "gates.csv"
        assert run("sc-bench", "--out", out, "--step", "0.03") == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "3d91baabfd9ded130aee4dcfc9099b983ef535220251491de6f76d579d37b164"


class TestMakeBench:
    @pytest.mark.parametrize("value", ["-3", "0"])
    @pytest.mark.parametrize("flag", ["--targets", "--actives", "--decoys"])
    def test_count_below_1_exit_1_names_flag(self, tmp_path, capsys, flag, value):
        assert run("make-bench", "--out-dir", tmp_path / "bench", flag, value) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got {value}\n"
        assert not (tmp_path / "bench").exists()

    def test_negative_seed_exit_1_writes_nothing(self, tmp_path, capsys):
        assert run("make-bench", "--out-dir", tmp_path / "bench", "--seed", "-1",
                   "--targets", "1", "--actives", "2", "--decoys", "2") == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
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


class TestRecordedSettings:
    def test_train_log_and_per_target_report_record_what_they_read(
            self, workspace, tmp_path, monkeypatch, capsys):
        # The train log records the split and training settings, the
        # per-target report the training settings, a --config file's
        # included; neither records the SC settings or the base directories.
        ws, manifest = workspace
        for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR"):
            monkeypatch.delenv(env, raising=False)
        monkeypatch.setenv("SCVS_MODELS_DIR", str(tmp_path))
        monkeypatch.setenv("SCVS_REPORTS_DIR", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.002\npatience = 3\nval_fraction = 0.2\nwidth = 10\n")
        data = ["--manifest", manifest, "--cache", ws / "cache.csv", "--arch", "12",
                "--epochs", "2"]
        assert run("--config", cfg, "train", *data, "--split-seed", "9", "--out", "m.json",
                   "--scaler-out", "s.json", "--log-out", "log.json") == 0
        assert run("--config", cfg, "per-target", *data, "--out", "pt.json") == 0
        defaults = RunConfig()
        training = {"learning_rate": 0.002, "epochs": 2, "batch_size": defaults.batch_size,
                    "train_seed": defaults.train_seed, "val_fraction": 0.2, "patience": 3}
        assert json.loads((tmp_path / "log.json").read_text())["config"] == {
            "active_fraction": defaults.active_fraction,
            "decoy_fraction": defaults.decoy_fraction, "split_seed": 9, **training}
        assert json.loads((tmp_path / "pt.json").read_text())["config"] == training
        # compare and per-target print the path they wrote, resolved
        assert run("compare", "--report-a", tmp_path / "pt.json",
                   "--report-b", tmp_path / "pt.json", "--out", "c.json") == 0
        printed = capsys.readouterr().out
        assert f"-> {tmp_path / 'pt.json'}\n" in printed
        assert f"-> {tmp_path / 'c.json'}\n" in printed


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

    @pytest.mark.parametrize("key", ["workers", "clip_quantile", "margin", "gain_cap",
                                     "k", "taps1", "taps2"])
    def test_removed_config_key_exit_1(self, workspace, tmp_path, capsys, key):
        ws, manifest = workspace
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 2\n")
        assert run("--config", cfg, "evaluate", "--model", ws / "hw48.json",
                   "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--scaler", ws / "scaler.json", "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_config_file_exit_2(self, workspace, tmp_path):
        ws, _ = workspace
        assert run("--config", tmp_path / "absent.cfg", "quantize",
                   "--model", ws / "relu48.json", "--out", tmp_path / "x.json") == 2

    @pytest.mark.parametrize("flag,value,name", [
        *(("--val-fraction", v, "val_fraction") for v in ("inf", "nan", "1.5", "1.0", "-0.5")),
        ("--split-seed", "-1", "split seed"), ("--train-seed", "-1", "training seed"),
        ("--learning-rate", "nan", "learning_rate"),
        ("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
        ("--patience", "-1", "patience")])
    def test_bad_setting_exit_1_names_it(self, workspace, tmp_path, capsys, flag, value, name):
        ws, manifest = workspace
        assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv", "--arch", "12",
                   "--activation", "relu", "--scaler-out", tmp_path / "s.json",
                   "--log-out", tmp_path / "l.json", "--epochs", "1",
                   "--out", tmp_path / "m.json", flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err

    def test_diverged_training_exit_3(self, workspace, tmp_path, capsys):
        ws, manifest = workspace
        assert run("train", "--manifest", manifest, "--cache", ws / "cache.csv",
                   "--arch", "12", "--activation", "relu", "--out", tmp_path / "m.json",
                   "--scaler-out", tmp_path / "s.json", "--log-out", tmp_path / "l.json",
                   "--epochs", "3", "--learning-rate", "1e150") == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,extra", [
        ("descriptors", ["--K", "1"]),  # K is mpe.DEFAULT_K
        ("descriptors", ["--format", "csv-atoms"]),  # the extension decides
        ("quantize", ["--taps1", "12,6"]),  # the tabled maximal polynomials
        ("sc-bench", ["--taps2", "12,6"]),
        ("train", ["--epochs", "abc"]),
        ("train", ["--activation", "sigmoid"]),
        ("train", ["--no-such-flag"]),
        ("evaluate", []),  # --manifest, --scaler and --report missing
        ("no-such-command", []),
    ])
    def test_rejected_command_line_exit_1_writes_nothing(self, workspace, tmp_path, capsys,
                                                         command, extra):
        ws, manifest = workspace
        out = tmp_path / "out"
        argv = {
            "descriptors": ["descriptors", DATA / "fixture_atoms.csv", "--out", out / "c.csv"],
            "quantize": ["quantize", "--model", ws / "relu48.json", "--calib", ws / "feats.csv",
                         "--out", out / "hw.json"],
            "sc-bench": ["sc-bench", "--out", out / "gates.csv"],
            "train": ["train", "--manifest", manifest, "--cache", ws / "cache.csv",
                      "--arch", "12", "--activation", "relu", "--out", out / "m.json",
                      "--scaler-out", out / "s.json", "--log-out", out / "l.json"],
            "evaluate": ["evaluate", "--model", ws / "hw48.json"],
        }.get(command, [command])
        assert run(*argv, *extra) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "usage" not in err and "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sc-bench", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: scvs sc-bench")


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
        ("inputs", "inputs", None, None),
        ("--out", "out", None, None), ("--scatter", "scatter", None, None)],
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
        ("--seed1", "seed1", "int", None), ("--seed2", "seed2", "int", None)],
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
        ("--seed1", "seed1", "int", None), ("--seed2", "seed2", "int", None)],
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

    def test_every_setting_is_some_command_flag(self):
        # A setting that no command takes cannot vary between callers, so it
        # is a constant; only the base directories are set another way.
        untaken = {f.name for f in fields(RunConfig) if not f.metadata.get("commands")}
        assert untaken == {"data_dir", "models_dir", "reports_dir"}

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
        "188c98be6f49fa1601b1cb37e0242e4549bf7c9961cc9b683b9fa3c4dc039f6f",
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
        "12cde3c3a66b0204017d2205156b1ab6633dcc5dec5102bf1f32ca6099610647",
    "hw.csv":
        "2579143082867eb891a991616acf7f351a694b883491e0cd2d3b3106e11a8dbc",
    "hw48.json":
        "2d3013b64bb67c5a6d251d6598adc257dce5cc24a50f02db92a2498214b59770",
    "hw_report.json":
        "dca20f7e0a0b076732f62b5145549d8c1d367c3003e2ec2ec73bc86968c632b7",
    "pt.json":
        "bddfeea5ba449dd3e0d7ab3421c3d87aa1bc3ae2a0d95c5010d88ce156fc5154",
    "relu48.json":
        "f08c7d96f72e61db0a8c6f284d5f5cd8036491d87491c3f9c419503920d704bb",
    "scaler.json":
        "669b8b499325893c0b602192a1c094500b38e2bbead0c77890422d7a69d29631",
    "scatter.csv":
        "f91ad7cc9680d42621f323a59504806f5bcdbc39c6a7072dd4fb61beb651060b",
    "sw.csv":
        "03c8e700338e9267d342d5dcc98c61419c66f3ad745ff630cef037a4d3cbc371",
    "sw_report.json":
        "01058865caec7586fe6509ccefc09521fb86694b467cbebddb8ad183779b4af7",
    "train_log.json":
        "539f663585f9c01ab67a1e1710be33c62ff5fcfe765ec464fc3259e397f70c62",
}


@pytest.fixture(scope="class")
def walkthrough(tmp_path_factory):
    """The README walkthrough on a small bench, run with relative paths from
    a fresh directory: that directory and the sha256 of every file the
    walkthrough writes.  An evaluate with a timing sidecar, which is not
    deterministic, runs after the files are hashed."""
    root = tmp_path_factory.mktemp("walkthrough")
    with pytest.MonkeyPatch.context() as m:
        for env in ("SCVS_DATA_DIR", "SCVS_MODELS_DIR", "SCVS_REPORTS_DIR"):
            m.delenv(env, raising=False)
        m.chdir(root)
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
        digest = {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(root.rglob("*")) if p.is_file()}
        assert run("evaluate", "--model", "hw48.json", *common, "--scaler", "scaler.json",
                   "--report", "timed_report.json", "--timing-out", "timing.json") == 0
    return root, digest


class TestWalkthroughBytes:
    def test_every_output_file_pinned(self, walkthrough):
        # any change that moves a byte of any output fails
        assert walkthrough[1] == WALKTHROUGH_SHA256

    def test_every_json_file_has_the_one_writer_form(self, walkthrough):
        # ref_nn.write_json writes every JSON file: sorted keys, indent 1,
        # a final newline
        root = walkthrough[0]
        written = sorted(root.rglob("*.json"))
        assert {p.relative_to(root).as_posix() for p in written} == {
            "bench/manifest.json", "scaler.json", "relu48.json", "hw48.json", "train_log.json",
            "hw_report.json", "sw_report.json", "timed_report.json", "cmp.json", "pt.json",
            "timing.json"}
        for p in written:
            text = p.read_text()
            assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", p
