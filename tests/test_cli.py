"""Command-line surface tests: the full artifact flow on a tiny synthetic
corpus, exit codes, determinism, config handling."""

import json
from pathlib import Path

import numpy as np
import pytest

from scvs import mpe, ref_nn, sc_nn
from scvs.cli import main

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
