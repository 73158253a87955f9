import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import y4m_bytes
from vqakit.cli import main
from vqakit.regressors import load_model
from vqakit.signal_features import FEATURE_ORDER
from vqakit.tables import read_score_table, write_score_table


def _write_clip(path: Path, seed: int, frames=4, side=32):
    """Write a small noisy y4m clip with flat chroma."""
    rng = np.random.default_rng(seed)
    fsets = []
    for _ in range(frames):
        y = rng.integers(0, 256, (side, side), dtype=np.uint8)
        c = np.full((side // 2, side // 2), 120 + seed, dtype=np.uint8)
        fsets.append((y, c, c))
    path.write_bytes(y4m_bytes(side, side, fsets))


@pytest.fixture()
def clip_dir(tmp_path):
    d = tmp_path / "clips"
    d.mkdir()
    for i in range(3):
        _write_clip(d / f"clip{i}.y4m", seed=i)
    return d


def _extract(tmp_path, clip_dir, name="feat.csv", extra=()):
    out = tmp_path / name
    rc = main(["extract", "--input", str(clip_dir), "--out", str(out), *extra])
    assert rc == 0
    return out


class TestExtract:
    def test_three_clips_three_rows(self, tmp_path, clip_dir):
        out = _extract(tmp_path, clip_dir)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "clip_id," + ",".join(FEATURE_ORDER)
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["clip0", "clip1", "clip2"]

    def test_byte_identical_reruns(self, tmp_path, clip_dir):
        a = _extract(tmp_path, clip_dir, "a.csv", ("--seed", "5"))
        b = _extract(tmp_path, clip_dir, "b.csv", ("--seed", "5"))
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, clip_dir):
        a = _extract(tmp_path, clip_dir, "a.csv", ("--threads", "1"))
        b = _extract(tmp_path, clip_dir, "b.csv", ("--threads", "4"))
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_clip_partial_exit(self, tmp_path, clip_dir, capsys):
        (clip_dir / "borked.y4m").write_bytes(b"YUV4MPEG2 W16 H16 F30:1 C420\nFRA")
        out = tmp_path / "f.csv"
        rc = main(["extract", "--input", str(clip_dir), "--out", str(out)])
        assert rc == 2
        assert len(out.read_text().strip().splitlines()) == 4  # header + 3 good rows
        assert "borked" in capsys.readouterr().err

    def test_no_clips_fatal(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["extract", "--input", str(empty), "--out", str(tmp_path / "f.csv")])
        assert rc == 1

    def test_single_file_input(self, tmp_path):
        f = tmp_path / "one.y4m"
        _write_clip(f, seed=9)
        out = tmp_path / "f.csv"
        assert main(["extract", "--input", str(f), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_temporal_and_spatial_flags(self, tmp_path, clip_dir):
        out = _extract(tmp_path, clip_dir, "f.csv",
                       ("--temporal", "one_per_30", "--spatial", "resize:16:16"))
        assert len(out.read_text().strip().splitlines()) == 4

    def test_json_format(self, tmp_path, clip_dir):
        out = tmp_path / "f.json"
        rc = main(["extract", "--input", str(clip_dir), "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert set(rows[0]["features"]) == set(FEATURE_ORDER)

    def test_config_file_defaults(self, tmp_path, clip_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temporal": "one_per_30", "seed": 3}))
        a = tmp_path / "a.csv"
        rc = main(["extract", "--input", str(clip_dir), "--out", str(a),
                   "--config", str(cfg)])
        assert rc == 0
        b = _extract(tmp_path, clip_dir, "b.csv", ("--temporal", "one_per_30", "--seed", "3"))
        assert a.read_bytes() == b.read_bytes()

    def test_config_unknown_key(self, tmp_path, clip_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            main(["extract", "--input", str(clip_dir), "--out", "x.csv",
                  "--config", str(cfg)])


def _mos_for(features_csv: Path, path: Path, scale=(1.0, 5.0), seed=0):
    from vqakit.signal_features import read_features_csv

    ids, X = read_features_csv(features_csv)
    rng = np.random.default_rng(seed)
    lo, hi = scale
    u = (X[:, 0] - X[:, 0].min()) / (np.ptp(X[:, 0]) + 1e-9)
    mos = lo + (hi - lo) * u + rng.normal(0, 0.01 * (hi - lo), len(ids))
    write_score_table(path, dict(zip(ids, mos)), "mos")


FOREST_SCHEMA = {
    "type": "object",
    "required": ["format", "n_trees", "seed", "trees"],
    "properties": {
        "format": {"const": "vqakit-forest-v1"},
        "n_trees": {"type": "integer", "minimum": 1},
        "trees": {"type": "array"},
    },
}

NET_SCHEMA = {
    "type": "object",
    "required": ["format", "feature_names", "groups", "params", "norm_shift"],
    "properties": {"format": {"const": "vqakit-branchnet-v1"}},
}


class TestTrainPredict:
    def test_forest_default_300_trees(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        rc = main(["train", "--features", str(feats), "--mos", str(mos),
                   "--mode", "forest", "--out", str(model)])
        assert rc == 0
        doc = json.loads(model.read_text())
        jsonschema.validate(doc, FOREST_SCHEMA)
        assert doc["n_trees"] == 300
        assert len(doc["trees"]) == 300
        assert Path(str(model) + ".log").exists()

    def test_siamese_log_covers_both_datasets(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos_a, mos_b = tmp_path / "a.csv", tmp_path / "b.csv"
        _mos_for(feats, mos_a, scale=(1, 5))
        _mos_for(feats, mos_b, scale=(0, 100), seed=1)
        model = tmp_path / "net.json"
        rc = main(["train", "--features", str(feats), str(feats),
                   "--mos", str(mos_a), str(mos_b),
                   "--mode", "siamese+finetune", "--epochs", "2", "--out", str(model)])
        assert rc == 0
        jsonschema.validate(json.loads(model.read_text()), NET_SCHEMA)
        log = [json.loads(l) for l in Path(str(model) + ".log").read_text().splitlines()]
        siamese = [e for e in log if e["phase"] == "siamese"]
        assert siamese and all(e["pairs"]["0"] > 0 and e["pairs"]["1"] > 0 for e in siamese)
        assert any(e["phase"] == "finetune" for e in log)

    def test_zero_epochs_checkpoint_equals_init(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "net.json"
        rc = main(["train", "--features", str(feats), "--mos", str(mos),
                   "--mode", "siamese+finetune", "--epochs", "0",
                   "--seed", "4", "--out", str(model)])
        assert rc == 0
        from vqakit.regressors import init_branchnet

        loaded = load_model(model)
        init = init_branchnet(seed=4)
        assert np.array_equal(loaded.flatten(), init.flatten())
        assert not loaded.norm_fitted

    def test_predict_both_model_kinds(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        for mode, name in (("forest", "f.json"), ("siamese+finetune", "n.json")):
            model = tmp_path / name
            args = ["train", "--features", str(feats), "--mos", str(mos),
                    "--mode", mode, "--out", str(model)]
            if mode != "forest":
                args += ["--epochs", "2"]
            assert main(args) == 0
            pred = tmp_path / f"pred_{mode}.csv"
            assert main(["predict", "--model", str(model), "--features", str(feats),
                         "--out", str(pred)]) == 0
            table = read_score_table(pred, "score")
            assert list(table) == ["clip0", "clip1", "clip2"]

    def test_mismatched_dataset_counts(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        rc = main(["train", "--features", str(feats), "--mos", "a.csv", "b.csv",
                   "--mode", "forest", "--out", str(tmp_path / "m.json")])
        assert rc == 1

    def test_join_error_exit(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        write_score_table(mos, {"clip0": 3.0}, "mos")  # missing clip1/clip2
        rc = main(["train", "--features", str(feats), "--mos", str(mos),
                   "--mode", "forest", "--out", str(tmp_path / "m.json")])
        assert rc == 1

    # "abc" is not a number at all: the same exit code and the same location
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_tables_exit_1(self, tmp_path, clip_dir, capsys, bad):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos),
                     "--mode", "forest", "--trees", "5", "--out", str(model)]) == 0

        lines = feats.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = bad  # clip1, column "ti"
        lines[2] = ",".join(cells)
        bad_feats = tmp_path / "bad_feat.csv"
        bad_feats.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for argv in (
            ["train", "--features", str(bad_feats), "--mos", str(mos), "--mode", "forest",
             "--trees", "5", "--out", str(tmp_path / "m.json")],
            ["predict", "--model", str(model), "--features", str(bad_feats),
             "--out", str(tmp_path / "pred.csv")],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "bad_feat.csv" in err and "row 3" in err and "'ti'" in err
        assert not (tmp_path / "pred.csv").exists()

        lines = mos.read_text().splitlines()
        lines[2] = f"clip1,{bad}"
        bad_mos = tmp_path / "bad_mos.csv"
        bad_mos.write_text("\n".join(lines) + "\n")
        assert main(["train", "--features", str(feats), "--mos", str(bad_mos),
                     "--mode", "forest", "--trees", "5", "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert "bad_mos.csv" in err and "row 3" in err and "'mos'" in err


METRIC_SCHEMA = {
    "type": "object",
    "required": ["srocc", "krocc", "plcc", "rmse"],
    "additionalProperties": False,
    "properties": {k: {"type": "number"} for k in ("srocc", "krocc", "plcc", "rmse")},
}


class TestEvalFuse:
    def test_eval_identical(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        mos = tmp_path / "m.csv"
        write_score_table(pred, {"a": 1.0, "b": 2.0, "c": 3.0}, "score")
        write_score_table(mos, {"a": 1.0, "b": 2.0, "c": 3.0}, "mos")
        rc = main(["eval", "--pred", str(pred), "--mos", str(mos)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, METRIC_SCHEMA)
        assert doc == {"srocc": 1, "krocc": 1, "plcc": 1, "rmse": 0}

    def test_eval_join_error(self, tmp_path):
        pred = tmp_path / "p.csv"
        mos = tmp_path / "m.csv"
        write_score_table(pred, {"a": 1.0, "zz": 2.0}, "score")
        write_score_table(mos, {"a": 1.0, "b": 2.0}, "mos")
        assert main(["eval", "--pred", str(pred), "--mos", str(mos)]) == 1

    def test_eval_short_row_exit_1(self, tmp_path, capsys):
        pred, mos = tmp_path / "p.csv", tmp_path / "m.csv"
        pred.write_text("clip_id,score\na,1.0\nb\n")
        write_score_table(mos, {"a": 1.0, "b": 2.0}, "mos")
        assert main(["eval", "--pred", str(pred), "--mos", str(mos)]) == 1
        assert "row 3 has 1 fields" in capsys.readouterr().err

    def test_fuse_7_8(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_score_table(a, {"x": 3.0, "y": 1.0}, "score")
        write_score_table(b, {"x": 4.5, "y": 2.0}, "score")
        out = tmp_path / "fused.csv"
        rc = main(["fuse", "--pred", str(a), str(b), "--weights", "7", "8",
                   "--out", str(out)])
        assert rc == 0
        table = read_score_table(out, "score")
        assert table["x"] == pytest.approx((7 * 3.0 + 8 * 4.5) / 15, abs=0)
        assert table["y"] == pytest.approx((7 * 1.0 + 8 * 2.0) / 15, abs=0)

    def test_fuse_id_mismatch(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_score_table(a, {"x": 3.0}, "score")
        write_score_table(b, {"zz": 4.5}, "score")
        assert main(["fuse", "--pred", str(a), str(b), "--weights", "1", "1",
                     "--out", str(tmp_path / "o.csv")]) == 1

    def test_fuse_weight_count_mismatch(self, tmp_path):
        a = tmp_path / "a.csv"
        write_score_table(a, {"x": 3.0}, "score")
        assert main(["fuse", "--pred", str(a), "--weights", "1", "2",
                     "--out", str(tmp_path / "o.csv")]) == 1


BENCH_SCHEMA = {
    "type": "object",
    "required": ["spec", "runtime_ms", "runs", "warmup_runs", "macs_g", "params_m", "pass"],
    "properties": {
        "spec": {"type": "string"},
        "runtime_ms": {"type": "number"},
        "runs": {"type": "array", "items": {"type": "number"}},
        "warmup_runs": {"type": "integer"},
        "pass": {"type": "boolean"},
    },
}


class TestBench:
    def test_identity_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["bench", "--pipeline", "identity", "--spec", "30-FHD",
                   "--runs", "4", "--warmup", "1", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, BENCH_SCHEMA)
        assert doc["spec"] == "30-FHD"
        assert len(doc["runs"]) == 4
        assert doc["pass"] is True

    def test_csv_summary(self, tmp_path, capsys):
        rc = main(["bench", "--pipeline", "identity", "--spec", "60-HD",
                   "--runs", "2", "--warmup", "0", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "pipeline,spec,runtime_ms,macs_g,params_m,pass"
        assert out[1].startswith("identity,60-HD,")
