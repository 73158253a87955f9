import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import fields
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import vqakit
from conftest import write_pgm, write_ppm, y4m_bytes
from vqakit import bench_harness
from vqakit.cli import build_parser, main
from vqakit.regressors import (TrainConfig, finetune_mos, fit_forest, init_branchnet, load_model,
                               save_model, train_siamese)
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


def _argfile(tmp_path: Path, lines, name="cli.args") -> str:
    """Write an argument file, one argument per line, and return its @ reference."""
    path = tmp_path / name
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


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

    def test_mixed_frame_dir_fails_cleanly(self, tmp_path, capsys):
        d = tmp_path / "frames"
        d.mkdir()
        write_ppm(d / "a.ppm", np.zeros((16, 16, 3), dtype=np.uint8))
        write_pgm(d / "b.pgm", np.zeros((16, 16), dtype=np.uint8))
        rc = main(["extract", "--input", str(d), "--out", str(tmp_path / "f.csv"),
                   "--temporal", "all"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "b.pgm" in err and "Traceback" not in err

    def test_truncated_last_frame_file_named(self, tmp_path, capsys):
        d = tmp_path / "trunc"
        d.mkdir()
        for i in range(3):
            write_ppm(d / f"f{i}.ppm", np.zeros((16, 16, 3), dtype=np.uint8))
        (d / "f2.ppm").write_bytes((d / "f2.ppm").read_bytes()[:-5])
        rc = main(["extract", "--input", str(d), "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "trunc: f2.ppm: truncated payload for frame 2" in capsys.readouterr().err

    def test_two_files_with_one_id_exit_1(self, tmp_path, clip_dir, capsys, monkeypatch):
        # a.y4m and a.Y4M would write two rows named "a": refused before any clip is read
        _write_clip(clip_dir / "clip1.Y4M", seed=5)
        read = []
        monkeypatch.setattr("vqakit.cli.parse_y4m", lambda buf: read.append(buf))
        out = tmp_path / "f.csv"
        assert main(["extract", "--input", str(clip_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {clip_dir / 'clip1.y4m'} repeats clip id 'clip1' of "
                       f"{clip_dir / 'clip1.Y4M'}\n")
        assert read == [] and not out.exists()

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

    def test_temporal_and_spatial_flags(self, tmp_path, clip_dir, capsys, monkeypatch):
        outputs = set()
        for spatial in ("resize:16:16", "pad_square:20", "fragment:2:8"):
            out = _extract(tmp_path, clip_dir, "f.csv",
                           ("--temporal", "one_per_30", "--spatial", spatial))
            assert len(out.read_text().strip().splitlines()) == 4
            outputs.add(out.read_text())
        assert len(outputs) == 3  # each transform gives its own features
        read = []
        monkeypatch.setattr("vqakit.cli.parse_y4m", lambda data: read.append(data))
        for bad, part in (("resize:16", "'resize:16'"), ("fragment:7", "'fragment:7'"),
                          ("none:1", "'none:1'"), ("pad_square:x", "'pad_square:x'")):
            with pytest.raises(SystemExit) as info:
                main(["extract", "--input", str(clip_dir), "--out", str(tmp_path / "g.csv"),
                      "--spatial", bad])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "error: argument --spatial: " in err and part in err, err
        assert read == [] and not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("spatial,name", [
        ("fragment:0:32", "grid"), ("fragment:-1:32", "grid"), ("fragment:7:0", "patch"),
        ("resize:0:16", "width"), ("resize:16:-1", "height"), ("pad_square:0", "size"),
        ("pad_square:-1", "size"),
    ])
    def test_degenerate_fragment_grid_exit_2(self, tmp_path, clip_dir, capsys, monkeypatch,
                                             spatial, name):
        read = []
        monkeypatch.setattr("vqakit.cli.parse_y4m", lambda data: read.append(data))
        with pytest.raises(SystemExit) as info:
            main(["extract", "--input", str(clip_dir), "--out", str(tmp_path / "f.csv"),
                  "--spatial", spatial])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --spatial: {name}=" in err, err
        assert read == [] and not (tmp_path / "f.csv").exists()

    def test_json_format(self, tmp_path, clip_dir):
        out = tmp_path / "f.json"
        rc = main(["extract", "--input", str(clip_dir), "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 3
        assert set(rows[0]["features"]) == set(FEATURE_ORDER)
        assert "flags" not in rows[0]
        # a one-frame plan has no frame pairs, and says so
        assert main(["extract", "--input", str(clip_dir), "--out", str(out),
                     "--temporal", "one_per_30"]) == 0
        assert [row["flags"] for row in json.loads(out.read_text())] == [["single_frame"]] * 3

    def test_format_follows_out_path(self, tmp_path, clip_dir):
        # .json writes the JSON rows, any other path the CSV table, both of the same numbers
        csv_out = _extract(tmp_path, clip_dir, "f.csv")
        assert _extract(tmp_path, clip_dir, "f.txt").read_bytes() == csv_out.read_bytes()
        rows = json.loads(_extract(tmp_path, clip_dir, "f.json").read_text())
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "clip_id," + ",".join(FEATURE_ORDER)
        for row, line in zip(rows, lines[1:], strict=True):
            clip_id, *values = line.split(",")
            assert row["clip_id"] == clip_id
            assert [row["features"][f] for f in FEATURE_ORDER] == [float(v) for v in values]

    def test_argument_file_matches_typed_flags(self, tmp_path, clip_dir):
        # one argument per line, as "--flag" then its value or as "--flag=value";
        # a flag typed after the file wins over the file's
        args = _argfile(tmp_path, ["--input", str(clip_dir), "--temporal=one_per_30",
                                   "--spatial=fragment:2:8", "--seed", "3",
                                   f"--out={tmp_path / 'a.csv'}"])
        assert main(["extract", args]) == 0
        typed = ("--temporal", "one_per_30", "--spatial", "fragment:2:8")
        b = _extract(tmp_path, clip_dir, "b.csv", (*typed, "--seed", "3"))
        assert (tmp_path / "a.csv").read_bytes() == b.read_bytes()
        assert main(["extract", args, "--seed", "4"]) == 0
        c = _extract(tmp_path, clip_dir, "c.csv", (*typed, "--seed", "4"))
        assert (tmp_path / "a.csv").read_bytes() == c.read_bytes() != b.read_bytes()

    def test_argument_file_unknown_option(self, tmp_path, clip_dir, capsys):
        args = _argfile(tmp_path, ["--bogus=1"])
        with pytest.raises(SystemExit) as info:
            main(["extract", "--input", str(clip_dir), "--out", "x.csv", args])
        assert info.value.code == 2
        assert "unrecognized arguments: --bogus=1" in capsys.readouterr().err


class TestOptionScope:
    """--threads only where a pool runs, --seed only where a seed is drawn; no
    --format (the --out path decides), no bench gate or forest settings and no
    JSON --config (an @file of arguments replaces it)."""

    ARGS = {
        "extract": ["--input", "clips", "--out", "f.csv"],
        "train": ["--features", "f.csv", "--mos", "m.csv", "--out", "m.json"],
        "predict": ["--model", "m.json", "--features", "f.csv", "--out", "p.csv"],
        "eval": ["--pred", "p.csv", "--mos", "m.csv"],
        "fuse": ["--pred", "p.csv", "--weights", "1", "--out", "o.csv"],
        "bench": ["--pipeline", "identity"],
    }
    VALUES = {"--threads": "2", "--seed": "1", "--format": "json", "--budget-ms": "1000",
              "--trees": "300", "--config": "cfg.json", "--siamese-epochs": "60",
              "--embed-dim": "8", "--head-hidden": "4", "--max-depth": "12"}

    @pytest.mark.parametrize("command,option", [
        ("train", "--threads"), ("predict", "--threads"), ("eval", "--threads"),
        ("fuse", "--threads"), ("predict", "--seed"), ("eval", "--seed"), ("fuse", "--seed"),
        ("extract", "--format"), ("eval", "--format"), ("bench", "--format"),
        ("bench", "--budget-ms"), ("bench", "--trees"), ("eval", "--config"),
        ("train", "--siamese-epochs"), ("train", "--embed-dim"), ("train", "--head-hidden"),
        ("train", "--max-depth"),
    ])
    def test_removed_option_is_a_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, *self.ARGS[command], option, self.VALUES[option]])
        assert info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_threads_in_argument_file_rejected_on_predict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["predict", *self.ARGS["predict"], _argfile(tmp_path, ["--threads=2"])])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err

    def test_format_in_argument_file_rejected_on_eval(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", *self.ARGS["eval"], _argfile(tmp_path, ["--format", "csv"])])
        assert info.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


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
                   "--mode", "forest", "--min-leaf", "1", "--out", str(model)])
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
            args += ["--min-leaf", "1"] if mode == "forest" else ["--epochs", "2"]
            assert main(args) == 0
            pred = tmp_path / f"pred_{mode}.csv"
            assert main(["predict", "--model", str(model), "--features", str(feats),
                         "--out", str(pred)]) == 0
            table = read_score_table(pred, "score")
            assert list(table) == ["clip0", "clip1", "clip2"]

    @pytest.mark.parametrize("flag,value,name", [
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--margin", "nan", "rank_margin"), ("--weight-decay", "nan", "weight_decay"),
        ("--batch-size", "1", "batch_size"),
    ])
    def test_unusable_training_setting_exit_1(self, tmp_path, clip_dir, capsys, monkeypatch,
                                              flag, value, name):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "net.json"
        # refused before the rank pretraining, which the setting would only waste
        pretrained = []
        monkeypatch.setattr("vqakit.cli.train_siamese", lambda *a, **k: pretrained.append(a))
        capsys.readouterr()
        assert main(["train", "--features", str(feats), "--mos", str(mos),
                     "--mode", "siamese+finetune", "--epochs", "2", flag, value,
                     "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}=") and err.count("\n") == 1, err
        assert pretrained == []
        assert not model.exists() and not Path(str(model) + ".log").exists()

    def test_too_few_rows_for_min_leaf_exit_1(self, tmp_path, clip_dir, capsys):
        # 3 rows cannot split with --min-leaf 2: no forest of root-only trees
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        capsys.readouterr()
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "2", "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert "3 rows" in err and "min_leaf=2" in err
        assert not model.exists() and not Path(str(model) + ".log").exists()

    def test_min_leaf_zero_exit_1(self, tmp_path, clip_dir, capsys):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        capsys.readouterr()
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "0", "--out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "min_leaf=0" in err
        assert not model.exists() and not Path(str(model) + ".log").exists()

    @pytest.mark.parametrize("mode", ["forest", "siamese+finetune"])
    def test_defaults_are_the_librarys(self, tmp_path, mode):
        # with no hyper-parameter flag, train writes what the library writes
        # when called with the values the command line used to state itself
        X = np.random.default_rng(3).random((12, len(FEATURE_ORDER)))
        y = 1.0 + 4.0 * X[:, 0]
        ids = [f"c{i}" for i in range(len(y))]
        feats, mos = tmp_path / "feats.csv", tmp_path / "mos.csv"
        lines = ["clip_id," + ",".join(FEATURE_ORDER)]
        lines += [",".join([cid, *map(repr, row)]) for cid, row in zip(ids, X.tolist())]
        feats.write_text("\n".join(lines) + "\n")
        write_score_table(mos, dict(zip(ids, y)), "mos")  # both files keep every bit
        log = []
        if mode == "forest":
            model = fit_forest(X, y, n_trees=300, seed=0, max_depth=12, min_leaf=2,
                               feature_names=FEATURE_ORDER)
            log.append({"phase": "forest", "n_trees": 300, "rows": 12,
                        "nodes": model.node_count()})
        else:
            model = init_branchnet(embed_dim=8, head_hidden=4, seed=0)
            config = TrainConfig(learning_rate=0.05, epochs=60, batch_size=16, seed=0,
                                 rank_margin=0.05, weight_decay=0.05)
            train_siamese([(X, y)], model, config, history=log)
            finetune_mos((X, y), model, config, history=log)
        want = tmp_path / "library.json"
        save_model(want, model)
        got = tmp_path / "cli.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", mode,
                     "--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()
        assert Path(f"{got}.log").read_text() == "".join(json.dumps(e) + "\n" for e in log)

    def test_states_no_default_the_library_owns(self):
        # each hyper-parameter's dest is the library parameter it sets, and an
        # option left out is absent, so the library's default applies
        train = build_parser()._subparsers._group_actions[0].choices["train"]
        library = ({f.name for f in fields(TrainConfig)}
                   | set(inspect.signature(fit_forest).parameters)
                   | set(inspect.signature(init_branchnet).parameters))
        own = {"help", "features", "mos", "mode", "out"}
        dests = {a.dest for a in train._actions}
        assert dests - own and dests - own <= library
        args = build_parser().parse_args(["train", "--features", "f.csv", "--mos", "m.csv",
                                          "--out", "m.json"])
        assert set(vars(args)) == {"command"} | own - {"help"}

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
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "1", "--out", str(model)]) == 0

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


    def test_repeated_clip_id_exit_1(self, tmp_path, clip_dir, capsys):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "1", "--out", str(model)]) == 0
        lines = feats.read_text().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join(lines + lines[1:2]) + "\n")  # clip0 again on row 5
        capsys.readouterr()
        for argv in (
            ["train", "--features", str(twice), "--mos", str(mos), "--mode", "forest",
             "--trees", "5", "--out", str(tmp_path / "m.json")],
            ["predict", "--model", str(model), "--features", str(twice),
             "--out", str(tmp_path / "pred.csv")],
        ):
            assert main(argv) == 1
            assert capsys.readouterr().err == (f"error: {twice}: row 5 repeats clip id "
                                               "'clip0' of row 2\n")
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("edit, at_root", [
        (lambda t: t["right"].__setitem__(0, 0), True),   # a cycle
        (lambda t: t["value"].pop(), False),              # ragged arrays
        (lambda t: t["feature"].__setitem__(0, 9), True),  # beyond the width
    ], ids=["cycle", "ragged", "feature-too-wide"])
    def test_malformed_forest_exit_1(self, tmp_path, clip_dir, edit, at_root):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "1", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        t = next(i for i, tree in enumerate(doc["trees"]) if tree["feature"][0] >= 0)
        edit(doc["trees"][t])
        where = f"tree {t}, node 0:" if at_root else f"tree {t}:"
        model.write_text(json.dumps(doc))
        # in a child process, so a forest that never reaches a leaf cannot hang the suite
        env = {**os.environ, "PYTHONPATH": str(Path(vqakit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "vqakit.cli", "predict", "--model", str(model),
             "--features", str(feats), "--out", str(tmp_path / "pred.csv")],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 1, done.stderr
        assert "forest.json" in done.stderr and where in done.stderr
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d["params"].pop("head_technical_w2"), "params.head_technical_w2"),
        (lambda d: d["params"]["enc_semantic_w"].pop(), "params.enc_semantic_w"),
        (lambda d: d["params"]["scgb_technical_po"][0].__setitem__(0, float("inf")),
         "params.scgb_technical_po"),
        (lambda d: d["params"]["enc_aesthetic_b"].__setitem__(3, float("nan")),
         "params.enc_aesthetic_b"),
        (lambda d: d.pop("embed_dim"), "embed_dim"),
        (lambda d: d["groups"]["technical"].__setitem__(1, "blockiness"), "groups"),
        (lambda d: d["params"].__setitem__("enc_extra_w", [[0.0]]), "enc_extra_w"),
        (lambda d: d["norm_scale"].pop(), "norm_scale"),
        (lambda d: d["norm_scale"].__setitem__(4, 0.0), "norm_scale"),
        # loads, but would read the features file's columns in another order
        (lambda d: d["feature_names"].reverse(), "'ssim_first'"),
    ], ids=["missing-param", "wrong-shape", "inf-weight", "nan-bias", "missing-hyper",
            "unknown-group-feature", "extra-param", "short-norm-scale", "zero-norm-scale",
            "permuted-feature-names"])
    def test_malformed_net_exit_1(self, tmp_path, clip_dir, edit, key):
        feats = _extract(tmp_path, clip_dir)
        net = init_branchnet(seed=2)
        net.norm_fitted = True
        model = tmp_path / "net.json"
        save_model(model, net)
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(vqakit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "vqakit.cli", "predict", "--model", str(model),
             "--features", str(feats), "--out", str(tmp_path / "pred.csv")],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 1, done.stderr
        assert "net.json" in done.stderr and key in done.stderr, done.stderr
        assert "Traceback" not in done.stderr and not done.stdout
        assert not (tmp_path / "pred.csv").exists()

    def test_permuted_forest_feature_names_exit_1(self, tmp_path, clip_dir, capsys):
        # the features CSV's columns are FEATURE_ORDER: a forest that names
        # them in another order would score the wrong columns
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "1", "--out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["feature_names"] = doc["feature_names"][::-1]
        model.write_text(json.dumps(doc))
        pred = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(pred)]) == 1
        err = capsys.readouterr().err
        assert "forest.json" in err and "'ssim_first'" in err, err
        assert not pred.exists()
        # a forest saved without names scores by position
        doc["feature_names"] = None
        model.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(pred)]) == 0
        assert list(read_score_table(pred, "score")) == ["clip0", "clip1", "clip2"]

    def test_truncated_checkpoint_exit_1(self, tmp_path, clip_dir, capsys):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        model = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--mode", "forest",
                     "--trees", "5", "--min-leaf", "1", "--out", str(model)]) == 0
        model.write_bytes(model.read_bytes()[:100])
        pred = tmp_path / "pred.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features", str(feats),
                     "--out", str(pred)]) == 1
        err = capsys.readouterr().err
        assert f"{model}: not a JSON checkpoint" in err, err
        assert not pred.exists()

    @pytest.mark.parametrize("command", ["predict", "train", "eval", "fuse"])
    def test_missing_input_file_exit_1(self, tmp_path, command):
        missing = tmp_path / "absent" / "input.csv"
        mos = tmp_path / "mos.csv"
        write_score_table(mos, {"clip0": 3.0}, "mos")
        argv = {
            "predict": ["--model", str(missing), "--features", str(mos)],
            "train": ["--features", str(missing), "--mos", str(mos)],
            "eval": ["--pred", str(missing), "--mos", str(mos)],
            "fuse": ["--pred", str(missing), "--weights", "1"],
        }[command]
        out = tmp_path / "out.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(vqakit.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "vqakit.cli", command, *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 1, done.stderr
        assert str(missing) in done.stderr and done.stderr.startswith("error: "), done.stderr
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        assert not out.exists()


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
        out = tmp_path / "metrics.csv"
        assert main(["eval", "--pred", str(pred), "--mos", str(mos), "--out", str(out)]) == 0
        text = "metric,value\nsrocc,1.0\nkrocc,1.0\nplcc,1.0\nrmse,0.0\n"
        assert out.read_text() == text
        assert capsys.readouterr().out == text
        out = tmp_path / "metrics.json"
        assert main(["eval", "--pred", str(pred), "--mos", str(mos), "--out", str(out)]) == 0
        text = '{"srocc": 1.0, "krocc": 1.0, "plcc": 1.0, "rmse": 0.0}'
        assert out.read_text() == text
        assert capsys.readouterr().out == text + "\n"

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

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_fuse_non_finite_weight_exit_1(self, tmp_path, capsys, weight):
        a = tmp_path / "a.csv"
        write_score_table(a, {"x": 3.0, "y": 1.0}, "score")
        out = tmp_path / "fused.csv"
        assert main(["fuse", "--pred", str(a), str(a), "--weights", weight, "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: weights=")
        assert not out.exists()

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
        assert doc["macs_g"] == 0 and doc["params_m"] == 0
        # the net's pipeline scores the clip: the MACs of the features that
        # run on its one sampled luma-only FHD frame (si, sharpness, contrast
        # and average luminance, 21 per pixel) plus the net's 596, and its
        # 619 parameters
        assert main(["bench", "--pipeline", "feature-branchnet", "--spec", "30-FHD",
                     "--runs", "1", "--warmup", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, BENCH_SCHEMA)
        assert (doc["macs_g"], doc["params_m"]) == (43_546_196 / 1e9, 619 / 1e6)

    def test_csv_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--pipeline", "identity", "--spec", "60-HD",
                   "--runs", "2", "--warmup", "0", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == out.read_text()
        lines = out.read_text().splitlines()
        assert lines[0] == "pipeline,spec,runtime_ms,macs_g,params_m,pass"
        assert lines[1].startswith("identity,60-HD,") and lines[1].endswith(",True")

    def test_report_json_keys(self, tmp_path, capsys):
        # printed with no --out, and written to a .json path
        out = tmp_path / "bench.json"
        for extra in ([], ["--out", str(out)]):
            assert main(["bench", "--pipeline", "identity", "--runs", "1", "--warmup", "0",
                         *extra]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert set(doc) == {"spec", "runtime_ms", "runs", "warmup_runs",
                                "macs_g", "params_m", "pass"}
        assert json.loads(out.read_text()).keys() == doc.keys()

    @pytest.mark.parametrize("flag,value,name", [("--warmup", "-1", "warmup"),
                                                 ("--runs", "0", "runs")])
    def test_unusable_count_refused_before_pipeline(self, tmp_path, capsys, monkeypatch,
                                                   flag, value, name):
        built = []
        monkeypatch.setattr("vqakit.cli.build_pipeline", lambda *a, **k: built.append(a))
        out = tmp_path / "bench.json"
        assert main(["bench", flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}={value}") and err.count("\n") == 1, err
        assert built == [] and not out.exists()


class TestArgumentFile:
    """Arguments read from an @file go through the same parse as typed ones."""

    @pytest.fixture()
    def chain(self, tmp_path, clip_dir):
        feats = _extract(tmp_path, clip_dir)
        mos = tmp_path / "mos.csv"
        _mos_for(feats, mos)
        forest = tmp_path / "forest.json"
        assert main(["train", "--features", str(feats), "--mos", str(mos), "--trees", "5",
                     "--min-leaf", "1", "--out", str(forest)]) == 0
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(forest), "--features", str(feats),
                     "--out", str(pred)]) == 0
        return {"clips": str(clip_dir), "feats": str(feats), "mos": str(mos),
                "forest": str(forest), "pred": str(pred)}

    COMMANDS = {
        "extract": (["extract", "--input", "{clips}", "--temporal", "two_per_30",
                     "--spatial", "fragment:2:8", "--seed", "2"], ".json"),
        "train-forest": (["train", "--features", "{feats}", "--mos", "{mos}", "--mode", "forest",
                          "--trees", "5", "--min-leaf", "1", "--seed", "2"], ".json"),
        "train-siamese": (["train", "--features", "{feats}", "{feats}", "--mos", "{mos}", "{mos}",
                           "--mode", "siamese+finetune", "--epochs", "2", "--batch-size", "2"],
                          ".json"),
        "predict": (["predict", "--model", "{forest}", "--features", "{feats}"], ".csv"),
        "eval": (["eval", "--pred", "{pred}", "--mos", "{mos}"], ".json"),
        "fuse": (["fuse", "--pred", "{pred}", "{pred}", "--weights", "7", "8",
                  "--normalization", "zscore"], ".csv"),
        "bench": (["bench", "--pipeline", "identity", "--spec", "60-HD", "--runs", "2",
                   "--warmup", "1", "--seed", "2"], ".json"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_same_outputs_as_typed_flags(self, tmp_path, chain, capsys, monkeypatch, command):
        # a required --out given only in the file is enough
        monkeypatch.setattr(bench_harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        argv, suffix = self.COMMANDS[command]
        argv = [a.format(**chain) for a in argv]
        typed, filed = tmp_path / f"typed{suffix}", tmp_path / f"filed{suffix}"
        capsys.readouterr()
        assert main([*argv, "--out", str(typed)]) == 0
        printed = capsys.readouterr()
        assert main([argv[0], _argfile(tmp_path, [*argv[1:], f"--out={filed}"])]) == 0
        assert capsys.readouterr() == printed
        assert filed.read_bytes() == typed.read_bytes()
        if command.startswith("train"):
            assert Path(f"{filed}.log").read_bytes() == Path(f"{typed}.log").read_bytes()

    @pytest.mark.parametrize("command,mode,line", [
        ("extract", None, "--temporal=bogus"), ("extract", None, "--seed=1.5"),
        ("train", "forest", "--trees=3.5"), ("train", "forest", "--min-leaf=true"),
        ("train", "siamese+finetune", "--batch-size=4.5"),
        ("train", "siamese+finetune", "--epochs=2.5"),
        ("bench", None, "--runs=2.5"),
        # counts below 1
        ("extract", None, "--threads=0"), ("extract", None, "--fps=0"),
        ("bench", None, "--threads=-3"),
    ])
    def test_mistyped_value_is_a_usage_error(self, tmp_path, chain, capsys, monkeypatch,
                                            command, mode, line):
        calls = []
        for name in ("parse_y4m", "fit_forest", "train_siamese", "build_pipeline"):
            monkeypatch.setattr(f"vqakit.cli.{name}", lambda *a, name=name, **k: calls.append(name))
        typed = {
            "extract": ["--input", chain["clips"], "--out", str(tmp_path / "f.csv")],
            "train": ["--features", chain["feats"], "--mos", chain["mos"], "--mode", str(mode),
                      "--out", str(tmp_path / "m.json")],
            "bench": ["--pipeline", "identity"],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([command, *typed, _argfile(tmp_path, [line])])
        assert info.value.code == 2
        flag, value = line.split("=")
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and f"'{value}'" in err, err
        assert calls == []
        assert not (tmp_path / "f.csv").exists() and not (tmp_path / "m.json").exists()

    def test_spatial_value_checked_before_any_clip_is_read(self, tmp_path, clip_dir, capsys,
                                                          monkeypatch):
        # --spatial is parsed by argparse, typed or from a file: a usage error, exit 2
        read = []
        monkeypatch.setattr("vqakit.cli.parse_y4m", lambda data: read.append(data))
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as info:
            main(["extract", "--input", str(clip_dir),
                  _argfile(tmp_path, ["--spatial=5", f"--out={out}"])])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --spatial: spatial='5': need none, resize:W:H" in err, err
        assert read == [] and not out.exists()
