"""Batch command-line frontend.

Subcommands chain into the usual offline workflow:

    extract -> train -> predict -> eval / fuse        and       bench

Every command is reproducible given identical inputs and --seed (extract,
train, bench), whatever --threads says (extract, bench). extract, eval and
bench write JSON when --out ends in .json and CSV otherwise; eval and bench
also print their report, as JSON when there is no --out. bench gates on the
paper's fixed budget, 1000 ms per clip. Exit codes: 0 success, 1 fatal input
error, 2 partial success (some clips failed during extraction) or a usage
error.

train passes on only the flags given, so its defaults are TrainConfig's
(--epochs, --lr, --batch-size, --margin, --weight-decay; both net phases run
--epochs epochs) and fit_forest's (--trees, --min-leaf). A bad --spatial, or
a --threads or --fps below 1, is a usage error before any clip is read.

Arguments can come from a file: "vqakit extract @defaults.args --seed 3"
reads defaults.args in place of @defaults.args, one argument per line
("--seed" then "3" on the next line, or "--seed=3" on one). Later arguments
win, so --seed 3 after the file overrides a seed in it. A value from a file
passes the same type, choice and required checks as one typed out. A value
that itself starts with @ is read as a file name, in a file too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from .bench_harness import ConstraintGate, check_constraint, check_run_counts, time_pipeline
from .clip_io import CANONICAL_SPECS, load_frame_dir, parse_y4m, synth_clip
from .errors import CheckpointError, DuplicateId, JoinError, VqaError, check_count
from .eval_metrics import evaluate
from .pipelines import PIPELINE_NAMES, build_pipeline
from .regressors import (
    ForestModel,
    TrainConfig,
    finetune_mos,
    fit_forest,
    init_branchnet,
    load_model,
    predict_forest,
    predict_scores,
    save_model,
    train_siamese,
)
from .sampling import TEMPORAL_MODES, SpatialTransform, temporal_sample
from .scoring import FusionSpec, fuse_scores
from .signal_features import (
    FEATURE_ORDER,
    extract_clip_features,
    features_to_json,
    read_features_csv,
    write_features_csv,
)
from .tables import read_score_table, write_score_table

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def _count(text: str) -> int:
    """argparse type of --threads and --fps: an integer >= 1."""
    try:
        return check_count("count", int(text))
    except ValueError:  # InvalidParameter is one too
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}") from None


def _spatial(text: str) -> SpatialTransform:
    try:
        return SpatialTransform.parse(text)
    except ValueError as e:  # argparse prints this error's message, not a ValueError's
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_seed_and_threads(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")
    p.add_argument("--threads", type=_count, default=os.cpu_count(),
                   help="threads for sampling and extraction (never changes outputs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqakit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter,
                                     fromfile_prefix_chars="@")
    parser.add_argument("--version", action="version", version=f"vqakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract clip-level signal features")
    p.add_argument("--input", required=True, help="y4m file, directory of y4m files, "
                   "or directory of PGM/PPM frames (one clip)")
    p.add_argument("--temporal", choices=TEMPORAL_MODES, default="all")
    p.add_argument("--spatial", type=_spatial, default=SpatialTransform(),
                   help="none | resize:W:H | pad_square:S | fragment[:GRID:PATCH]")
    p.add_argument("--fps", type=_count, default=30, help="fps for frame directories")
    p.add_argument("--out", "--output", required=True, help="a .json path writes JSON, "
                   "any other path CSV")
    _add_seed_and_threads(p)

    # a hyper-parameter reaches the library, as its dest, only when given: one owner per default
    p = sub.add_parser("train", help="train a quality regressor",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--features", nargs="+", required=True, help="feature CSV per dataset")
    p.add_argument("--mos", nargs="+", required=True, help="MOS CSV per dataset")
    p.add_argument("--mode", choices=("siamese+finetune", "forest"), default="forest")
    p.add_argument("--out", "--output", required=True, help="checkpoint JSON path")
    p.add_argument("--epochs", type=int, help="epochs of rank pretraining and of fine-tuning")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--margin", dest="rank_margin", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--min-leaf", type=int,
                   help="rows per leaf; a forest needs at least twice this many rows")
    p.add_argument("--seed", type=int, help="global RNG seed")

    p = sub.add_parser("predict", help="score clips from a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", "--output", required=True)

    p = sub.add_parser("eval", help="correlation metrics of scores vs MOS")
    p.add_argument("--pred", required=True)
    p.add_argument("--mos", required=True)
    p.add_argument("--out", "--output", default=None)

    p = sub.add_parser("fuse", help="weighted fusion of per-model score CSVs")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float, required=True)
    p.add_argument("--normalization", choices=("none", "zscore"), default="none")
    p.add_argument("--out", "--output", required=True)

    p = sub.add_parser("bench", help="runtime/MACs benchmark on a synthetic clip")
    p.add_argument("--pipeline", choices=PIPELINE_NAMES, default="feature-forest")
    p.add_argument("--spec", choices=tuple(CANONICAL_SPECS), default="30-FHD")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--out", "--output", default=None)
    _add_seed_and_threads(p)

    return parser


def _is_json(out) -> bool:
    """An output's format follows its path: JSON for .json (or no file), else CSV."""
    return out is None or str(out).lower().endswith(".json")


# --- extract ------------------------------------------------------------------

def _collect_clips(path: Path, fps: int):
    """(clip_id, loader) pairs for a file or directory input. Two files with
    one id (a.y4m and a.Y4M) raise DuplicateId before any clip is read."""
    if path.is_file():
        return [(path.stem, lambda p=path: parse_y4m(p.read_bytes()))]
    if path.is_dir():
        y4ms = sorted(p for p in path.iterdir() if p.suffix.lower() == ".y4m")
        first = {}
        for p in y4ms:
            if first.setdefault(p.stem, p) != p:
                raise DuplicateId(p.stem, str(p), str(first[p.stem]))
        if y4ms:
            return [(p.stem, lambda p=p: parse_y4m(p.read_bytes())) for p in y4ms]
        frames = [p for p in path.iterdir() if p.suffix.lower() in (".pgm", ".ppm")]
        if frames:
            return [(path.name, lambda: load_frame_dir(path, fps))]
    return []


def cmd_extract(args) -> int:
    clips = _collect_clips(Path(args.input), args.fps)
    if not clips:
        print(f"error: no readable clips under {args.input}", file=sys.stderr)
        return EXIT_FATAL

    rows, failures = [], []
    for clip_id, loader in clips:
        try:
            clip = loader()
            plan = temporal_sample(clip, args.temporal)
            fv = extract_clip_features(clip, plan, args.spatial,
                                       seed=args.seed, threads=args.threads)
            rows.append((clip_id, fv))
        except (VqaError, ValueError, OSError) as e:
            failures.append((clip_id, e))
            print(f"{clip_id}: {e}", file=sys.stderr)

    if not rows:
        print("error: every clip failed", file=sys.stderr)
        return EXIT_FATAL
    if _is_json(args.out):
        Path(args.out).write_text(features_to_json(rows))
    else:
        write_features_csv(args.out, rows)
    return EXIT_PARTIAL if failures else EXIT_OK


# --- train --------------------------------------------------------------------

def _load_dataset(features_csv: str, mos_csv: str):
    ids, X = read_features_csv(features_csv)
    mos = read_score_table(mos_csv, "mos")
    for cid in ids:
        if cid not in mos:
            raise JoinError(cid)
    y = np.array([mos[c] for c in ids], dtype=np.float64)
    return ids, X, y


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_train(args) -> int:
    if len(args.features) != len(args.mos):
        print("error: need one --mos file per --features file", file=sys.stderr)
        return EXIT_FATAL
    datasets = [_load_dataset(f, m) for f, m in zip(args.features, args.mos)]
    log_path = Path(str(args.out) + ".log")
    log_entries: list[dict] = []

    if args.mode == "forest":
        X = np.concatenate([d[1] for d in datasets], axis=0)
        y = np.concatenate([d[2] for d in datasets])
        model = fit_forest(X, y, feature_names=FEATURE_ORDER,
                           **_given(args, ("n_trees", "min_leaf", "seed")))
        save_model(args.out, model)
        log_entries.append({"phase": "forest", "n_trees": model.n_trees,
                            "rows": int(X.shape[0]), "nodes": model.node_count()})
    else:
        net = init_branchnet(**_given(args, ("seed",)))
        config = TrainConfig(**_given(args, (f.name for f in fields(TrainConfig))))
        train_siamese([(X, y) for _, X, y in datasets], net, config, history=log_entries)
        finetune_mos((datasets[0][1], datasets[0][2]), net, config, history=log_entries)
        save_model(args.out, net)

    log_path.write_text("".join(json.dumps(e) + "\n" for e in log_entries))
    return EXIT_OK


# --- predict ------------------------------------------------------------------

def cmd_predict(args) -> int:
    model = load_model(args.model)
    # the CSV's columns are FEATURE_ORDER and a model reads them by position;
    # a forest saved without names is taken to use that order
    names = tuple(model.feature_names or FEATURE_ORDER)
    if names != FEATURE_ORDER:
        i, got, want = next((i, a, b) for i, (a, b) in enumerate(zip_longest(names, FEATURE_ORDER))
                            if a != b)
        raise CheckpointError(f"{args.model}: feature {i} is {got!r}, "
                              f"but column {i} of the features file is {want!r}")
    ids, X = read_features_csv(args.features)
    if isinstance(model, ForestModel):  # load_model returns a forest or a BranchNet
        scores = np.atleast_1d(predict_forest(model, X))
    else:
        scores = predict_scores(model, X)
    write_score_table(args.out, dict(zip(ids, map(float, scores))))
    return EXIT_OK


# --- eval ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    report = evaluate(args.pred, args.mos)
    if _is_json(args.out):
        text = report.to_json()
    else:
        lines = ["metric,value"] + [
            f"{k},{round(getattr(report, k), 6)}" for k in ("srocc", "krocc", "plcc", "rmse")
        ]
        text = "\n".join(lines) + "\n"
    print(text.rstrip("\n"))
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


# --- fuse ---------------------------------------------------------------------

def cmd_fuse(args) -> int:
    if len(args.pred) != len(args.weights):
        print("error: need one weight per prediction file", file=sys.stderr)
        return EXIT_FATAL
    tables = [read_score_table(p, "score") for p in args.pred]
    ids = list(tables[0])
    for p, t in zip(args.pred[1:], tables[1:]):
        if set(t) != set(ids):
            print(f"error: {p} covers different clip ids", file=sys.stderr)
            return EXIT_FATAL
    lists = [np.array([t[c] for c in ids]) for t in tables]
    fused = fuse_scores(lists, FusionSpec(tuple(args.weights), args.normalization))
    write_score_table(args.out, dict(zip(ids, map(float, fused))))
    return EXIT_OK


# --- bench --------------------------------------------------------------------

def cmd_bench(args) -> int:
    spec = CANONICAL_SPECS[args.spec]
    gate = ConstraintGate(spec.label)
    check_run_counts(args.warmup, args.runs)
    pipeline = build_pipeline(args.pipeline, spec, seed=args.seed, threads=args.threads)
    clip = synth_clip(spec, "noise", seed=args.seed)
    report = time_pipeline(pipeline, clip, warmup=args.warmup, runs=args.runs,
                           spec_label=spec.label)
    verdict = check_constraint(report, gate)

    if _is_json(args.out):
        text = json.dumps({"spec": report.clip_spec, "runtime_ms": report.runtime_ms,
                           "runs": list(report.runtime_runs), "warmup_runs": report.warmup_runs,
                           "macs_g": report.macs_g, "params_m": report.params_m,
                           "pass": verdict.passed})
    else:
        text = ("pipeline,spec,runtime_ms,macs_g,params_m,pass\n"
                f"{pipeline.name},{report.clip_spec},{report.runtime_ms!r},"
                f"{report.macs_g!r},{report.params_m!r},{verdict.passed}\n")
    print(text.rstrip("\n"))
    print(f"{spec.label}: mean {report.runtime_ms:.2f} ms over {len(report.runtime_runs)} "
          f"runs ({report.warmup_runs} warmup), budget {gate.budget_ms:.0f} ms -> "
          f"{'PASS' if verdict.passed else 'FAIL'} (margin {verdict.margin_ms:.2f} ms)",
          file=sys.stderr)
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


_HANDLERS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "fuse": cmd_fuse,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (VqaError, ValueError, OSError) as e:  # OSError: a missing or unreadable file
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    raise SystemExit(main())
