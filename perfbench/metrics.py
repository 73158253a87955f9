"""Turn a worker's raw measurements into named metrics.

Names, units and directions of the metrics the last output line carries come
from BENCHMARK.json. MOVES records, for each per-layer metric, which
end-to-end metric on which workload it should move.
"""

from __future__ import annotations

import math
import statistics

FEATURES = ("si", "ti", "ssim", "colorfulness", "sharpness", "contrast", "avg_luminance")
LAYERS = ("clip_io", "sampling", "signal_features", "regressors", "scoring", "eval_metrics")
SCORING = "fhd420-5s, shorts-1s"

MOVES = {
    "clip_io.read_ms": "op_ms_p50 (clip_ms_p50) on fhd420-5s and p50/p90 on shorts-1s; not train-eval",
    "clip_io.parse_y4m_ms": "op_ms_p50 on fhd420-5s (~45%) and shorts-1s (~50%); not train-eval",
    "clip_io.frames_decoded": "op_ms_p50 and peak_rss_mb on " + SCORING,
    "clip_io.decoded_mb": "peak_rss_mb and op_ms_p50 on fhd420-5s",
    "clip_io.frames_used_ratio": "peak_rss_mb and op_ms_p50 on fhd420-5s (decode waste)",
    "clip_io.frame_rgb_ms": "op_ms_p50 on fhd420-5s (~12-15% with view build); smaller on shorts-1s",
    "clip_io.self_ms": "op_ms_p50 on " + SCORING,
    "sampling.temporal_sample_ms": "op_ms_p50 on " + SCORING,
    "sampling.build_view_self_ms": "op_ms_p50 on fhd420-5s; smaller on shorts-1s",
    "sampling.frames_sampled": "op_ms_p50 on " + SCORING,
    "sampling.self_ms": "op_ms_p50 on " + SCORING,
    **{f"signal_features.{f}_ms": "op_ms_p50 on fhd420-5s only (no calls on shorts-1s)"
       for f in ("ti", "ssim")},
    **{f"signal_features.{f}_ms": "op_ms_p50 on " + SCORING
       for f in ("si", "colorfulness", "sharpness", "contrast", "avg_luminance")},
    **{f"signal_features.{f}_calls": "op_ms_p50 on " + SCORING for f in FEATURES},
    "signal_features.extract_view_features_ms": "op_ms_p50 and ops_per_s on fhd420-5s",
    "signal_features.parallel_eff": "op_ms_p50 and ops_per_s on fhd420-5s",
    "signal_features.extract_thread_speedup": "op_ms_p50 on fhd420-5s (keep or delete the pool)",
    "signal_features.self_ms": "op_ms_p50 on " + SCORING,
    "regressors.load_model_ms": "setup_s on " + SCORING,
    "regressors.predict_forest_ms": "op_ms_p50/p90 on shorts-1s; under 1% of fhd420-5s",
    "regressors.predict_forest_rows": "context for predict_forest_ms (rows per call)",
    "regressors.fit_forest_s": "op_ms_p50 (train_s) on train-eval",
    "regressors.forest_nodes": "must not move under an exact optimisation (train-eval, checkpoints)",
    "regressors.train_siamese_s": "op_ms_p50 (train_s) on train-eval",
    "regressors.finetune_mos_s": "op_ms_p50 (train_s) on train-eval",
    "regressors.predict_scores_ms": "op_ms_p50 (train_s) on train-eval",
    "regressors.fit_thread_speedup": "op_ms_p50 on train-eval (keep or delete the pool)",
    "regressors.self_ms": "op_ms_p50 on all workloads",
    "scoring.fuse_scores_ms": "op_ms_p50 (train_s) on train-eval (negligible today)",
    "eval_metrics.metrics_ms": "op_ms_p50 (train_s) on train-eval (negligible today)",
    **{f"{m}.errors": "fail_ratio on the workloads that call " + m for m in LAYERS},
    "bench_harness.count_macs_g": "analytic; moves only if the MAC model changes",
    "trace.op_ms_p50": "traced op_ms_p50; compare with the untraced one",
    "trace.overhead_ratio": "none; tracing cost (traced / untraced op time)",
    "trace.self_coverage": "none; share of the traced op time the layer self times explain",
}

# the layer self times must explain the traced op time within this share
COVERAGE_TOLERANCE = 0.05

# printed beside the value in a traced run
NOTES = {
    "clip_io.decoded_mb": "computed from plane nbytes",
    "clip_io.read_ms": "file bytes read as `vqakit extract` reads them",
    "sampling.build_view_self_ms": "build_view minus its frame_rgb children",
    "signal_features.parallel_eff": "summed feature busy time / (threads x extract wall)",
    "signal_features.extract_thread_speedup": "probe: extract_view_features threads=1 / default",
    "regressors.fit_thread_speedup": "probe: fit_forest threads=1 / default",
    "bench_harness.count_macs_g": "analytic, per clip",
    "trace.self_coverage": f"sum of layer self times / traced op time; tolerance {COVERAGE_TOLERANCE}",
}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(ms):
    """Highest of p99/p90 with at least ten samples beyond it, else None."""
    n = len(ms)
    for p in (99, 90):
        if n - math.ceil(p / 100 * n) >= 10:
            s = sorted(ms)
            return p, s[math.ceil(p / 100 * n) - 1]
    return None


def end_to_end(raw, kind):
    """All end-to-end figures; returns (metrics, extras) as name -> (value, unit, note)."""
    setup_samples = raw["setup_samples"]
    timed = [o for o in raw["ops"] if not o["traced"]]
    ms = [o["ms"] for o in timed]
    what = "clip" if kind == "clips" else "step"
    m = {
        "setup_s": (median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes spread over the loop: "
                    + " ".join(f"{x:.3f}" for x in setup_samples)),
        "op_ms_p50": (median(ms), "ms", f"median ms per {what}, n={len(ms)}"),
        "ops_per_s": (len(ms) / raw["timed_s"] if raw["timed_s"] else 0.0, "1/s",
                      f"{what}s completed per second over {raw['timed_s']:.2f} s"),
        "peak_rss_mb": (raw["peak_rss_mib"], "MiB", "ru_maxrss of the worker process"),
    }
    extras = {
        "fail_ratio": (raw["failed"] / max(raw["attempted"], 1), "ratio",
                       f"{raw['failed']} failed of {raw['attempted']} attempted"),
    }
    t = tail(ms)
    if kind == "clips":
        extras["clip_ms_p50"] = (m["op_ms_p50"][0], "ms", f"n={len(ms)} clips")
        extras["clips_per_s"] = (m["ops_per_s"][0], "clips/s", m["ops_per_s"][2])
        if t:
            extras[f"clip_ms_p{t[0]}"] = (t[1], "ms", f"n={len(ms)} clips")
        else:
            extras["clip_ms_p90"] = (None, "ms", f"not reported: n={len(ms)} clips leaves "
                                                 "fewer than ten beyond it")
    else:
        extras["train_s"] = (m["op_ms_p50"][0] / 1e3, "s", f"median of n={len(ms)} steps")
        if timed:
            rep = timed[0]["report"]
            extras["heldout_srocc"] = (rep["srocc"], "", "fused 7:8 score, held-out split")
            extras["heldout_plcc"] = (rep["plcc"], "", "fused 7:8 score, held-out split")
    gate = raw.get("paper_gate")
    if gate:
        extras["paper_gate_ms"] = (gate["runtime_ms"], "ms",
                                   f"30-FHD noise, mean of 10 runs after 3 warm-ups; "
                                   f"pass={gate['pass']} (budget 1000 ms)")
    return m, extras


def _per_op(ops, fn):
    return median([fn(o["breakdown"]) for o in ops])


def per_layer(raw, threads):
    """All per-layer figures from the traced operations of a traced run, as
    name -> (value, unit, note)."""
    traced = [o for o in raw["ops"] if o["traced"]]
    plain = [o for o in raw["ops"] if not o["traced"]]
    busy = lambda n: (lambda b: b["busy_ms"].get(n, 0.0))
    calls = lambda n: (lambda b: b["calls"].get(n, 0))

    def layer_self(layer):
        return lambda b: sum(v for k, v in b["self_ms"].items() if k.split(".")[0] == layer)

    def parallel_eff(b):
        wall = b["busy_ms"].get("signal_features.extract_view_features", 0.0)
        work = sum(b["busy_ms"].get(f"signal_features.{f}", 0.0) for f in FEATURES)
        return work / (threads * wall) if wall else 0.0

    def coverage(b):
        total = b["busy_ms"].get("perfbench.op", 0.0)
        explained = sum(v for k, v in b["self_ms"].items() if k.split(".")[0] in LAYERS)
        return explained / total if total else 0.0

    clips = [o for o in traced if "frames_decoded" in o]
    errors = raw.get("module_errors", {})
    probes = raw.get("probes", {})
    traced_p50 = median([o["ms"] for o in traced])
    plain_p50 = median([o["ms"] for o in plain])
    m = {
        "clip_io.read_ms": (_per_op(traced, busy("clip_io.read")), "ms"),
        "clip_io.parse_y4m_ms": (_per_op(traced, busy("clip_io.parse_y4m")), "ms"),
        "clip_io.frames_decoded": (median([o["frames_decoded"] for o in clips]), "count"),
        "clip_io.decoded_mb": (median([o["decoded_bytes"] / 2**20 for o in clips]), "MiB"),
        "clip_io.frames_used_ratio": (
            median([o["frames_sampled"] / o["frames_decoded"] for o in clips]), "ratio"),
        "clip_io.frame_rgb_ms": (_per_op(traced, busy("clip_io.frame_rgb")), "ms"),
        "sampling.temporal_sample_ms": (_per_op(traced, busy("sampling.temporal_sample")), "ms"),
        "sampling.build_view_self_ms": (
            _per_op(traced, lambda b: b["self_ms"].get("sampling.build_view", 0.0)), "ms"),
        "sampling.frames_sampled": (median([o["frames_sampled"] for o in clips]), "count"),
        "signal_features.extract_view_features_ms": (
            _per_op(traced, busy("signal_features.extract_view_features")), "ms"),
        "signal_features.parallel_eff": (_per_op(traced, parallel_eff), "ratio"),
        "signal_features.extract_thread_speedup": (
            (probes.get("extract") or {}).get("speedup", 0.0), "x"),
        "regressors.load_model_ms": (raw.get("load_model_ms", 0.0), "ms"),
        "regressors.predict_forest_ms": (_per_op(traced, busy("regressors.predict_forest")), "ms"),
        "regressors.predict_forest_rows": (median([o["rows"] for o in traced]), "rows"),
        "regressors.fit_forest_s": (_per_op(traced, busy("regressors.fit_forest")) / 1e3, "s"),
        # the loaded checkpoint's nodes, or those of the forest each step fits
        "regressors.forest_nodes": (
            raw["forest_nodes"] if "forest_nodes" in raw
            else median([o["forest_nodes"] for o in traced]), "count"),
        "regressors.train_siamese_s": (_per_op(traced, busy("regressors.train_siamese")) / 1e3, "s"),
        "regressors.finetune_mos_s": (_per_op(traced, busy("regressors.finetune_mos")) / 1e3, "s"),
        "regressors.predict_scores_ms": (_per_op(traced, busy("regressors.predict_scores")), "ms"),
        "regressors.fit_thread_speedup": ((probes.get("fit") or {}).get("speedup", 0.0), "x"),
        "scoring.fuse_scores_ms": (_per_op(traced, busy("scoring.fuse_scores")), "ms"),
        "eval_metrics.metrics_ms": (_per_op(traced, lambda b: sum(
            b["busy_ms"].get(f"eval_metrics.{k}", 0.0) for k in ("srocc", "krocc", "plcc", "rmse"))),
            "ms"),
        "bench_harness.count_macs_g": (raw.get("analytic", {}).get("pipeline_gmacs", 0.0), "GMAC"),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ratio": (traced_p50 / plain_p50 if plain_p50 else 0.0, "ratio"),
        "trace.self_coverage": (_per_op(traced, coverage), "ratio"),
    }
    for f in FEATURES:
        m[f"signal_features.{f}_ms"] = (_per_op(traced, busy(f"signal_features.{f}")), "ms")
        m[f"signal_features.{f}_calls"] = (_per_op(traced, calls(f"signal_features.{f}")), "count")
    for layer in ("clip_io", "sampling", "signal_features", "regressors"):
        m[f"{layer}.self_ms"] = (_per_op(traced, layer_self(layer)), "ms")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    return {k: (v, unit, NOTES.get(k, "")) for k, (v, unit) in m.items()}
