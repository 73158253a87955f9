"""Run one workload in this process and write its raw measurements as JSON.

    python3 perfbench/worker.py <job.json> <out.json>

The job file (written by run.py) names the workload, its generated inputs,
the run length and whether to trace. The loop is closed: one caller, and the
next clip or step starts only after the previous one returns. Every call gets
threads = os.cpu_count(), the CLI default.

Only the standard library is imported before the set-up timer starts, so
set-up includes importing vqakit (and numpy through it). An untraced run also
times set-up in SETUP_PROBES fresh processes of this script, started one at a
time between operations and spread over the timed loop, so that the set-up
median covers the same stretch of time as the operation times. The loop clock
stops while a probe runs.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import FEATURES  # noqa: E402
from spans import Tracer, op_breakdown  # noqa: E402
from workloads import (  # noqa: E402
    EPOCHS, FOREST_ARGS, FUSION_WEIGHTS, NET_ARGS, PLAN_MODE, TRAIN_ARGS, WORKLOADS,
)

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class Run:
    def __init__(self, job):
        self.job = job
        self.wl = WORKLOADS[job["workload"]]
        self.threads = os.cpu_count()
        self.tracer = Tracer() if job["trace"] else None
        self.ops: list[dict] = []
        self.checks: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: dict[str, dict] = {}
        self.refs: dict[str, dict] = {}  # first result per input, for the repeat check
        self.setup_samples: list[float] = []

    # --- set-up ---------------------------------------------------------------

    def setup(self):
        t0 = time.perf_counter()
        src = Path(self.job["root"]) / "src"
        sys.path.insert(0, str(src))
        import vqakit
        from vqakit import (bench_harness, clip_io, eval_metrics, pipelines, regressors,
                            sampling, scoring, signal_features, tables)
        if not Path(vqakit.__file__).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"imported vqakit from {vqakit.__file__}, not from {src}")
        import numpy as np

        self.np = np
        self.vq = vqakit
        self.m = dict(bench_harness=bench_harness, clip_io=clip_io, eval_metrics=eval_metrics,
                      pipelines=pipelines, regressors=regressors, sampling=sampling,
                      scoring=scoring, signal_features=signal_features, tables=tables)
        if self.tracer:
            self.tracer.install()
            self.tracer.op = "setup"
        inp = Path(self.job["inputs"])
        if self.wl["kind"] == "clips":
            self.model = regressors.load_model(inp / "forest.json")
        else:
            def table(split):
                ids, X = signal_features.read_features_csv(inp / f"{split}_features.csv")
                mos = tables.read_score_table(inp / f"{split}_mos.csv", "mos")
                return X, np.array([mos[c] for c in ids], dtype=np.float64)
            self.train = table("train")
            self.heldout = table("heldout")
        self.setup_s = time.perf_counter() - t0
        if self.tracer:
            self.tracer.uninstall()

    # --- operations -------------------------------------------------------------

    def score_clip(self, path, threads, call=_plain):
        """One clip from file to score: the path a scoring user runs."""
        m, np = self.m, self.np
        data = call("clip_io.read", Path(path).read_bytes)
        clip = m["clip_io"].parse_y4m(data)
        del data
        plan = m["sampling"].temporal_sample(clip, PLAN_MODE)
        view = m["sampling"].build_view(clip, plan, threads=threads)
        fv = m["signal_features"].extract_view_features(view, threads=threads)
        score = m["regressors"].predict_forest(self.model, np.array(fv.as_row()))
        return score, fv, clip, plan

    @staticmethod
    def clip_record(path, score, fv, clip, plan):
        planes = [p for f in clip.frames for p in (f.luma, f.chroma_b, f.chroma_r) if p is not None]
        return {
            "file": Path(path).name,
            "score": float(score),
            "bits": _bits([score] + fv.as_row()),
            "flags": sorted(fv.flags),
            "frames_decoded": len(clip),
            "decoded_bytes": int(sum(p.nbytes for p in planes)),
            "frames_sampled": len(plan.indices),
            "rows": 1,
        }

    def train_eval(self, threads):
        """One pass from the in-memory tables to the metric report."""
        m, np = self.m, self.np
        reg = m["regressors"]
        (Xt, yt), (Xh, yh) = self.train, self.heldout
        seed = self.job["seed"]
        forest = reg.fit_forest(Xt, yt, seed=seed, threads=threads,
                                feature_names=m["signal_features"].FEATURE_ORDER, **FOREST_ARGS)
        pf = reg.predict_forest(forest, Xh)
        net = reg.init_branchnet(seed=seed, **NET_ARGS)
        cfg = reg.TrainConfig(epochs=EPOCHS, seed=seed, **TRAIN_ARGS)
        reg.train_siamese([(Xt, yt)], net, cfg)
        reg.finetune_mos((Xt, yt), net, cfg)
        pn = reg.predict_scores(net, Xh)
        fused = m["scoring"].fuse_scores([pf, pn], m["scoring"].FusionSpec(FUSION_WEIGHTS, "zscore"))
        ev = m["eval_metrics"]
        report = {k: getattr(ev, k)(fused, yh) for k in ("srocc", "krocc", "plcc", "rmse")}
        return {
            "report": report,
            "bits": _bits(list(fused) + list(report.values())),
            "finite": bool(np.isfinite(fused).all()),
            "forest_nodes": forest.node_count(),
            "rows": int(Xh.shape[0]),
        }

    # --- checks -----------------------------------------------------------------

    def check(self, name, ok, detail=""):
        c = self.checks.setdefault(name, {"passed": 0, "failed": 0, "detail": ""})
        if ok:
            c["passed"] += 1
        else:
            c["failed"] += 1
            c["detail"] = detail
        return ok

    def verdict(self, name, ok, detail):
        """A check that, when it fails, fails the operation it belongs to."""
        if not self.check(name, ok, detail):
            self.failed += 1

    def check_record(self, rec, ref):
        """Output checks on one operation; ref is the first result for its input."""
        ok = True
        if self.wl["kind"] == "clips":
            ok &= self.check("score_finite", math.isfinite(rec["score"]), f"score {rec['score']}")
            for flag, want in self.wl["expect_flags"].items():
                ok &= self.check(f"flag_{flag}", (flag in rec["flags"]) == want,
                                 f"{rec['file']}: flags {rec['flags']}")
            ok &= self.check("frames_sampled", rec["frames_sampled"] == self.wl["expect_frames_sampled"],
                             f"{rec['file']}: {rec['frames_sampled']} frames sampled")
        else:
            ok &= self.check("scores_finite", rec["finite"], "non-finite fused score")
            floor = self.wl["heldout_srocc_floor"]
            ok &= self.check("heldout_srocc_floor", rec["report"]["srocc"] >= floor,
                             f"held-out SROCC {rec['report']['srocc']:.4f} < {floor}")
        if ref is not None:
            ok &= self.check("repeat_same_bits", rec["bits"] == ref["bits"],
                             f"{rec.get('file', 'step')}: output differs from its first run")
        return ok

    def attempt(self, what, fn):
        """Run one program operation, counting it and any exception it raises."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - the loop keeps running and reports it
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    # --- phases -----------------------------------------------------------------

    def warmup(self):
        """First operation, untimed: warms caches and gives the reference
        results; then the threads=1 bit check and, traced, the thread probes."""
        if self.wl["kind"] == "clips":
            path = self.job["files"][0]
            res = self.attempt("warm-up", lambda: self.score_clip(path, self.threads))
            if res is None:
                return
            _, _, clip, plan = res
            rec = self.clip_record(path, *res)
            self.failed += not self.check_record(rec, None)
            self.refs[rec["file"]] = rec
            self.probe_extract(clip, plan)
            del clip, plan, res
        else:
            rec = self.attempt("warm-up", lambda: self.train_eval(self.threads))
            if rec is None:
                return
            self.failed += not self.check_record(rec, None)
            self.refs["step"] = rec
            if self.tracer:
                self.attempt("fit thread probe", self.probe_fit)

    def probe_extract(self, clip, plan):
        m, np = self.m, self.np
        sampling, sf = m["sampling"], m["signal_features"]
        ref = self.refs[Path(self.job["files"][0]).name]

        def rescore():
            view = sampling.build_view(clip, plan, threads=1)
            fv = sf.extract_view_features(view, threads=1)
            score = m["regressors"].predict_forest(self.model, np.array(fv.as_row()))
            return _bits([score] + fv.as_row()), view

        res = self.attempt("threads=1 re-score", rescore)
        if res is None:
            return
        bits, view = res
        self.verdict("threads1_same_bits", bits == ref["bits"],
                     "first clip scored with threads=1 differs from threads=default")
        if self.tracer:
            self.probes["extract"] = self.attempt(
                "extract thread probe",
                lambda: self.thread_probe(lambda t: sf.extract_view_features(view, threads=t)))

    def probe_fit(self):
        """Time fit_forest at threads=1 and the default; the two forests must
        predict the same bits."""
        reg, sf = self.m["regressors"], self.m["signal_features"]
        Xt, yt = self.train
        Xh = self.heldout[0]
        fits = {}

        def fit(t):
            fits[t] = reg.fit_forest(Xt, yt, seed=self.job["seed"], threads=t,
                                     feature_names=sf.FEATURE_ORDER, **FOREST_ARGS)
        self.probes["fit"] = self.thread_probe(fit)
        same = _bits(reg.predict_forest(fits[1], Xh)) == _bits(reg.predict_forest(fits[self.threads], Xh))
        self.verdict("threads1_same_bits", same, "forest fitted with threads=1 predicts differently")

    def thread_probe(self, fn, min_pairs=2, min_s=1.0, max_pairs=50):
        """Alternate fn(1) and fn(threads); report both medians and the speedup."""
        times = {1: [], self.threads: []}
        t0 = time.perf_counter()
        while len(times[1]) < max_pairs and (
                len(times[1]) < min_pairs or time.perf_counter() - t0 < min_s):
            for t in (1, self.threads) if len(times[1]) % 2 == 0 else (self.threads, 1):
                s = time.perf_counter()
                fn(t)
                times[t].append(time.perf_counter() - s)
        one = statistics.median(times[1])
        many = statistics.median(times[self.threads])
        return {"threads": self.threads, "pairs": len(times[1]),
                "median_s_threads1": one, "median_s_default": many, "speedup": one / many}

    def probe_setup(self, due):
        """Time set-up in fresh processes until `due` samples exist; returns
        the wall time spent, which the loop clock leaves out."""
        t0 = time.perf_counter()
        inputs = Path(self.job["inputs"])
        job_path, out_path = inputs / "probe.json", inputs / "probe.out.json"
        while len(self.setup_samples) < due:
            job_path.write_text(json.dumps({**self.job, "setup_probe": True}))
            out_path.unlink(missing_ok=True)
            subprocess.run([sys.executable, __file__, str(job_path), str(out_path)],
                           timeout=PROBE_TIMEOUT_S, check=True)
            self.setup_samples.append(json.loads(out_path.read_text())["setup_s"])
        return time.perf_counter() - t0

    def loop(self):
        """Timed closed loop for `seconds`. Traced runs alternate untraced and
        traced operations, so that both halves see the same conditions;
        untraced runs take their set-up samples between operations."""
        seconds = self.job["seconds"]
        files = self.job["files"]
        probes = 0 if self.tracer else SETUP_PROBES
        i = 0
        t_start = time.perf_counter()
        t_end = t_start
        paused = 0.0  # set-up probes, left out of the timed loop
        timed = 0.0
        have = set()
        while timed < seconds or (self.tracer and len(have) < 2):
            traced = bool(self.tracer) and i % 2 == 1
            op_id = f"op{i}"
            if traced:
                self.tracer.install()
                self.tracer.op = op_id
                call = self.tracer.call
            else:
                call = _plain
            if self.wl["kind"] == "clips":
                path = files[i % len(files)]
                run = lambda: call("perfbench.op", self.score_clip, path, self.threads, call)
            else:
                path = None
                run = lambda: call("perfbench.op", self.train_eval, self.threads)
            s = time.perf_counter()
            res = self.attempt(op_id, run)
            t_end = time.perf_counter()
            timed = t_end - t_start - paused
            if traced:
                self.tracer.uninstall()
            i += 1
            have.add(traced)
            if res is not None:
                self.record(op_id, path, res, traced, (t_end - s) * 1e3)
            res = None  # frees the decoded clip before the next one is read
            paused += self.probe_setup(min(probes, math.ceil(probes * timed / seconds)))
        self.timed_s = timed

    def record(self, op_id, path, res, traced, ms):
        """Check one timed operation's outputs and keep its measurements."""
        rec = self.clip_record(path, *res) if path else res
        key = rec.get("file", "step")
        self.failed += not self.check_record(rec, self.refs.get(key))
        self.refs.setdefault(key, rec)
        rec = {k: v for k, v in rec.items() if k != "bits"}
        rec.update(op=op_id, ms=ms, traced=traced)
        if traced:
            rec["breakdown"] = op_breakdown(self.tracer.spans, op_id)
        self.ops.append(rec)

    def paper_gate(self):
        """The paper's protocol, unchanged: 30-FHD noise clip, 3 warm-ups, 10 runs."""
        m = self.m

        def gate():
            pipe = m["pipelines"].build_pipeline("feature-forest", "30-FHD", seed=self.job["seed"],
                                                 threads=self.threads)
            clip = m["clip_io"].synth_clip(m["clip_io"].CANONICAL_SPECS["30-FHD"], "noise",
                                           seed=self.job["seed"])
            rep = m["bench_harness"].time_pipeline(pipe, clip, warmup=3, runs=10, spec_label="30-FHD")
            verdict = m["bench_harness"].check_constraint(
                rep, m["bench_harness"].ConstraintGate("30-FHD", 1000.0))
            return {"runtime_ms": rep.runtime_ms, "runs_ms": list(rep.runtime_runs),
                    "pass": verdict.passed, "macs_g": rep.macs_g}
        return self.attempt("paper gate", gate)

    def analytic(self):
        """Analytic MACs from bench_harness for this workload's geometry."""
        if self.wl["kind"] != "clips":
            return {}
        bh = self.m["bench_harness"]
        plane = self.wl["width"] * self.wl["height"]
        order = self.m["signal_features"].FEATURE_ORDER
        desc = bh.PipelineDescriptor(tuple(bh.Feature(f, plane) for f in order),
                                     self.wl["expect_frames_sampled"])
        return {"plane": plane,
                "feature_macs_per_call": {f: bh.Feature(f, plane).macs() for f in FEATURES},
                "pipeline_gmacs": bh.count_macs(desc)}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    job = json.loads(Path(argv[1]).read_text())
    run = Run(job)
    run.setup()
    out = {"setup_s": run.setup_s, "threads": run.threads}
    if not job.get("setup_probe"):
        run.warmup()
        run.loop()
        out.update(timed_s=run.timed_s, ops=run.ops, probes=run.probes, analytic=run.analytic(),
                   setup_samples=run.setup_samples)
        if run.wl.get("paper_gate") and not job["trace"]:
            out["paper_gate"] = run.paper_gate()
        if run.wl["kind"] == "clips":
            out["forest_nodes"] = run.model.node_count()
        if run.tracer:
            setup_spans = [s for s in run.tracer.spans if s[5] == "setup"]
            out["load_model_ms"] = sum((s[3] - s[2]) / 1e6 for s in setup_spans
                                       if s[1] == "regressors.load_model")
            out["module_errors"] = dict(run.tracer.errors)
            run.tracer.write_jsonl(job["spans"])
    out.update(
        checks=run.checks, attempted=run.attempted, failed=run.failed, failures=run.failures,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=run.np.__version__, vqakit_file=run.vq.__file__,
    )
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
