"""Clip-to-score benchmark for vqakit.

    python3 perfbench/run.py --workload fhd420-5s --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The command generates the workload's
inputs from --seed under perfbench/out/, runs the workload in its own worker
process (a closed loop: one caller, serial), checks the outputs and prints
every metric by name and unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics of
BENCHMARK.json when --trace 0, and its per-layer metrics when --trace 1 (a
traced run, which also writes its spans to perfbench/out/<workload>/).
A result file with provenance is written next to the spans. The exit code is
non-zero when an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen_inputs  # noqa: E402
import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
# glibc adapts its mmap threshold to the sizes a process frees. A scoring
# process then either keeps a decoded clip's memory for the next clip or hands
# it back to the kernel and faults it in again, at random per process: 2.7 s
# against 4.5 s per fhd420-5s clip on the same input (2-vCPU Xeon VM, glibc,
# numpy 2.4). Pinning the threshold at glibc's static default (128 KiB) makes
# every process take the second path, so every large array pays its page
# faults and runs can be compared.
# OpenBLAS starts a pool of busy-waiting threads when numpy is imported. The
# program's BLAS products are all far under OpenBLAS's threading threshold (at
# most a few hundred rows by 9 columns), so the pool does no work, but while it
# spins it takes CPU from set-up: import plus load_model took 0.28 s against
# 0.21 s with one BLAS thread when the host was busy, and the same when it was
# quiet (same VM). One BLAS thread leaves every output bit as it is and makes
# set-up steadier; it also hides the pool's start-up cost from setup_s.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072", "OPENBLAS_NUM_THREADS": "1"}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def src_digest() -> str:
    """sha256 over src/ file names and contents: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def generate(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs; returns the job fields that name them."""
    wl = WORKLOADS[workload]
    if wl["kind"] == "clips":
        files = []
        for i, ctag in enumerate(wl["files"]):
            path = inputs / f"clip{i:02d}_{ctag}.y4m"
            gen_inputs.write_y4m_clip(path, seed * 1000 + i, wl["width"], wl["height"],
                                      wl["frames"], ctag)
            files.append(str(path))
        gen_inputs.write_checkpoint(inputs / "forest.json", seed)
        return {"files": files}
    for split in ("train", "heldout"):
        gen_inputs.write_tables(inputs / f"{split}_features.csv", inputs / f"{split}_mos.csv",
                                seed, split, wl[f"{split}_rows"])
    return {"files": []}


def run_worker(job: dict, job_path: Path, out_path: Path, deadline: float) -> dict:
    job_path.write_text(json.dumps(job))
    out_path.unlink(missing_ok=True)
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the worker started", 3)
    # its own process group, so that a timeout also stops its set-up probes
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)],
                            env={**os.environ, **WORKER_ENV}, start_new_session=True)
    try:
        code = proc.wait(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("worker did not finish in time", 3)
    if code != 0 or not out_path.exists():
        fail(f"worker exited with code {code}", 3)
    return json.loads(out_path.read_text())


def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "vqakit" / "__init__.py").is_file():
        fail(f"no vqakit sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    out = HERE / "out" / args.workload
    inputs = out / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    tag = f"seed{args.seed}-trace{args.trace}"
    try:
        t0 = time.perf_counter()
        job = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "inputs": str(inputs),
               "spans": str(out / f"spans-{tag}.jsonl"), **generate(args.workload, args.seed, inputs)}
        gen_s = time.perf_counter() - t0
        raw = run_worker(job, inputs / "job.json", inputs / "raw.json", deadline)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    wl = WORKLOADS[args.workload]
    threads = raw["threads"]
    if args.trace:
        computed, extras = metrics.per_layer(raw, threads), {}
        wanted = spec["per_layer"]
    else:
        computed, extras = metrics.end_to_end(raw, wl["kind"])
        wanted = spec["end_to_end"]
    drift = [(d["name"], d["unit"]) for d in wanted
             if computed.get(d["name"], (None, None))[1] != d["unit"]]
    if drift or len(computed) != len(wanted):
        fail(f"computed metrics do not match BENCHMARK.json: {drift or sorted(computed)}")
    result_metrics = {name: {"value": v[0], "unit": v[1]} for name, v in computed.items()}

    checks = dict(raw["checks"])
    if args.trace:
        # the layer self times must account for the traced operation time
        cov = computed["trace.self_coverage"][0]
        ok = abs(cov - 1) <= metrics.COVERAGE_TOLERANCE
        checks["self_coverage"] = {"passed": int(ok), "failed": int(not ok),
                                   "detail": f"coverage {cov:.4f}, tolerance "
                                             f"{metrics.COVERAGE_TOLERANCE}"}
    correct = raw["failed"] == 0 and all(c["failed"] == 0 for c in checks.values())

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "threads": threads,
        "python": platform.python_version(), "numpy": raw["numpy"],
        "platform": platform.platform(), "git_commit": git_commit(), "src_sha256": src_digest(),
        "geometry": {k: v for k, v in wl.items() if k not in ("kind",)},
        "counts": {"ops": len(raw["ops"]), "traced_ops": sum(o["traced"] for o in raw["ops"]),
                   "attempted": raw["attempted"], "failed": raw["failed"]},
        "input_generation_s": gen_s,
    }
    report = {
        "provenance": provenance, "correct": correct,
        "metrics": {k: {"value": v[0], "unit": v[1], "note": v[2]} for k, v in computed.items()},
        "extras": {k: {"value": v[0], "unit": v[1], "note": v[2]} for k, v in extras.items()},
        "checks": checks, "failures": raw["failures"], "probes": raw.get("probes", {}),
        "analytic": raw.get("analytic", {}), "paper_gate": raw.get("paper_gate"),
        "layer_moves": metrics.MOVES if args.trace else None,
        "ops": raw["ops"],
    }
    (out / f"result-{tag}.json").write_text(json.dumps(report, indent=1))

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={threads} nproc={os.cpu_count()} python={provenance['python']} "
          f"numpy={raw['numpy']} commit={provenance['git_commit']} "
          f"src={provenance['src_sha256'][:12]}")
    macs = raw.get("analytic", {}).get("feature_macs_per_call", {})
    ordered = {d["name"]: computed[d["name"]] for d in wanted}
    for name, (value, unit, note) in {**ordered, **extras}.items():
        line = f"{name:44s} {fmt(value):>14s} {unit}"
        f = name.removeprefix("signal_features.").removesuffix("_ms")
        if args.trace and name.endswith("_ms") and f in macs:
            line += f"   analytic {macs[f]} MAC/call (bench_harness.Feature)"
        print(line + (f"   ({note})" if note else ""))
    for name, c in checks.items():
        if c["failed"]:
            print(f"CHECK FAILED {name}: {c['failed']} time(s): {c['detail']}")
    for f in raw["failures"]:
        print(f"FAILED {f}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
