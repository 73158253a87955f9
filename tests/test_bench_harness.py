import time

import numpy as np
import pytest

from vqakit.bench_harness import (
    BenchReport,
    Conv2d,
    ConstraintGate,
    Elementwise,
    Feature,
    Linear,
    PipelineDescriptor,
    check_constraint,
    count_macs,
    time_pipeline,
)
from vqakit.clip_io import CANONICAL_SPECS, synth_clip
from vqakit.errors import BenchRunError, SpecMismatch
from vqakit.pipelines import build_pipeline
from vqakit.regressors import init_branchnet


def busy_wait(ms: float):
    end = time.perf_counter() + ms / 1e3
    while time.perf_counter() < end:
        pass


def conv_macs_loop_oracle(c_in, c_out, k_h, k_w, h_out, w_out):
    """Count multiplies of a direct convolution loop nest."""
    count = 0
    for _ in range(c_out):
        for _ in range(h_out):
            for _ in range(w_out):
                count += c_in * k_h * k_w
    return count


class TestCountMacs:
    def test_linear_example(self):
        desc = PipelineDescriptor((Linear(768, 768, tokens=1),), 1)
        assert count_macs(desc) == 589824 / 1e9

    def test_conv_example(self):
        desc = PipelineDescriptor((Conv2d(3, 8, 3, 3, 224, 224),), 1)
        assert count_macs(desc) == 10838016 / 1e9

    def test_conv_matches_loop_oracle_small(self):
        assert Conv2d(3, 8, 3, 3, 4, 4).macs() == conv_macs_loop_oracle(3, 8, 3, 3, 4, 4)

    def test_empty_descriptor(self):
        assert count_macs(PipelineDescriptor((), 1)) == 0.0

    def test_resize_and_elementwise(self):
        desc = PipelineDescriptor((Elementwise(4 * 512 * 512), Elementwise(100)), 1)
        assert count_macs(desc) == (4 * 512 * 512 + 100) / 1e9

    def test_feature_costs(self):
        plane = 1600
        assert Feature("si", plane).macs() == 10 * plane
        assert Feature("ti", plane).macs() == 2 * plane
        assert Feature("ti_first", plane).macs() == 2 * plane
        assert Feature("sharpness", plane).macs() == 10 * plane
        assert Feature("colorfulness", plane).macs() == 6 * plane
        assert Feature("contrast", plane).macs() == plane
        assert Feature("avg_luminance", plane).macs() == plane
        # per pixel plus per 8x8 window at stride 4 (plane / 16 windows): a
        # frame's statistics cost 3 + 8, a pair's cross term 2 + 19; ssim()
        # makes two frames' statistics, extraction one per frame (with ssim_pair)
        assert Feature("ssim", plane).macs() == 8 * plane + 35 * plane // 16
        assert Feature("ssim_pair", plane).macs() == 5 * plane + 27 * plane // 16
        assert Feature("ssim_first", plane).macs() == 2 * plane + 19 * plane // 16

    def test_additive_over_concatenation(self):
        a = PipelineDescriptor((Linear(8, 8),), 2)
        b = PipelineDescriptor((Conv2d(1, 1, 3, 3, 8, 8),), 2)
        assert count_macs(a + b) == pytest.approx(count_macs(a) + count_macs(b), abs=0)

    def test_linear_in_frames(self):
        one = PipelineDescriptor((Feature("si", 1000),), 1)
        five = PipelineDescriptor((Feature("si", 1000),), 5)
        assert count_macs(five) == 5 * count_macs(one)

    def test_per_clip_stage_not_scaled(self):
        desc = PipelineDescriptor((Linear(8, 8, per_frame=False),), 30)
        assert count_macs(desc) == (8 * 8 + 0) / 1e9 * 1  # not multiplied by 30


class TestCountParams:
    def test_no_learned_stages(self):
        assert build_pipeline("identity", "30-FHD").params_m == 0.0

    def test_forest_reports_zero(self):
        assert build_pipeline("feature-forest", "30-FHD", n_trees=3).params_m == 0.0

    def test_branchnet_counts(self):
        net = init_branchnet(seed=0)
        assert build_pipeline("feature-branchnet", "30-FHD").params_m == net.n_params() / 1e6


class TestTimePipeline:
    def test_run_bookkeeping(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        report = time_pipeline(lambda c: 0.0, clip, warmup=3, runs=10,
                               spec_label="30-FHD")
        assert len(report.runtime_runs) == 10
        assert report.warmup_runs == 3
        assert report.runtime_ms == pytest.approx(np.mean(report.runtime_runs), abs=1e-12)
        assert min(report.runtime_runs) <= report.runtime_ms <= max(report.runtime_runs)

    def test_identity_under_1ms_on_fhd(self):
        # timing excludes ingestion: the clip is pre-loaded, so a no-op scorer
        # must be far below the gate
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        report = time_pipeline(lambda c: 0.0, clip, warmup=1, runs=5)
        assert report.runtime_ms < 1.0

    def test_busy_wait_calibration(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        report = time_pipeline(lambda c: busy_wait(50) or 0.0, clip, warmup=1, runs=3)
        assert 40.0 <= report.runtime_ms <= 200.0

    def test_branchwise_times_sum_to_total(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        stages = {"semantic": 30.0, "aesthetic": 20.0, "technical": 10.0}

        def total(c):
            for ms in stages.values():
                busy_wait(ms)
            return 0.0

        report_total = time_pipeline(total, clip, warmup=1, runs=5)
        stage_means = [
            time_pipeline(lambda c, ms=ms: busy_wait(ms) or 0.0, clip, warmup=1, runs=5).runtime_ms
            for ms in stages.values()
        ]
        assert sum(stage_means) == pytest.approx(report_total.runtime_ms, rel=0.05)

    def test_failure_carries_run_index(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        calls = {"n": 0}

        def flaky(c):
            calls["n"] += 1
            if calls["n"] > 3:  # fail on the second timed run
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(BenchRunError) as ei:
            time_pipeline(flaky, clip, warmup=2, runs=5)
        assert ei.value.run_index == 1

    def test_outlier_guard(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant")
        report = time_pipeline(lambda c: busy_wait(5) or 0.0, clip, warmup=1, runs=6)
        assert report.runtime_ms <= 3.0 * np.median(report.runtime_runs)


class TestConstraint:
    def _report(self, ms, spec="30-FHD"):
        return BenchReport(spec, ms, (ms,), 3, 0.0, 0.0, ms <= 1000.0)

    def test_pass_with_margin(self):
        verdict = check_constraint(self._report(999.0), ConstraintGate("30-FHD", 1000.0))
        assert verdict.passed
        assert verdict.margin_ms == pytest.approx(1.0, abs=1e-9)

    def test_boundary_fail(self):
        verdict = check_constraint(self._report(1000.1), ConstraintGate("30-FHD", 1000.0))
        assert not verdict.passed

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            check_constraint(self._report(10.0, spec="60-HD"), ConstraintGate("30-FHD"))

    def test_reference_pipeline_passes_gate(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "noise", seed=0)
        pipeline = build_pipeline("feature-forest", "30-FHD", seed=0, n_trees=50)
        report = time_pipeline(pipeline, clip, warmup=1, runs=3, spec_label="30-FHD")
        verdict = check_constraint(report, ConstraintGate("30-FHD", 1000.0))
        assert verdict.passed, f"runtime {report.runtime_ms} ms"

    def test_report_json_keys(self):
        import json

        parsed = json.loads(self._report(12.5).to_json())
        assert set(parsed) == {"spec", "runtime_ms", "runs", "warmup_runs",
                               "macs_g", "params_m", "pass"}
