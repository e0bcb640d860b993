"""Tests of the benchmark's own machinery: spans, counts, checks and names.

Run with the package on the path, e.g.
``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import json
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import quasitrace.dynamics as DY
import quasitrace.spectrum as SP
import quasitrace.transfer as TR
import quasitrace.words as W
from quasitrace.phase import PhasePoint

import calibration
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def traced(call):
    """Run `call` under a fresh tracer and return the tracer, restored."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.restore()
    return tracer


def test_wrapper_counts_calls_and_restores_originals():
    originals = {
        (W, "rotation_block"): W.rotation_block,
        (TR, "rotation_block"): TR.rotation_block,
        (DY, "rotation_block"): DY.rotation_block,
        (TR, "dual_traces_upto"): TR.dual_traces_upto,
        (SP, "trace_grid"): SP.trace_grid,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (W, TR, DY):  # rebound wherever it was imported
            assert module.rotation_block is not originals[(W, "rotation_block")]
        theta = PhasePoint.from_fraction(1, 3)
        TR._potential_pattern.cache_clear()  # so each sweep draws its own block
        TR.dual_traces_upto(4, 0.5, 3.0, theta)
        TR.dual_traces_upto(2, 0.5, 3.0, theta)
        DY.build_truncation(5, 3.0, theta)  # calls dynamics.rotation_block
    finally:
        tracer.restore()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    summary = spans.summarize(tracer.spans)
    assert summary["transfer.dual_traces_upto"]["calls"] == 2
    assert summary["words.rotation_block"]["calls"] == 3
    assert tracer.counts["words.rotation_block.symbols"] == 8 + 3 + 11


def test_self_time_subtracts_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, -1],
        ["dynamics.eigensystem", 1.0, 4.0, 0],
        ["words.rotation_block", 2.0, 3.0, 1],
        ["dynamics.abel_site_masses", 5.0, 6.5, 0],
    ]
    summary = spans.summarize(recorded)
    assert summary["cli.main"]["self_s"] == pytest.approx(5.5)
    assert summary["dynamics.eigensystem"]["self_s"] == pytest.approx(2.0)
    assert summary["words.rotation_block"]["self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("k,fib", [(0, 1), (1, 2), (5, 13), (8, 55)])
def test_site_steps_of_dual_traces_equal_fibonacci(k, fib):
    theta = PhasePoint.zero()
    tracer = traced(lambda: TR.dual_traces_upto(k, 1.0, 2.0, theta))
    assert tracer.counts["transfer.site_steps"] == fib


def test_computed_counts_match_hand_calculation():
    theta = PhasePoint.zero()

    def calls():
        TR._potential_pattern.cache_clear()
        es = DY.eigensystem(DY.build_truncation(10, 2.0, theta))  # 21 sites
        DY.abel_site_masses(es, [-1, 0, 1], 5.0)
        SP.trace_grid(np.linspace(0.0, 1.0, 7), 2.0, 4)
        TR.norm_profile([5.5, 2.0], 0.5, 2.0, theta)  # sweeps floor(5.5) + 1 sites
        W.rotation_block(-3, 4, theta)

    counts = traced(calls).counts
    assert counts["dynamics.eigensystem.sites"] == 21
    assert counts["dynamics.eigensystem.vector_bytes"] == 8 * 21 * 21
    assert counts["dynamics.abel_site_masses.sites"] == 3
    assert counts["dynamics.abel_site_masses.kernel_entries"] == 21 * 21
    assert counts["spectrum.trace_grid.points"] == 7
    assert counts["transfer.site_steps"] == 6
    assert counts["words.rotation_block.symbols"] == 21 + 6 + 8


def write_dynamics_outputs(out: Path, passed: bool = True) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "dynamics.csv").write_text("lambda,theta,T,L,mass,edge_mass,valid\n")
    (out / "bound_report.json").write_text(json.dumps({"pass": passed}))


def test_check_accepts_clean_outputs(tmp_path):
    write_dynamics_outputs(tmp_path)
    digests, problems = run.check_subcommand("dynamics", 0, tmp_path, None)
    assert problems == []
    again, problems = run.check_subcommand("dynamics", 0, tmp_path, digests)
    assert problems == [] and again == digests


def test_check_fails_on_nonzero_exit(tmp_path):
    write_dynamics_outputs(tmp_path)
    _, problems = run.check_subcommand("dynamics", 1, tmp_path, None)
    assert any("exit code 1" in p for p in problems)


def test_check_fails_on_corrupted_output(tmp_path):
    write_dynamics_outputs(tmp_path)
    digests, _ = run.check_subcommand("dynamics", 0, tmp_path, None)
    with open(tmp_path / "dynamics.csv", "a") as fh:
        fh.write("10.0,0,10.0,1.0,0.9,0.0,1\n")
    _, problems = run.check_subcommand("dynamics", 0, tmp_path, digests)
    assert problems == ["dynamics: dynamics.csv differs from the previous pass"]


def test_check_fails_on_missing_file_and_failed_suite(tmp_path):
    write_dynamics_outputs(tmp_path, passed=False)
    (tmp_path / "dynamics.csv").unlink()
    _, problems = run.check_subcommand("dynamics", 0, tmp_path, None)
    assert "dynamics: dynamics.csv missing" in problems
    assert "dynamics: bound_report.json does not say pass" in problems


@pytest.mark.parametrize("text", ["{\"pass\": tr", "[true]", "\xff"])
def test_check_fails_on_unreadable_summary(tmp_path, text):
    write_dynamics_outputs(tmp_path)
    (tmp_path / "bound_report.json").write_text(text, encoding="latin-1")
    _, problems = run.check_subcommand("dynamics", 0, tmp_path, None)
    assert problems == ["dynamics: bound_report.json unreadable"]


def test_check_fails_on_unreadable_report(tmp_path):
    (tmp_path / "report.json").write_text("{\"words\": ")
    _, problems = run.check_subcommand("report", 0, tmp_path, None)
    assert problems == ["report: report.json unreadable"]


def test_digest_key_follows_seeded_workloads():
    assert run.digest_key("phase-sweep", 3) == "3"
    assert run.digest_key("paper-default", 3) == run.digest_key("traces-large", 3) == "any"
    recorded = json.loads(run.DIGESTS.read_text())
    assert set(recorded) == set(run.WORKLOADS)


@pytest.mark.parametrize("kind", sorted(calibration.LOOPS))
def test_calibration_scale_uses_the_mean_loop_time(kind):
    ref = calibration.LOOPS[kind].reference_s
    assert calibration.scale(kind, [ref, ref]) == pytest.approx(1.0)
    # twice as slow half the time: the run took 1.5x reference time
    assert calibration.scale(kind, [ref, 2 * ref]) == pytest.approx(1 / 1.5)
    assert all(t > 0 for t in calibration.bracket(kind))


def test_sampler_samples_while_busy_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler("python")
    sampler.start()
    try:
        end = time.perf_counter() + 3 * calibration.LOOPS["python"].interval_s
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert all(sample > 0 for sample in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_subcommand_has_a_calibration_loop():
    assert set(run.CALIBRATION) == set(run.OUTPUTS)
    assert set(run.CALIBRATION.values()) <= set(calibration.LOOPS)


def test_metric_names_and_units_match_benchmark_json():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
