"""Tests of the benchmark itself: its correctness check and its tracer.

    PYTHONPATH=src python3 -m pytest bench
"""

from dataclasses import replace
from pathlib import Path

import pytest

import exdyn.cli
import exdyn.harness
import exdyn.rng
from exdyn.config import parse_config

import checks
import run
import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

SHORT_TRAJECTORY = Workload(
    name="short-trajectory", subcommand="trajectory",
    config="preset = fig3-left\nn_steps = 200\n", default_seed=31,
    rows={"trajectory.csv": 21})

# the negative control (decay 0) still moves after 100 steps, so the
# property suite reports a mismatch and the CLI exits with code 3
MISMATCHED_SUITE = Workload(
    name="mismatched-suite", subcommand="properties",
    config="preset = theorem-suite\nn_steps = 100\n", default_seed=51,
    rows={"properties.csv": 25})


def _run_in(workload, outdir, seed=None):
    seed = workload.default_seed if seed is None else seed
    job = workload.job(seed, outdir, trace=False)
    spec = parse_config(workload.config, overrides={"seed": str(seed)},
                        default_experiment=workload.subcommand)
    code, _ = exdyn.cli.run(workload.subcommand, spec, outdir)
    return job, spec, code


def test_clean_outputs_pass_and_corrupted_csv_fails(tmp_path):
    job, spec, code = _run_in(SHORT_TRAJECTORY, tmp_path)
    assert code == 0
    problems, files = checks.check_outputs(job, spec, tmp_path)
    assert problems == [f"trajectory.csv: sha256 {files['trajectory.csv']['sha256']} "
                        "differs from the recorded digest at seed 31"]

    job["digests"] = {"trajectory.csv": files["trajectory.csv"]["sha256"]}
    assert checks.check_outputs(job, spec, tmp_path)[0] == []

    path = tmp_path / "trajectory.csv"
    text = path.read_text()
    path.write_text(text.replace("0.25,", "0.26,", 1))
    problems, _ = checks.check_outputs(job, spec, tmp_path)
    assert len(problems) == 1 and "differs from the recorded digest" in problems[0]

    path.write_text(text.replace("# seed = 31", "# seed = 32"))
    problems, _ = checks.check_outputs(job, spec, tmp_path)
    assert any("header differs" in p for p in problems)

    path.write_text(text + "1,2\n")
    problems, _ = checks.check_outputs(job, spec, tmp_path)
    assert any("malformed data row" in p for p in problems)

    path.unlink()
    assert checks.check_outputs(job, spec, tmp_path)[0] == ["trajectory.csv: missing"]


def test_digests_apply_only_at_the_default_seed(tmp_path):
    job, spec, _ = _run_in(SHORT_TRAJECTORY, tmp_path, seed=7)
    assert checks.check_outputs(job, spec, tmp_path)[0] == []


def test_a_wrong_output_counts_as_a_failed_run(tmp_path):
    wrong = replace(SHORT_TRAJECTORY, digests={"trajectory.csv": "0" * 64})
    result = run.run_child(wrong, wrong.default_seed, False, ROOT, tmp_path)
    assert result["returncode"] == 0
    assert result["failed"]


def test_an_exit_3_run_counts_as_a_failed_run(tmp_path):
    result = run.run_child(MISMATCHED_SUITE, 51, False, ROOT, tmp_path)
    assert result["returncode"] == 3
    assert result["failed"]
    assert any(p.startswith("exit code 3") for p in result["problems"])


def test_error_rate_counts_every_failed_sample():
    report = run.measure(MISMATCHED_SUITE, 51, 0, False, ROOT)
    assert report["attempted"] == run.MIN_SAMPLES
    assert report["failed"] == report["attempted"]
    assert "end_to_end" not in report


@pytest.mark.parametrize("name,updates", [
    ("snapshot-2d", 150_000),
    ("trajectory-csv", 250_000),
    ("variance-ensemble", 3000 * (8000 + 4000 + 2000)),
    ("property-suite", 4 * 500_000),
])
def test_update_counts_follow_the_config(name, updates):
    w = WORKLOADS[name]
    spec = parse_config(w.config, default_experiment=w.subcommand)
    assert checks.count_updates(spec) == updates


def test_tracer_sees_calls_through_every_binding_site():
    original = exdyn.harness.substream
    t = tracer.Tracer()
    restore = tracer.install(t)
    try:
        # harness calls substream and min_cell_volume by their own bindings
        exdyn.harness.boundary_samples(0.1, [10], 3, 7)
        spec = parse_config("preset = theorem-suite\nn_steps = 2000\n")
        exdyn.harness.property_non_collapse(spec.model, 2000, check_stride=1000,
                                            n_samples=64)
    finally:
        restore()
    assert exdyn.harness.substream is original is exdyn.rng.substream
    # 3 replica streams, 1 trajectory stream, 2 geometry streams
    assert t.calls("rng.substream") == 6
    assert t.calls("harness.replica_stream") == 3
    assert t.calls("geometry.min_cell_volume") == 2
    assert t.counters["samples_classified"] == 128
    assert t.counters["temp_bytes_max"] == 64 * 2 * 1 * 8
    assert t.counters["replica_steps"] == 30
    assert t.counters["pair_steps"] == 2000
    metrics = tracer.layer_metrics(t)
    assert metrics["harness.trajectory_runs"] == 1
    assert metrics["rng.streams_created"] == 6


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("x.inner", lambda: sum(range(20_000)))
    outer = t.wrap("x.outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = t.spans["x.outer"]
    assert calls == 1 and t.calls("x.inner") == 3
    assert self_s == pytest.approx(total - t.total_s("x.inner"), abs=1e-9)
    assert t.top_level_s == total
    assert t.layer("x")[1] == pytest.approx(total)
