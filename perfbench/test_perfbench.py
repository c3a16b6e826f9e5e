"""Tests of the benchmark itself: span arithmetic, output checks, inputs, tracer.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import CheckFailed, Job

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def span(id, parent, layer, start, end, thread=1, **counts):
    return {"id": id, "parent": parent, "layer": layer, "start": start, "end": end,
            "thread": thread, "run": 0, "counts": counts}


# --- span arithmetic --------------------------------------------------------


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert tracer.union_length([]) == 0


def test_self_times_with_two_overlapping_threads():
    # A batch on the main thread fans out to chunks on two pool threads
    # that overlap in [4, 6]; a noise span sits inside the first chunk.
    spans = [
        span(1, None, "cli.main", 0, 10, thread=1),
        span(2, 1, "engine.batch", 1, 9, thread=1, workers=2),
        span(3, 2, "engine.chunk", 2, 6, thread=2, path_steps=100),
        span(4, 2, "engine.chunk", 4, 8, thread=3, path_steps=100),
        span(5, 3, "engine.noise", 2, 3, thread=2, floats=400),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 2, 2: 2, 3: 3, 4: 4, 5: 1}
    sums = tracer.thread_self_sums(spans)
    assert sums == {1: 4, 2: 4, 3: 4}
    assert max(sums.values()) <= 10

    m = tracer.layer_metrics({"import_s": 0.5, "scipy_import_s": 0.25, "spans": spans})
    assert m["engine.batch.self_s"] == 2
    assert m["engine.step.self_s"] == 7
    assert m["engine.chunk.count"] == 2
    assert m["engine.noise.floats_per_s"] == 400
    assert m["engine.step.path_steps_per_s"] == 200 / 7  # chunk time minus noise
    assert m["engine.pool.parallel_efficiency"] == 8 / (8 * 2)
    assert m["trace.self_sum_s"] == 4
    assert m["drift.density.points_per_s"] == 0.0  # no such work: no rate
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER} - {"trace.wall_s", "trace.overhead_s"}


def test_child_spans_are_clipped_to_their_parent():
    spans = [span(1, None, "engine.batch", 0, 4), span(2, 1, "engine.chunk", 3, 6, thread=2)]
    assert tracer.self_times(spans)[1] == 3


# --- output checks ----------------------------------------------------------


@pytest.fixture()
def small_simulate(tmp_path):
    from torusbridge import cli

    args = ("simulate", "--model", "proposed", "--target", "0,0", "--sigma", "1",
            "--T", "1", "--steps", "4", "--paths", "20", "--seed", "9", "--cutoff", "0.5")
    job = Job("simulate-paths", args, 80, "path-steps", {"paths": 20, "steps": 4},
              ("paths.csv", "endpoints.csv"))
    out = tmp_path / "out"
    assert cli.main(job.argv(out)) == 0
    return job, out


def test_simulate_check_accepts_real_output(small_simulate):
    job, out = small_simulate
    workloads.check_simulate(job, out, "")


def test_simulate_check_rejects_truncated_paths(small_simulate):
    job, out = small_simulate
    lines = (out / "paths.csv").read_text().splitlines(keepends=True)
    (out / "paths.csv").write_text("".join(lines[:-1]))
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_simulate(job, out, "")


def test_simulate_check_rejects_endpoint_off_its_path(small_simulate):
    job, out = small_simulate
    lines = (out / "endpoints.csv").read_text().splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[1] = "0.5"
    lines[2] = ",".join(fields)
    (out / "endpoints.csv").write_text("".join(lines))
    with pytest.raises(CheckFailed, match="path 1"):
        workloads.check_simulate(job, out, "")


def test_simulate_check_rejects_missing_artefact(small_simulate):
    job, out = small_simulate
    (out / "endpoints.csv").unlink()
    with pytest.raises(CheckFailed, match="missing"):
        workloads.check_simulate(job, out, "")


def _agreement(out: Path, agree: list[int], rate: float) -> Job:
    out.mkdir()
    rows = ["pair_id,k1_prop,k2_prop,k1_true,k2_true,agree"]
    rows += [f"{i},0,0,0,{1 - a},{a}" for i, a in enumerate(agree)]
    (out / "agreement.csv").write_text("\n".join(rows) + "\n")
    summary = {"n_pairs": len(agree), "n_agree": sum(agree), "rate": rate}
    (out / "agreement_summary.json").write_text(json.dumps(summary))
    return Job("compare-exact", (), 0, "path-steps", {"pairs": len(agree)}, ())


def test_compare_check_band(tmp_path):
    job = _agreement(tmp_path / "in", [1, 1, 1, 0], 0.75)
    workloads.check_compare(job, tmp_path / "in", "")
    job = _agreement(tmp_path / "low", [1, 0, 1, 0], 0.5)
    with pytest.raises(CheckFailed, match="outside"):
        workloads.check_compare(job, tmp_path / "low", "")


def test_compare_check_rejects_summary_that_disagrees_with_rows(tmp_path):
    job = _agreement(tmp_path / "out", [1, 1, 0, 0], 0.75)
    with pytest.raises(CheckFailed, match="disagree"):
        workloads.check_compare(job, tmp_path / "out", "")


def test_weight_mean_check():
    workloads.check_weight_mean(["0.1", "-0.1", "0.05", "-0.05"])
    with pytest.raises(CheckFailed, match="standard errors"):
        workloads.check_weight_mean(["0.5", "0.6", "0.55", "0.45"])
    with pytest.raises(CheckFailed, match="not a number"):
        workloads.check_weight_mean(["0.1", "", "0.05", "-0.05"])


def test_simulate_check_rejects_biased_weights(small_simulate):
    job, out = small_simulate
    lines = (out / "endpoints.csv").read_text().splitlines()
    lines[1:] = [row.rsplit(",", 1)[0] + ",0.5" for row in lines[1:]]
    (out / "endpoints.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="mean weight"):
        workloads.check_simulate(job, out, "")


def test_density_check_needs_both_criteria_to_pass(tmp_path):
    job = workloads.prepare_check(1)
    workloads.check_check(job, tmp_path, "PASS ...\nPASS ...\n2/2 criteria passed\n")
    with pytest.raises(CheckFailed):
        workloads.check_check(job, tmp_path, "PASS ...\nFAIL ...\n1/2 criteria passed\n")


def test_a_rerun_with_other_bytes_fails(small_simulate):
    job, out = small_simulate
    rep_dir = out.parent
    workload = workloads.WORKLOADS["simulate-paths"]
    reference, failure = run._verify(workload, job, rep_dir, "", None)
    assert failure is None
    assert run._verify(workload, job, rep_dir, "", reference) == (reference, None)
    with open(out / "endpoints.csv", "a") as fh:
        fh.write("\n")
    _, failure = run._verify(workload, job, rep_dir, "", reference)
    assert "differ" in failure


# --- speed scaling ----------------------------------------------------------


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_SAMPLE_S
    # The sampler's work took a quarter of its reference time: the host ran
    # 4 times as fast as the reference, so times are multiplied by 4.
    fast = run.Rep(wall_s=1.5, setup_s=0.5, rss_mb=100.0, traced=False, sample_s=ref / 4)
    assert run.speed_scale(fast) == pytest.approx(4.0)
    # A quarter of the CPU time was stolen: times shrink by that share.
    stolen = run.Rep(wall_s=8.0, setup_s=2.0, rss_mb=100.0, traced=False, steal_share=0.25)
    assert run.speed_scale(stolen) == pytest.approx(0.75)
    job = Job("w", (), 1000, "units", {}, ())
    reps = [fast,
            run.Rep(wall_s=6.0, setup_s=2.0, rss_mb=102.0, traced=False),
            run.Rep(wall_s=5.0, setup_s=1.0, rss_mb=101.0, traced=False)]
    res = run._summarise(job, reps, trace=False)
    assert res["metrics"] == {"wall_s": pytest.approx(6.0), "setup_s": pytest.approx(2.0),
                              "work_per_s": pytest.approx(250.0), "peak_rss_mb": 101.0}
    assert res["unscaled"] == {"wall_s": 5.0, "setup_s": 1.0, "work_per_s": 250.0}


def test_cpu_ticks_count_stolen_ticks_among_busy_ones():
    busy, stolen = run.cpu_ticks()
    assert busy >= stolen >= 0


def test_speed_sampler_times_its_work_until_stopped():
    sampler = run.SpeedSampler()
    sampler.start()
    sampler.stopped.wait(0.2)
    mean = sampler.stop()
    assert not sampler.is_alive()
    assert len(sampler.samples) >= 2
    assert 0.05 * run.REFERENCE_SAMPLE_S < mean < 20 * run.REFERENCE_SAMPLE_S


# --- input generator --------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    prepare = workloads.WORKLOADS[name].prepare
    assert prepare(7) == prepare(7)
    if name == "check-density":
        assert prepare(8) == prepare(7)  # criteria 6 and 7 pin their own seeds
    else:
        seed = workloads.cli_seed(name, 8)
        assert seed != workloads.cli_seed(name, 7)
        assert str(seed) in prepare(8).args


# --- tracer -----------------------------------------------------------------


def test_tracer_reports_missing_boundaries_as_absent(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda x, y, model: [[0.0, 0.0]] * len(x)
    monkeypatch.setitem(sys.modules, "fake_layer", module)

    def broken_counter(args, kwargs, result):
        raise TypeError("signature changed")

    rec = tracer.Tracer(run_id=3)
    module.steps = [lambda: 1, lambda: 2]
    rec.install([
        ("fake_layer", "work", "fake.work", lambda a, k, r: {"points": len(r)}),
        ("fake_layer", "renamed_away", "fake.gone", None),
        ("no_such_module_anywhere", "f", "fake.none", None),
        ("fake_layer", "steps", "fake.step", None),
    ])
    rec.install([("fake_layer", "work", "fake.outer", broken_counter)])
    assert module.work([1, 2, 3], None, None) == [[0.0, 0.0]] * 3
    assert "fake_layer.renamed_away" in rec.absent
    assert "no_such_module_anywhere.f" in rec.absent
    inner, outer = rec.spans
    assert [step() for step in module.steps] == [1, 2]
    assert [s["layer"] for s in rec.spans[2:]] == ["fake.step1", "fake.step2"]
    assert (inner["layer"], inner["counts"], inner["run"]) == ("fake.work", {"points": 3}, 3)
    assert (outer["layer"], outer["counts"]) == ("fake.outer", {})
    assert inner["parent"] == outer["id"]


def test_traced_command_counts_drift_points(tmp_path):
    # drift.proposed.points is paths x (steps + steps before the cutoff):
    # the step loop plus the second pass of the Girsanov weights.
    args = ["simulate", "--model", "proposed", "--target", "0,0", "--sigma", "1",
            "--T", "1", "--steps", "10", "--paths", "3", "--seed", "1", "--cutoff", "0.5",
            "--out", str(tmp_path / "out")]
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(tmp_path / "ready.json"),
         "--trace", str(spans_file), "0", "--", *args],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_file.read_text())
    assert trace["absent"] == []
    m = tracer.layer_metrics(trace)
    assert m["drift.proposed.points"] == 3 * (10 + 5)
    assert m["drift.proposed.calls"] == 10 + 5
    assert m["engine.chunk.count"] == 1
    assert m["cli.write.bytes"] == sum(
        (tmp_path / "out" / f).stat().st_size for f in ("paths.csv", "endpoints.csv"))
    assert m["engine.batch.kept_paths_mb"] == 3 * 11 * 2 * 8 / 2**20
    assert 0 < m["cli.setup.scipy_import_s"] < m["cli.setup.import_s"]


def test_benchmark_json_names_the_implemented_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
