"""Tests for the command-line interface and its CSV contracts."""

import dataclasses
import errno
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import torusbridge
from torusbridge import cli, engine
from torusbridge.drift import VARIANTS


def _run(*args):
    return cli.main([str(a) for a in args])


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for needle in needles:
        assert needle in err


# Reference writer: one format(v, ".17g") call per float and ",".join per
# row, as the CLI wrote its CSV files before rows came from "%" templates.

def _fmt(value):
    return format(float(value), ".17g")


def _oracle_csv(header, rows):
    return "".join(",".join(row) + "\n" for row in [header.split(","), *rows]).encode()


def _oracle_offsets(k, unresolved):
    return ["", ""] if unresolved else [str(int(k[0])), str(int(k[1]))]


def _oracle_paths(batch, thin):
    """paths.csv at ``--thin thin`` from a batch that kept exactly those steps."""
    n = batch.config.n_steps
    steps = [i for i in range(n + 1) if i % thin == 0]
    if steps[-1] != n:
        steps.append(n)
    assert batch.kept_steps.tolist() == steps
    times = batch.config.time_grid()
    return _oracle_csv("path_id,step,t,x1,x2", (
        [str(pid), str(i), _fmt(times[i]), _fmt(x[0]), _fmt(x[1])]
        for pid, states in enumerate(batch.states) for i, x in zip(steps, states)))


def _oracle_endpoints(batch):
    logw = batch.log_weights
    return _oracle_csv("path_id,xT1,xT2,k1,k2,unresolved,log_weight", (
        [str(pid), _fmt(batch.terminal_points[pid, 0]), _fmt(batch.terminal_points[pid, 1]),
         *_oracle_offsets(batch.limiting_lattice_points[pid], batch.unresolved[pid]),
         str(int(batch.unresolved[pid])), _fmt(logw[pid]) if logw is not None else ""]
        for pid in range(batch.n_paths)))


def _capture(monkeypatch, name, edit=lambda result: result):
    """Replace cli.<name> by a wrapper that passes its result through
    ``edit`` and records what the CLI received."""
    seen = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        seen.append(edit(real(*args, **kwargs)))
        return seen[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return seen


class TestSimulate:
    def test_smoke_run_and_schemas(self, tmp_path):
        rc = _run("simulate", "--model", "free-bm", "--sigma", "1", "--T", "1",
                  "--steps", "50", "--paths", "10", "--seed", "42", "--out", tmp_path)
        assert rc == 0
        header, rows = _read_csv(tmp_path / "paths.csv")
        assert header == ["path_id", "step", "t", "x1", "x2"]
        assert len(rows) == 10 * 51
        header, rows = _read_csv(tmp_path / "endpoints.csv")
        assert header == ["path_id", "xT1", "xT2", "k1", "k2", "unresolved", "log_weight"]
        assert len(rows) == 10
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42
        assert manifest["config"]["model"]["variant"] == "free-bm"
        assert manifest["artifacts"] == ["paths.csv", "endpoints.csv", "manifest.json"]

    def test_endpoint_rows_match_paths(self, tmp_path):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--sigma", "0.8",
             "--T", "1", "--steps", "100", "--paths", "25", "--seed", "7",
             "--out", tmp_path)
        _, rows = _read_csv(tmp_path / "endpoints.csv")
        assert len(rows) == 25
        assert all(r[5] in ("0", "1") for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("simulate", "--model", "proposed", "--target", "0,0", "--sigma", "0.8",
                "--T", "1", "--steps", "100", "--paths", "20", "--seed", "11")
        _run(*args, "--out", tmp_path / "a")
        _run(*args, "--out", tmp_path / "b", "--workers", "4")
        for name in ("paths.csv", "endpoints.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_thinning_keeps_terminal_state(self, tmp_path):
        _run("simulate", "--model", "free-bm", "--steps", "10", "--paths", "2",
             "--seed", "1", "--thin", "4", "--out", tmp_path)
        _, rows = _read_csv(tmp_path / "paths.csv")
        steps = [int(r[1]) for r in rows if r[0] == "0"]
        assert steps == [0, 4, 8, 10]

    def test_cutoff_fills_log_weights(self, tmp_path):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "5", "--seed", "3", "--cutoff", "0.5", "--out", tmp_path)
        _, rows = _read_csv(tmp_path / "endpoints.csv")
        assert all(r[6] != "" for r in rows)

    def test_manifest_round_trip(self, tmp_path):
        args = ("simulate", "--model", "true-bridge", "--target", "0.1,-0.2",
                "--sigma", "0.7", "--T", "1", "--steps", "80", "--paths", "6",
                "--seed", "9")
        _run(*args, "--out", tmp_path / "orig")
        rc = _run("simulate", "--config", tmp_path / "orig" / "manifest.json",
                  "--out", tmp_path / "redo")
        assert rc == 0
        for name in ("paths.csv", "endpoints.csv"):
            assert (tmp_path / "orig" / name).read_bytes() == (tmp_path / "redo" / name).read_bytes()

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = {
            "model": {"variant": "proposed", "sigma": 0.8, "horizon": 1.0,
                      "target": [0.0, 0.0], "cut_locus_tol": 0.0,
                      "scale_by_sigma_sq": False},
            "start": [0.0, 0.0], "n_steps": 60, "seed": 5, "n_paths": 4,
            "record_increments": False,
        }
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(cfg))
        _run("simulate", "--config", cfg_file, "--paths", "9", "--out", tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["n_paths"] == 9
        assert manifest["config"]["n_steps"] == 60

    def test_every_model_field_has_one_flag(self):
        """The flags that set model fields are exactly the fields, each a simulate option."""
        names = {f.name for cls in VARIANTS.values() for f in dataclasses.fields(cls)}
        assert set(cli._FIELD_FLAGS) == names
        ns = cli._build_parser().parse_args(["simulate"])
        assert all(hasattr(ns, attr) for attr in cli._FIELD_FLAGS.values())

    def test_float_format_round_trips(self, tmp_path):
        _run("simulate", "--model", "free-bm", "--steps", "5", "--paths", "1",
             "--seed", "13", "--out", tmp_path)
        import torusbridge as tb

        cfg = tb.SimConfig(model=tb.FreeBrownianMotion(sigma=1.0, horizon=1.0),
                           start=(0.0, 0.0), n_steps=5, seed=13, n_paths=1)
        path = tb.simulate_path(cfg, 0)
        _, rows = _read_csv(tmp_path / "paths.csv")
        for row in rows:
            i = int(row[1])
            assert float(row[3]) == path.states[i, 0]
            assert float(row[4]) == path.states[i, 1]

    def test_missing_target_fails(self, tmp_path, capsys):
        rc = _run("simulate", "--model", "proposed", "--out", tmp_path)
        assert rc == 2
        assert "--target" in capsys.readouterr().err

    def test_target_outside_the_domain_prints_plain_numbers(self, tmp_path, capsys):
        rc = _run("simulate", "--model", "true-bridge", "--target", "0.6,0", "--out", tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: target must lie in the fundamental domain [-1/2, 1/2)^2; got [0.6, 0.0]\n")

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({
            "model": {"variant": "proposed", "sigma": 0.8, "horizon": 1.0,
                      "target": [0.0, 0.0], "bogus": 1},
        }))
        rc = _run("simulate", "--config", cfg_file, "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, "'bogus'")

    def test_invalid_sigma_fails(self, tmp_path):
        rc = _run("simulate", "--model", "free-bm", "--sigma", "-1", "--out", tmp_path)
        assert rc == 2

    @pytest.mark.parametrize("via", ["flag", "manifest"])
    def test_thin_beyond_int64_keeps_the_ends(self, tmp_path, via):
        """A stride past the step count writes the bytes of --thin n_steps."""
        args = ("simulate", "--model", "free-bm", "--steps", "3", "--paths", "2", "--seed", "5")
        assert _run(*args, "--thin", "3", "--out", tmp_path / "ref") == 0
        if via == "flag":
            assert _run(*args, "--thin", 10**20, "--out", tmp_path / "big") == 0
        else:
            manifest = json.loads((tmp_path / "ref" / "manifest.json").read_text())
            manifest["output"]["thin"] = 10**20
            (tmp_path / "big.json").write_text(json.dumps(manifest))
            assert _run("simulate", "--config", tmp_path / "big.json",
                        "--out", tmp_path / "big") == 0
        assert ((tmp_path / "big" / "paths.csv").read_bytes()
                == (tmp_path / "ref" / "paths.csv").read_bytes())

    def test_config_file_not_an_object_fails(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("[1, 2]")
        rc = _run("simulate", "--config", cfg_file, "--model", "free-bm", "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, "JSON object", "list")

    @pytest.mark.parametrize("content, reason", [
        (b"{bad", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ])
    def test_malformed_config_file_names_itself(self, tmp_path, capsys, content, reason):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_bytes(content)
        rc = _run("simulate", "--config", cfg_file, "--out", tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg_file}: {reason}\n"


    @pytest.mark.parametrize("edit, needles", [
        (lambda m: m["config"].update(model=[1]), ("model block", "list")),
        (lambda m: m.update(config=[1]), ("config block", "list")),
        (lambda m: m.update(output=[1]), ("output block", "list")),
        (lambda m: m["config"].update(start=5), ("start",)),
        (lambda m: m["config"].update(start={"x": 1}), ("start",)),
        (lambda m: m["config"]["model"].update(target=5), ("target",)),
        (lambda m: m["config"]["model"].update(target="ab"),
         ("error: target must hold numbers; got 'ab'",)),
        (lambda m: m["config"]["model"].update(target=[[0, 0], [1]]),
         ("target must hold numbers",)),
        (lambda m: m["config"].update(start="ab"), ("start must hold numbers; got 'ab'",)),
        (lambda m: m["config"]["model"].update(sigma="abc"), ("sigma",)),
        (lambda m: m["config"]["model"].update(sigma=None), ("sigma",)),
        # A manifest written before the true bridge summed every lift.
        (lambda m: m["config"]["model"].update(truncation=2), ("unknown key(s) ['truncation']",)),
        (lambda m: m["output"].update(thin=None), ("thin",)),
        (lambda m: m["output"].update(thin=[2]), ("thin",)),
        (lambda m: m["output"].update(weight_cutoff="abc"), ("cutoff",)),
        (lambda m: m["config"].update(record_increments="false"), ("record_increments", "'false'")),
        (lambda m: m["config"].update(record_increments=0), ("record_increments",)),
        (lambda m: m["config"].update(record_increments=None), ("record_increments",)),
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "scale_by_sigma_sq": "false"}),
         ("scale_by_sigma_sq", "'false'")),
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "scale_by_sigma_sq": 1}),
         ("scale_by_sigma_sq",)),
        # The sigma^2 switch is retired: only its off value still loads.
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "scale_by_sigma_sq": True}),
         ("scale_by_sigma_sq must be false; got True",)),
        (lambda m: m["config"]["model"].update(sigma=True), ("sigma", "True")),
        (lambda m: m["config"]["model"].update(horizon=True), ("horizon", "True")),
        (lambda m: m["config"].update(n_steps=True), ("n_steps", "True")),
        (lambda m: m["config"].update(n_paths=True), ("n_paths", "True")),
        (lambda m: m["config"].update(seed=False), ("seed", "False")),
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "cut_locus_tol": True}),
         ("cut_locus_tol", "True")),
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "cut_locus_tol": 0.05}),
         ("cut_locus_tol must be 0; got 0.05",)),
        (lambda m: m["output"].update(thin=True), ("thin", "True")),
        (lambda m: m["output"].update(weight_cutoff=True), ("cutoff", "True")),
        # simulate --config reads its block strictly.
        (lambda m: m["config"].update(n_step=50), ("unknown key(s) ['n_step']",)),
        (lambda m: m["config"].update(bogus=1), ("unknown key(s) ['bogus']",)),
    ])
    def test_bad_config_value_fails(self, tmp_path, capsys, edit, needles):
        """Config values of the wrong JSON type are one error line, not a traceback."""
        _run("simulate", "--model", "true-bridge", "--target", "0,0", "--steps", "10",
             "--paths", "2", "--seed", "1", "--out", tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        edit(manifest)
        cfg_file = tmp_path / "edited.json"
        cfg_file.write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = _run("simulate", "--config", cfg_file, "--out", tmp_path / "redo")
        assert rc == 2
        _assert_one_error_line(capsys, *needles)

    @pytest.mark.parametrize("flags, name", [
        (("--model", "proposed", "--target", "0,0", "--start", "1e308,0"), "start"),
        (("--model", "proposed", "--target", "0,0", "--start", "0,-9.1e15"), "start"),
        (("--model", "euclid-bridge", "--endpoint", "1e300,0"), "endpoint"),
    ])
    def test_coordinate_beyond_2_52_fails(self, tmp_path, capsys, flags, name):
        # A double above 2**52 has no fractional part: its torus position is lost.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _run("simulate", *flags, "--steps", "3", "--paths", "1", "--out", tmp_path)
        assert rc == 2 and caught == []
        _assert_one_error_line(capsys, name, "2**52")
        assert not (tmp_path / "endpoints.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--model", "free-bm", "--sigma", "1e20"),
        ("--model", "proposed", "--target", "0,0", "--sigma", "1e17"),
    ])
    def test_terminal_state_beyond_2_52_fails(self, tmp_path, capsys, flags):
        # The noise alone carries the paths past 2**52, where no offset is meaningful.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _run("simulate", *flags, "--steps", "3", "--paths", "1", "--out", tmp_path)
        assert rc == 2 and caught == []
        _assert_one_error_line(capsys, "terminal states", "2**52")
        assert not (tmp_path / "endpoints.csv").exists()

    def test_far_start_still_runs(self, tmp_path):
        rc = _run("simulate", "--model", "proposed", "--target", "0,0", "--start", "1e6,0",
                  "--steps", "3", "--paths", "1", "--out", tmp_path)
        assert rc == 0
        _, rows = _read_csv(tmp_path / "endpoints.csv")
        assert abs(int(rows[0][3]) - 10**6) <= 2

    def test_step_below_time_to_go_floor_fails(self, tmp_path, capsys):
        """A step below the drift's time-to-go clamp is refused, not run unsteered."""
        rc = _run("simulate", "--model", "proposed", "--target", "0.2,0", "--sigma", "1",
                  "--T", "1e-300", "--steps", "50", "--paths", "3", "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, "T / n_steps")
        assert not (tmp_path / "paths.csv").exists()


class TestSigmaSquare:
    """A sigma whose square overflows a double is one error line, not a traceback."""

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_simulate(self, tmp_path, capsys, variant):
        flags = {"euclid-bridge": ("--endpoint", "0.3,0.1"), "proposed": ("--target", "0,0"),
                 "true-bridge": ("--target", "0,0")}.get(variant, ())
        assert _run("simulate", "--model", variant, *flags, "--steps", "5", "--paths", "2",
                    "--sigma", "1e300", "--out", tmp_path) == 2
        _assert_one_error_line(capsys, "sigma^2")

    @pytest.mark.parametrize("args", [
        pytest.param(("compare", "--pairs", "3", "--steps", "5"), id="compare"),
        pytest.param(("field", "--model", "true-bridge", "--target", "0,0", "--t", "0.5"),
                     id="field"),
    ])
    def test_compare_and_field(self, tmp_path, capsys, args):
        assert _run(*args, "--sigma", "1e300", "--out", tmp_path) == 2
        _assert_one_error_line(capsys, "sigma^2")

    @pytest.mark.parametrize("args, needle", [
        pytest.param(("compare", "--pairs", "2", "--steps", "4", "--sigma", "1e-200"),
                     "sigma must be at least", id="compare-sigma-square-underflows"),
        pytest.param(("compare", "--pairs", "2", "--steps", "1000", "--sigma", "1e-155"),
                     "sigma must be at least", id="compare-sigma-square-subnormal"),
        pytest.param(("field", "--model", "true-bridge", "--target", "0,0", "--t", "0.5",
                      "--sigma", "1e154", "--T", "1e300", "--grid", "3"),
                     "sigma^2 * horizon must be finite", id="field-variance-overflows"),
        # At the smallest sigma the pull 0.45 / 1e-7 per axis over sigma squares past
        # the largest double.
        pytest.param(("simulate", "--model", "proposed", "--target", "0.45,0.45",
                      "--sigma", repr(2.0**-490), "--T", "1e-7", "--steps", "50",
                      "--paths", "3", "--cutoff", "5e-8"),
                     "log weights overflow a double", id="simulate-weights-overflow"),
    ])
    def test_extreme_sigma_fails(self, tmp_path, capsys, args, needle):
        assert _run(*args, "--out", tmp_path) == 2
        _assert_one_error_line(capsys, needle)


class TestPinnedBytes:
    """Output bytes pinned across versions.

    The proposed model's step uses only + - * / and rounding, so these digests
    are the same on every platform.  A change that moves them must update the
    pins and name the byte change in CHANGES.md.
    """

    def test_simulate_proposed(self, tmp_path):
        assert _run("simulate", "--model", "proposed", "--target", "0.1,-0.2", "--sigma", "0.9",
                    "--steps", "50", "--paths", "40", "--seed", "2024", "--cutoff", "0.5",
                    "--out", tmp_path) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("paths.csv", "endpoints.csv")}
        assert digests == {
            "paths.csv": "b553d191b07f0ad0ca0440c3d60ad88de801c1de62536430433505a812e55aed",
            "endpoints.csv": "77b871a153d76389ddacd39f7b8ba3668e5424751f13b29e5bbcec618a54f0e3",
        }

    # Taken while batches still kept every step of a path and paths.csv picked
    # the --thin steps from them.
    @pytest.mark.parametrize("steps, paths, thin, digests", [
        (200, 30, 7, {
            "paths.csv": "7de6589dc7926a74aa964f301150d1744fad27a20387e2ed9f7642f6ce5b19ce",
            "endpoints.csv": "e45aa1c95343c24e5bbdc91da98b33eb3e9078b48d203f720382a65a47e4bf11"}),
        (20, 5, 1000, {
            "paths.csv": "e3812cfa7be4fc2b00c5bce77fec5810fbc0a9223ef28de2714ffd973440de9a",
            "endpoints.csv": "a25ac35c77bdc57fe8cade970a7a64449b091189ca25551e3a3ab3899a8c5007"}),
    ], ids=["thin-7", "thin-past-steps"])
    def test_simulate_thinned(self, tmp_path, steps, paths, thin, digests):
        assert _run("simulate", "--model", "proposed", "--target", "0.3,-0.1", "--sigma", "0.7",
                    "--seed", "11", "--cutoff", "0.5", "--steps", steps, "--paths", paths,
                    "--thin", thin, "--out", tmp_path) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    # perfbench/workloads.py's simulate-paths command at benchmark seed 1,
    # whose --seed is cli_seed("simulate-paths", 1).
    WORKLOAD = ("simulate", "--model", "proposed", "--target", "0,0", "--sigma", "1", "--T", "1",
                "--steps", "500", "--paths", "1000", "--seed", "2795388570", "--cutoff", "0.5",
                "--workers", "1")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_simulate_paths_workload(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        assert _run(*self.WORKLOAD, "--out", tmp_path) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("paths.csv", "endpoints.csv")}
        assert digests == {
            "paths.csv": "4a7571657dc69957c2c98c46403167983d790b9c906d03aaab367e98b65d8f94",
            "endpoints.csv": "62bbd60790e9b5be0b25875e138325699451f22fd0b271b664e55c8fea65d1c5",
        }


class TestWriterBytes:
    """The CSV writers produce the reference writer's bytes."""

    @pytest.mark.parametrize("thin", [1, 3, 7])
    @pytest.mark.parametrize("cutoff", [None, 0.5])
    def test_paths_and_endpoints(self, tmp_path, monkeypatch, thin, cutoff):
        seen = _capture(monkeypatch, "simulate_batch")
        args = ["simulate", "--model", "proposed", "--target", "0.1,-0.2", "--sigma", "0.9",
                "--steps", "20", "--paths", "4", "--seed", "17", "--thin", thin, "--out", tmp_path]
        assert _run(*args, *(["--cutoff", cutoff] if cutoff else [])) == 0
        assert (tmp_path / "paths.csv").read_bytes() == _oracle_paths(seen[0], thin)
        assert (tmp_path / "endpoints.csv").read_bytes() == _oracle_endpoints(seen[0])

    @pytest.mark.parametrize("thin", [1, 4])
    @pytest.mark.parametrize("paths, steps", [(101, 50), (12, 1)])
    def test_uneven_blocks_and_id_widths(self, tmp_path, monkeypatch, paths, steps, thin):
        """paths.csv's blocks need not be full or share one path-id width: 101
        paths of 51 states go in blocks of 40, 40 and 21 paths, with ids of 1,
        2 and 3 digits.  Step 0's zeros take the fast path's zero class."""
        seen = _capture(monkeypatch, "simulate_batch")
        assert _run("simulate", "--model", "proposed", "--target", "0.3,-0.1", "--sigma", "0.7",
                    "--steps", steps, "--paths", paths, "--seed", "31", "--thin", thin,
                    "--out", tmp_path) == 0
        assert (tmp_path / "paths.csv").read_bytes() == _oracle_paths(seen[0], thin)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_three_chunks(self, tmp_path, monkeypatch, workers):
        """Three chunks write the reference bytes, whatever --workers says."""
        monkeypatch.setattr(engine, "CHUNK_SIZE", 16)
        seen = _capture(monkeypatch, "simulate_batch")
        assert _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "10",
                    "--paths", "40", "--seed", "23", "--cutoff", "0.5", "--workers", workers,
                    "--out", tmp_path) == 0
        assert (tmp_path / "paths.csv").read_bytes() == _oracle_paths(seen[0], 1)
        assert (tmp_path / "endpoints.csv").read_bytes() == _oracle_endpoints(seen[0])

    def test_cut_locus_rows(self, tmp_path, monkeypatch):
        """Rows flagged unresolved leave their offset columns empty."""
        flags = np.array([True, False, True])
        seen = _capture(monkeypatch, "simulate_batch",
                        lambda b: dataclasses.replace(b, unresolved=flags))
        _run("simulate", "--model", "free-bm", "--steps", "5", "--paths", "3", "--seed", "2",
             "--out", tmp_path / "s")
        assert (tmp_path / "s" / "endpoints.csv").read_bytes() == _oracle_endpoints(seen[0])

        reports = _capture(monkeypatch, "agreement_rate", lambda r: dataclasses.replace(
            r, unresolved_a=flags, unresolved_b=flags[::-1].copy()))
        _run("compare", "--steps", "20", "--pairs", "3", "--seed", "4", "--out", tmp_path / "c")
        r = reports[0]
        expected = _oracle_csv("pair_id,k1_prop,k2_prop,k1_true,k2_true,agree", (
            [str(pid), *_oracle_offsets(r.offsets_a[pid], r.unresolved_a[pid]),
             *_oracle_offsets(r.offsets_b[pid], r.unresolved_b[pid]), str(int(r.agree[pid]))]
            for pid in range(r.n_pairs)))
        assert (tmp_path / "c" / "agreement.csv").read_bytes() == expected

    def test_field_and_weights(self, tmp_path, monkeypatch):
        _run("field", "--model", "true-bridge", "--target", "0.1,0", "--sigma", "0.8",
             "--t", "0.9", "--grid", "5", "--rect=-2,2,-1,1", "--out", tmp_path)
        points, vectors = cli.drift_field(
            engine.model_from_dict({"variant": "true-bridge", "sigma": 0.8, "horizon": 1.0,
                                    "target": (0.1, 0.0)}),
            0.9, (-2.0, 2.0), (-1.0, 1.0), 5)
        assert (tmp_path / "field.csv").read_bytes() == _oracle_csv("x1,x2,b1,b2", (
            [_fmt(p[0]), _fmt(p[1]), _fmt(b[0]), _fmt(b[1])] for p, b in zip(points, vectors)))

        # A finished run's log weights at another cutoff, from its manifest.
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "10",
             "--paths", "3", "--seed", "8", "--out", tmp_path / "run")
        seen = _capture(monkeypatch, "simulate_batch")
        _run("simulate", "--config", tmp_path / "run" / "manifest.json", "--cutoff", "0.3",
             "--thin", "10", "--out", tmp_path / "w")
        assert (tmp_path / "w" / "endpoints.csv").read_bytes() == _oracle_endpoints(seen[0])
        assert (tmp_path / "w" / "paths.csv").read_bytes() == _oracle_paths(seen[0], 10)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(1e308)
    @example(-1e308)
    def test_percent_format_equals_format(self, v):
        assert "%.17g" % v == format(v, ".17g")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSimulate:
    """With two usable CPUs (the ``engine._usable_cpus`` seam), a ``simulate``
    whose paths.csv has at least ``cli._MIN_SPLIT_BLOCKS`` blocks steps and
    formats the paths from its middle block on in one forked child.  The bytes
    are a one-process run's, and no process or file outlives the command.
    Every batch here is below the engine's own split
    (``engine._MIN_SPLIT_WORK``), so the forks counted are the command's."""

    SIM = ("simulate", "--model", "proposed", "--target", "0.3,-0.1", "--sigma", "0.7",
           "--seed", "31")

    # 1001 states make blocks of 2 paths: 64 paths split 16 : 16 blocks, 66
    # paths 16 : 17.  --thin 3 keeps 335 states, blocks of 6 paths, so 195 paths
    # make 32 full blocks and one of 3, split 16 : 17, and the child's path ids
    # grow from 2 to 3 digits.
    @pytest.mark.parametrize("paths, steps, thin, split", [(64, 1000, 1, 32), (66, 1000, 1, 32),
                                                           (195, 1000, 3, 96)])
    def test_split_writes_the_serial_bytes(self, tmp_path, monkeypatch, forks, paths, steps,
                                           thin, split):
        seen = _capture(monkeypatch, "simulate_batch")
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            assert _run(*self.SIM, "--steps", steps, "--paths", paths, "--thin", thin,
                        "--cutoff", "0.5", "--out", tmp_path / str(cpus)) == 0
            assert len(forks) == cpus - 1
            written.append([(tmp_path / str(cpus) / name).read_bytes()
                            for name in ("paths.csv", "endpoints.csv")])
        assert written[0] == written[1] == [_oracle_paths(seen[0], thin),
                                            _oracle_endpoints(seen[0])]
        assert seen[1].n_paths == split  # this process's half of the split run
        assert sorted(os.listdir(tmp_path / "2")) == ["endpoints.csv", "manifest.json",
                                                      "paths.csv"]
        _assert_no_child_left()

    @pytest.mark.parametrize("how, needle", [
        ("raise", "error: [Errno 28] No space left on device"),
        ("kill", "error: the process simulating and formatting paths 32 to 63 was killed by "
                 "signal 9"),
    ])
    def test_failing_child_is_one_error_line(self, tmp_path, monkeypatch, capsys, how, needle):
        real = cli._path_blocks

        def blocks(states, steps, times, first=0):
            if first and how == "raise":
                raise OSError(errno.ENOSPC, "No space left on device")
            if first:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(states, steps, times, first)

        monkeypatch.setattr(cli, "_path_blocks", blocks)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--out", tmp_path) == 2
        _assert_one_error_line(capsys, needle)
        _assert_no_child_left()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("cut, whole", [
        (lambda rows: len(rows[0]) + 5, 1),
        (lambda rows: len(rows[0]) + len(rows[1]), 2),
        (lambda rows: 0, 0),
    ], ids=["inside-a-row", "between-rows", "empty"])
    def test_a_short_half_is_one_error_line(self, tmp_path, monkeypatch, capsys, forks, cut,
                                            whole):
        """The child's file starts with its 32 rows of endpoints.csv, each
        ended by a newline, and the parent reads back exactly that many before
        it copies the paths.csv bytes behind them: a file cut inside a row,
        between two rows or before the first is refused."""
        real = cli._forked

        def forked(work, *args):
            def short(out):
                work(out=out)
                out.seek(0)
                out.truncate(cut([out.readline(), out.readline()]))
            return real(short, *args)

        monkeypatch.setattr(cli, "_forked", forked)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--out", tmp_path) == 2
        _assert_one_error_line(capsys, "error: the process simulating and formatting paths 32 "
                                       f"to 63 left {whole} of its 32 endpoint rows")
        _assert_no_child_left()
        assert len(forks) == 1 and os.listdir(tmp_path) == []

    def test_split_parent_peaks_below_one_process(self, tmp_path, monkeypatch, forks):
        """A split parent formats only its own half's endpoint columns and
        copies the child's rows as text, so its traced peak falls below a
        one-process run's, whose peak is the text of every path's endpoint
        columns.  40 000 paths of 2 kept states are 40 writer blocks."""
        peaks = []
        tracemalloc.start()
        try:
            for cpus in (1, 2):
                monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert _run(*self.SIM, "--paths", "40000", "--steps", "4", "--thin", "4",
                            "--cutoff", "0.5", "--out", tmp_path / str(cpus)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        serial, split = peaks
        assert len(forks) == 1
        assert split < 0.8 * serial

    def test_failing_parent_kills_the_child(self, tmp_path, monkeypatch, capsys):
        real = cli._path_blocks

        def blocks(states, steps, times, first=0):
            if first:
                time.sleep(60)  # the child outlives the command unless it is killed
                return real(states, steps, times, first)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_path_blocks", blocks)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        started = time.monotonic()
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--out", tmp_path) == 2
        assert time.monotonic() - started < 30
        _assert_one_error_line(capsys, "No space left on device")
        _assert_no_child_left()
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _spoil(monkeypatch, bad):
        """Make every chunk leave the terminal state or log weight, or both, of
        the paths ``bad`` names, ``{path index: fields}``, infinite, in either
        process."""
        real = engine._run_chunk

        def run_chunk(config, lo, hi, times, rows, cutoff_step):
            real(config, lo, hi, times, rows, cutoff_step)
            for k, names in bad.items():
                for name in names.split():
                    if lo <= k < hi:
                        getattr(rows[0], name)[k - lo] = np.inf

        monkeypatch.setattr(engine, "_run_chunk", run_chunk)

    @pytest.mark.parametrize("bad, needle", [
        ({40: "terminal_points"}, "error: proposed terminal states exceed 2**52"),
        ({40: "log_weights"}, "error: the log weights overflow a double"),
    ], ids=["terminal", "weight"])
    def test_bad_path_in_the_childs_half_is_the_serial_error_line(
            self, tmp_path, monkeypatch, capsys, forks, bad, needle):
        """The child checks its own paths and sends back its error, which is
        the line of a one-process run."""
        self._spoil(monkeypatch, bad)
        lines = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--cutoff", "0.5",
                        "--out", tmp_path) == 2
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] and lines[0].startswith(needle) and lines[0].count("\n") == 1
        assert len(forks) == 1 and os.listdir(tmp_path) == []
        _assert_no_child_left()

    @pytest.mark.parametrize("bad, needle", [
        ({3: "terminal_points", 40: "log_weights"}, "error: proposed terminal states exceed"),
        ({3: "log_weights", 40: "terminal_points"}, "error: the log weights overflow a double"),
        ({3: "log_weights terminal_points"}, "error: the log weights overflow a double"),
    ], ids=["terminal-first", "weight-first", "both-in-one-path"])
    def test_with_both_halves_bad_the_first_bad_path_wins(self, tmp_path, monkeypatch, capsys,
                                                          forks, bad, needle):
        """Paths are checked in order, and the first bad one's error is the
        line, its weight's before its terminal state's: a split run, whose
        process checks its half before it waits for the child, and a
        one-process run, whose one chunk holds both bad paths, print the same."""
        self._spoil(monkeypatch, bad)
        lines = []
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--cutoff", "0.5",
                        "--out", tmp_path) == 2
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1] and lines[0].startswith(needle) and lines[0].count("\n") == 1
        assert len(forks) == 1 and os.listdir(tmp_path) == []
        _assert_no_child_left()

    def test_few_blocks_or_a_second_thread_stay_serial(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        # 3 paths of 21 states are one block; 62 paths of 1001 states are 31.
        assert _run(*self.SIM, "--steps", "20", "--paths", "3", "--out", tmp_path / "a") == 0
        assert _run(*self.SIM, "--steps", "1000", "--paths", "62", "--out", tmp_path / "c") == 0
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert _run(*self.SIM, "--steps", "1000", "--paths", "64",
                        "--out", tmp_path / "b") == 0
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []

    @pytest.mark.parametrize("side", ["child", "parent"])
    def test_failed_write_keeps_the_earlier_files(self, tmp_path, monkeypatch, capsys, side):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--out", tmp_path) == 0
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        real = cli._path_blocks

        def blocks(states, steps, times, first=0):
            if bool(first) == (side == "child"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(states, steps, times, first)

        monkeypatch.setattr(cli, "_path_blocks", blocks)
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--seed", "32",
                    "--out", tmp_path) == 2
        _assert_one_error_line(capsys, "No space left on device")
        _assert_no_child_left()
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    # tmp_path holds only the runs' outputs, which each example overwrites.
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_paths=st.integers(1, 60), n_steps=st.integers(1, 40), thin=st.integers(1, 41),
           g17_block=st.integers(1, 64).map(lambda n: 2 * n), min_blocks=st.integers(1, 4),
           seed=st.integers(0, 2**32))
    def test_every_layout_writes_the_serial_bytes(self, tmp_path, n_paths, n_steps, thin,
                                                  g17_block, min_blocks, seed):
        """With any block size and split threshold, a split ``simulate`` writes
        the one-process bytes, which are "%.17g"'s, and forks exactly when
        paths.csv has at least two blocks and reaches the threshold.  A stand-in
        batch gives states from 1e-6 to 1e18 in magnitude, so both the fast and
        the "%.17g" path of the formatter run, and endpoint columns of every
        kind, whose rows of endpoints.csv the child formats as text."""
        rng = np.random.default_rng(seed)
        states = (rng.standard_normal((n_paths, n_steps + 1, 2))
                  * 10.0 ** rng.integers(-6, 19, size=(n_paths, n_steps + 1, 2)))
        offsets = rng.integers(-2**40, 2**40, size=(n_paths, 2))
        unresolved, log_weights = rng.random(n_paths) < 0.3, rng.standard_normal(n_paths)

        def batch(config, *, keep_steps, weight_cutoff, rows=range(n_paths)):
            part = slice(rows.start, rows.stop)
            return engine.BatchResult(
                config=config, terminal_points=states[part, -1].copy(),
                limiting_lattice_points=offsets[part], unresolved=unresolved[part],
                states=states[part][:, keep_steps], log_weights=log_weights[part],
                kept_steps=np.asarray(keep_steps))

        steps = np.arange(0, n_steps + 1, min(thin, n_steps))
        steps = steps if steps[-1] == n_steps else np.append(steps, n_steps)
        times = np.linspace(0.0, 1.0, n_steps + 1)[steps]
        oracle = b"path_id,step,t,x1,x2\n" + b"".join(
            b"%d,%d,%s,%s,%s\n" % (pid, i, b"%.17g" % t, b"%.17g" % x[0], b"%.17g" % x[1])
            for pid in range(n_paths)
            for i, t, x in zip(steps.tolist(), times.tolist(), states[pid, steps].tolist()))
        forks, real_fork, written = [], os.fork, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_G17_BLOCK", g17_block)
            mp.setattr(cli, "_MIN_SPLIT_BLOCKS", min_blocks)
            mp.setattr(cli, "simulate_batch", batch)
            mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
            n_blocks = -(-n_paths // cli._block_paths(len(steps)))
            for cpus in (1, 2):
                mp.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
                out = tmp_path / str(cpus)
                assert _run("simulate", "--model", "free-bm", "--steps", n_steps, "--paths",
                            n_paths, "--thin", thin, "--out", out) == 0
                assert sorted(os.listdir(out)) == ["endpoints.csv", "manifest.json", "paths.csv"]
                written.append([(out / name).read_bytes() for name in ("paths.csv",
                                                                       "endpoints.csv")])
        assert written[0] == written[1] == [oracle, _oracle_endpoints(batch(None, keep_steps=steps,
                                                                            weight_cutoff=None))]
        assert len(forks) == (n_blocks >= max(min_blocks, 2))

    def test_failed_fork_runs_every_path_here(self, tmp_path, monkeypatch):
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        seen = _capture(monkeypatch, "simulate_batch")
        assert _run(*self.SIM, "--steps", "1000", "--paths", "64", "--out", tmp_path) == 0
        assert seen[0].n_paths == 64
        assert (tmp_path / "paths.csv").read_bytes() == _oracle_paths(seen[0], 1)
        assert (tmp_path / "endpoints.csv").read_bytes() == _oracle_endpoints(seen[0])
        assert sorted(os.listdir(tmp_path)) == ["endpoints.csv", "manifest.json", "paths.csv"]


class TestForkedBatch:
    """With two usable CPUs, a batch of at least ``engine._MIN_SPLIT_WORK``
    model path-steps runs its second half of paths in a forked child.  The
    outputs are a one-process run's, a failure on either side is one error
    line, and no process outlives the command."""

    CMP = ("compare", "--sigma", "0.8", "--steps", "1000", "--pairs", "600", "--seed", "3")
    # 11 states of 1000 paths are 6 writer blocks, so only the batch forks.
    SIM = ("simulate", "--model", "proposed", "--target", "0.3,-0.1", "--sigma", "0.7",
           "--steps", "1000", "--paths", "1000", "--thin", "100", "--cutoff", "0.5")

    def test_split_writes_the_serial_bytes(self, tmp_path, monkeypatch, forks):
        for cpus in (1, 2):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            assert _run(*self.SIM, "--out", tmp_path / "sim" / str(cpus)) == 0
            assert _run(*self.CMP, "--out", tmp_path / "cmp" / str(cpus)) == 0
            assert len(forks) == 2 * (cpus - 1)
        for name in ("sim/paths.csv", "sim/endpoints.csv", "cmp/agreement.csv",
                     "cmp/agreement_summary.json"):
            command, file = name.split("/")
            assert ((tmp_path / command / "1" / file).read_bytes()
                    == (tmp_path / command / "2" / file).read_bytes())
        _assert_no_child_left()

    def test_simulate_without_thin_forks_once(self, tmp_path, monkeypatch):
        """Without --thin, SIM's paths.csv has 500 blocks, so the command splits
        at path 500 and its halves never fork again, even where the engine's
        thresholds would split each half.  Forks are counted in every process
        through a file, and the bytes are a one-CPU run's."""
        log, real = tmp_path / "forks", os.fork

        def fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        sim = [arg for arg in self.SIM if arg not in ("--thin", "100")]
        for run, cpus, min_work in (("serial", 1, None), ("split", 2, None), ("low", 2, 1)):
            monkeypatch.setattr(engine, "_usable_cpus", lambda cpus=cpus: cpus)
            if min_work:
                monkeypatch.setattr(engine, "_MIN_SPLIT_PATHS", 1)
                monkeypatch.setattr(engine, "_MIN_SPLIT_WORK", min_work)
            log.write_text("")
            assert _run(*sim, "--out", tmp_path / run) == 0
            assert log.read_text().split() == [str(os.getpid())] * (cpus - 1)
        for name in ("paths.csv", "endpoints.csv"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "split" / name).read_bytes() == serial
            assert (tmp_path / "low" / name).read_bytes() == serial
        _assert_no_child_left()

    def test_no_fork_on_the_platform_runs_here(self, tmp_path, monkeypatch, forks):
        """Where ``os.fork`` is missing, the runs above that fork, with the
        writer's threshold lowered so that paths.csv would split too, run in
        this process and write the bytes of a one-CPU run."""
        monkeypatch.setattr(cli, "_MIN_SPLIT_BLOCKS", 2)
        for run in ("serial", "no-fork"):
            if run == "no-fork":
                monkeypatch.delattr(os, "fork")
            monkeypatch.setattr(engine, "_usable_cpus", lambda: 1 if run == "serial" else 2)
            assert _run(*self.SIM, "--out", tmp_path / run / "sim") == 0
            assert _run(*self.CMP, "--out", tmp_path / run / "cmp") == 0
        with engine._forked(lambda out: None, "doing nothing") as join:
            assert join is None
        for name in ("sim/paths.csv", "sim/endpoints.csv", "cmp/agreement.csv",
                     "cmp/agreement_summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "no-fork" / name).read_bytes()
        assert forks == []

    @pytest.mark.parametrize("how, needle", [
        ("raise", "error: [Errno 12] Cannot allocate memory"),
        ("kill", "error: the process simulating paths 300 to 599 was killed by signal 9"),
    ])
    def test_failing_child_is_one_error_line(self, tmp_path, monkeypatch, capsys, forks, how,
                                             needle):
        parent, real = os.getpid(), engine._run_chunk

        def run_chunk(*args):
            if os.getpid() != parent and how == "raise":
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        monkeypatch.setattr(engine, "_run_chunk", run_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        assert _run(*self.CMP, "--out", tmp_path) == 2
        _assert_one_error_line(capsys, needle)
        _assert_no_child_left()
        assert len(forks) == 1 and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("edit, size", [
        (lambda out: out.truncate(out.seek(-16, os.SEEK_END)), 9584),  # one terminal row short
        (lambda out: out.write(bytes(16)), 9616),  # one row too many
    ], ids=["short", "long"])
    def test_a_wrong_sized_half_is_one_error_line(self, tmp_path, monkeypatch, capsys, forks,
                                                  edit, size):
        """The child's raw bytes carry no framing, so the parent checks that
        they fill its arrays exactly: 2 models x 300 terminal states of 16
        bytes are 9600 bytes."""
        real = engine._forked

        def forked(work, *args):
            def wrong_size(out):
                work(out=out)
                edit(out)
            return real(wrong_size, *args)

        monkeypatch.setattr(engine, "_forked", forked)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        assert _run(*self.CMP, "--out", tmp_path) == 2
        _assert_one_error_line(capsys, "error: the process simulating paths 300 to 599 left "
                                       f"{size} bytes of results, not 9600")
        _assert_no_child_left()
        assert len(forks) == 1 and os.listdir(tmp_path) == []

    def test_failing_parent_kills_the_child(self, tmp_path, monkeypatch, capsys, forks):
        parent, real = os.getpid(), engine._run_chunk

        def run_chunk(*args):
            if os.getpid() != parent:
                time.sleep(60)  # the child outlives the command unless it is killed
                return real(*args)
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(engine, "_run_chunk", run_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        started = time.monotonic()
        assert _run(*self.CMP, "--out", tmp_path) == 2
        assert time.monotonic() - started < 30
        _assert_one_error_line(capsys, "Cannot allocate memory")
        _assert_no_child_left()
        assert len(forks) == 1 and os.listdir(tmp_path) == []


def _layout_class(text):
    """The class (E, sign, significant digits) of a "%.17g" text in fixed notation."""
    body = text.lstrip("-")
    whole, _, frac = body.partition(".")
    e = len(whole) - 1 if whole != "0" else len(frac.lstrip("0")) - len(frac) - 1
    return e, text.startswith("-"), len(body.replace(".", "").strip("0"))


def _class_values():
    """A positive double of each layout class with E from -4 to 15, tried
    among random decimals of that many digits until "%.17g" prints one so."""
    rng = random.Random(22)
    values = []
    for e in range(-4, 16):
        for sig in range(1, 18):
            while True:
                v = float(f"{rng.randrange(10 ** (sig - 1), 10 ** sig)}e{e - sig + 1}")
                if _layout_class("%.17g" % v) == (e, False, sig):
                    values.append(v)
                    break
    return values


def _g17_sweep():
    """Values where a 17-digit rounding can go wrong, and one of each layout
    class, both signs."""
    parts = []
    for e in range(-4, 17):
        # |v| 10^(16 - e) is a half-integer, a tie, for v = m 2^-(17 - e) with m odd.
        j = 17 - e
        lo, hi = 10**e * 2**j, min(10 ** (e + 1) * 2**j, 2**53)
        if lo < hi:
            m = np.unique(np.linspace(lo, hi - 1, 2001).astype(np.int64) | 1)
            parts.append(np.ldexp(m.astype(float), -j))
    for e in range(-5, 18):  # the 64 doubles either side of each power of ten
        bits = np.float64(float(f"1e{e}")).view(np.int64) + np.arange(-64, 65)
        parts.append(bits.view(np.float64))
    for e in range(-5, 17):  # a dense sweep of each decade
        parts.append(np.geomspace(10.0**e, 10.0 ** (e + 1), 4001))
    # D with each number of trailing zeros: integers of 1 to 16 digits, none of them 0.
    parts.append(np.array([float("1234567891234567"[:n]) for n in range(1, 17)]))
    parts.append(np.array([9.99999999999999995e-5, 99999999999999999.0, 0.99999999999999999,
                           9999999999999998.0, 1e16, 1e-4, 0.5, 100.0, 1234.5, 0.000125, 1e15]))
    parts.append(np.array(_class_values()))
    values = np.concatenate(parts)
    return np.concatenate([values, -values])


class TestFormatG17:
    """cli._format_g17 gives the bytes of "%.17g" for every double."""

    @given(st.lists(st.floats(allow_subnormal=True), max_size=40))
    @example([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -1e-310])
    @example([1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1.7976931348623157e308])
    def test_equals_format(self, values):
        assert (cli._format_g17(np.array(values, dtype=float)).tolist()
                == [format(v, ".17g").encode() for v in values])

    def test_ties_and_powers_of_ten(self):
        values = _g17_sweep()
        text = cli._format_g17(values).tolist()
        bad = [(v, t) for v, t in zip(values.tolist(), text) if t != b"%.17g" % v]
        assert bad == []

    def test_sweep_has_every_trailing_zero_count(self):
        """The sweep reaches every sum of the trailing-zero table: D ends in 0
        to 16 zeros, for both signs (counted from the "%.17g" text)."""
        values = _g17_sweep()
        fast = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
        counts = {(v < 0, 17 - len(("%.17g" % v).lstrip("-").replace(".", "").strip("0")))
                  for v in fast.tolist()}
        assert counts == {(neg, zeros) for neg in (False, True) for zeros in range(17)}

    def test_sweep_has_every_layout_class(self):
        """The sweep reaches each of the 680 rows of the layout tables: E from
        -4 to 15, both signs, 1 to 17 significant digits (counted from the
        "%.17g" text)."""
        values = _g17_sweep()
        fast = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)]
        assert {_layout_class("%.17g" % v) for v in fast.tolist()} == {
            (e, neg, sig) for e in range(-4, 16) for neg in (False, True) for sig in range(1, 18)}

    def test_zero_takes_the_fast_path(self):
        rows = np.empty((2, 4), dtype=np.uint64)
        assert (cli._g17_rows(np.array([0.0, -0.0]), rows) != cli._FALLBACK).all()

    def test_paths_writer_formats_the_sweep(self):
        """paths.csv's x1 and x2 fields come from the core's words, not from
        _format_g17: the sweep's values and values "%.17g" formats itself,
        as the states of 2500-step paths (more than one block of the core
        per path), each give their "%.17g" bytes."""
        values = np.append(_g17_sweep(), [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300,
                                          -1.2345678901234567e-300, 2.2250738585072009e-308])
        n_paths = -(-values.size // 5000)
        states = np.resize(values, (n_paths, 2500, 2))
        steps = np.arange(2500)
        text = b"".join(block.tobytes() for block in cli._path_blocks(
            states, steps, np.linspace(0.0, 1.0, 2500)))
        fields = [line.split(b",")[3:] for line in text.splitlines()]
        assert fields == [[b"%.17g" % v for v in row] for row in states.reshape(-1, 2).tolist()]

    def test_keeps_shape(self):
        values = np.array([[0.1, -2.0, 3e-5], [1e20, np.nan, 7.25]])
        text = cli._format_g17(values)
        assert text.shape == values.shape
        assert text.tolist() == [[b"%.17g" % v for v in row] for row in values.tolist()]
        assert cli._format_g17(np.empty((0, 2))).shape == (0, 2)

    def test_paths_writer_memory_is_flat_in_paths(self, tmp_path, monkeypatch):
        """Formatting paths.csv holds a few paths' text at a time, so its
        peak on top of the kept states does not grow with --paths."""
        peaks = []
        real = cli._write_csv

        def traced(path, header, rows):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            real(path, header, rows)
            if path.name == "paths.csv":
                peaks.append(tracemalloc.get_traced_memory()[1] - start)

        monkeypatch.setattr(cli, "_write_csv", traced)
        tracemalloc.start()
        try:
            for n_paths in (64, 1024):
                assert _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "50",
                            "--paths", n_paths, "--seed", "3", "--out", tmp_path / str(n_paths)) == 0
        finally:
            tracemalloc.stop()
        small, large = peaks
        assert large < 1.25 * small


class TestWorkersFlag:
    """``simulate --workers`` and ``compare --workers/--truncation`` are
    accepted and ignored: batches pick their own split and the true bridge
    sums every lift.  The other commands' ignored flags are retired, and so is
    the ``weights`` command that took one (see ``TestErrorLines``)."""

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--workers", 3, id="3"),
        pytest.param("--workers", 0, id="0"),
        pytest.param("--truncation", 7, id="truncation-7"),
    ])
    def test_has_no_effect(self, tmp_path, flag, value):
        runs = {
            "sim": ("simulate", "--model", "true-bridge", "--target", "0.1,-0.2", "--sigma", "0.9",
                    "--steps", "20", "--paths", "30", "--seed", "5", "--cutoff", "0.5"),
            "cmp": ("compare", "--sigma", "0.8", "--steps", "50", "--pairs", "30", "--seed", "6"),
        }
        takes = {"--workers": ("sim", "cmp"), "--truncation": ("cmp",)}[flag]
        for flags, out in (((), tmp_path / "a"), ((flag, value), tmp_path / "b")):
            for name, args in runs.items():
                assert _run(*args, *(flags if name in takes else ()), "--out", out / name) == 0
        for name in ("sim/paths.csv", "sim/endpoints.csv", "cmp/agreement.csv",
                     "cmp/agreement_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        manifest = json.loads((tmp_path / "b" / "sim" / "manifest.json").read_text())
        assert "workers" not in manifest["output"]

    @pytest.mark.parametrize("args", [
        ("simulate", "--model", "true-bridge", "--target", "0,0", "--truncation", "2"),
        ("field", "--model", "true-bridge", "--target", "0,0", "--t", "0.5", "--truncation", "2"),
    ], ids=["simulate-truncation", "field-truncation"])
    def test_retired_flags_exit_2(self, tmp_path, capsys, args):
        assert _run(*args, "--out", tmp_path) == 2 and os.listdir(tmp_path) == []
        _assert_one_error_line(capsys, "unrecognized arguments: --")


class TestCompare:
    def test_self_comparison_rate_is_one(self, tmp_path):
        rc = _run("compare", "--model-b", "proposed", "--sigma", "0.8", "--steps", "100",
                  "--pairs", "10", "--seed", "2", "--out", tmp_path)
        assert rc == 0
        summary = json.loads((tmp_path / "agreement_summary.json").read_text())
        assert summary["rate"] == 1.0
        _, rows = _read_csv(tmp_path / "agreement.csv")
        assert all(r[5] == "1" for r in rows)

    def test_schema_and_rate_band(self, tmp_path):
        rc = _run("compare", "--sigma", "0.8", "--T", "1", "--steps", "250",
                  "--pairs", "200", "--seed", "7",
                  "--out", tmp_path)
        assert rc == 0
        header, rows = _read_csv(tmp_path / "agreement.csv")
        assert header == ["pair_id", "k1_prop", "k2_prop", "k1_true", "k2_true", "agree"]
        assert len(rows) == 200
        summary = json.loads((tmp_path / "agreement_summary.json").read_text())
        assert 0.0 <= summary["rate"] <= 1.0
        assert summary["n_pairs"] == 200

    def test_single_pair(self, tmp_path):
        _run("compare", "--pairs", "1", "--steps", "100", "--seed", "4",
             "--out", tmp_path)
        summary = json.loads((tmp_path / "agreement_summary.json").read_text())
        assert summary["rate"] in (0.0, 1.0)

    def test_euclid_bridge_against_proposed_at_any_target(self, tmp_path):
        """The Euclidean bridge's diagnostic target is its endpoint projected,
        which is the typed target itself, so the pair conditions on one
        target at 0.3,-0.1 as at 0,0."""
        for target in ("0.3,-0.1", "0,0"):
            assert _run("compare", "--model-a", "euclid-bridge", "--model-b", "proposed",
                        "--target", target, "--steps", "50", "--pairs", "20", "--seed", "8",
                        "--out", tmp_path / target) == 0

    def test_step_below_time_to_go_floor_fails(self, tmp_path, capsys):
        rc = _run("compare", "--T", "1e-300", "--steps", "50", "--pairs", "3", "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, "T / n_steps")
        assert not (tmp_path / "agreement.csv").exists()


class TestField:
    def test_grid_centred_on_lift(self, tmp_path):
        rc = _run("field", "--model", "proposed", "--target", "0,0", "--t", "0.5",
                  "--grid", "3", "--rect=-1,1,-1,1", "--out", tmp_path)
        assert rc == 0
        header, rows = _read_csv(tmp_path / "field.csv")
        assert header == ["x1", "x2", "b1", "b2"]
        assert len(rows) == 9
        centre = [r for r in rows if r[0] == "0" and r[1] == "0"]
        assert centre[0][2:] == ["0", "0"]

    def test_tie_lines_emit_zero_vectors(self, tmp_path):
        _run("field", "--model", "proposed", "--target", "0,0", "--t", "0.2",
             "--grid", "5", "--rect=-0.5,0.5,-0.5,0.5", "--out", tmp_path)
        _, rows = _read_csv(tmp_path / "field.csv")
        for r in rows:
            if abs(float(r[0])) == 0.5 or abs(float(r[1])) == 0.5:
                assert r[2:] == ["0", "0"]

    def test_time_past_horizon_fails(self, tmp_path):
        rc = _run("field", "--model", "proposed", "--target", "0,0", "--t", "1.0",
                  "--out", tmp_path)
        assert rc == 2

    def test_free_bm_checks_the_horizon_too(self, tmp_path, capsys):
        rc = _run("field", "--model", "free-bm", "--t", "2", "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, "time must lie in [0, 1.0)")
        assert not (tmp_path / "field.csv").exists()

    # The last two have finite ends whose difference overflows a double.
    @pytest.mark.parametrize("rect", ["0,inf,0,1", "-inf,0,0,1", "0,1,nan,1", "0,1,0,-inf",
                                      "-1e308,1e308,0,1", "0,1,-1e308,1e308"])
    def test_nonfinite_rect_is_one_error_line(self, tmp_path, capsys, rect):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = _run("field", f"--rect={rect}", "--target", "0,0", "--t", "0.5", "--out", tmp_path)
        assert rc == 2 and caught == []
        _assert_one_error_line(capsys, "finite")

    @pytest.mark.parametrize("exc, needle", [
        (MemoryError("Unable to allocate 149. GiB for an array"), "Unable to allocate"),
        (MemoryError(), "MemoryError"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, monkeypatch, capsys, exc, needle):
        # A grid of 100000 x 100000 points cannot be allocated; stand in for it.
        def exhausted(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "drift_field", exhausted)
        rc = _run("field", "--model", "proposed", "--target", "0,0", "--t", "0.5",
                  "--grid", "100000", "--out", tmp_path)
        assert rc == 2
        _assert_one_error_line(capsys, needle)


def _weights_text(endpoints):
    """The text the retired ``weights`` command wrote to weights.csv, rebuilt
    from the path_id and log_weight columns of an endpoints.csv file."""
    _, rows = _read_csv(endpoints)
    return "".join(f"{row[0]},{row[6]}\n" for row in [["path_id"] + [""] * 5 + ["log_weight"],
                                                       *rows]).encode()


class TestWeights:
    """A finished run's log weights come from ``simulate --config
    RUN/manifest.json --cutoff S``, which reads the manifest's config block
    as strictly as the retired ``weights --manifest`` did."""

    def test_matches_simulate_cutoff_column(self, tmp_path):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "8", "--seed", "21", "--cutoff", "0.5",
             "--out", tmp_path / "run")
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "8", "--seed", "21", "--out", tmp_path / "plain")
        rc = _run("simulate", "--config", tmp_path / "plain" / "manifest.json",
                  "--cutoff", "0.5", "--thin", "100", "--out", tmp_path / "w")
        assert rc == 0
        assert ((tmp_path / "w" / "endpoints.csv").read_bytes()
                == (tmp_path / "run" / "endpoints.csv").read_bytes())
        _, rows = _read_csv(tmp_path / "w" / "paths.csv")
        assert [row[1] for row in rows] == ["0", "100"] * 8

    @pytest.mark.parametrize("edit, needles", [
        (lambda c: c.update(bogus=1), ("'bogus'", "SimConfig")),
        (lambda c: c["model"].update(variant="proposed"), ("--target x,y is required",)),
        (lambda c: c.update(model=[1]), ("model block",)),
        (lambda c: c.update(start=5), ("start",)),
        (lambda c: c.update(n_steps=None), ("n_steps",)),
        (lambda c: c["model"].update(sigma="abc"), ("sigma",)),
        (lambda c: c["model"].update(sigma=None), ("sigma",)),
        (lambda c: c["model"].update(variant=[1]), ("unknown model variant",)),
        (lambda c: c.update(record_increments="false"), ("record_increments", "'false'")),
        (lambda c: c.update(record_increments=1), ("record_increments",)),
        (lambda c: c.update(model={"variant": "proposed", "sigma": 1.0, "horizon": 1.0,
                                   "target": [0, 0], "scale_by_sigma_sq": "false"}),
         ("scale_by_sigma_sq", "'false'")),
        (lambda c: c["model"].update(sigma=True), ("sigma", "True")),
        (lambda c: c["model"].update(horizon=True), ("horizon", "True")),
        (lambda c: c.update(n_steps=True), ("n_steps", "True")),
        (lambda c: c.update(n_paths=True), ("n_paths", "True")),
        (lambda c: c.update(seed=True), ("seed", "True")),
        (lambda c: c.update(model={"variant": "proposed", "sigma": 1.0, "horizon": 1.0,
                                   "target": [0, 0], "cut_locus_tol": False}),
         ("cut_locus_tol", "False")),
        (lambda c: c.update(model={"variant": "proposed", "sigma": 1.0, "horizon": 1.0,
                                   "target": [0, 0], "cut_locus_tol": 0.05}),
         ("cut_locus_tol must be 0; got 0.05",)),
    ])
    def test_bad_manifest_config_fails(self, tmp_path, capsys, edit, needles):
        _run("simulate", "--model", "free-bm", "--steps", "10", "--paths", "2",
             "--seed", "1", "--out", tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        edit(manifest["config"])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = _run("simulate", "--config", tmp_path / "manifest.json", "--cutoff", "0.5",
                  "--out", tmp_path / "w")
        assert rc == 2
        _assert_one_error_line(capsys, *needles)
        assert not (tmp_path / "w").exists()

    def test_pre_change_manifest_reproduces_weights(self, tmp_path):
        """A manifest written while SimConfig had a record_increments field and
        ProposedBridge a tie-band width and a sigma^2 switch still loads, and gives
        the paths.csv and endpoints.csv bytes it gave then, and the log weights
        of the weights.csv that the retired weights command wrote from it."""
        old = {"command": "simulate", "version": "0.1.0", "config": {
            "model": {"cut_locus_tol": 0.0, "horizon": 1.0, "scale_by_sigma_sq": False,
                      "sigma": 0.8, "target": [0.1, -0.2], "variant": "proposed"},
            "n_paths": 6, "n_steps": 100, "record_increments": False, "seed": 21,
            "start": [0.0, 0.0]}, "output": {"thin": 1, "weight_cutoff": 0.5}}
        (tmp_path / "old.json").write_text(json.dumps(old))
        assert _run("simulate", "--config", tmp_path / "old.json", "--out", tmp_path / "old") == 0
        for name, digest in (
                ("paths.csv", "1d030268a856c5b03a543089ce4d1d07f4a0194a26311548e6743577c895be97"),
                ("endpoints.csv",
                 "3824b7f621be3404702d4cf0ef94bf6d6410abc698c6b7620474ceeb31433dc7")):
            assert hashlib.sha256((tmp_path / "old" / name).read_bytes()).hexdigest() == digest
        assert _run("simulate", "--model", "proposed", "--target", "0.1,-0.2", "--sigma", "0.8",
                    "--steps", "100", "--paths", "6", "--seed", "21", "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "record_increments" not in manifest["config"]
        assert manifest["config"]["model"] == {"variant": "proposed", "sigma": 0.8,
                                               "horizon": 1.0, "target": [0.1, -0.2]}
        assert _run("simulate", "--config", tmp_path / "manifest.json", "--cutoff", "0.5",
                    "--thin", "100", "--out", tmp_path / "new") == 0
        weights = _weights_text(tmp_path / "old" / "endpoints.csv")
        assert weights == _weights_text(tmp_path / "new" / "endpoints.csv")
        assert hashlib.sha256(weights).hexdigest() == (
            "cbd1ad6d3aa84419201457d1e2b432a3225c55a22e73eec8080b2c7196dddb23")

    def test_cutoff_off_grid_fails(self, tmp_path, capsys):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "2", "--seed", "21", "--out", tmp_path / "run")
        rc = _run("simulate", "--config", tmp_path / "run" / "manifest.json",
                  "--cutoff", "0.5001", "--out", tmp_path / "w")
        assert rc == 2
        _assert_one_error_line(capsys, "0.5001")


class TestCheck:
    def test_single_cheap_criterion(self, capsys):
        rc = _run("check", "--criterion", "7")
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "density-normalization" in out

    def test_density_criteria_stdout(self, capsys):
        """The bytes the benchmark's check-density workload reads, pinned."""
        assert _run("check", "--criterion", "6", "--criterion", "7") == 0
        assert capsys.readouterr().out == (
            "PASS  criterion 6 (h-transform-gradient): worst relative error 1.80e-09 over "
            "100 points (tolerance 1e-5)\n"
            "PASS  criterion 7 (density-normalization): max |integral - 1| = 2.22e-16 over "
            "3 targets (tolerance 1e-6, 400x400 midpoint)\n"
            "2/2 criteria passed\n"
        )


class TestErrorLines:
    # A manifest whose model block lacks its variant.
    MANIFEST = {"config": {"model": {"sigma": 1.0, "horizon": 1.0}, "start": [0, 0],
                           "n_steps": 10, "seed": 0, "n_paths": 1}}

    @pytest.mark.parametrize("args, needles", [
        (("simulate", "--model", "free-bm", "--start", "1"), ("--start", "'x,y'", "'1'")),
        (("simulate", "--model", "free-bm", "--start", "a,b"), ("--start", "two numbers")),
        (("simulate",), ("a model is required",)),
        (("simulate", "--model", "free-bm", "--thin", "0"), ("--thin must be >= 1",)),
        (("field", "--model", "proposed", "--target", "0,0", "--t", "0.5", "--rect", "1,2,3"),
         ("--rect", "'1,2,3'")),
        (("field", "--model", "proposed", "--target", "0,0", "--t", "0.5", "--rect", "a,b,c,d"),
         ("error: --rect expects four numbers; got 'a,b,c,d'",)),
        (("check", "--criterion", "9"), ("criterion index", "got 9")),
        (("check", "--criterion", "0"), ("criterion index", "got 0")),
        (("simulate", "--config", "manifest.json", "--cutoff", "0.5"),
         ("a model is required",)),
        # The retired weights command: simulate --config M --cutoff S gives its weights.
        (("weights", "--manifest", "manifest.json", "--cutoff", "0.5"),
         ("error: argument command: invalid choice: 'weights'",)),
        (("simulate", "--paths", "abc"),
         ("error: argument --paths: invalid int value: 'abc'\n",)),
        (("field", "--t", "0.5", "--truncation", "2"),
         ("error: unrecognized arguments: --truncation 2\n",)),
        (("field", "--target", "0,0"), ("error: the following arguments are required: --t\n",)),
        (("simulate", "--model", "brownian"), ("argument --model: invalid choice: 'brownian'",)),
        (("bridge",), ("argument command: invalid choice: 'bridge'",)),
        ((), ("the following arguments are required: command",)),
    ])
    def test_bad_input_is_one_error_line(self, tmp_path, monkeypatch, capsys, args, needles):
        monkeypatch.chdir(tmp_path)
        Path("manifest.json").write_text(json.dumps(self.MANIFEST))
        assert _run(*args) == 2
        _assert_one_error_line(capsys, *needles)
        assert os.listdir() == ["manifest.json"]

    @pytest.mark.parametrize("args, needle", [
        (("--help",), "usage: torusbridge"),
        (("simulate", "--help"), "usage: torusbridge simulate"),
        (("--version",), f"torusbridge {torusbridge.__version__}"),
    ])
    def test_help_and_version_exit_0(self, capsys, args, needle):
        with pytest.raises(SystemExit) as exit_:
            _run(*args)
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(needle) and err == ""


def _python(*args, cwd=None):
    """Run a fresh interpreter that imports this package; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(torusbridge.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, check=True).stdout


class TestProcessExit:
    """``main`` freezes the import's heap once, and the process still exits
    the normal way: nothing is skipped at exit."""

    def test_main_freezes_the_heap_once_per_process(self):
        code = ("import gc, tempfile\n"
                "from torusbridge import cli\n"
                "counts = [gc.get_freeze_count()]\n"
                "with tempfile.TemporaryDirectory() as out:\n"
                "    for _ in range(2):\n"
                "        assert cli.main(['field', '--target', '0,0', '--t', '0.5',\n"
                "                         '--grid', '2', '--out', out]) == 0\n"
                "        counts.append(gc.get_freeze_count())\n"
                "print(*counts)\n")
        before, first, second = map(int, _python("-c", code).split()[-3:])
        assert before == 0
        assert first > 10_000  # the import's objects, mostly scipy.special's
        assert second == first

    def test_subprocess_writes_the_in_process_bytes(self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--model", "proposed", "--target", "0.1,-0.2", "--sigma", "0.9",
                "--steps", "50", "--paths", "40", "--seed", "2024", "--cutoff", "0.5",
                "--out", "out"]
        (tmp_path / "child").mkdir()
        child_out = _python("-m", "torusbridge.cli", *args, cwd=tmp_path / "child")
        (tmp_path / "here").mkdir()
        monkeypatch.chdir(tmp_path / "here")
        assert cli.main(args) == 0
        assert child_out == capsys.readouterr().out
        assert child_out.startswith("wrote 40 paths to out")
        for name in ("paths.csv", "endpoints.csv"):
            assert ((tmp_path / "child/out" / name).read_bytes()
                    == (tmp_path / "here/out" / name).read_bytes())
