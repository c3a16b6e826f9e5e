"""Tests for the command-line interface and its CSV contracts."""

import dataclasses
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    n = batch.config.n_steps
    steps = [i for i in range(n + 1) if i % thin == 0]
    if steps[-1] != n:
        steps.append(n)
    return _oracle_csv("path_id,step,t,x1,x2", (
        [str(pid), str(i), _fmt(p.times[i]), _fmt(p.states[i, 0]), _fmt(p.states[i, 1])]
        for pid, p in enumerate(batch.paths) for i in steps))


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
        assert _run("weights", "--manifest", cfg_file, "--cutoff", "0.5") == 2
        _assert_one_error_line(capsys, "manifest")


    @pytest.mark.parametrize("edit, needles", [
        (lambda m: m["config"].update(model=[1]), ("model block", "list")),
        (lambda m: m.update(output=[1]), ("output block", "list")),
        (lambda m: m["config"].update(start=5), ("start",)),
        (lambda m: m["config"].update(start={"x": 1}), ("start",)),
        (lambda m: m["config"]["model"].update(target=5), ("target",)),
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
        (lambda m: m["config"]["model"].update(sigma=True), ("sigma", "True")),
        (lambda m: m["config"]["model"].update(horizon=True), ("horizon", "True")),
        (lambda m: m["config"].update(n_steps=True), ("n_steps", "True")),
        (lambda m: m["config"].update(n_paths=True), ("n_paths", "True")),
        (lambda m: m["config"].update(seed=False), ("seed", "False")),
        (lambda m: m["config"].update(model={"variant": "proposed", "sigma": 0.5, "horizon": 1.0,
                                             "target": [0, 0], "cut_locus_tol": True}),
         ("cut_locus_tol", "True")),
        (lambda m: m["output"].update(thin=True), ("thin", "True")),
        (lambda m: m["output"].update(weight_cutoff=True), ("cutoff", "True")),
        # simulate --config reads its block as strictly as weights --manifest.
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

        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "10",
             "--paths", "3", "--seed", "8", "--out", tmp_path / "run")
        seen = _capture(monkeypatch, "simulate_batch")
        _run("weights", "--manifest", tmp_path / "run" / "manifest.json", "--cutoff", "0.3",
             "--out", tmp_path / "w")
        assert (tmp_path / "w" / "weights.csv").read_bytes() == _oracle_csv(
            "path_id,log_weight",
            ([str(pid), _fmt(lw)] for pid, lw in enumerate(seen[0].log_weights)))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(1e308)
    @example(-1e308)
    def test_percent_format_equals_format(self, v):
        assert "%.17g" % v == format(v, ".17g")


def _g17_sweep():
    """Values where a 17-digit rounding can go wrong, both signs."""
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
    parts.append(np.array([9.99999999999999995e-5, 99999999999999999.0, 0.99999999999999999,
                           9999999999999998.0, 1e16, 1e-4, 0.5, 100.0]))
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
    """--workers and --truncation are accepted and ignored: batches run on one
    thread and the true bridge sums every lift."""

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
            "field": ("field", "--model", "true-bridge", "--target", "0.1,0", "--sigma", "0.8",
                      "--t", "0.5", "--grid", "5", "--rect=-3,3,-1,1"),
            "w": ("weights", "--manifest", tmp_path / "a" / "sim" / "manifest.json",
                  "--cutoff", "0.3"),
        }
        takes = {"--workers": ("sim", "cmp", "w"), "--truncation": ("sim", "cmp", "field")}[flag]
        for flags, out in (((), tmp_path / "a"), ((flag, value), tmp_path / "b")):
            for name, args in runs.items():
                assert _run(*args, *(flags if name in takes else ()), "--out", out / name) == 0
        for name in ("sim/paths.csv", "sim/endpoints.csv", "cmp/agreement.csv",
                     "cmp/agreement_summary.json", "field/field.csv", "w/weights.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        manifest = json.loads((tmp_path / "b" / "sim" / "manifest.json").read_text())
        assert "workers" not in manifest["output"]
        assert "truncation" not in manifest["config"]["model"]


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

    @pytest.mark.parametrize("rect", ["0,inf,0,1", "-inf,0,0,1", "0,1,nan,1", "0,1,0,-inf"])
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


class TestWeights:
    def test_matches_simulate_cutoff_column(self, tmp_path):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "8", "--seed", "21", "--cutoff", "0.5",
             "--out", tmp_path / "run")
        rc = _run("weights", "--manifest", tmp_path / "run" / "manifest.json",
                  "--cutoff", "0.5", "--out", tmp_path / "w")
        assert rc == 0
        _, endpoint_rows = _read_csv(tmp_path / "run" / "endpoints.csv")
        _, weight_rows = _read_csv(tmp_path / "w" / "weights.csv")
        assert [r[6] for r in endpoint_rows] == [r[1] for r in weight_rows]

    @pytest.mark.parametrize("edit, needles", [
        (lambda c: c.update(bogus=1), ("'bogus'", "SimConfig")),
        (lambda c: c.pop("start"), ("'start'", "SimConfig")),
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
    ])
    def test_bad_manifest_config_fails(self, tmp_path, capsys, edit, needles):
        _run("simulate", "--model", "free-bm", "--steps", "10", "--paths", "2",
             "--seed", "1", "--out", tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        edit(manifest["config"])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = _run("weights", "--manifest", tmp_path / "manifest.json", "--cutoff", "0.5")
        assert rc == 2
        _assert_one_error_line(capsys, *needles)

    def test_pre_change_manifest_reproduces_weights(self, tmp_path):
        """A manifest written while SimConfig had a record_increments field
        still loads, and gives the weights.csv bytes it gave then."""
        old = {"command": "simulate", "version": "0.1.0", "config": {
            "model": {"cut_locus_tol": 0.0, "horizon": 1.0, "scale_by_sigma_sq": False,
                      "sigma": 0.8, "target": [0.1, -0.2], "variant": "proposed"},
            "n_paths": 6, "n_steps": 100, "record_increments": False, "seed": 21,
            "start": [0.0, 0.0]}}
        (tmp_path / "old.json").write_text(json.dumps(old))
        assert _run("weights", "--manifest", tmp_path / "old.json", "--cutoff", "0.5",
                    "--out", tmp_path / "old") == 0
        assert _run("simulate", "--model", "proposed", "--target", "0.1,-0.2", "--sigma", "0.8",
                    "--steps", "100", "--paths", "6", "--seed", "21", "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "record_increments" not in manifest["config"]
        assert _run("weights", "--manifest", tmp_path / "manifest.json", "--cutoff", "0.5",
                    "--out", tmp_path / "new") == 0
        weights = (tmp_path / "old" / "weights.csv").read_bytes()
        assert weights == (tmp_path / "new" / "weights.csv").read_bytes()
        assert hashlib.sha256(weights).hexdigest() == (
            "cbd1ad6d3aa84419201457d1e2b432a3225c55a22e73eec8080b2c7196dddb23")

    def test_cutoff_off_grid_fails(self, tmp_path):
        _run("simulate", "--model", "proposed", "--target", "0,0", "--steps", "100",
             "--paths", "2", "--seed", "21", "--out", tmp_path / "run")
        rc = _run("weights", "--manifest", tmp_path / "run" / "manifest.json",
                  "--cutoff", "0.5001", "--out", tmp_path / "w")
        assert rc == 2


class TestCheck:
    def test_single_cheap_criterion(self, capsys):
        rc = _run("check", "--criterion", "7")
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "density-normalization" in out
