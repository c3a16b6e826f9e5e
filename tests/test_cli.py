"""Tests for the command-line interface and its CSV contracts."""

import json

from torusbridge import cli


def _run(*args):
    return cli.main([str(a) for a in args])


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


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
                "--seed", "9", "--truncation", "2")
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'bogus'" in err

    def test_invalid_sigma_fails(self, tmp_path):
        rc = _run("simulate", "--model", "free-bm", "--sigma", "-1", "--out", tmp_path)
        assert rc == 2


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
                  "--pairs", "200", "--truncation", "2", "--seed", "7",
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
