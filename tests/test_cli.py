import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import coplanar_ensemble
from twistqkd.cli import main
from twistqkd.states import ensemble_to_json

POINT_ARGS = [
    "--delta", "0.1",
    "--depol", "0.05",
    "--eta", "0.5",
    "--dark", "1e-5",
    "--distance", "50",
]


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestKeyrateCommand:
    def test_human_output(self, capsys):
        code, out, _ = run_main(["keyrate", *POINT_ARGS], capsys)
        assert code == 0
        assert "rate_twisted" in out
        assert "e_Z" in out

    def test_json_output(self, capsys):
        code, out, _ = run_main(["keyrate", *POINT_ARGS, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rate_twisted"] > 0
        assert doc["rate_twisted"] >= doc["rate_naive"] - 1e-7
        assert doc["diagnostics"]["twist_bound_minus"] >= doc["e_minus"]
        assert doc["diagnostics"]["twist_bound_plus"] <= doc["e_plus"]

    def test_priors_flag(self, capsys):
        code, out, _ = run_main(
            ["keyrate", *POINT_ARGS, "--priors", "0.4,0.2,0.2,0.2", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["p_det00"] > 0

    def test_bad_priors_exit_2(self, capsys):
        code, _, err = run_main(["keyrate", *POINT_ARGS, "--priors", "1,2,3"], capsys)
        assert code == 2
        assert "priors" in err

    def test_f_flag_lowers_rate(self, capsys):
        _, out1, _ = run_main(["keyrate", *POINT_ARGS, "--json"], capsys)
        _, out2, _ = run_main(["keyrate", *POINT_ARGS, "--f", "1.2", "--json"], capsys)
        assert json.loads(out2)["rate_twisted"] < json.loads(out1)["rate_twisted"]

    @pytest.mark.parametrize("f", ["nan", "-1", "0.5"])
    def test_bad_f_exit_2(self, capsys, f):
        code, out, err = run_main(["keyrate", *POINT_ARGS, "--f", f], capsys)
        assert code == 2
        assert out == ""
        assert "f must be finite and >= 1" in err


class TestCompareCommand:
    def test_shows_gain(self, capsys):
        code, out, _ = run_main(["compare", *POINT_ARGS], capsys)
        assert code == 0
        assert "rate_naive" in out
        assert "pct_gain" in out


def write_config(tmp_path, **overrides):
    doc = {
        "delta": [0.0, 0.1],
        "depol": 0.05,
        "eta": 0.5,
        "p_dark": 1e-5,
        "distance": {"min": 0.0, "max": 20.0, "step": 10.0},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestScanCommand:
    def test_writes_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_csv = tmp_path / "rates.csv"
        code, out, _ = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert code == 0
        assert "6 rows" in out
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert all(r["status"] == "ok" for r in rows)

    def test_out_from_config(self, tmp_path, capsys):
        out_csv = tmp_path / "rates.csv"
        config = write_config(tmp_path, distance=10.0, delta=0.0, out=str(out_csv))
        code, _, _ = run_main(["scan", "--config", str(config)], capsys)
        assert code == 0
        assert out_csv.exists()

    def test_missing_out_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, _, err = run_main(["scan", "--config", str(config)], capsys)
        assert code == 2
        assert "output" in err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code, _, _ = run_main(["scan", "--config", str(tmp_path / "none.json"), "--out", "x.csv"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "overrides",
        [{"priors": {"alice": [0.25, 0.25, 0.25, 0.25]}}, {"delta": "x"}],
    )
    def test_malformed_config_exit_2(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, **overrides)
        code, _, err = run_main(["scan", "--config", str(config), "--out", "x.csv"], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("f", [float("nan"), -1.0, 0.5])
    def test_bad_f_exit_2(self, tmp_path, capsys, f):
        config = write_config(tmp_path, f=f)
        code, _, err = run_main(["scan", "--config", str(config), "--out", "x.csv"], capsys)
        assert code == 2
        assert "f must be finite and >= 1" in err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_main(["scan", "--config", str(bad), "--out", "x.csv"], capsys)
        assert code == 2


class TestCheckStatesCommand:
    def test_good_states_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, distance=10.0)
        code, out, _ = run_main(["check-states", "--config", str(config)], capsys)
        assert code == 0
        assert "pass" in out
        assert "condition number" in out

    def test_coplanar_fails_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(179)
        bad = coplanar_ensemble(rng)
        config = write_config(
            tmp_path,
            delta=0.0,
            distance=10.0,
            alice_states=json.loads(ensemble_to_json(bad)),
        )
        code, out, _ = run_main(["check-states", "--config", str(config)], capsys)
        assert code == 3
        assert "FAIL" in out


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "twistqkd.cli", "keyrate", *POINT_ARGS, "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rate_twisted"] > 0
