import csv
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistqkd.cli as cli
from conftest import bloch_state, coplanar_ensemble, random_ensemble
from twistqkd.channel import ChannelParams, DetectionStats, detection_stats
from twistqkd.cli import main
from twistqkd.errors import (
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
    UnphysicalStatsError,
)
from twistqkd.keyrate import ScanConfig, keyrate_point, scan, scan_to_csv
from twistqkd.states import ModelParams, SignalEnsemble, ensemble_to_json, model_states

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


def error_classes(cls=QkdError):
    """``cls`` and every subclass of it, depth first."""
    return [cls, *(c for sub in cls.__subclasses__() for c in error_classes(sub))]


# The exit code of each error, from the README's table: 3 for singular or
# unphysical inputs, 4 for phase errors outside the rate formula's domain,
# and 2 for every other error, an unreadable file (OSError) included.
EXIT_CODE = {SingularGammaError: 3, UnphysicalStatsError: 3, NoDetectionsError: 3,
             InvalidPhaseError: 4}


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
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        direct = keyrate_point(ens, ens, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=50.0))
        assert doc["diagnostics"].keys() == direct.diagnostics.keys()

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

    @pytest.mark.parametrize("error", [*error_classes(), OSError], ids=lambda c: c.__name__)
    def test_each_error_exits_with_its_code(self, capsys, monkeypatch, error):
        # No point of the (delta, depol) model is known to exit 4: 300 random
        # model grids, 10800 points, gave none.  So code 4 is reached only
        # through this stand-in for the pipeline.
        def failed(*args, **kwargs):
            raise error("the point failed")

        monkeypatch.setattr(cli, "keyrate_point", failed)
        code, out, err = run_main(["keyrate", *POINT_ARGS], capsys)
        assert (code, out, err) == (EXIT_CODE.get(error, 2), "", "error: the point failed\n")

    @pytest.mark.parametrize("point, message", [
        # the loss of 100000 km leaves no detection at all without dark counts
        ("--delta 0.1 --depol 0.05 --eta 0.5 --dark 0 --distance 100000",
         "error: key-basis detection probability is zero\n"),
        # all but fully depolarized states: the state matrix is singular
        ("--delta 0 --depol 0.999999999 --eta 0.5 --dark 1e-5 --distance 10",
         "error: Alice's ensemble fails the tetrahedron condition: "),
    ], ids=["no-detections", "singular"])
    def test_failing_point_exit_3(self, capsys, point, message):
        code, out, err = run_main(["keyrate", *point.split()], capsys)
        assert (code, out) == (3, "")
        assert err.startswith(message)


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


def write_stats(directory, kind):
    """A stats CSV of one model point: ``"good"``, or with its last rows
    cut (``"short"``), repeated, or holding a ``nan`` or negative value."""
    path = directory / "stats.csv"
    ens = model_states(ModelParams(delta=0.1, depol=0.05))
    stats = detection_stats(ens, ens, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=30.0))
    stats.to_csv(path)
    lines = path.read_text().splitlines()
    if kind == "short":
        lines = lines[:-3]
    elif kind == "repeated":
        lines.append(lines[-1])
    elif kind == "nan":
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    elif kind == "negative":
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-0.5"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


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

    def test_statistics_above_any_pass_operator_fail_every_row(self, tmp_path, capsys):
        # three times the ideal node's statistics, those of M = 3|Phi+><Phi+|:
        # a stats_csv scan gives each pair the same row at every distance, and
        # each row is refused, while the scan itself succeeds
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        ideal = detection_stats(ens, ens, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0))
        stats = tmp_path / "stats.csv"
        DetectionStats(p_det=3.0 * ideal.p_det).to_csv(stats)
        config = write_config(tmp_path, delta=0.1, stats_csv=str(stats),
                              distance={"min": 0.0, "max": 150.0, "step": 50.0})
        out_csv = tmp_path / "rates.csv"
        code, out, _ = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert code == 0
        assert "4 rows" in out and "(4 failed)" in out
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["UnphysicalStatsError"] * 4
        assert all("no pass operator M <= I" in r["error"] for r in rows)

    def test_out_from_config(self, tmp_path, capsys):
        out_csv = tmp_path / "rates.csv"
        config = write_config(tmp_path, distance=10.0, delta=0.0, out=str(out_csv))
        code, _, _ = run_main(["scan", "--config", str(config)], capsys)
        assert code == 0
        assert out_csv.exists()

    def test_missing_out_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code, out, err = run_main(["scan", "--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: no output path: pass --out or set 'out' in the config\n"

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

    def test_config_that_is_not_text_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00{")
        code, _, err = run_main(["scan", "--config", str(bad), "--out", "x.csv"], capsys)
        assert code == 2
        assert err.startswith("error: config is not valid JSON")

    @pytest.mark.parametrize("content", [b"i,j,x,y,p_det\n\xff\xfe", b"a" * 200000],
                             ids=["not-utf8", "beyond-the-field-limit"])
    def test_stats_csv_that_is_not_csv_text_exit_2(self, tmp_path, capsys, content):
        stats = tmp_path / "stats.csv"
        stats.write_bytes(content)
        config = write_config(tmp_path, stats_csv=str(stats))
        code, _, err = run_main(["scan", "--config", str(config), "--out", "x.csv"], capsys)
        assert code == 2
        assert err.startswith(f"error: stats CSV {stats} is not readable CSV: ")

    def test_non_finite_stats_csv_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, stats_csv=write_stats(tmp_path, "nan"))
        code, _, err = run_main(["scan", "--config", str(config), "--out", "x.csv"], capsys)
        assert code == 2
        assert err == "error: p_det entries must be finite\n"

    @pytest.mark.parametrize("field", ["config", "stats_csv", "out"])
    def test_directory_path_exit_2(self, tmp_path, capsys, field):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        out = str(tmp_path / "rates.csv")
        if field == "config":
            argv = ["scan", "--config", str(directory), "--out", out]
        else:
            argv = ["scan", "--config", str(write_config(tmp_path, **{field: str(directory)}))]
            argv += [] if field == "out" else ["--out", out]
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert "a_directory" in err

    @pytest.mark.parametrize("field", ["stats_csv", "out"])
    @pytest.mark.parametrize("value", [1, True, ["x.csv"]])
    def test_path_that_is_not_a_string_exit_2(self, tmp_path, capsys, field, value):
        config = write_config(tmp_path, **{field: value})
        code, _, err = run_main(["scan", "--config", str(config)], capsys)
        assert code == 2
        assert f"{field} must be a file path string" in err

    @pytest.mark.parametrize("command", ["check-states", "scan"])
    @pytest.mark.parametrize("value", [1, True, ["x.csv"]])
    def test_unread_out_is_not_judged(self, tmp_path, capsys, command, value):
        # only `scan` without --out reads the config's `out`
        config = write_config(tmp_path, out=value)
        argv = [command, "--config", str(config)]
        if command == "scan":
            argv += ["--out", str(tmp_path / "plain.csv")]
        code, _, err = run_main(argv, capsys)
        assert (code, err) == (0, "")

    def test_grid_error_comes_before_out_error(self, tmp_path, capsys):
        config = write_config(tmp_path, depol=1.5, out=1)
        code, out, err = run_main(["scan", "--config", str(config)], capsys)
        assert (code, out, err) == (2, "", "error: depol must be in [0, 1), got 1.5\n")

    def test_negative_attenuation_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, atten_db_per_km=-1)
        out_csv = str(tmp_path / "rates.csv")
        code, out, err = run_main(["scan", "--config", str(config), "--out", out_csv], capsys)
        assert (code, out) == (2, "")
        assert err == "error: atten_db_per_km must be >= 0, got -1.0\n"

    def test_out_of_range_depol_exit_2_before_any_row(self, tmp_path, capsys):
        config = write_config(tmp_path, depol=[0.02, 1.5])
        out_csv = tmp_path / "rates.csv"
        code, out, err = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: depol must be in [0, 1), got 1.5\n"
        assert not out_csv.exists()

    def test_negative_distance_exit_2_before_any_row(self, tmp_path, capsys):
        config = write_config(tmp_path, distance={"min": -10, "max": 10, "step": 5})
        out_csv = tmp_path / "rates.csv"
        code, out, err = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: distance_km must be >= 0, got -10.0\n"
        assert not out_csv.exists()

    def test_too_fine_distance_range_exit_2(self, tmp_path, capsys):
        # 1.5e15 distances: numpy refuses the 10.7 PiB array without allocating it
        config = write_config(tmp_path, distance={"min": 0, "max": 150, "step": 1e-13})
        out_csv = tmp_path / "rates.csv"
        code, out, err = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: distance range min 0.0, max 150.0, step 1e-13 has too many points: "
        )
        assert "Traceback" not in err and not out_csv.exists()

    def test_unopenable_out_exit_2_before_any_row(self, tmp_path, capsys, monkeypatch):
        import twistqkd.keyrate as keyrate_module

        def evaluated(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(keyrate_module, "_evaluate", evaluated)
        config = write_config(tmp_path)
        out_csv = tmp_path / "missing" / "rates.csv"
        code, out, err = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("stats", [None, "good"])
    def test_chunks_write_the_library_csv(self, tmp_path, capsys, monkeypatch, stats):
        # seven pairs at five distances in chunks of two pairs: four kernel
        # calls, the last one ragged; with the injected statistics of one
        # model point most rows fail
        import twistqkd.keyrate as keyrate_module

        doc = dict(delta=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3], depol=0.05,
                   distance={"min": 0.0, "max": 100.0, "step": 25.0})
        if stats:
            doc["stats_csv"] = write_stats(tmp_path, stats)
        config = write_config(tmp_path, **doc)
        expected = tmp_path / "library.csv"
        rows = scan(ScanConfig.from_json_file(config))
        scan_to_csv(rows, expected)
        failed = sum(row.status != "ok" for row in rows)
        assert 0 < failed < len(rows) if stats else failed == 0

        calls = []
        kernel = keyrate_module._evaluate

        def counted(alice, bob, channel, distances, **kwargs):
            calls.append(len(alice[0]))
            return kernel(alice, bob, channel, distances, **kwargs)

        monkeypatch.setattr(keyrate_module, "_evaluate", counted)
        monkeypatch.setattr(keyrate_module, "_CHUNK_ROWS", 13)
        out_csv = tmp_path / "rates.csv"
        out_csv.write_text("old contents, longer than nothing\n" * 1000)
        code, out, _ = run_main(["scan", "--config", str(config), "--out", str(out_csv)], capsys)
        assert (code, out) == (0, f"wrote 35 rows to {out_csv} ({failed} failed)\n")
        assert calls == [2, 2, 2, 1]
        assert out_csv.read_bytes() == expected.read_bytes()

    def test_memory_is_bounded_by_the_chunk(self, tmp_path, capsys, monkeypatch):
        # the traced peak of a whole `twistqkd scan` stays flat as the grid
        # grows from one chunk of pairs to four
        import twistqkd.keyrate as keyrate_module

        monkeypatch.setattr(keyrate_module, "_CHUNK_ROWS", 1000)
        distance = {"min": 0.0, "max": 149.4, "step": 0.6}  # 250 distances, 4 pairs a chunk
        peaks = []
        for pairs in (4, 4, 16):
            config = write_config(tmp_path, delta=np.linspace(0.0, 0.2, pairs).tolist(),
                                  depol=0.05, distance=distance)
            tracemalloc.start()
            try:
                code, _, _ = run_main(["scan", "--config", str(config), "--out",
                                       str(tmp_path / "rates.csv")], capsys)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[2] < 1.1 * peaks[1]  # the first run warms up one-time allocations


class TestCheckStatesCommand:
    def test_good_states_pass(self, tmp_path, capsys):
        config = write_config(tmp_path, distance=10.0)
        code, out, _ = run_main(["check-states", "--config", str(config)], capsys)
        assert code == 0
        assert "pass" in out
        assert "condition number" in out

    def test_ignores_the_statistics(self, tmp_path, capsys):
        config = write_config(tmp_path, stats_csv=str(tmp_path / "missing.csv"))
        code, out, _ = run_main(["check-states", "--config", str(config)], capsys)
        assert code == 0
        assert "pass" in out
        out_csv = str(tmp_path / "rates.csv")
        code, _, err = run_main(["scan", "--config", str(config), "--out", out_csv], capsys)
        assert code == 2
        assert "missing.csv" in err

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

    @pytest.mark.parametrize("tilt", [2e-5, 0.0])
    def test_exit_code_is_the_kernels_pair_verdict(self, tmp_path, capsys, tilt):
        # Alice's fourth Bloch vector leans out of the x-z plane of her other
        # three by ``tilt``.  At 2e-5 her own tetrahedron check fails (cond
        # 1.55e5, squared above 1e9), yet with Bob's model states the state
        # matrix's cond is 4.9e5, below 1e9, and scan computes the row; at 0
        # her states are coplanar and the pair is singular.
        directions = np.array([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, tilt, 1)])
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        alice = SignalEnsemble([bloch_state(r, 0.25) for r in directions])
        bob = model_states(ModelParams(delta=0.1, depol=0.05))
        config = write_config(tmp_path, delta=0.0, depol=0.0, distance=10.0,
                              alice_states=json.loads(ensemble_to_json(alice)),
                              bob_states=json.loads(ensemble_to_json(bob)))
        code, out, _ = run_main(["check-states", "--config", str(config)], capsys)
        lines = out.splitlines()
        assert lines[1].startswith("  alice: tetrahedron FAIL")
        assert lines[2].startswith("  bob: tetrahedron pass")
        [row] = scan(ScanConfig.from_json_file(config))
        if tilt:
            assert code == 0
            assert lines[3] == "  state matrix condition number = 492023 (pass)"
            assert row.status == "ok"
            assert row.result.rate_twisted == pytest.approx(0.008123, rel=1e-3)
        else:
            assert code == 3
            assert lines[3].endswith(" (FAIL)")
            assert row.status == "SingularGammaError"

    @pytest.mark.parametrize("explicit", [False, True])
    def test_reads_the_grid_the_config_checked(self, tmp_path, capsys, monkeypatch, explicit):
        import twistqkd.states as states_module

        states = json.loads(ensemble_to_json(model_states(ModelParams(delta=0.07, depol=0.02))))
        config = write_config(tmp_path, delta=[0.0, 0.1, 0.2], depol=[0.01, 0.05],
                              **({"alice_states": states} if explicit else {}))
        expected = run_main(["check-states", "--config", str(config)], capsys)
        built = ScanConfig.from_json_file(config)

        def rebuilt(*args, **kwargs):
            raise AssertionError("check-states made or checked the config's states again")

        monkeypatch.setattr(ScanConfig, "from_dict", staticmethod(lambda doc: built))
        monkeypatch.setattr(states_module, "_check_states", rebuilt)
        monkeypatch.setattr(states_module, "QubitState", rebuilt)
        assert run_main(["check-states", "--config", str(config)], capsys) == expected


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "twistqkd.cli", "keyrate", *POINT_ARGS, "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rate_twisted"] > 0


def test_text_files_name_their_encoding(tmp_path):
    # with an EncodingWarning raised as an error, `scan` reads a UTF-8
    # config and a stats CSV and writes its CSV, and `check-states` reads
    # the config
    doc = {"eta": 0.5, "p_dark": 1e-5, "delta": 0.1, "depol": 0.05, "distance": 10,
           "comment": "résumé", "stats_csv": write_stats(tmp_path, "good")}
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    out_csv = tmp_path / "rates.csv"
    for argv in (["scan", "--config", str(config), "--out", str(out_csv)],
                 ["check-states", "--config", str(config)]):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "twistqkd.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
    assert out_csv.read_bytes().count(b"\r\n") == 2


def test_utf8_config_in_the_c_locale(tmp_path):
    # the config is UTF-8 whatever the locale; an output name that the file
    # system's encoding cannot write is refused as a bad field, not a traceback
    out_csv = tmp_path / "résultats.csv"
    doc = {"eta": 0.5, "p_dark": 1e-5, "distance": 10, "out": str(out_csv)}
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "twistqkd.cli", "scan", "--config", str(config)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
    )
    if proc.returncode == 0:  # a file system encoding that writes it
        assert out_csv.exists()
    else:
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: out cannot be encoded as a file name: ")


@pytest.mark.parametrize("command", ["check-states", "scan"])
def test_unread_out_in_the_c_locale(tmp_path, command):
    # an output name that the file system's encoding may not write is no
    # error where the config's `out` is not read: `check-states`, and
    # `scan --out`
    doc = {"eta": 0.5, "p_dark": 1e-5, "distance": 10, "out": str(tmp_path / "résultats.csv")}
    config = tmp_path / "config.json"
    config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    argv = [command, "--config", str(config)]
    if command == "scan":
        argv += ["--out", str(tmp_path / "plain.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "twistqkd.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert not (tmp_path / "résultats.csv").exists()


# CLI fuzzing: whatever the arguments or the config, ``main`` ends with one of
# the documented exit codes, never with an exception.  argparse reports a
# usage error by raising SystemExit(2), which is the console script's exit.
EXIT_CODES = {0, 2, 3, 4}
FUZZ_SETTINGS = settings(max_examples=100, deadline=None)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 2.0),
    st.integers(-2, 200),
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 1), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
values = st.one_of(numbers, junk)
# Not a path: a drawn string would name a file outside the test's directory.
not_a_path = st.one_of(
    st.booleans(), st.integers(), st.lists(st.integers(-1, 1), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
tokens = st.one_of(
    numbers.map(str), st.text(max_size=6), st.sampled_from(["nan", "-inf", "1e400", "--json"])
)
priors_text = st.one_of(
    st.lists(numbers, min_size=3, max_size=5).map(lambda v: ",".join(map(str, v))),
    st.just("0.1,0.2,0.3,0.4"),
    st.text(max_size=8),
)
POINT_FLAGS = ("--delta", "--depol", "--eta", "--dark", "--distance", "--divisor", "--f")


@st.composite
def point_argv(draw):
    argv = [draw(st.sampled_from(["keyrate", "compare"]))]
    defaults = dict(zip(POINT_FLAGS, ("0.1", "0.05", "0.5", "1e-5", "50", "20", "1")))
    for flag in POINT_FLAGS:
        if draw(st.integers(0, 9)):  # a flag is sometimes missing
            argv += [flag, draw(st.one_of(st.just(defaults[flag]), tokens))]
    if draw(st.booleans()):
        argv += ["--priors", draw(priors_text)]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(tokens))
    return argv


@FUZZ_SETTINGS
@given(point_argv())
def test_fuzzed_point_arguments_exit_with_a_documented_code(argv):
    assert exit_code(argv) in EXIT_CODES


def mostly(draw, valid, invalid):
    """A draw from ``valid`` seven times in eight, else from ``invalid``."""
    return draw(invalid if draw(st.integers(0, 7)) == 7 else valid)


@st.composite
def distance_field(draw):
    """A scalar distance or a range of at most 50 points, or an invalid one."""
    lo, step = draw(st.floats(0.0, 300.0)), draw(st.floats(0.1, 50.0))
    count = draw(st.integers(0, 45))
    valid = st.one_of(
        st.floats(0.0, 300.0), st.just({"min": lo, "max": lo + step * count, "step": step})
    )
    invalid = st.one_of(
        values,
        st.fixed_dictionaries({"min": values, "max": values, "step": values}),
        st.just({"min": lo, "max": lo + step * count, "step": -step}),
        st.just({"min": lo + step, "max": lo, "step": step}),
    )
    return mostly(draw, valid, invalid)


def ensemble_doc(draw):
    """A valid, coplanar, malformed or junk ensemble in the JSON form."""
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    valid = st.sampled_from([
        json.loads(ensemble_to_json(model_states(ModelParams(delta=0.1, depol=0.05)))),
        json.loads(ensemble_to_json(random_ensemble(rng))),
        json.loads(ensemble_to_json(coplanar_ensemble(rng))),
    ])
    entry = st.lists(numbers, min_size=2, max_size=2)
    rho = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
    invalid = st.one_of(
        st.fixed_dictionaries({
            "priors": st.lists(numbers, min_size=4, max_size=4),
            "rhos": st.lists(rho, min_size=4, max_size=4),
        }),
        junk,
    )
    return mostly(draw, valid, invalid)


STATS_KINDS = ("good", "short", "repeated", "nan", "negative")


@st.composite
def config_case(draw):
    """A drawn config document; the returned function writes it, and the
    files it names, into a directory and gives the argv that reads it."""
    doc = {
        "eta": mostly(draw, st.floats(0.05, 1.0), values),
        "p_dark": mostly(draw, st.floats(0.0, 1e-3), values),
        "distance": draw(distance_field()),
    }
    for name in ("eta", "p_dark", "distance"):
        if draw(st.integers(0, 19)) == 19:
            del doc[name]
    grid = st.one_of(st.floats(0.0, 0.3), st.lists(st.floats(0.0, 0.3), min_size=1, max_size=2))
    for name in ("delta", "depol"):
        if draw(st.booleans()):
            doc[name] = mostly(draw, grid, st.one_of(values, st.lists(numbers, max_size=2)))
    if draw(st.booleans()):
        shared = st.lists(numbers, min_size=4, max_size=4)
        valid = st.sampled_from([[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
        split = st.fixed_dictionaries({"alice": valid, "bob": valid})
        doc["priors"] = mostly(draw, st.one_of(valid, split), st.one_of(shared, junk))
    for name, valid in (("atten_db_per_km", 0.2), ("atten_divisor", 10.0), ("f", 1.1)):
        if draw(st.booleans()):
            doc[name] = mostly(draw, st.just(valid), values)
    if draw(st.booleans()):
        doc["alice_states"] = ensemble_doc(draw)
    if draw(st.integers(0, 3 if "alice_states" in doc else 15)) == 3:
        doc["bob_states"] = ensemble_doc(draw)
    stats = None
    if draw(st.booleans()):
        stats = draw(st.sampled_from([*STATS_KINDS, "dir", "missing", "junk"]))
    out = draw(st.sampled_from([None, "file", "file", "dir", "junk"]))
    junk_stats, junk_out = draw(not_a_path), draw(not_a_path)
    command = draw(st.sampled_from(["scan", "check-states"]))
    out_flag = draw(st.booleans())

    def build(directory):
        paths = {"dir": str(directory), "missing": str(directory / "none.csv")}
        if stats in STATS_KINDS:
            doc["stats_csv"] = write_stats(directory, stats)
        elif stats is not None:
            doc["stats_csv"] = paths.get(stats, junk_stats)
        if out is not None:
            doc["out"] = str(directory / "rates.csv") if out == "file" else paths.get(out, junk_out)
        config = directory / "config.json"
        config.write_text(json.dumps(doc))
        argv = [command, "--config", str(config)]
        if command == "scan" and out_flag:
            argv += ["--out", str(directory / "flag.csv")]
        return argv

    return build


@FUZZ_SETTINGS
@given(config_case())
def test_fuzzed_configs_exit_with_a_documented_code(build):
    with tempfile.TemporaryDirectory() as directory:
        assert exit_code(build(Path(directory))) in EXIT_CODES
