import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coplanar_ensemble, random_ensemble
from twistqkd.channel import ChannelParams, detection_stats
from twistqkd.cli import main
from twistqkd.keyrate import keyrate_point
from twistqkd.states import ModelParams, ensemble_to_json, model_states

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

    def test_config_that_is_not_text_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00{")
        code, _, err = run_main(["scan", "--config", str(bad), "--out", "x.csv"], capsys)
        assert code == 2
        assert err.startswith("error: config is not valid JSON")

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


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "twistqkd.cli", "keyrate", *POINT_ARGS, "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rate_twisted"] > 0


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
