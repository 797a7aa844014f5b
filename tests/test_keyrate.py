import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coplanar_ensemble, random_ensemble
from twistqkd.channel import ChannelParams, DetectionStats, detection_stats, stats_index
from twistqkd.errors import (
    DomainError,
    InvalidParamsError,
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
)
from twistqkd.keyrate import (
    SCAN_COLUMNS,
    ScanConfig,
    binary_entropy,
    keyrate_point,
    scan,
    scan_to_csv,
    six_state_rate,
)
from twistqkd.states import ModelParams, ensemble_to_json, model_states


def mp_entropy(x):
    """High-precision oracle for the binary entropy."""
    import mpmath

    mpmath.mp.dps = 50
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return 0.0
    return float(-(x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.11, 0.01, 0.3, 0.9382])
    def test_against_high_precision(self, x):
        assert binary_entropy(x) == pytest.approx(mp_entropy(x), abs=1e-12)

    def test_clamps_dust(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(math.nan)


def test_import_loads_no_scipy():
    code = "import sys, twistqkd; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestSixStateRate:
    def test_noiseless_limit(self):
        assert six_state_rate(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_point(self):
        # frozen from direct evaluation of the formula at
        # e_Z = 0.11, e_minus = 0, e_plus = 0.22
        rate = six_state_rate(1.0, 0.11, 0.0, 0.22)
        expected = 1.0 - mp_entropy(0.11) - 0.11 - 0.89 * mp_entropy((1 - 0.165) / 0.89)
        assert rate == pytest.approx(expected, abs=1e-12)
        assert rate == pytest.approx(0.0924, abs=5e-4)

    def test_half_error_rate_gives_zero(self):
        assert six_state_rate(1.0, 0.5, 0.0, 0.6) == 0.0
        assert six_state_rate(1.0, 0.5, 0.3, 0.9) == 0.0

    def test_scales_with_detection_probability(self):
        r1 = six_state_rate(1.0, 0.05, 0.02, 0.12)
        r2 = six_state_rate(0.25, 0.05, 0.02, 0.12)
        assert r2 == pytest.approx(0.25 * r1, rel=1e-12)

    def test_ez_zero_limit_continuous(self):
        near = six_state_rate(1.0, 1e-11, 1e-12, 0.2)
        at = six_state_rate(1.0, 0.0, 0.0, 0.2)
        assert near == pytest.approx(at, abs=1e-8)

    def test_error_correction_efficiency(self):
        base = six_state_rate(1.0, 0.05, 0.02, 0.12, f=1.0)
        worse = six_state_rate(1.0, 0.05, 0.02, 0.12, f=1.2)
        assert base > 0 and worse > 0
        assert worse == pytest.approx(base - 0.2 * binary_entropy(0.05), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidPhaseError):
            six_state_rate(1.0, 0.1, -0.01, 0.2)
        with pytest.raises(InvalidPhaseError):
            six_state_rate(1.0, 0.1, 0.2, 0.3)  # e_minus > e_z
        with pytest.raises(InvalidPhaseError):
            six_state_rate(1.0, 0.1, 0.0, 0.05)  # e_plus < e_z
        with pytest.raises(InvalidPhaseError):
            six_state_rate(1.0, 0.1, 0.0, 1.1)
        # both e_minus and e_plus are out of their windows: the first check wins
        with pytest.raises(InvalidPhaseError, match=r"^e_minus = -0.01 < 0$"):
            six_state_rate(1.0, 0.1, -0.01, 1.1)

    @pytest.mark.parametrize("f", [math.nan, -1.0, 0.5])
    def test_rejects_bad_error_correction_efficiency(self, f):
        with pytest.raises(InvalidParamsError, match="f must be finite and >= 1"):
            six_state_rate(1.0, 0.05, 0.0, 0.1, f=f)

    def test_tolerance_snaps(self):
        assert six_state_rate(1.0, 0.0, -1e-10, 1e-10) == pytest.approx(1.0, abs=1e-8)


def ideal_point():
    ens = model_states(ModelParams(delta=0.0, depol=0.0))
    return ens, ens, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0)


class TestKeyratePoint:
    def test_ideal_pipeline(self):
        alice, bob, ch = ideal_point()
        res = keyrate_point(alice, bob, ch)
        assert res.p_det00 == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert res.e_z == pytest.approx(0.0, abs=1e-12)
        assert res.rate_twisted == pytest.approx(1.0 / 16.0, abs=1e-6)
        assert res.rate_naive == pytest.approx(1.0 / 16.0, abs=1e-6)
        assert res.diagnostics["twist_bound_minus"] >= res.e_minus
        assert res.diagnostics["twist_bound_plus"] <= res.e_plus

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    def test_no_gain_for_pure_states(self, delta):
        ens = model_states(ModelParams(delta=delta, depol=0.0))
        ch = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=40.0)
        res = keyrate_point(ens, ens, ch)
        assert abs(res.pct_gain) <= 1e-4  # percent, i.e. 1e-6 relative

    def test_gain_positive_with_noise(self):
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        ch = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=50.0)
        res = keyrate_point(ens, ens, ch)
        assert res.rate_twisted >= res.rate_naive - 1e-7
        assert res.pct_gain > 0.1

    def test_rate_bounds(self):
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        ch = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=80.0)
        res = keyrate_point(ens, ens, ch)
        assert 0.0 <= res.rate_twisted <= res.p_det00
        assert 0.0 <= res.rate_naive <= res.p_det00

    def test_rejects_coplanar(self):
        rng = np.random.default_rng(163)
        bad = coplanar_ensemble(rng)
        good = model_states(ModelParams(delta=0.0, depol=0.0))
        with pytest.raises(SingularGammaError):
            keyrate_point(bad, good, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0))

    @pytest.mark.parametrize("coplanar_party", ["Alice", "Bob"])
    def test_singular_error_names_the_worse_party(self, coplanar_party):
        bad = coplanar_ensemble(np.random.default_rng(163))
        good = model_states(ModelParams(delta=0.0, depol=0.0))
        alice, bob = (bad, good) if coplanar_party == "Alice" else (good, bad)
        ch = ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0)
        with pytest.raises(SingularGammaError, match=f"^{coplanar_party}'s .*tetrahedron"):
            keyrate_point(alice, bob, ch)

    @pytest.mark.parametrize("f", [math.nan, -1.0, 0.5, math.inf])
    def test_rejects_bad_error_correction_efficiency(self, f):
        alice, bob, ch = ideal_point()
        with pytest.raises(InvalidParamsError, match="f must be finite and >= 1"):
            keyrate_point(alice, bob, ch, f=f)

    def test_injected_stats(self):
        alice, bob, ch = ideal_point()
        stats = detection_stats(alice, bob, ch)
        res_sim = keyrate_point(alice, bob, ch)
        res_inj = keyrate_point(alice, bob, ch, stats=stats)
        assert res_inj.rate_twisted == pytest.approx(res_sim.rate_twisted, abs=1e-12)

    def test_no_detections_is_typed(self):
        # all-zero statistics reconstruct a zero Gram cleanly, then fail the
        # key-basis normalization with a typed error instead of NaN
        alice, bob, ch = ideal_point()
        with pytest.raises(NoDetectionsError):
            keyrate_point(alice, bob, ch, stats=DetectionStats(p_det=np.zeros(16)))

    def test_deterministic(self):
        ens = model_states(ModelParams(delta=0.1, depol=0.03))
        ch = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=60.0)
        r1 = keyrate_point(ens, ens, ch)
        r2 = keyrate_point(ens, ens, ch)
        assert r1.rate_twisted == r2.rate_twisted
        assert r1.e_plus == r2.e_plus


def outcome(alice, bob, channel):
    try:
        return keyrate_point(alice, bob, channel)
    except QkdError as exc:
        return exc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 150.0))
def test_swapping_alice_and_bob(seed, distance):
    # The Bell projection onto |Phi+> is symmetric in the two parties, so
    # the point must not depend on who is called Alice.
    rng = np.random.default_rng(seed)
    alice, bob = random_ensemble(rng), random_ensemble(rng)
    channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=distance)
    direct, swapped = outcome(alice, bob, channel), outcome(bob, alice, channel)
    assert type(direct) is type(swapped)
    if isinstance(direct, QkdError):
        return
    for name in ("p_det00", "e_z", "e_minus", "e_plus", "rate_twisted", "rate_naive"):
        assert getattr(swapped, name) == pytest.approx(getattr(direct, name), rel=0, abs=1e-10)


def base_config(**overrides):
    doc = {
        "delta": 0.1,
        "depol": 0.05,
        "eta": 0.5,
        "p_dark": 1e-5,
        "distance": {"min": 0.0, "max": 40.0, "step": 20.0},
    }
    doc.update(overrides)
    return doc


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig.from_dict(base_config())
        assert cfg.deltas == [0.1]
        assert cfg.depols == [0.05]
        np.testing.assert_allclose(cfg.distances, [0.0, 20.0, 40.0])
        assert cfg.f == 1.0
        assert cfg.priors_alice == (0.25, 0.25, 0.25, 0.25)

    def test_grid_lists(self):
        cfg = ScanConfig.from_dict(base_config(delta=[0.0, 0.1], depol=[0.01, 0.05]))
        assert cfg.deltas == [0.0, 0.1]
        assert cfg.depols == [0.01, 0.05]

    def test_scalar_distance(self):
        cfg = ScanConfig.from_dict(base_config(distance=25.0))
        np.testing.assert_allclose(cfg.distances, [25.0])

    def test_split_priors(self):
        cfg = ScanConfig.from_dict(
            base_config(priors={"alice": [0.4, 0.2, 0.2, 0.2], "bob": [0.25, 0.25, 0.25, 0.25]})
        )
        assert cfg.priors_alice == (0.4, 0.2, 0.2, 0.2)

    def test_missing_required(self):
        doc = base_config()
        del doc["eta"]
        with pytest.raises(InvalidParamsError):
            ScanConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"priors": {"alice": [0.25, 0.25, 0.25, 0.25]}},
            {"delta": "x"},
            {"depol": [0.01, None]},
            {"eta": "half"},
            {"distance": {"min": 0.0, "max": 10.0}},
            {"priors": 0.25},
            {"alice_states": {"priors": [0.25] * 4, "rhos": [[[1]]] * 4}},
        ],
    )
    def test_malformed_fields_are_typed(self, overrides):
        with pytest.raises(InvalidParamsError):
            ScanConfig.from_dict(base_config(**overrides))

    def test_bad_step(self):
        with pytest.raises(InvalidParamsError):
            ScanConfig.from_dict(base_config(distance={"min": 0, "max": 10, "step": 0}))

    @pytest.mark.parametrize("f", [math.nan, -1.0, 0.5])
    def test_rejects_bad_error_correction_efficiency(self, f):
        with pytest.raises(InvalidParamsError, match="f must be finite and >= 1"):
            ScanConfig.from_dict(base_config(f=f))
        with pytest.raises(InvalidParamsError, match="f must be finite and >= 1"):
            ScanConfig(deltas=0.0, depols=0.0, distances=0.0, eta=0.5, p_dark=0.0, f=f)

    def test_grid_is_validated_up_front(self):
        with pytest.raises(InvalidParamsError, match=r"depol must be in \[0, 1\), got 1.5"):
            ScanConfig(deltas=0.0, depols=[0.02, 1.5], distances=0.0, eta=0.5, p_dark=0.0)
        with pytest.raises(InvalidParamsError, match="delta must be finite"):
            ScanConfig(deltas=[0.1, math.inf], depols=0.0, distances=0.0, eta=0.5, p_dark=0.0)
        with pytest.raises(InvalidParamsError, match="atten_db_per_km must be >= 0, got -1.0"):
            ScanConfig.from_dict(base_config(atten_db_per_km=-1))
        with pytest.raises(InvalidParamsError, match="distance_km must be >= 0, got -5.0"):
            ScanConfig(deltas=0.0, depols=0.0, distances=[10.0, -5.0], eta=0.5, p_dark=0.0)
        with pytest.raises(InvalidParamsError, match="distance_km must be finite, got inf"):
            ScanConfig(deltas=0.0, depols=0.0, distances=[0.0, math.inf], eta=0.5, p_dark=0.0)

    def test_explicit_states(self):
        ens = model_states(ModelParams(delta=0.07, depol=0.02))
        doc = base_config(alice_states=json.loads(ensemble_to_json(ens)))
        cfg = ScanConfig.from_dict(doc)
        alice, bob = cfg.ensembles_for(0.0, 0.0)
        np.testing.assert_allclose(alice[0].rho, ens[0].rho, atol=1e-15)
        assert bob is alice

    def test_stats_csv(self, tmp_path):
        alice, bob, ch = ideal_point()
        stats = detection_stats(alice, bob, ch)
        path = tmp_path / "stats.csv"
        stats.to_csv(path)
        cfg = ScanConfig.from_dict(base_config(stats_csv=str(path)))
        np.testing.assert_allclose(cfg.stats.p_det, stats.p_det, rtol=1e-9)


class TestScan:
    def test_single_point_matches_keyrate_point(self):
        cfg = ScanConfig.from_dict(base_config(distance=30.0))
        rows = scan(cfg)
        assert len(rows) == 1
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        direct = keyrate_point(ens, ens, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=30.0))
        assert rows[0].result.rate_twisted == pytest.approx(direct.rate_twisted, abs=1e-12)

    def test_rate_non_increasing_in_distance(self):
        cfg = ScanConfig.from_dict(
            base_config(distance={"min": 0.0, "max": 100.0, "step": 25.0})
        )
        rows = scan(cfg)
        rates = [r.result.rate_twisted for r in rows]
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-12

    def test_gain_grows_with_noise(self):
        cfg = ScanConfig.from_dict(base_config(depol=[0.01, 0.05], distance=60.0))
        rows = scan(cfg)
        gains = {row.depol: row.result.pct_gain for row in rows}
        assert gains[0.05] >= gains[0.01]

    def test_errors_recorded_and_scan_continues(self):
        rng = np.random.default_rng(167)
        bad = coplanar_ensemble(rng)
        doc = base_config(
            alice_states=json.loads(ensemble_to_json(bad)),
            distance={"min": 0.0, "max": 20.0, "step": 10.0},
        )
        rows = scan(ScanConfig.from_dict(doc))
        assert len(rows) == 3
        assert all(r.status == "SingularGammaError" for r in rows)
        assert all(r.result is None for r in rows)
        assert all("tetrahedron" in r.error for r in rows)

    def test_error_message_recorded(self, monkeypatch):
        import twistqkd.keyrate as keyrate_module

        def decline(alice, bob, pairs, channel, distances, **kwargs):
            return [InvalidPhaseError("e_plus = 1.5 > 1") for _ in pairs]

        monkeypatch.setattr(keyrate_module, "_evaluate", decline)
        rows = scan(ScanConfig.from_dict(base_config(distance=10.0)))
        assert [(r.status, r.error, r.result) for r in rows] == [
            ("InvalidPhaseError", "e_plus = 1.5 > 1", None)
        ]

    def test_untyped_error_propagates(self, monkeypatch):
        import twistqkd.keyrate as keyrate_module

        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(keyrate_module, "_evaluate", broken)
        with pytest.raises(RuntimeError, match="bug"):
            scan(ScanConfig.from_dict(base_config(distance=10.0)))

    @pytest.mark.parametrize("explicit", [False, True])
    def test_one_kernel_call_per_grid(self, monkeypatch, explicit):
        import twistqkd.keyrate as keyrate_module

        calls = []
        kernel = keyrate_module._evaluate

        def counted(alice, bob, pairs, channel, distances, **kwargs):
            calls.append(len(pairs))
            return kernel(alice, bob, pairs, channel, distances, **kwargs)

        monkeypatch.setattr(keyrate_module, "_evaluate", counted)
        doc = base_config(delta=[0.0, 0.1], depol=[0.01, 0.05, 0.1])
        if explicit:
            ens = model_states(ModelParams(delta=0.07, depol=0.02))
            doc["alice_states"] = json.loads(ensemble_to_json(ens))
        rows = scan(ScanConfig.from_dict(doc))
        assert calls == [18]
        assert [r.status for r in rows] == ["ok"] * 18

    def test_ok_rows_have_no_error(self):
        rows = scan(ScanConfig.from_dict(base_config(distance=10.0)))
        assert [(r.status, r.error) for r in rows] == [("ok", "")]

    def test_deterministic_ordering(self):
        cfg = ScanConfig.from_dict(
            base_config(delta=[0.0, 0.1], depol=[0.01, 0.05], distance=10.0)
        )
        rows = scan(cfg)
        assert [(r.delta, r.depol) for r in rows] == [
            (0.0, 0.01),
            (0.0, 0.05),
            (0.1, 0.01),
            (0.1, 0.05),
        ]


class TestScanCsv:
    def test_columns_and_digits(self, tmp_path):
        cfg = ScanConfig.from_dict(base_config(distance=10.0))
        rows = scan(cfg)
        path = tmp_path / "out.csv"
        scan_to_csv(rows, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert tuple(header) == SCAN_COLUMNS
            row = next(reader)
        assert row[-1] == "ok"
        # 12 significant digits round-trip
        assert float(row[3]) == pytest.approx(rows[0].result.p_det00, rel=1e-11)

    def test_failed_rows_have_nan(self, tmp_path):
        rng = np.random.default_rng(173)
        bad = coplanar_ensemble(rng)
        doc = base_config(alice_states=json.loads(ensemble_to_json(bad)), distance=10.0)
        rows = scan(ScanConfig.from_dict(doc))
        path = tmp_path / "out.csv"
        scan_to_csv(rows, path)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        assert row["status"] == "SingularGammaError"
        assert math.isnan(float(row["rate_twisted"]))

    def test_failed_rows_keep_the_message(self, tmp_path):
        rng = np.random.default_rng(173)
        bad = coplanar_ensemble(rng)
        doc = base_config(alice_states=json.loads(ensemble_to_json(bad)), distance=10.0)
        rows = scan(ScanConfig.from_dict(doc))
        rows += scan(ScanConfig.from_dict(base_config(distance=10.0)))
        path = tmp_path / "out.csv"
        scan_to_csv(rows, path)
        with open(path) as fh:
            failed, ok = csv.DictReader(fh)
        assert "tetrahedron" in failed["error"]
        assert failed["error"] == rows[0].error
        assert ok["error"] == ""
