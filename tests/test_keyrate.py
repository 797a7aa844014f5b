import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coplanar_ensemble, random_ensemble
from twistqkd.channel import (
    ChannelParams, DetectionStats, build_gamma, detection_stats, stats_index
)
from twistqkd.errors import (
    DomainError,
    InvalidParamsError,
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
)
from twistqkd.evegram import key_basis_stats, solve_eve
from twistqkd.keyrate import (
    SCAN_COLUMNS,
    ScanConfig,
    ScanRow,
    _rates,
    binary_entropy,
    keyrate_point,
    scan,
    scan_to_csv,
    six_state_rate,
)
from twistqkd.states import (
    ModelParams,
    QubitState,
    ensemble_from_json,
    ensemble_to_json,
    model_states,
)
from twistqkd.twist import TwistProblem, naive_phase_errors


def mp_entropy(x):
    """High-precision oracle for the binary entropy."""
    import mpmath

    mpmath.mp.dps = 50
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return 0.0
    return float(-(x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / mpmath.log(2))


def mp_six_state_raw(p_det00, e_z, e_minus, e_plus, f):
    """The six-state rate formula as written, at 40 digits:
    ``p_det00 [1 - f h2(e_Z) - e_Z h2((1 + e_-/e_Z)/2)
    - (1-e_Z) h2((1 - (e_+ + e_Z)/2)/(1-e_Z))]``, with the exact limit 0 of
    the bit-flip term at ``e_Z = 0`` and of the phase term at ``e_Z = 1``."""
    import mpmath

    with mpmath.workdps(40):
        z, m, p = (mpmath.mpf(v) for v in (e_z, e_minus, e_plus))
        bit_flip = z * mp_entropy((1 + m / z) / 2) if z > 0 else 0
        phase = (1 - z) * mp_entropy((1 - (p + z) / 2) / (1 - z)) if z < 1 else 0
        return float(p_det00 * (1 - f * mp_entropy(z) - bit_flip - phase))


def mp_six_state_rate(*inputs):
    """:func:`mp_six_state_raw` clamped at zero."""
    return max(mp_six_state_raw(*inputs), 0.0)


@st.composite
def windowed_rate_inputs(draw):
    """``(p_det00, e_z, e_minus, e_plus, f)`` within the rate formula's windows."""
    e_z = draw(st.floats(0.0, 1.0))
    e_minus, e_plus = draw(st.floats(0.0, e_z)), draw(st.floats(e_z, 1.0))
    return draw(st.floats(0.0, 1.0)), e_z, e_minus, e_plus, draw(st.floats(1.0, 2.0))


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
    # With scipy blocked from import, every module imports, the reference SDP
    # solver included, and the solver certifies a problem with numpy alone.
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["scipy"] = None
        sys.path.insert(0, sys.argv[1])
        import numpy as np, twistqkd
        for module in pkgutil.iter_modules(twistqkd.__path__):
            importlib.import_module("twistqkd." + module.name)
        from test_sdp import certified_random_problem
        from twistqkd.sdp import solve_sdp
        problem, expected = certified_random_problem(np.random.default_rng(109), 6, 4, rank=3)
        solution = solve_sdp(problem)
        print(solution.status, abs(solution.objective_value - expected) <= 1e-6 * (1 + abs(expected)))
    """)
    tests = str(Path(__file__).parent)
    proc = subprocess.run([sys.executable, "-c", code, tests], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "optimal True\n"


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

    def test_ez_one_limit(self):
        # at e_Z = 1 the phase term's weight 1 - e_Z is 0 and its h2 argument
        # 0/0: the term is dropped, not NaN
        expected = 1.0 - mp_entropy(0.75)
        assert six_state_rate(1.0, 1.0, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)

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

    @settings(max_examples=200, deadline=None)
    @given(windowed_rate_inputs())
    # within 1e-12 of e_z = 0 and of e_z = 1, where a limit taken early is off
    @example((1.0, 9e-13, 9e-13, 0.3, 1.0))
    @example((1.0, 9e-13, 0.0, 1.0, 1.5))
    @example((1.0, 1.0 - 5e-13, 0.4, 1.0, 1.0))
    @example((0.5, 1.0 - 5e-13, 1.0 - 5e-13, 1.0, 2.0))
    @example((1.0, 5e-324, 5e-324, 0.5, 1.0))
    # no detections is a rate of zero, not an error
    @example((0.0, 0.05, 0.0, 0.1, 1.0))
    @example((-0.0, 0.05, 0.0, 0.1, 1.0))
    def test_matches_the_written_formula(self, inputs):
        # The Bell-diagonal form the package evaluates equals the written
        # formula by entropy's grouping rule; the oracle evaluates the latter.
        assert six_state_rate(*inputs) == pytest.approx(
            mp_six_state_rate(*inputs), rel=0.0, abs=1e-14 * inputs[0]
        )

    @pytest.mark.parametrize("p_det00", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_detection_probability(self, p_det00):
        with pytest.raises(InvalidParamsError, match="^p_det00 must be nonnegative and finite"):
            six_state_rate(p_det00, 0.05, 0.0, 0.1)

    def test_rates_raise_no_floating_point_error(self):
        # rows at e_z = 0 and 1, and NaN rows: _rates checks no window, and a
        # NaN row gives a NaN rate, not a floating-point error
        with np.errstate(all="raise"):
            rate, raw = _rates(
                np.ones(4), np.array([0.0, 1.0, math.nan, 0.1]),
                np.array([[0.0, 0.5, 0.0, math.nan]]), np.array([[0.2, 1.0, 0.5, 0.5]]), 1.0,
            )
        np.testing.assert_allclose(rate[0, :2], [1.0 - mp_entropy(0.9), 1.0 - mp_entropy(0.75)],
                                   rtol=0.0, atol=1e-15)
        assert np.isnan(rate[0, 2:]).all() and np.isnan(raw[0, 2:]).all()

    @pytest.mark.parametrize("e_z, e_minus, e_plus, message", [
        (0.1, math.nan, 0.2, "e_minus = nan < 0"),
        (math.nan, 0.0, 0.2, "e_minus = 0.0 > e_z = nan"),
        (0.1, 0.0, math.nan, "e_plus = nan < e_z = 0.1"),
        (math.nan, math.nan, math.nan, "e_minus = nan < 0"),
    ])
    def test_rejects_nan(self, e_z, e_minus, e_plus, message):
        # NaN fails every window, so the first window that reads it refuses it
        with pytest.raises(InvalidPhaseError, match=f"^{re.escape(message)}$"):
            six_state_rate(1.0, e_z, e_minus, e_plus)


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


def stage_inputs(ens):
    """The twist stage's inputs for ``ens`` paired with itself at 50 km: both
    parties' key states, the node's Gram matrix, ``p_det00`` and ``e_z``."""
    stats = detection_stats(ens, ens, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=50.0))
    eve = solve_eve(build_gamma(ens, ens), stats)
    return (ens.key_states(), ens.key_states(), eve, *key_basis_stats(stats))


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


def ensemble_doc(ens, prior=None, entry=None):
    """The JSON text of ``ens`` with its first prior, or the first entry of
    its first matrix, replaced."""
    doc = json.loads(ensemble_to_json(ens))
    if prior is not None:
        doc["priors"][0] = prior
    if entry is not None:
        doc["rhos"][0][0][0] = entry
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, build",
    [
        ("eta", lambda ens: ChannelParams(eta="x", p_dark=0.0, distance_km=0.0)),
        ("p_dark", lambda ens: ChannelParams(eta=0.5, p_dark=None, distance_km=0.0)),
        ("delta", lambda ens: ModelParams(delta="x", depol=0.0)),
        ("prob", lambda ens: QubitState(np.eye(2) / 2, prob="x")),
        ("p_det", lambda ens: DetectionStats(p_det="abc")),
        ("f", lambda ens: keyrate_point(ens, ens, ChannelParams(0.5, 0.0, 0.0), f="x")),
        ("priors", lambda ens: model_states(ModelParams(delta=0.0, depol=0.0), priors="abcd")),
        ("eta", lambda ens: ScanConfig(deltas=0.0, depols=0.0, distances=0.0, eta="half",
                                       p_dark=0.0)),
        ("rho", lambda ens: QubitState(rho="x", prob=0.25)),
        ("prob", lambda ens: ensemble_from_json(ensemble_doc(ens, prior="a"))),
        ("rho", lambda ens: ensemble_from_json(ensemble_doc(ens, entry=["a", 0.0]))),
        ("e_plus", lambda ens: six_state_rate(0.1, 0.05, 0.01, "x")),
        ("binary entropy argument", lambda ens: binary_entropy("x")),
        # numpy reads None as NaN; a None entry is a missing number, not a bad value
        ("distances", lambda ens: ScanConfig(deltas=0.0, depols=0.0, distances=[10.0, None],
                                             eta=0.5, p_dark=0.0)),
        ("p_det", lambda ens: DetectionStats(p_det=[None] * 16)),
        ("priors", lambda ens: model_states(ModelParams(delta=0.1, depol=0.05),
                                            [0.25, None, 0.25, 0.5])),
        ("p_det00", lambda ens: TwistProblem(*stage_inputs(ens)[:3], "x", 0.1)),
        ("p_det00", lambda ens: TwistProblem(*stage_inputs(ens)[:3], None, 0.1)),
        ("e_z", lambda ens: TwistProblem(*stage_inputs(ens)[:4], "x")),
        ("p_det00", lambda ens: naive_phase_errors(*stage_inputs(ens)[:3], "x")),
    ],
    ids=["ChannelParams.eta", "ChannelParams.p_dark", "ModelParams.delta", "QubitState.prob",
         "DetectionStats.p_det", "keyrate_point.f", "model_states.priors", "ScanConfig.eta",
         "QubitState.rho", "ensemble_from_json.prior", "ensemble_from_json.rho",
         "six_state_rate", "binary_entropy", "ScanConfig.distances-None",
         "DetectionStats.p_det-None", "model_states.priors-None", "TwistProblem.p_det00",
         "TwistProblem.p_det00-None", "TwistProblem.e_z", "naive_phase_errors.p_det00"],
)
def test_non_numeric_parameters_are_typed(name, build):
    ens = model_states(ModelParams(delta=0.1, depol=0.05))
    with pytest.raises(InvalidParamsError, match=f"^{name} must be numeric, got "):
        build(ens)


def test_a_long_value_gives_a_short_message():
    # one bad entry among 100,001 distances: the message abbreviates the list
    distances = [float(d) for d in range(100_000)] + ["x"]
    with pytest.raises(InvalidParamsError, match="^distances must be numeric, got ") as info:
        ScanConfig(deltas=0.0, depols=0.0, distances=distances, eta=0.5, p_dark=0.0)
    assert len(str(info.value)) < 100


def test_nan_entries_are_not_finite_and_numeric_strings_convert():
    # the None check above leaves NaN to each field's finiteness rule
    with pytest.raises(InvalidParamsError, match="^distance_km must be finite, got nan"):
        ScanConfig(deltas=0.0, depols=0.0, distances=[10.0, math.nan], eta=0.5, p_dark=0.0)
    with pytest.raises(InvalidParamsError, match="^p_det entries must be finite"):
        DetectionStats(p_det=[math.nan] * 16)
    with pytest.raises(InvalidParamsError, match=r"^prob must be in \[0, 1\], got nan"):
        model_states(ModelParams(delta=0.1, depol=0.05), [0.25, math.nan, 0.25, 0.5])
    config = ScanConfig(deltas=0.0, depols=0.0, distances=["10", "20.5"], eta=0.5, p_dark=0.0)
    assert config.distances.tolist() == [10.0, 20.5]
    assert DetectionStats(p_det=["0.01"] * 16).p_det.tolist() == [0.01] * 16
    priors = model_states(ModelParams(delta=0.1, depol=0.05), ["0.25"] * 4).priors
    assert priors.tolist() == [0.25] * 4


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig.from_dict(base_config())
        assert cfg.deltas == (0.1,)
        assert cfg.depols == (0.05,)
        np.testing.assert_allclose(cfg.distances, [0.0, 20.0, 40.0])
        assert cfg.f == 1.0
        assert cfg.priors_alice == (0.25, 0.25, 0.25, 0.25)

    def test_grid_lists(self):
        cfg = ScanConfig.from_dict(base_config(delta=[0.0, 0.1], depol=[0.01, 0.05]))
        assert cfg.deltas == (0.0, 0.1)
        assert cfg.depols == (0.01, 0.05)

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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"eta": None}, "eta"),
            ({"p_dark": None}, "p_dark"),
            ({"atten_divisor": None}, "atten_divisor"),
            ({"distance": None}, "distance"),
            ({"f": "x"}, "f"),
            ({"priors": [0.25, None, 0.25, 0.25]}, "priors_alice"),
            ({"priors": {"alice": "abcd", "bob": [0.25] * 4}}, "priors_alice"),
            ({"delta": None}, "deltas"),
            ({"depol": ["a"]}, "depols"),
            ({"distance": {"min": "a", "max": 10.0, "step": 1.0}}, "distance min"),
            ({"eta": 10**400}, "eta"),  # an int beyond the float range
        ],
    )
    def test_config_errors_name_their_field(self, overrides, field):
        with pytest.raises(InvalidParamsError, match=f"^{field} must be numeric, got "):
            ScanConfig.from_dict(base_config(**overrides))

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"p_dark": 1e-5, "distance": 10.0}, "eta"),
            (base_config(priors={"alice": [0.25] * 4}), "priors.bob"),
            (base_config(priors={"bob": [0.25] * 4}), "priors.alice"),
            (base_config(distance={"min": 0, "max": 10}), "distance.step"),
            (base_config(distance={"max": 10, "step": 1}), "distance.min"),
        ],
    )
    def test_missing_fields_are_named_with_their_parent(self, doc, field):
        with pytest.raises(InvalidParamsError, match=f"^config missing required field '{field}'$"):
            ScanConfig.from_dict(doc)

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
        with pytest.raises(InvalidParamsError, match=r"distances must be a flat list"):
            ScanConfig(deltas=0.0, depols=0.0, distances=[[0.0, 10.0]], eta=0.5, p_dark=0.0)
        for priors, message in (
            ((0.5, 0.5), r"priors must have length 4"),
            ((0.5, 0.5, 0.5, 0.5), r"send probabilities sum to 2.0"),
            ((0.75, 0.5, -0.25, 0.0), r"prob must be in \[0, 1\], got -0.25"),
        ):
            with pytest.raises(InvalidParamsError, match=message):
                ScanConfig(deltas=0.0, depols=0.0, distances=0.0, eta=0.5, p_dark=0.0,
                           priors_bob=priors)
        ens = model_states(ModelParams(delta=0.07, depol=0.02))
        with pytest.raises(InvalidParamsError, match="bob_states given without alice_states"):
            ScanConfig(deltas=0.0, depols=0.0, distances=0.0, eta=0.5, p_dark=0.0, bob_states=ens)
        alice_only = ScanConfig(
            deltas=0.0, depols=0.0, distances=0.0, eta=0.5, p_dark=0.0, alice_states=ens
        )
        assert alice_only.bob_states is ens
        assert [row.status for row in scan(alice_only)] == ["ok"]

    @pytest.mark.parametrize("explicit", [False, True])
    @pytest.mark.parametrize("empty", ["deltas", "depols", "distances"])
    def test_empty_grid_is_rejected(self, empty, explicit):
        grid = {"deltas": 0.0, "depols": 0.0, "distances": 0.0, empty: []}
        states = {"alice_states": model_states(ModelParams(delta=0.07, depol=0.02))}
        with pytest.raises(InvalidParamsError, match="scan grid must be nonempty"):
            ScanConfig(**grid, eta=0.5, p_dark=0.0, **(states if explicit else {}))

    def test_is_immutable(self):
        cfg = ScanConfig(deltas=0.0, depols=0.0, distances=0.0, eta=0.5, p_dark=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.deltas = [0.1]

    def test_channel_fields_are_stored_as_floats(self):
        # like deltas, depols and f: numeric strings and ints become floats,
        # so the config equals the float config it evaluates identically to
        grid = dict(deltas=0.0, depols=0.0, distances=10.0)
        cfg = ScanConfig(**grid, eta="0.5", p_dark=0, atten_db_per_km=1, atten_divisor="20")
        for name in ("eta", "p_dark", "atten_db_per_km", "atten_divisor", "f"):
            assert type(getattr(cfg, name)) is float, name
        assert cfg == ScanConfig(**grid, eta=0.5, p_dark=0.0, atten_db_per_km=1.0)

    def test_equality_compares_the_distances_by_value(self):
        grid = dict(deltas=[0.0, 0.1], depols=0.0, eta=0.5, p_dark=0.0)
        cfg = ScanConfig(**grid, distances=[10.0, 20.0])
        same = ScanConfig(**grid, distances=np.array([10, 20]))
        assert cfg == same and not cfg != same
        for other in (ScanConfig(**grid, distances=[10.0, 30.0]),
                      ScanConfig(**grid, distances=[10.0, 20.0, 30.0]),
                      ScanConfig(**grid, distances=[10.0, 20.0], f=1.2)):
            assert cfg != other and not cfg == other
        assert cfg != "config"
        assert type(cfg.distances) is np.ndarray and not cfg.distances.flags.writeable

    def test_not_hashable(self):
        # equal configs must hash equal, and the distances array has no value hash
        cfg = ScanConfig(deltas=0.0, depols=0.0, distances=[10.0, 20.0], eta=0.5, p_dark=0.0)
        with pytest.raises(TypeError, match="unhashable type: 'ScanConfig'"):
            hash(cfg)

    def test_grid_values_cannot_be_edited_in_place(self):
        # the labels scan gives its rows must stay those of the ensembles
        # and distances the constructor checked and built
        distances = np.array([0.0, 50.0])
        cfg = ScanConfig(deltas=[0.0, 0.1], depols=[0.02], distances=distances, eta=0.5,
                         p_dark=1e-5)
        before = [(r.delta, r.depol, r.distance_km, r.result.rate_twisted) for r in scan(cfg)]
        distances[0] = -50.0
        assert [(r.delta, r.depol, r.distance_km, r.result.rate_twisted)
                for r in scan(cfg)] == before
        with pytest.raises(ValueError, match="read-only"):
            cfg.distances[0] = -50.0
        with pytest.raises(TypeError):
            cfg.deltas[0] = 0.3
        with pytest.raises(TypeError):
            cfg.depols[0] = 0.3

    def test_explicit_states(self):
        ens = model_states(ModelParams(delta=0.07, depol=0.02))
        doc = base_config(alice_states=json.loads(ensemble_to_json(ens)))
        cfg = ScanConfig.from_dict(doc)
        assert cfg.bob_states is cfg.alice_states
        rho, priors = cfg._ensembles
        for party in range(2):
            np.testing.assert_allclose(rho[party, 0], ens.rho, atol=1e-15)
            np.testing.assert_array_equal(priors[party, 0], ens.priors)

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

        def decline(alice, bob, channel, distances, **kwargs):
            rows = len(alice[0]) * len(distances)
            fields, diagnostics = np.full((7, rows), np.nan), np.full((10, rows), np.nan)
            return fields, diagnostics, [InvalidPhaseError("e_plus = 1.5 > 1")] * rows

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

        def counted(alice, bob, channel, distances, **kwargs):
            calls.append((len(alice[0]), len(bob[0]), len(distances)))
            return kernel(alice, bob, channel, distances, **kwargs)

        monkeypatch.setattr(keyrate_module, "_evaluate", counted)
        doc = base_config(delta=[0.0, 0.1], depol=[0.01, 0.05, 0.1])
        if explicit:
            ens = model_states(ModelParams(delta=0.07, depol=0.02))
            doc["alice_states"] = json.loads(ensemble_to_json(ens))
        rows = scan(ScanConfig.from_dict(doc))
        assert calls == [(6, 6, 3)]
        assert [r.status for r in rows] == ["ok"] * 18

    @pytest.mark.parametrize("kind", ["model", "explicit", "stats_csv"])
    def test_chunks_give_the_one_chunk_rows_bitwise(self, tmp_path, monkeypatch, kind):
        # nine pairs at six distances: chunks of 13 rows hold two pairs, so
        # five kernel calls, the last one ragged, give the one call's rows
        import twistqkd.keyrate as keyrate_module

        doc = base_config(delta=[0.0, 0.05, 0.1], depol=[0.0, 0.02, 0.05],
                          distance={"min": 0.0, "max": 150.0, "step": 30.0},
                          priors={"alice": [0.25] * 4, "bob": [0.3, 0.2, 0.25, 0.25]})
        if kind == "explicit":
            rng = np.random.default_rng(29)
            doc["alice_states"], doc["bob_states"] = (
                json.loads(ensemble_to_json(random_ensemble(rng))) for _ in range(2)
            )
        elif kind == "stats_csv":
            # the statistics of the grid's pair (0.05, 0.02) at 60 km
            alice, bob = (model_states(ModelParams(delta=0.05, depol=0.02), doc["priors"][name])
                          for name in ("alice", "bob"))
            path = tmp_path / "stats.csv"
            detection_stats(alice, bob, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=60.0)
                            ).to_csv(path)
            doc["stats_csv"] = str(path)
        config = ScanConfig.from_dict(doc)

        def bits(rows):
            return [
                (*(v.hex() for v in (r.delta, r.depol, r.distance_km)), r.status, r.error,
                 None if r.result is None else [
                     v.hex() for v in (*dataclasses.astuple(r.result)[:-1],
                                       *r.result.diagnostics.values())
                 ])
                for r in rows
            ]

        whole = bits(scan(config))
        calls = []
        kernel = keyrate_module._evaluate

        def counted(rho, priors, *args, **kwargs):
            calls.append(rho.shape[1])
            return kernel(rho, priors, *args, **kwargs)

        monkeypatch.setattr(keyrate_module, "_evaluate", counted)
        monkeypatch.setattr(keyrate_module, "_CHUNK_ROWS", 13)
        assert bits(scan(config)) == whole
        assert calls == [2, 2, 2, 2, 1]
        statuses = {row[3] for row in whole}
        assert statuses == ({"ok", "UnphysicalStatsError"} if kind == "stats_csv" else {"ok"})

    def test_reads_the_grid_built_at_construction(self, monkeypatch):
        import twistqkd.keyrate as keyrate_module
        import twistqkd.states as states_module

        doc = base_config(delta=[0.0, 0.1], depol=[0.01, 0.05],
                          priors={"alice": [0.25] * 4, "bob": [0.3, 0.2, 0.25, 0.25]})
        cfg = ScanConfig.from_dict(doc)
        expected = [r.result.rate_twisted for r in scan(cfg)]

        def rebuilt(*args, **kwargs):
            raise AssertionError("scan built or checked the grid's ensembles again")

        for module in (keyrate_module, states_module):
            monkeypatch.setattr(module, "_model_grid", rebuilt)
        monkeypatch.setattr(states_module, "_check_states", rebuilt)
        assert [r.result.rate_twisted for r in scan(cfg)] == expected

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


def csv_writer_reference(rows) -> bytes:
    """The CSV bytes that ``csv.writer`` gives for scan rows, each number
    formatted as ``f"{v:.12g}"``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        r = row.result
        numbers = [row.delta, row.depol, row.distance_km] + (
            [math.nan] * 7 if r is None else
            [r.p_det00, r.e_z, r.e_minus, r.e_plus, r.rate_naive, r.rate_twisted, r.pct_gain]
        )
        writer.writerow([f"{v:.12g}" for v in numbers] + [row.error, row.status])
    return buffer.getvalue().encode()


class TestScanCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        # a singular row (its message holds commas), a row whose pct_gain is
        # inf (the baseline rate is 0), NaN values and signed zeros, and
        # messages that need quotes
        rows = scan(ScanConfig.from_dict(base_config(delta=[0.0, 0.1], depol=[0.0, 0.05])))
        coplanar = json.loads(ensemble_to_json(coplanar_ensemble(np.random.default_rng(7))))
        singular = scan(ScanConfig.from_dict(base_config(alice_states=coplanar, distance=10.0)))
        assert singular[0].status == "SingularGammaError" and "," in singular[0].error
        ok = rows[-1].result
        special = [
            dataclasses.replace(ok, rate_naive=0.0, pct_gain=math.inf),
            dataclasses.replace(ok, e_minus=-0.0, rate_naive=-0.0, pct_gain=-math.inf),
            dataclasses.replace(ok, e_plus=math.nan, rate_twisted=1e-300, p_det00=1.2345e14),
        ]
        rows += singular + [ScanRow(-0.0, 0.0, 1e-7, r, "ok") for r in special] + [
            ScanRow(0.1, 0.05, 30.0, None, "InvalidPhaseError", 'e_plus = "1.5" > 1'),
            ScanRow(0.1, 0.05, 40.0, None, "QkdError", "two\nlines\rand a, comma"),
            ScanRow(math.nan, math.inf, -math.inf, None, "NoDetectionsError", ""),
        ]
        path = tmp_path / "out.csv"
        scan_to_csv(rows, path)
        assert path.read_bytes() == csv_writer_reference(rows)

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
