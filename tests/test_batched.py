"""Properties of the batched pipeline: a scan row is the point it stands
for, whatever else shares its kernel call."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bloch_state, coplanar_ensemble, node_stats, random_ensemble, random_pass_operator
)
from test_keyrate import mp_six_state_raw, mp_six_state_rate
from twistqkd.channel import (
    ChannelParams,
    DetectionStats,
    _detection_rows,
    build_gamma,
    detection_stats,
    photon_loss,
)
from twistqkd.errors import (
    InvalidParamsError,
    InvalidPhaseError,
    NoDetectionsError,
    QkdError,
    SingularGammaError,
    UnphysicalStatsError,
)
from twistqkd.evegram import (
    _invert_factors,
    _matrix_to_vector,
    _solve_rows,
    _vector_to_matrix,
    key_basis_stats,
    solve_eve,
)
from twistqkd.keyrate import (
    KeyRateResult,
    ScanConfig,
    _evaluate,
    _result,
    keyrate_point,
    scan,
    six_state_rate,
)
from twistqkd.states import (
    ModelParams,
    QubitState,
    SignalEnsemble,
    model_states,
    tetrahedron_check,
)
from twistqkd.twist import TwistProblem, naive_phase_errors, optimize_phase_errors

ETA, P_DARK = 0.5, 1e-5
FIELDS = ("p_det00", "e_z", "e_minus", "e_plus", "rate_twisted", "rate_naive", "pct_gain")
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

deltas = st.lists(st.floats(0.0, 0.2), min_size=1, max_size=2)
depols = st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 0.1)), min_size=1, max_size=2)
distances = st.lists(st.floats(0.0, 150.0), min_size=1, max_size=20)
seeds = st.integers(0, 2**32 - 1)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (math.isnan(a) and math.isnan(b))


def assert_row_is_point(row, evaluate):
    """``row`` has the status, message and values of ``evaluate()``."""
    try:
        direct = evaluate()
    except QkdError as exc:
        assert (row.status, row.error, row.result) == (type(exc).__name__, str(exc), None)
        return
    assert (row.status, row.error) == ("ok", "")
    for name in FIELDS:
        assert close(getattr(row.result, name), getattr(direct, name)), name
    assert row.result.diagnostics.keys() == direct.diagnostics.keys()
    for key, value in direct.diagnostics.items():
        assert close(row.result.diagnostics[key], value), key


def outcomes(columns):
    """Per row of the kernel's columns, its :class:`KeyRateResult` or error."""
    fields, diagnostics, errors = columns
    return [
        error if error is not None else _result(values, diag)
        for values, diag, error in zip(fields.T.tolist(), diagnostics.T.tolist(), errors)
    ]


def model_config(delta_list, depol_list, distance_list):
    return ScanConfig(
        deltas=delta_list, depols=depol_list, distances=distance_list, eta=ETA, p_dark=P_DARK
    )


def asym_config(seed, distance_list):
    """Scan config of a random asymmetric pair with injected statistics."""
    rng = np.random.default_rng(seed)
    alice, bob = random_ensemble(rng), random_ensemble(rng)
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=rng.uniform(0.0, 150.0))
    return ScanConfig(
        deltas=[0.0], depols=[0.0], distances=distance_list, eta=ETA, p_dark=P_DARK,
        alice_states=alice, bob_states=bob, stats=detection_stats(alice, bob, channel),
    )


@PROPERTY_SETTINGS
@given(deltas, depols, distances)
def test_model_scan_rows_match_points(delta_list, depol_list, distance_list):
    config = model_config(delta_list, depol_list, distance_list)
    for row in scan(config):
        ens = model_states(ModelParams(delta=row.delta, depol=row.depol))
        channel = config.channel_for(row.distance_km)
        assert_row_is_point(row, lambda: keyrate_point(ens, ens, channel))


@PROPERTY_SETTINGS
@given(seeds, distances)
def test_injected_stats_scan_rows_match_points(seed, distance_list):
    config = asym_config(seed, distance_list)
    for row in scan(config):
        channel = config.channel_for(row.distance_km)
        assert_row_is_point(
            row,
            lambda: keyrate_point(
                config.alice_states, config.bob_states, channel, stats=config.stats
            ),
        )


@PROPERTY_SETTINGS
@given(deltas, depols, distances, seeds)
def test_ok_rows_respect_the_rate_windows(delta_list, depol_list, distance_list, seed):
    rows = scan(model_config(delta_list, depol_list, distance_list))
    rows += scan(asym_config(seed, distance_list[:1]))
    for row in rows:
        if row.status != "ok":
            continue
        r = row.result
        assert 0.0 <= r.e_minus <= r.e_z <= r.e_plus <= 1.0
        assert r.rate_twisted >= r.rate_naive - 1e-9


def random_pair_rows(seed, distance_list):
    """The kernel's outcomes for a random ensemble pair drawn from ``seed``:
    under the honest node at each distance, then under one random pass
    operator scaled by the two-photon transmission of each distance."""
    rng = np.random.default_rng(seed)
    alice, bob = random_ensemble(rng), random_ensemble(rng)
    stacks = np.array((alice.rho, bob.rho))[:, None], np.array((alice.priors, bob.priors))[:, None]
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=0.0)
    rows = outcomes(_evaluate(*stacks, channel, distance_list, f=1.0, stats=None))
    node = random_pass_operator(rng)
    for distance in distance_list:
        arm = 1.0 - photon_loss(ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=distance))
        stats = DetectionStats(p_det=node_stats(alice, bob, arm**2 * node))
        rows += outcomes(_evaluate(*stacks, channel, [distance], f=1.0, stats=stats))
    return rows


@PROPERTY_SETTINGS
@given(seeds, distances)
def test_no_row_leaves_the_rate_windows(seed, distance_list):
    # The twisted values enter the windows through their min and max with
    # e_z, and the baseline through the formula's symmetries, so no kernel
    # row fails a window; the twist dominates the baseline on every row
    # (||X||_1 >= |Re tr X|), and the rate is monotone in each phase error.
    for row in random_pair_rows(seed, distance_list):
        assert not isinstance(row, InvalidPhaseError), row
        if isinstance(row, KeyRateResult):
            assert 0.0 <= row.e_minus <= row.e_z <= row.e_plus <= 1.0
            assert row.rate_twisted >= row.rate_naive


def test_a_reflected_baseline_is_the_written_formula_at_its_raw_value():
    # Where the baseline's e_plus lies in (1, 2 - e_z), the written formula
    # is defined at that raw value, and by its symmetry about e_plus = 1 it
    # equals the rate the kernel evaluates at 2 - e_plus; the signed
    # e_minus enters as computed (the formula is even in it).
    reflected = []

    @PROPERTY_SETTINGS
    @given(seeds, distances)
    def rows_are_the_formula(seed, distance_list):
        for row in random_pair_rows(seed, distance_list):
            if not isinstance(row, KeyRateResult):
                continue
            d, z = row.diagnostics, row.e_z
            if not 1.0 < d["naive_e_plus"] < 2.0 - z:
                continue
            reflected.append(row)
            inputs = (row.p_det00, z, min(max(d["naive_e_minus_signed"], -z), z),
                      d["naive_e_plus"], 1.0)
            tol = 1e-14 * row.p_det00
            assert abs(d["rate_naive_raw"] - mp_six_state_raw(*inputs)) <= tol
            assert abs(row.rate_naive - mp_six_state_rate(*inputs)) <= tol

    rows_are_the_formula()
    assert reflected


@PROPERTY_SETTINGS
@given(deltas, depols, distances, seeds, st.sampled_from([1.0, 1.16]))
def test_ok_rows_are_the_six_state_rate_of_their_values(
    delta_list, depol_list, distance_list, seed, f
):
    # the kernel evaluates the twisted and the baseline values of all rows
    # as one stack; each rate is the one-point formula on its row's values,
    # bit for bit, the baseline's read by the formula's symmetries (|e_minus|,
    # e_plus above 1 reflected to 2 - e_plus) and moved into the windows
    model = ScanConfig(
        deltas=delta_list, depols=depol_list, distances=distance_list, eta=ETA, p_dark=P_DARK, f=f
    )
    asym = asym_config(seed, distance_list[:1])
    asym = ScanConfig(
        deltas=[0.0], depols=[0.0], distances=asym.distances, eta=ETA, p_dark=P_DARK, f=f,
        alice_states=asym.alice_states, bob_states=asym.bob_states, stats=asym.stats,
    )
    for row in scan(model) + scan(asym):
        if row.status != "ok":
            continue
        r, d = row.result, row.result.diagnostics
        naive_minus = min(abs(d["naive_e_minus_signed"]), r.e_z)
        plus = d["naive_e_plus"]
        naive_plus = max(2.0 - plus if plus > 1.0 else plus, r.e_z)
        assert r.rate_twisted == six_state_rate(r.p_det00, r.e_z, r.e_minus, r.e_plus, f)
        assert r.rate_naive == six_state_rate(r.p_det00, r.e_z, naive_minus, naive_plus, f)


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.1, 1.0), st.floats(0.0, 0.01), distances)
def test_gram_solve_reproduces_the_statistics(seed, eta, p_dark, distance_list):
    # one kernel call over a distance axis: every row solves its own
    # statistics and is the single-row solve of them
    rng = np.random.default_rng(seed)
    alice, bob = random_ensemble(rng), random_ensemble(rng)
    channel = ChannelParams(eta=eta, p_dark=p_dark, distance_km=0.0)
    gamma = build_gamma(alice, bob)
    p_det = _detection_rows(gamma.RA, gamma.RB, alice.priors, bob.priors, channel, distance_list)
    errors = [None] * len(distance_list)
    cond = np.array([[gamma.cond_alice], [gamma.cond_bob]])
    R_inv = _invert_factors(np.array((gamma.RA, gamma.RB))[:, None], cond, errors)
    E, clipped, raw = _solve_rows(*R_inv, p_det, errors)
    for i, distance in enumerate(distance_list):
        stats = detection_stats(alice, bob, ChannelParams(eta, p_dark, distance))
        np.testing.assert_allclose(p_det[i], stats.p_det, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(gamma.gamma @ raw[i] - p_det[i])) <= 1e-10
        assert errors[i] is None
        eve = solve_eve(gamma, stats)
        np.testing.assert_allclose(raw[i], eve.raw, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(E[i], eve.e_matrix, rtol=0.0, atol=1e-12)
        assert clipped[i] == eve.clipped_mass


def bits(*values):
    """The bit patterns of float values: equal iff the values are bitwise equal."""
    return [float(v).hex() for v in values]


@PROPERTY_SETTINGS
@given(seeds, st.floats(0.1, 1.0), st.floats(0.0, 0.01), distances)
def test_stage_api_and_kernel_are_one_code_path(seed, eta, p_dark, distance_list):
    # each ok row of the kernel holds, bit for bit, what the single-point
    # stage functions give for its pair and distance
    rng = np.random.default_rng(seed)
    alice, bob = random_ensemble(rng), random_ensemble(rng)
    gamma = build_gamma(alice, bob)
    alice_key, bob_key = alice.key_states(), bob.key_states()
    for distance in distance_list:
        channel = ChannelParams(eta=eta, p_dark=p_dark, distance_km=distance)
        try:
            r = keyrate_point(alice, bob, channel)
        except QkdError:
            continue
        d = r.diagnostics
        stats = detection_stats(alice, bob, channel)
        eve = solve_eve(gamma, stats)
        p00, e_z = key_basis_stats(stats)
        twisted = optimize_phase_errors(
            TwistProblem.from_key_states(alice_key, bob_key, eve, p00, e_z)
        )
        naive = naive_phase_errors(alice_key, bob_key, eve, p00)
        assert bits(d["cond_alice"], d["cond_bob"], d["gamma_cond"]) == bits(
            gamma.cond_alice, gamma.cond_bob, gamma.cond
        )
        assert bits(d["cond_alice"]) == bits(tetrahedron_check(alice).cond)
        assert bits(d["clipped_mass"]) == bits(eve.clipped_mass)
        assert bits(r.p_det00, r.e_z) == bits(p00, e_z)
        assert bits(r.e_minus, r.e_plus, d["twist_bound_minus"]) == bits(
            twisted.e_minus, twisted.e_plus, twisted.bound_minus
        )
        assert bits(d["naive_e_minus_signed"], d["naive_e_plus"]) == bits(
            naive.e_minus, naive.e_plus
        )


def test_vector_to_matrix_index_map():
    # the reshape against the index map it replaces
    v = np.arange(16) + 1j * np.arange(16, 32)
    E = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        for mp in range(2):
            for n in range(2):
                for np_ in range(2):
                    E[2 * m + n, 2 * mp + np_] = v[8 * m + 4 * mp + 2 * n + np_]
    np.testing.assert_array_equal(_vector_to_matrix(v), E)
    np.testing.assert_array_equal(_vector_to_matrix(np.stack([v, 2 * v]))[1], 2 * E)


def test_every_repaired_row_warns():
    # statistics of a Gram matrix with a -1e-6 eigenvalue: each row's
    # repair warns, as a single point's does
    ens = model_states(ModelParams(delta=0.0, depol=0.0))
    phi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)
    bad = 0.01 * np.eye(4) - (0.01 + 1e-6) * np.outer(phi_minus, phi_minus)
    stats = DetectionStats(p_det=(build_gamma(ens, ens).gamma @ _matrix_to_vector(bad)).real)
    config = ScanConfig(
        deltas=[0.0], depols=[0.0], distances=[0.0, 10.0, 20.0], eta=ETA, p_dark=P_DARK,
        alice_states=ens, bob_states=ens, stats=stats,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan(config)
    assert [w.category for w in caught] == [RuntimeWarning] * 3
    assert all("clipped eigenvalue mass 1.000e-06" in str(w.message) for w in caught)


def test_bad_pairs_fail_only_their_own_rows():
    # one kernel call over a good pair, a coplanar pair and a pair with a
    # zero key-state prior, each at three distances: every row is its own
    # point
    good = model_states(ModelParams(delta=0.1, depol=0.05))
    s0, s1, s2, s3 = good.states
    zero_prior = SignalEnsemble(
        states=(s0, QubitState(rho=s1.rho, prob=0.0), QubitState(rho=s2.rho, prob=0.5), s3)
    )
    alices = (good, coplanar_ensemble(np.random.default_rng(181)), good)
    bobs = (good, good, zero_prior)
    stacks = [  # rho and priors, each party-first: (2, M, ...)
        np.array([[getattr(e, name) for e in ensembles] for ensembles in (alices, bobs)])
        for name in ("rho", "priors")
    ]
    distance_list = [0.0, 40.0, 120.0]
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=0.0)
    rows = outcomes(_evaluate(*stacks, channel, distance_list, f=1.0, stats=None))
    assert len(rows) == 9
    failed = set()
    for (m, distance), row in zip(itertools.product(range(3), distance_list), rows):
        try:
            direct = keyrate_point(
                alices[m], bobs[m], ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=distance)
            )
        except QkdError as exc:
            assert (type(row), str(row)) == (type(exc), str(exc))
            failed.add((m, type(exc)))
            continue
        for name in FIELDS:
            assert close(getattr(row, name), getattr(direct, name)), name
        assert row.diagnostics.keys() == direct.diagnostics.keys()
        for key, value in direct.diagnostics.items():
            assert close(row.diagnostics[key], value), key
    # a zero prior zeroes a row of the state matrix, so that pair is singular too
    assert failed == {(1, SingularGammaError), (2, SingularGammaError)}


def test_scan_memory_does_not_grow_with_copies_per_row():
    # every per-pair array broadcasts over its pair's distances instead of
    # being copied into each row, so what a scan allocates beyond the rows
    # it returns stays below 1000 B per row (about 540 B on numpy 2.4)
    config = model_config([0.1], [0.05], np.linspace(0.0, 150.0, 1000))
    scan(config)
    tracemalloc.start()
    try:
        rows = scan(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - held) / len(rows) < 1000



def test_each_row_keeps_its_first_error_across_stages_and_windows(monkeypatch):
    # One kernel call over a good pair and a coplanar one at eight distances.
    # The stage functions bound in the kernel's module are patched so that
    # the good pair's rows fail in different stages, one in two at once, and
    # so that rows 4-7 carry phase errors outside the rate windows, the
    # twisted and the baseline's together in rows 6 and 7.  Every row keeps
    # the first error of the pipeline order (singular, Gram solve, key
    # statistics).  The kernel checks no window: rows 4-7 are results, each
    # rate the formula on its values moved into the windows.  Only
    # six_state_rate checks windows, and it refuses those values by the
    # first window in its order.
    import twistqkd.keyrate as keyrate_module

    good = model_states(ModelParams(delta=0.1, depol=0.05))
    alices = (good, coplanar_ensemble(np.random.default_rng(181)))
    stacks = [  # rho and priors, each party-first: (2, M, ...)
        np.array([[getattr(e, name) for e in ensembles] for ensembles in (alices, (good, good))])
        for name in ("rho", "priors")
    ]
    stages = {name: getattr(keyrate_module, name) for name in
              ("_detection_rows", "_key_rows", "_phase_error_rows")}

    def detection_rows(*args):
        p_det = stages["_detection_rows"](*args)
        p_det[1] = np.linspace(0.0, 0.02, 16)  # statistics no channel gives
        return p_det

    def key_rows(p_det):
        p00, e_z = stages["_key_rows"](p_det)
        p00[2] = 0.0
        e_z[3] = 1.5
        return p00, e_z

    def phase_error_rows(*args):
        e_minus, e_plus, bound_minus, bound_plus, signed, plus = stages["_phase_error_rows"](*args)
        e_minus[[1, 2, 3, 4, 8]] = -0.1
        e_plus[6] = 1.5
        e_minus[7], e_plus[7] = 0.9, 1.5
        plus[5] = 1.25
        plus[6] = plus[7] = 0.0
        return e_minus, e_plus, bound_minus, bound_plus, signed, plus

    for name, patch in (("_detection_rows", detection_rows), ("_key_rows", key_rows),
                        ("_phase_error_rows", phase_error_rows)):
        monkeypatch.setattr(keyrate_module, name, patch)
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=0.0)
    rows = outcomes(keyrate_module._evaluate(
        *stacks, channel, np.linspace(0.0, 140.0, 8), f=1.0, stats=None
    ))
    assert [(type(row), str(row)) for row in rows[2:4]] == [
        (NoDetectionsError, "key-basis detection probability is zero"),
        (InvalidParamsError, "e_z must be in [0, 1], got 1.5"),
    ]
    assert isinstance(rows[0], KeyRateResult)
    assert type(rows[1]) is UnphysicalStatsError
    assert str(rows[1]).startswith("PSD repair removed eigenvalue mass")
    assert all(type(row) is SingularGammaError for row in rows[8:])
    assert all(isinstance(row, KeyRateResult) for row in rows[4:8])
    refused = []
    for r in rows[4:8]:
        d = r.diagnostics
        plus = d["naive_e_plus"]
        read = 2.0 - plus if plus > 1.0 else plus
        # each purification's rate, its values, and its e_plus as the rate reads it
        for rate, e_minus, e_plus, read_plus in (
            (r.rate_twisted, r.e_minus, r.e_plus, r.e_plus),
            (r.rate_naive, abs(d["naive_e_minus_signed"]), plus, read),
        ):
            try:
                six_state_rate(r.p_det00, r.e_z, e_minus, e_plus)
                refused.append(None)
            except InvalidPhaseError as exc:
                refused.append(str(exc))
            inside = min(max(e_minus, 0.0), r.e_z), min(max(read_plus, r.e_z), 1.0)
            assert rate == six_state_rate(r.p_det00, r.e_z, *inside)
    z6, z7 = rows[6].e_z, rows[7].e_z
    assert refused == [
        "e_minus = -0.1 < 0", None,
        None, "e_plus = 1.25 > 1",
        "e_plus = 1.5 > 1", f"e_plus = 0.0 < e_z = {z6}",
        f"e_minus = 0.9 > e_z = {z7}", f"e_plus = 0.0 < e_z = {z7}",
    ]


# The columns of the ok rows of test_kernel_columns_are_pinned's batch:
# the 7 fields, then the 10 diagnostics, as stored from one run.
PINNED_OK_ROWS = (
    (0.0062369176889509196, 0.002577824032261339, 0.0024914781695832824, 0.002664169894939339,
     0.006069224832508517, 0.006069224832508517, 0.0, 9.305422402622783, 3.0504790447768664,
     3.0504790447768664, 0.0, 0.0024914781695832824, 0.002664169894939339, 0.006069224832508517,
     0.006069224832508517, -0.002491478169583282, 0.002664169894939228),
    (9.902210819364102e-05, 0.0034499988390077176, 0.0024892995489918432, 0.004410698129023505,
     9.494425964852804e-05, 9.494425964852804e-05, 0.0, 9.305422402622783, 3.0504790447768664,
     3.0504790447768664, 0.0, 0.0024892995489918432, 0.004410698129023505, 9.494425964852804e-05,
     9.494425964852804e-05, -0.0024892995489918415, 0.004410698129023616),
    (0.00623540275387111, 0.05096741705500083, 0.05088947098098538, 0.051049366751511616,
     0.0044171265074668875, 0.004332375051242949, 1.9562354417959047, 10.058432056971283,
     3.1715031226488306, 3.1715031226488306, 0.0, 0.05088947098098538, 0.051049366751511616,
     0.0044171265074668875, 0.004332375051242949, 0.04613984028382505, 0.05105378389601467),
    (9.899809809069091e-05, 0.05175493701041359, 0.050887695619294085, 0.05266672232624736,
     6.899151115516398e-05, 6.774724424515794e-05, 1.8366310303388722, 10.058432056971283,
     3.1715031226488306, 3.1715031226488306, 0.0, 0.050887695619294085, 0.05266672232624736,
     6.899151115516398e-05, 6.774724424515794e-05, 0.04605672911046028, 0.05271586929974248),
    (0.0070704228170454485, 0.4974052790359839, 0.47519463177673715, 0.5054896384281184, 0.0,
     0.0, 0.0, 534.8244809804412, 13.973230604622492, 38.27493413037323, 0.0,
     0.47519463177673715, 0.5054896384281184, -0.00078248260840992, -0.004323657257149329,
     -0.12944810696120887, 0.5452233897912351),
    (0.00011225060566931974, 0.49742150892867276, 0.4751685587115874, 0.50556579513898, 0.0,
     0.0, 0.0, 534.8244809804412, 13.973230604622492, 38.27493413037323, 0.0,
     0.4751685587115874, 0.50556579513898, -1.2459110727071301e-05, -6.869593096642367e-05,
     -0.12949811483709553, 0.5454604532122814),
    (0.006294611989032655, 0.4891997810118589, 0.4587637744547226, 0.5089873220700982, 0.0, 0.0,
     0.0, 409.71625538078075, 22.28697303396669, 18.38366541550297, 0.0, 0.4587637744547226,
     0.5089873220700982, -0.0010568298151079876, -0.005135945738570835, 0.18743484309248953,
     1.2947245578380204),
    (9.993453878255919e-05, 0.48923912200928577, 0.4586747527138667, 0.509159146964965, 0.0,
     0.0, 0.0, 409.71625538078075, 22.28697303396669, 18.38366541550297, 0.0,
     0.4586747527138667, 0.509159146964965, -1.6848005385876517e-05, -8.159376984108036e-05,
     0.18721478353534704, 1.2942802843298193),
)
_SINGULAR = (
    "Alice's ensemble fails the tetrahedron condition: state matrix condition number "
    "1.087e+10 is not below 1e+09, so detection statistics cannot determine the Gram matrix"
)
# Each row's error, by class and message; None for the ok rows above.
PINNED_ERRORS = (None,) * 8 + (
    (SingularGammaError, _SINGULAR),
    (SingularGammaError, _SINGULAR),
)
_NUMBER = re.compile(r"-?\d+\.?\d*(?:e[+-]\d+)?")


def test_kernel_columns_are_pinned():
    # One kernel call over five pairs at two distances: a pure model pair,
    # a mixed one, two seeded asymmetric pairs under the honest node (the
    # statistics point_asym injects), one of which has a baseline e_plus
    # above 1, read reflected, and a pair whose Alice's Bloch vectors lie in one
    # plane up to 1e-9, which the tetrahedron test refuses with a condition
    # number that rounding cannot move in its printed digits.  The ok rows'
    # columns must equal the stored ones to 1e-12 relative (the absolute
    # 1e-13 admits rounding in the pure pair's zero gain, a cancellation),
    # and each row's error its class and message, the numbers in the
    # message to 1e-12 relative.
    pure, mixed = (model_states(ModelParams(delta=0.1, depol=p)) for p in (0.0, 0.05))
    (alice_0, bob_0), (alice_2, bob_2) = (
        (random_ensemble(rng), random_ensemble(rng)) for rng in map(np.random.default_rng, (0, 2))
    )
    flat = SignalEnsemble([
        bloch_state(r, 0.25) for r in ((0, 0, 0.9), (0, 0, -0.9), (0.9, 0, 0), (-0.6, 1e-9, 0.3))
    ])
    stacks = [  # rho and priors, each party-first: (2, M, ...)
        np.array([[getattr(e, name) for e in ensembles] for ensembles in (
            (pure, mixed, alice_0, alice_2, flat), (pure, mixed, bob_0, bob_2, mixed)
        )])
        for name in ("rho", "priors")
    ]
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=0.0)
    fields, diagnostics, errors = _evaluate(*stacks, channel, [20.0, 110.0], f=1.0, stats=None)
    assert [None if e is None else type(e) for e in errors] == [
        None if e is None else e[0] for e in PINNED_ERRORS
    ]
    for error, (_, message) in zip(errors[8:], PINNED_ERRORS[8:]):
        assert _NUMBER.split(str(error)) == _NUMBER.split(message)
        np.testing.assert_allclose(
            [float(x) for x in _NUMBER.findall(str(error))],
            [float(x) for x in _NUMBER.findall(message)], rtol=1e-12,
        )
    columns = np.vstack((fields, diagnostics))[:, :8].T
    np.testing.assert_allclose(columns, PINNED_OK_ROWS, rtol=1e-12, atol=1e-13)
