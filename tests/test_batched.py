"""Properties of the batched pipeline: a scan row is the point it stands
for, whatever else shares its kernel call."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coplanar_ensemble, random_ensemble
from twistqkd.channel import (
    ChannelParams,
    DetectionStats,
    _detection_rows,
    build_gamma,
    detection_stats,
)
from twistqkd.errors import QkdError, SingularGammaError
from twistqkd.evegram import _gram_rows, _matrix_to_vector, _vector_to_matrix, solve_eve
from twistqkd.keyrate import ScanConfig, _evaluate, keyrate_point, scan
from twistqkd.states import ModelParams, QubitState, SignalEnsemble, model_states

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
    E, clipped, raw = _gram_rows(gamma, p_det, errors)
    for i, distance in enumerate(distance_list):
        stats = detection_stats(alice, bob, ChannelParams(eta, p_dark, distance))
        np.testing.assert_allclose(p_det[i], stats.p_det, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(gamma.gamma @ raw[i] - p_det[i])) <= 1e-10
        assert errors[i] is None
        eve = solve_eve(gamma, stats)
        np.testing.assert_allclose(raw[i], eve.raw, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(E[i], eve.e_matrix, rtol=0.0, atol=1e-12)
        assert clipped[i] == eve.clipped_mass


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
    # zero key-state prior, rows interleaved: every row is its own point
    good = model_states(ModelParams(delta=0.1, depol=0.05))
    s0, s1, s2, s3 = good.states
    zero_prior = SignalEnsemble(
        states=(s0, QubitState(rho=s1.rho, prob=0.0), QubitState(rho=s2.rho, prob=0.5), s3)
    )
    alices = (good, coplanar_ensemble(np.random.default_rng(181)), good)
    bobs = (good, good, zero_prior)
    stacks = [
        (np.stack([e.rho for e in ensembles]), np.stack([e.priors for e in ensembles]))
        for ensembles in (alices, bobs)
    ]
    pairs = [0, 1, 2] * 3
    distance_list = np.repeat([0.0, 40.0, 120.0], 3)
    channel = ChannelParams(eta=ETA, p_dark=P_DARK, distance_km=0.0)
    rows = _evaluate(*stacks, pairs, channel, distance_list, f=1.0, stats=None)
    failed = set()
    for m, distance, row in zip(pairs, distance_list, rows):
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
