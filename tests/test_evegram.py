import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import node_stats, random_ensemble, random_pass_operator
from twistqkd.channel import ChannelParams, DetectionStats, build_gamma, detection_stats, stats_index
from twistqkd.errors import NoDetectionsError, QkdError, SingularGammaError, UnphysicalStatsError
from twistqkd.evegram import CLIP_ERROR, _matrix_to_vector, key_basis_stats, solve_eve
from twistqkd.keyrate import ScanConfig, keyrate_point, scan
from twistqkd.states import ModelParams, model_states


def ideal_setup(eta=1.0, p_dark=0.0, distance=0.0):
    ens = model_states(ModelParams(delta=0.0, depol=0.0))
    ch = ChannelParams(eta=eta, p_dark=p_dark, distance_km=distance)
    stats = detection_stats(ens, ens, ch)
    gamma = build_gamma(ens, ens)
    return ens, stats, gamma


# Gram matrix of the post-pass states of the honest noiseless node: the
# projection onto (|HH> + |VV>)/sqrt(2) leaves inner products of 1/2 between
# the HH and VV branches and kills everything else.
HONEST_GRAM = np.zeros((4, 4), dtype=complex)
HONEST_GRAM[0, 0] = HONEST_GRAM[0, 3] = HONEST_GRAM[3, 0] = HONEST_GRAM[3, 3] = 0.5


class TestSolveEve:
    def test_honest_noiseless_gram(self):
        _, stats, gamma = ideal_setup()
        eve = solve_eve(gamma, stats)
        np.testing.assert_allclose(eve.e_matrix, HONEST_GRAM, atol=1e-9)
        assert eve.clipped_mass <= 1e-10
        # rank-1 up to numerical noise
        w = np.linalg.eigvalsh(eve.e_matrix)
        assert w[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.abs(w[:-1]) < 1e-9)

    def test_zero_stats(self):
        ens, _, gamma = ideal_setup()
        eve = solve_eve(gamma, DetectionStats(p_det=np.zeros(16)))
        np.testing.assert_allclose(eve.e_matrix, 0.0, atol=1e-14)

    def test_dark_count_only_is_identity(self):
        # an additive term 2k * p_a q_b in every entry maps to 2k * I
        ens, _, gamma = ideal_setup()
        k = 1e-4
        p = np.zeros(16)
        for a, sa in enumerate(ens.states):
            for b, sb in enumerate(ens.states):
                p[4 * a + b] = 2.0 * k * sa.prob * sb.prob
        eve = solve_eve(gamma, DetectionStats(p_det=p))
        np.testing.assert_allclose(eve.e_matrix, 2.0 * k * np.eye(4), atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.floats(0.1, 1.0), st.floats(0.0, 0.01), st.floats(0.0, 200.0)
    )
    def test_round_trip(self, seed, eta, p_dark, distance):
        # any tetrahedral pair through any loss and dark-count level
        rng = np.random.default_rng(seed)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        ch = ChannelParams(eta=eta, p_dark=p_dark, distance_km=distance)
        stats = detection_stats(alice, bob, ch)
        gamma = build_gamma(alice, bob)
        eve = solve_eve(gamma, stats)
        recon = gamma.gamma @ eve.raw
        assert np.linalg.norm(recon - stats.p_det) <= 1e-10
        # the simulated channel is always physical
        assert eve.clipped_mass <= 1e-10
        # Hermitian symmetrization leaves a PSD matrix with bounded diagonal
        assert np.all(eve.e_matrix.diagonal().real <= 1.0 + 1e-12)
        assert np.linalg.eigvalsh(eve.e_matrix)[0] >= -1e-12

    def test_symmetrized_hermitian_round_trip(self):
        # re-vectorizing the symmetrized matrix still reproduces the stats
        _, stats, gamma = ideal_setup(eta=0.7, p_dark=1e-5, distance=30.0)
        eve = solve_eve(gamma, stats)
        recon = gamma.gamma @ _matrix_to_vector(eve.e_matrix)
        assert np.linalg.norm(recon - stats.p_det) <= 1e-10

    def test_singular_gamma_rejected(self):
        ens = model_states(ModelParams(delta=0.0, depol=0.0))
        flat = tuple(
            type(s)(rho=np.diag([1.0, 0.0]).astype(complex), prob=0.25) for s in ens.states
        )
        from twistqkd.states import SignalEnsemble

        gamma = build_gamma(SignalEnsemble(states=flat), ens)
        with pytest.raises(SingularGammaError):
            solve_eve(gamma, DetectionStats(p_det=np.zeros(16)))

    @staticmethod
    def _entangled_direction_gram(a, b):
        # a*I + b on a maximally entangled direction: product-state overlaps
        # with that direction never exceed 1/2, so the resulting statistics
        # stay positive while the Gram has smallest eigenvalue a + b
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
        return a * np.eye(4) + b * np.outer(phi_minus, phi_minus.conj())

    def test_unphysical_stats_rejected(self):
        # statistics generated from a Gram matrix with a large negative
        # eigenvalue cannot come from any quantum channel
        ens, _, gamma = ideal_setup()
        bad = self._entangled_direction_gram(0.02, -0.03)
        p = (gamma.gamma @ _matrix_to_vector(bad)).real
        assert np.all(p >= 0)
        with pytest.raises(UnphysicalStatsError):
            solve_eve(gamma, DetectionStats(p_det=p))

    def test_small_violation_warns(self):
        ens, _, gamma = ideal_setup()
        bad = self._entangled_direction_gram(0.01, -0.01 - 1e-6)
        p = (gamma.gamma @ _matrix_to_vector(bad)).real
        assert np.all(p >= 0)
        with pytest.warns(RuntimeWarning):
            eve = solve_eve(gamma, DetectionStats(p_det=p))
        assert eve.clipped_mass == pytest.approx(1e-6, rel=1e-3)
        assert np.linalg.eigvalsh(eve.e_matrix)[0] >= -1e-15


    @pytest.mark.parametrize("entry", ["solve_eve", "keyrate_point", "scan"])
    def test_repair_warning_names_the_caller(self, entry):
        # the warning points at the line that called the package, whichever
        # entry point it called
        ens, _, gamma = ideal_setup()
        bad = self._entangled_direction_gram(0.01, -0.01 - 1e-6)
        stats = DetectionStats(p_det=(gamma.gamma @ _matrix_to_vector(bad)).real)
        calls = {
            "solve_eve": lambda: solve_eve(gamma, stats),
            "keyrate_point": lambda: keyrate_point(
                ens, ens, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0), stats=stats
            ),
            "scan": lambda: scan(ScanConfig(
                deltas=[0.0], depols=[0.0], distances=[0.0], eta=1.0, p_dark=0.0,
                alice_states=ens, stats=stats,
            )),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                calls[entry]()
            except QkdError:  # these statistics fail the rate windows later
                pass
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]

    @pytest.mark.parametrize("distance", [0.0, 50.0, 100.0, 150.0])
    def test_relative_inconsistency_is_refused_at_every_distance(self, distance):
        # Statistics of E + 0.05 tr(E) (I/4 - v v^dag), v the lowest
        # eigenvector of the honest Gram matrix E: every p_det lies in [0, 1]
        # and the Gram matrix has a negative eigenvalue of about 3.7% of
        # tr(E) at every distance, while tr(E) falls a thousandfold from 0 to
        # 150 km.  The refusal compares the clipped mass with the trace, so it
        # does not depend on the distance.
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=distance)
        gamma = build_gamma(ens, ens)
        E = solve_eve(gamma, detection_stats(ens, ens, channel)).e_matrix
        v = np.linalg.eigh(E)[1][:, :1]
        bad = E + 0.05 * np.trace(E).real * (np.eye(4) / 4.0 - v @ v.conj().T)
        p = (gamma.gamma @ _matrix_to_vector(bad)).real
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.linalg.eigvalsh(bad)[0] < -0.03 * np.trace(E).real
        with pytest.raises(UnphysicalStatsError) as refused:
            keyrate_point(ens, ens, channel, stats=DetectionStats(p_det=p))
        # the message states both relative thresholds
        assert "1e-04" in str(refused.value) and "1e-08" in str(refused.value)


def tripled_node_stats():
    """Three times the ideal node's statistics on model states at delta 0.1,
    depol 0.05: those of the pass operator ``M = 3|Phi+><Phi+|``, which no
    node (``M <= I``) has.  Every entry is at most 0.089 and they sum to 0.742."""
    ens = model_states(ModelParams(delta=0.1, depol=0.05))
    ideal = detection_stats(ens, ens, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0))
    return ens, DetectionStats(p_det=3.0 * ideal.p_det)


class TestPassOperatorBound:
    def test_statistics_above_any_pass_operator_are_refused_at_every_distance(self):
        # The Gram matrix is the pass operator's matrix, so its largest
        # eigenvalue, 3, refuses the statistics at every distance, which the
        # PSD repair alone does not: the matrix is already PSD.
        ens, stats = tripled_node_stats()
        assert stats.p_det.max() < 0.09 and stats.p_det.sum() < 0.75
        message = ("the Gram matrix has largest eigenvalue 3, above 1 by more than 1e-04; "
                   "no pass operator M <= I gives these statistics")
        distances = [0.0, 50.0, 150.0]
        for distance in distances:
            channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=distance)
            with pytest.raises(UnphysicalStatsError) as refused:
                keyrate_point(ens, ens, channel, stats=stats)
            assert str(refused.value) == message
        rows = scan(ScanConfig(deltas=[0.1], depols=[0.05], distances=distances, eta=0.5,
                               p_dark=1e-5, stats=stats))
        assert [(row.status, row.error) for row in rows] == [("UnphysicalStatsError", message)] * 3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0]))
    def test_random_node_is_refused_exactly_above_the_bound(self, seed, t):
        # A random node M scaled so that its largest eigenvalue is
        # 1 + t * CLIP_ERROR: recovered as E = M^T below the bound, refused
        # above it by solve_eve and keyrate_point alike.
        rng = np.random.default_rng(seed)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        M = random_pass_operator(rng)
        M *= (1.0 + t * CLIP_ERROR) / np.linalg.eigvalsh(M)[-1]
        p = node_stats(alice, bob, M)
        assume(p.sum() <= 1.0)  # the sum is at most M's largest eigenvalue, here above 1
        stats, gamma = DetectionStats(p_det=p), build_gamma(alice, bob)
        channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=0.0)
        if t > 1.0:
            for call in (lambda: solve_eve(gamma, stats),
                         lambda: keyrate_point(alice, bob, channel, stats=stats)):
                with pytest.raises(UnphysicalStatsError,
                                   match=r"^the Gram matrix has largest eigenvalue 1\.0002, "):
                    call()
            return
        eve = solve_eve(gamma, stats)
        # The solve's error grows with the state matrix's condition number,
        # to about 7e-17 times it over 2000 random pairs.
        cond = gamma.cond_alice * gamma.cond_bob
        np.testing.assert_allclose(eve.e_matrix, M.T, rtol=0, atol=max(1e-12, 1e-16 * cond))
        assert eve.clipped_mass == 0.0
        try:
            keyrate_point(alice, bob, channel, stats=stats)
        except QkdError as exc:  # a phase-error window, never the node's refusal
            assert not isinstance(exc, UnphysicalStatsError)

    def test_half_identity_node_passes(self):
        # The node M = I/2 passes every input with probability 1/2: its Gram
        # matrix has trace 2, above 1, but every eigenvalue is 0.5.
        rng = np.random.default_rng(7)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        stats = DetectionStats(p_det=0.5 * np.outer(alice.priors, bob.priors).reshape(16))
        eve = solve_eve(build_gamma(alice, bob), stats)
        assert np.trace(eve.e_matrix).real == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(eve.e_matrix), 0.5, atol=1e-12)


class TestKeyBasisStats:
    def test_ideal_values(self):
        _, stats, _ = ideal_setup()
        p00, e_z = key_basis_stats(stats)
        assert p00 == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert e_z == pytest.approx(0.0, abs=1e-15)

    def test_mismatch_only(self):
        p = np.zeros(16)
        p[stats_index(0, 0, 0, 1)] = 0.01
        p[stats_index(0, 0, 1, 0)] = 0.02
        _, e_z = key_basis_stats(DetectionStats(p_det=p))
        assert e_z == pytest.approx(1.0)

    def test_symmetric_is_half(self):
        p = np.zeros(16)
        for x in (0, 1):
            for y in (0, 1):
                p[stats_index(0, 0, x, y)] = 0.01
        p00, e_z = key_basis_stats(DetectionStats(p_det=p))
        assert p00 == pytest.approx(0.04)
        assert e_z == pytest.approx(0.5)

    def test_no_detections(self):
        with pytest.raises(NoDetectionsError):
            key_basis_stats(DetectionStats(p_det=np.zeros(16)))
