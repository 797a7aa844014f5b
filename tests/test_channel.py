import numpy as np
import pytest

from conftest import coplanar_ensemble, random_ensemble
from twistqkd.channel import (
    ChannelParams,
    DetectionStats,
    build_gamma,
    detection_stats,
    photon_loss,
    stats_index,
)
from twistqkd.errors import InvalidParamsError
from twistqkd.qmath import vec_rowmajor
from twistqkd.states import ModelParams, QubitState, SignalEnsemble, model_states, tetrahedron_check

H = np.array([[1, 0], [0, 0]], dtype=complex)
V = np.array([[0, 0], [0, 1]], dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def bell_pass_prob(rho, sigma):
    """Per-pair reference: the probability ``Tr[(rho (x) sigma) |Phi+><Phi+|]``
    that both-photon arrivals pass the Bell projection."""
    return float(np.real(PHI_PLUS.conj() @ np.kron(rho, sigma) @ PHI_PLUS))


class TestBellPassProb:
    def test_hh(self):
        assert bell_pass_prob(H, H) == pytest.approx(0.5)

    def test_orthogonal(self):
        assert bell_pass_prob(H, V) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert bell_pass_prob(MIXED, MIXED) == pytest.approx(0.25)


class TestPhotonLoss:
    def test_half_efficiency_zero_distance(self):
        assert photon_loss(ChannelParams(eta=0.5, p_dark=0.0, distance_km=0.0)) == pytest.approx(0.5)

    def test_perfect(self):
        assert photon_loss(ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0)) == pytest.approx(0.0)

    def test_hundred_km(self):
        p0 = photon_loss(ChannelParams(eta=0.5, p_dark=0.0, distance_km=100.0))
        assert p0 == pytest.approx(1.0 - 0.5 * 10 ** (-1.0), abs=1e-15)

    def test_divisor_configurable(self):
        p0 = photon_loss(
            ChannelParams(eta=1.0, p_dark=0.0, distance_km=100.0, atten_divisor=10.0)
        )
        assert p0 == pytest.approx(1.0 - 10 ** (-2.0), abs=1e-15)

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            ChannelParams(eta=0.0, p_dark=0.0, distance_km=0.0)
        with pytest.raises(InvalidParamsError):
            ChannelParams(eta=0.5, p_dark=1.0, distance_km=0.0)
        with pytest.raises(InvalidParamsError):
            ChannelParams(eta=0.5, p_dark=0.0, distance_km=-1.0)
        # a negative attenuation would give a per-photon survival above 1
        with pytest.raises(InvalidParamsError, match="atten_db_per_km must be >= 0, got -1.0"):
            ChannelParams(eta=0.5, p_dark=0.0, distance_km=10.0, atten_db_per_km=-1.0)
        with pytest.raises(InvalidParamsError, match="^atten_divisor must be > 0, got 0.0$"):
            ChannelParams(eta=0.5, p_dark=0.0, distance_km=10.0, atten_divisor=0.0)


def ideal_ensembles():
    ens = model_states(ModelParams(delta=0.0, depol=0.0))
    return ens, ens


class TestDetectionStats:
    def test_equality_compares_the_values(self):
        stats = DetectionStats(np.full(16, 0.01))
        assert stats == DetectionStats(np.full(16, 0.01)) and not stats != DetectionStats(
            [0.01] * 16
        )
        other = np.full(16, 0.01)
        other[3] = 0.02
        assert stats != DetectionStats(other) and not stats == DetectionStats(other)
        assert stats != np.full(16, 0.01).tolist()

    def test_lossless_noiseless_equals_pass(self):
        alice, bob = ideal_ensembles()
        stats = detection_stats(alice, bob, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0))
        for a, sa in enumerate(alice.states):
            for b, sb in enumerate(bob.states):
                expected = sa.prob * sb.prob * bell_pass_prob(sa.rho, sb.rho)
                assert stats.p_det[4 * a + b] == pytest.approx(expected, abs=1e-15)

    def test_key_combination_entries(self):
        alice, bob = ideal_ensembles()
        stats = detection_stats(alice, bob, ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0))
        keys = [stats_index(0, 0, x, y) for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))]
        np.testing.assert_allclose(stats.p_det[keys], [1 / 32, 0.0, 0.0, 1 / 32], atol=1e-15)

    def test_dark_count_floor(self):
        # mismatched pure key states never pass, so only the dark-count term
        # contributes; value re-derived directly from the detection model
        p0, pd = 0.5, 1e-5
        dark = 2 * (p0**2 * pd**2 * (1 - pd) ** 2 + p0 * (1 - p0) * pd * (1 - pd) ** 2)
        expected = 0.25 * 0.25 * dark
        assert expected == pytest.approx(3.1249e-7, rel=1e-3)
        alice, bob = ideal_ensembles()
        stats = detection_stats(
            alice, bob, ChannelParams(eta=0.5, p_dark=pd, distance_km=0.0)
        )
        assert stats.p_det[stats_index(0, 0, 0, 1)] == pytest.approx(expected, rel=1e-12)

    def test_phase_of_eigenvectors_irrelevant(self):
        # two kets differing by a global phase give the same density matrix,
        # hence identical statistics
        ket = np.array([0.6, 0.8j])
        rho_a = np.outer(ket, ket.conj())
        rho_b = np.outer(np.exp(1j * 0.7) * ket, (np.exp(1j * 0.7) * ket).conj())
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-15)
        base = model_states(ModelParams(delta=0.0, depol=0.0))
        ens_a = SignalEnsemble(states=(QubitState(rho_a, 0.25),) + base.states[1:])
        ens_b = SignalEnsemble(states=(QubitState(rho_b, 0.25),) + base.states[1:])
        ch = ChannelParams(eta=0.8, p_dark=1e-5, distance_km=10.0)
        np.testing.assert_allclose(
            detection_stats(ens_a, base, ch).p_det,
            detection_stats(ens_b, base, ch).p_det,
            rtol=1e-12,
        )

    def test_entries_are_probabilities(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            alice, bob = random_ensemble(rng), random_ensemble(rng)
            ch = ChannelParams(
                eta=rng.uniform(0.1, 1.0),
                p_dark=rng.uniform(0.0, 0.01),
                distance_km=rng.uniform(0.0, 200.0),
            )
            stats = detection_stats(alice, bob, ch)
            assert np.all(stats.p_det >= 0.0)
            assert stats.p_det.sum() <= 1.0

    def test_lossy_dark_channel_matches_the_pairwise_model(self):
        # each entry is both_arrive * p q Tr[(rho x sigma)|Phi+><Phi+|] plus
        # the dark-count floor dark * p q, computed pair by pair
        rng = np.random.default_rng(53)
        for _ in range(20):
            alice, bob = random_ensemble(rng), random_ensemble(rng)
            ch = ChannelParams(
                eta=rng.uniform(0.1, 1.0),
                p_dark=rng.uniform(0.0, 0.01),
                distance_km=rng.uniform(0.0, 200.0),
            )
            p0, pd = photon_loss(ch), ch.p_dark
            both_arrive = (1 - p0) ** 2 * (1 - pd) ** 2
            dark = 2 * (p0**2 * pd**2 * (1 - pd) ** 2 + p0 * (1 - p0) * pd * (1 - pd) ** 2)
            expected = [
                sa.prob * sb.prob * (both_arrive * bell_pass_prob(sa.rho, sb.rho) + dark)
                for sa in alice.states
                for sb in bob.states
            ]
            np.testing.assert_allclose(
                detection_stats(alice, bob, ch).p_det, expected, rtol=1e-13, atol=1e-18
            )


class TestGamma:
    def test_rows_are_vec_tensor_products(self):
        rng = np.random.default_rng(53)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        gamma = build_gamma(alice, bob)
        for a, sa in enumerate(alice.states):
            for b, sb in enumerate(bob.states):
                row = np.kron(vec_rowmajor(sa.weighted()), vec_rowmajor(sb.weighted()))
                np.testing.assert_allclose(gamma.gamma[4 * a + b], row, atol=1e-15)

    def test_ideal_invertible(self):
        alice, bob = ideal_ensembles()
        gamma = build_gamma(alice, bob)
        assert np.isfinite(gamma.cond)
        assert np.linalg.matrix_rank(gamma.gamma) == 16

    def test_coplanar_singular(self):
        rng = np.random.default_rng(59)
        alice = coplanar_ensemble(rng)
        bob = random_ensemble(rng)
        gamma = build_gamma(alice, bob)
        assert np.linalg.matrix_rank(gamma.gamma, tol=1e-10) < 16

    def test_probe_recovers_priors(self):
        # contracting row t with vec(I) (x) vec(I) gives p_a * q_b (two traces)
        rng = np.random.default_rng(61)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        gamma = build_gamma(alice, bob)
        probe = np.kron(vec_rowmajor(np.eye(2)), vec_rowmajor(np.eye(2)))
        for a in range(4):
            for b in range(4):
                got = gamma.gamma[4 * a + b] @ probe
                expected = alice[a].prob * bob[b].prob
                assert got.real == pytest.approx(expected, abs=1e-12)
                assert abs(got.imag) < 1e-12

    def test_invertibility_matches_tetrahedron(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            singular = rng.uniform() < 0.5
            ens = coplanar_ensemble(rng) if singular else random_ensemble(rng)
            gamma = build_gamma(ens, ens)
            full_rank = np.linalg.matrix_rank(gamma.gamma, tol=None) == 16
            assert tetrahedron_check(ens).passed == full_rank


class TestStatsCsv:
    def test_round_trip(self, tmp_path):
        alice, bob = ideal_ensembles()
        stats = detection_stats(alice, bob, ChannelParams(eta=0.5, p_dark=1e-5, distance_km=25.0))
        path = tmp_path / "stats.csv"
        stats.to_csv(path)
        back = DetectionStats.from_csv(path)
        np.testing.assert_allclose(back.p_det, stats.p_det, rtol=1e-10)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,x,y,p_det\n0,0,0,0,0.5\n")
        with pytest.raises(InvalidParamsError):
            DetectionStats.from_csv(path)

    def test_bad_values(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,x,y,p_det\n0,0,0,2,0.5\n")
        with pytest.raises(InvalidParamsError):
            DetectionStats.from_csv(path)
        path.write_text("i,j,x,y,p_det\n0.5,0,0,0,0.5\n")  # an index that is not an integer
        with pytest.raises(InvalidParamsError, match="^bad stats row .*invalid literal for int"):
            DetectionStats.from_csv(path)

    def test_stats_validation(self):
        with pytest.raises(InvalidParamsError):
            DetectionStats(p_det=np.full(16, 0.2))  # sums above 1
        with pytest.raises(InvalidParamsError):
            DetectionStats(p_det=np.full(16, -0.1))
        with pytest.raises(InvalidParamsError,
                           match=r"^p_det must have shape \(16,\), got \(4, 4\)$"):
            DetectionStats(p_det=np.full((4, 4), 0.01))
        for bad in (np.nan, np.inf, -np.inf):
            p_det = np.full(16, 0.01)
            p_det[5] = bad
            with pytest.raises(InvalidParamsError, match="finite"):
                DetectionStats(p_det=p_det)

    def test_non_finite_value_in_csv(self, tmp_path):
        path = tmp_path / "stats.csv"
        DetectionStats(p_det=np.full(16, 0.01)).to_csv(path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParamsError, match="finite"):
            DetectionStats.from_csv(path)

    def test_repeated_setting_in_csv(self, tmp_path):
        path = tmp_path / "stats.csv"
        DetectionStats(p_det=np.full(16, 0.01)).to_csv(path)
        with open(path, "a") as fh:
            fh.write("0,1,1,0,0.02\n")
        with pytest.raises(InvalidParamsError, match="repeats the setting i,j,x,y = 0,1,1,0"):
            DetectionStats.from_csv(path)
