import json
import math
import warnings

import numpy as np
import pytest

from conftest import bloch_state, coplanar_ensemble, random_ensemble
from twistqkd.errors import EmptySubspaceError, InvalidParamsError
from twistqkd.qmath import vec_rowmajor
from twistqkd.states import (
    N_MAX_LIMIT,
    ModelParams,
    QubitState,
    SignalEnsemble,
    ensemble_from_json,
    ensemble_to_json,
    model_states,
    phase_randomized_coherent,
    single_photon_project,
    stokes,
    tetrahedron_check,
)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = (KET_H + KET_V) / np.sqrt(2.0)
KET_R = (KET_H - 1j * KET_V) / np.sqrt(2.0)


def proj(ket):
    return np.outer(ket, ket.conj())


class TestModelStates:
    def test_ideal_set(self):
        ens = model_states(ModelParams(delta=0.0, depol=0.0))
        for state, ket in zip(ens.states, (KET_H, KET_V, KET_D, KET_R)):
            np.testing.assert_allclose(state.rho, proj(ket), atol=1e-14)
            assert state.prob == pytest.approx(0.25)

    def test_depolarized_key_state(self):
        ens = model_states(ModelParams(delta=0.0, depol=0.02))
        np.testing.assert_allclose(ens[0].rho, np.diag([0.99, 0.01]), atol=1e-14)

    @pytest.mark.parametrize("delta,depol", [(0.0, 0.0), (0.1, 0.05), (-0.3, 0.4), (0.7, 0.9)])
    def test_bloch_length(self, delta, depol):
        # oracle: Bloch vector length from the Stokes components
        ens = model_states(ModelParams(delta=delta, depol=depol))
        for state in ens.states:
            P = stokes(state) / state.prob
            assert np.linalg.norm(P[1:]) == pytest.approx(1.0 - depol, abs=1e-12)

    def test_states_are_valid(self):
        for delta in (0.0, 0.2, -0.5):
            for depol in (0.0, 0.3, 0.95):
                ens = model_states(ModelParams(delta=delta, depol=depol))
                for s in ens.states:
                    assert np.trace(s.rho).real == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.eigvalsh(s.rho)[0] >= -1e-12

    def test_invalid_depol(self):
        with pytest.raises(InvalidParamsError):
            ModelParams(delta=0.0, depol=1.0)
        with pytest.raises(InvalidParamsError):
            ModelParams(delta=0.0, depol=-0.1)

    def test_invalid_priors(self):
        with pytest.raises(InvalidParamsError):
            model_states(ModelParams(delta=0.0, depol=0.0), priors=(0.5, 0.5, 0.0, 0.1))
        with pytest.raises(InvalidParamsError):
            model_states(ModelParams(delta=0.0, depol=0.0), priors=(0.5, 0.5, 0.5, -0.5))


class TestQubitStateValidation:
    def test_rejects_non_unit_trace(self):
        with pytest.raises(InvalidParamsError):
            QubitState(rho=np.diag([0.5, 0.4]), prob=0.25)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParamsError):
            QubitState(rho=np.diag([1.5, -0.5]), prob=0.25)

    def test_ensemble_prob_sum(self):
        good = model_states(ModelParams(delta=0.0, depol=0.0))
        heavy = tuple(QubitState(rho=s.rho, prob=0.3) for s in good.states)
        with pytest.raises(InvalidParamsError):
            SignalEnsemble(states=heavy)


class TestStokes:
    def test_maximally_mixed(self):
        state = QubitState(rho=np.eye(2) / 2, prob=1.0)
        np.testing.assert_allclose(stokes(state), [1, 0, 0, 0], atol=1e-14)

    def test_h_state(self):
        state = QubitState(rho=proj(KET_H), prob=1.0)
        np.testing.assert_allclose(stokes(state), [1, 0, 0, 1], atol=1e-14)

    def test_inner_product_identity(self):
        # <vec(p rho), vec(p' rho')> = P.P'/2 (conjugated inner product)
        rng = np.random.default_rng(29)
        for _ in range(500):
            e1 = random_ensemble(rng)
            e2 = random_ensemble(rng)
            s1, s2 = e1[rng.integers(4)], e2[rng.integers(4)]
            lhs = np.vdot(vec_rowmajor(s1.weighted()), vec_rowmajor(s2.weighted()))
            rhs = 0.5 * np.dot(stokes(s1), stokes(s2))
            assert abs(lhs.imag) < 1e-12
            assert lhs.real == pytest.approx(rhs, abs=1e-12)

    def test_linear_in_density_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_ensemble(rng)[0]
            b = random_ensemble(rng)[1]
            t = rng.uniform()
            mix = QubitState(rho=t * a.rho + (1 - t) * b.rho, prob=1.0)
            expected = t * stokes(QubitState(rho=a.rho, prob=1.0)) + (1 - t) * stokes(
                QubitState(rho=b.rho, prob=1.0)
            )
            np.testing.assert_allclose(stokes(mix), expected, atol=1e-12)


class TestTetrahedronCheck:
    def test_ideal_passes(self):
        diag = tetrahedron_check(model_states(ModelParams(delta=0.0, depol=0.0)))
        assert diag.passed
        assert abs(diag.determinant) == pytest.approx(2.0 / 256.0, rel=1e-10)

    def test_coplanar_fails(self):
        # H, V, D, A all lie in the X-Z plane of the Bloch sphere
        ket_a = (KET_H - KET_V) / np.sqrt(2.0)
        states = tuple(
            QubitState(rho=proj(k), prob=0.25) for k in (KET_H, KET_V, KET_D, ket_a)
        )
        diag = tetrahedron_check(SignalEnsemble(states=states))
        assert not diag.passed
        assert np.linalg.matrix_rank(diag.stokes_matrix, tol=1e-9) == 3

    def test_fully_depolarized_fails(self):
        states = tuple(QubitState(rho=np.eye(2) / 2, prob=0.25) for _ in range(4))
        assert not tetrahedron_check(SignalEnsemble(states=states)).passed

    def test_random_coplanar_fails(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            assert not tetrahedron_check(coplanar_ensemble(rng)).passed

    def test_random_generic_passes(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            assert tetrahedron_check(random_ensemble(rng)).passed


def test_readers_take_the_checked_arrays(monkeypatch):
    # tetrahedron_check and ensemble_to_json read an ensemble's arrays,
    # checked when it was built, without making and checking its states again
    import twistqkd.states as states_module

    params = ModelParams(delta=0.1, depol=0.05)
    expected, ens = model_states(params), model_states(params)
    diag_expected, text_expected = tetrahedron_check(expected), ensemble_to_json(expected)

    def rebuilt(*args, **kwargs):
        raise AssertionError("an ensemble's states were made or checked again")

    monkeypatch.setattr(states_module, "_check_states", rebuilt)
    monkeypatch.setattr(states_module, "QubitState", rebuilt)
    diag = tetrahedron_check(ens)
    assert (diag.cond, diag.determinant, diag.passed) == (
        diag_expected.cond, diag_expected.determinant, diag_expected.passed
    )
    np.testing.assert_array_equal(diag.stokes_matrix, diag_expected.stokes_matrix)
    assert ensemble_to_json(ens) == text_expected


def two_mode_basis_state(n_h, n_v, dim):
    ket = np.zeros(dim * dim, dtype=complex)
    ket[dim * n_h + n_v] = 1.0
    return np.outer(ket, ket.conj())


class TestSinglePhotonProject:
    def test_single_photon_h(self):
        mu = 1.0
        weight = math.exp(-mu) * mu
        state = weight * two_mode_basis_state(1, 0, 2)
        out = single_photon_project(state, mu)
        np.testing.assert_allclose(out.rho, proj(KET_H), atol=1e-14)

    def test_incoherent_mixture(self):
        mu = 0.5
        weight = math.exp(-mu) * mu
        state = weight * (
            0.5 * two_mode_basis_state(1, 0, 2) + 0.5 * two_mode_basis_state(0, 1, 2)
        )
        out = single_photon_project(state, mu)
        np.testing.assert_allclose(out.rho, np.eye(2) / 2, atol=1e-14)

    def test_diagonal_coherent_pulse(self):
        # oracle: explicit Fock expansion of a 2-photon-truncated
        # phase-randomized coherent pulse, polarization D
        mu = 0.7
        dim = 3
        rho = np.zeros((dim * dim, dim * dim), dtype=complex)
        for n in range(3):
            ket = np.zeros(dim * dim, dtype=complex)
            for k in range(n + 1):
                ket[dim * k + (n - k)] = math.sqrt(math.comb(n, k)) / math.sqrt(2.0**n)
            rho += math.exp(-mu) * mu**n / math.factorial(n) * np.outer(ket, ket.conj())
        out = single_photon_project(rho, mu, normalize="trace")
        np.testing.assert_allclose(out.rho, proj(KET_D), atol=1e-12)
        # poisson divisor gives the same matrix here because the pulse is
        # exactly Poissonian
        out_p = single_photon_project(rho, mu, normalize="poisson")
        np.testing.assert_allclose(out_p.rho, proj(KET_D), atol=1e-12)

    def test_library_coherent_builder_matches(self):
        rho = phase_randomized_coherent((1.0, 1.0), mu=0.7, n_max=2)
        out = single_photon_project(rho, mu=0.7, normalize="trace")
        np.testing.assert_allclose(out.rho, proj(KET_D), atol=1e-12)

    def test_vacuum_raises(self):
        with pytest.raises(EmptySubspaceError):
            single_photon_project(two_mode_basis_state(0, 0, 2), mu=1.0)

    def test_bad_mu(self):
        with pytest.raises(InvalidParamsError):
            single_photon_project(two_mode_basis_state(1, 0, 2), mu=0.0)

    @pytest.mark.parametrize(
        "mu, match",
        [
            ("a", "^mu must be numeric"),
            (math.inf, "^mu must be positive"),
            (math.nan, "^mu must be positive"),
            (800.0, r"^mu must be positive, with exp\(-mu\) \* mu > 0, got 800"),
        ],
        ids=["text", "inf", "nan", "underflow"],
    )
    def test_bad_mu_is_typed(self, mu, match):
        with pytest.raises(InvalidParamsError, match=match):
            single_photon_project(two_mode_basis_state(1, 0, 2), mu=mu)


class TestPhaseRandomizedCoherent:
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("mu", "a", "^mu must be numeric"),
            ("mu", math.inf, "^mu must be positive"),
            ("mu", -1.0, "^mu must be positive"),
            ("mu", 800.0, "^mu must be positive"),
            ("n_max", -2, "^n_max must be an integer >= 0"),
            ("n_max", 2.5, "^n_max must be an integer >= 0"),
            ("n_max", True, "^n_max must be an integer >= 0"),
            ("n_max", N_MAX_LIMIT + 1, "^n_max must be an integer >= 0, at most 30"),
            ("n_max", 10**6, "^n_max must be an integer >= 0, at most 30"),
            ("jones", ("x", 1), "^jones must be numeric"),
            ("jones", (math.inf, 0), "^jones must be a nonzero, finite amplitude pair"),
            ("jones", (math.nan, 1), "^jones must be a nonzero, finite amplitude pair"),
            ("jones", (0, 0), "^jones must be a nonzero, finite amplitude pair"),
            ("jones", (1, 0, 0), "^jones must be a nonzero, finite amplitude pair"),
        ],
        ids=["mu-text", "mu-inf", "mu-negative", "mu-underflow", "n_max-negative",
             "n_max-fraction", "n_max-bool", "n_max-above-limit", "n_max-huge", "jones-text",
             "jones-inf", "jones-nan", "jones-zero", "jones-three"],
    )
    def test_bad_inputs_are_typed(self, field, value, match):
        args = {"jones": (1.0, 1.0), "mu": 0.7, "n_max": 2, field: value}
        with pytest.raises(InvalidParamsError, match=match):
            phase_randomized_coherent(**args)

    @pytest.mark.parametrize(
        "jones, unit",
        [((1e200, 1e200), (1, 1)), ((1e160, 1e160), (1, 1)), ((1e-200, 1e-200), (1, 1)),
         ((1e-170, 0), (1, 0))],
        ids=["1e200", "1e160", "1e-200", "1e-170-H"],
    )
    def test_finite_amplitudes_of_any_scale(self, jones, unit):
        # The norm of these pairs over- or underflows in double precision;
        # only the polarization counts, so each gives its unit pair's state.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = phase_randomized_coherent(jones, mu=0.7, n_max=3)
        np.testing.assert_allclose(
            rho, phase_randomized_coherent(unit, mu=0.7, n_max=3), rtol=0, atol=1e-15
        )

    def test_largest_cutoff_is_accepted(self):
        rho = phase_randomized_coherent((1.0, 1.0), mu=0.7, n_max=N_MAX_LIMIT)
        assert rho.shape == ((N_MAX_LIMIT + 1) ** 2,) * 2


class TestJsonRoundTrip:
    def test_round_trip(self):
        ens = model_states(ModelParams(delta=0.13, depol=0.07), priors=(0.4, 0.3, 0.2, 0.1))
        text = ensemble_to_json(ens)
        back = ensemble_from_json(text)
        for a, b in zip(ens.states, back.states):
            np.testing.assert_allclose(a.rho, b.rho, atol=1e-15)
            assert a.prob == pytest.approx(b.prob)

    def test_schema_fields(self):
        doc = json.loads(ensemble_to_json(model_states(ModelParams(delta=0.0, depol=0.0))))
        assert set(doc) == {"priors", "rhos"}
        assert len(doc["rhos"]) == 4
        assert doc["rhos"][0][0][0] == [1.0, 0.0]

    def test_bad_document(self):
        with pytest.raises(InvalidParamsError):
            ensemble_from_json(json.dumps({"priors": [1, 0, 0, 0]}))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("entry", [0.5], "^rho must be numeric"),
            ("entry", [0.5, 0.0, 0.0], "^rho must be numeric"),
            ("priors", 5, "^ensemble field priors must be a list"),
            ("rhos", 5, "^ensemble field rhos must be a list"),
            (None, None, "^ensemble document is not valid JSON"),
            ("document", [1, 2], "^ensemble document must be a JSON object, got list$"),
            ("document", 5, "^ensemble document must be a JSON object, got int$"),
        ],
        ids=["one-number-entry", "three-number-entry", "scalar-priors", "scalar-rhos", "not-json",
             "list-document", "number-document"],
    )
    def test_structural_faults_are_typed(self, field, value, match):
        # each fault names its field; none escapes as IndexError, TypeError
        # or JSONDecodeError
        doc = json.loads(ensemble_to_json(model_states(ModelParams(delta=0.1, depol=0.05))))
        if field == "entry":
            doc["rhos"][0][0][0] = value
        elif field == "document":
            doc = value
        elif field is not None:
            doc[field] = value
        text = "{'priors': [" if field is None else json.dumps(doc)
        with pytest.raises(InvalidParamsError, match=match):
            ensemble_from_json(text)


def test_random_bloch_states_validate():
    rng = np.random.default_rng(43)
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        state = bloch_state(rng.uniform(0, 1) * direction, 0.25)
        assert np.trace(state.rho).real == pytest.approx(1.0)
