import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _purification_vectors,
    ancilla_gram_block,
    bloch_state,
    mp_twist_oracle,
    naive_twist_gram,
    node_stats,
    random_density_matrix,
    random_ensemble,
    random_pass_operator,
    sampled_twist_values,
    sdp_phase_errors,
    twist_sdps,
)
from twistqkd.channel import ChannelParams, DetectionStats, build_gamma, detection_stats
from twistqkd.errors import InvalidParamsError
from twistqkd.evegram import EveGram, key_basis_stats, solve_eve
from twistqkd.keyrate import keyrate_point
from twistqkd.sdp import solve_sdp
from twistqkd.states import ModelParams, QubitState, SignalEnsemble, _stack, model_states
import twistqkd.twist as twist_module
from twistqkd.twist import (
    TwistProblem,
    _pair_factors,
    _purification_factors,
    naive_phase_errors,
    optimize_phase_errors,
)


def pair_inputs(alice, bob, channel):
    stats = detection_stats(alice, bob, channel)
    eve = solve_eve(build_gamma(alice, bob), stats)
    p00, e_z = key_basis_stats(stats)
    return eve, p00, e_z


def pipeline_inputs(delta, depol, eta=0.5, p_dark=1e-5, distance=0.0):
    ens = model_states(ModelParams(delta=delta, depol=depol))
    ch = ChannelParams(eta=eta, p_dark=p_dark, distance_km=distance)
    return (ens, *pair_inputs(ens, ens, ch))


def model_problem(delta, depol, distance=0.0):
    ens, eve, p00, e_z = pipeline_inputs(delta, depol, distance=distance)
    return TwistProblem.from_key_states(ens.key_states(), ens.key_states(), eve, p00, e_z)


class TestIdealCase:
    def test_optimized_zero(self):
        ens, eve, p00, e_z = pipeline_inputs(0.0, 0.0, eta=1.0, p_dark=0.0)
        problem = TwistProblem.from_key_states(ens.key_states(), ens.key_states(), eve, p00, e_z)
        result = optimize_phase_errors(problem)
        assert result.e_minus == pytest.approx(0.0, abs=1e-6)
        assert result.e_plus == pytest.approx(0.0, abs=1e-6)
        assert result.e_x == pytest.approx(0.0, abs=1e-6)
        assert result.e_y == pytest.approx(0.0, abs=1e-6)

    def test_naive_zero(self):
        ens, eve, p00, _ = pipeline_inputs(0.0, 0.0, eta=1.0, p_dark=0.0)
        naive = naive_phase_errors(ens.key_states(), ens.key_states(), eve, p00)
        assert naive.e_minus == pytest.approx(0.0, abs=1e-9)
        assert naive.e_plus == pytest.approx(0.0, abs=1e-9)

    def test_builders_solve_to_zero(self):
        # the SDP oracle of conftest agrees at the ideal point
        ens, eve, p00, e_z = pipeline_inputs(0.0, 0.0, eta=1.0, p_dark=0.0)
        ak, bk = ens.key_states(), ens.key_states()
        prob_minus, prob_plus = twist_sdps(TwistProblem.from_key_states(ak, bk, eve, p00, e_z))
        sol_minus = solve_sdp(prob_minus)
        assert sol_minus.status == "optimal"
        assert sol_minus.objective_value == pytest.approx(0.0, abs=1e-7)
        sol_plus = solve_sdp(prob_plus)
        assert sol_plus.status == "optimal"
        assert 1.0 + sol_plus.objective_value == pytest.approx(0.0, abs=1e-7)


class TestSquareRoots:
    def test_roots_square_to_the_weighted_states(self):
        # the factor's columns are sqrt(p lam_k) v_k, so the Hermitian root
        # sqrt(p rho) = sum_k sqrt(p lam_k) v_k v_k^dag is read off them
        rng = np.random.default_rng(11)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        states = [
            QubitState(rho=random_density_matrix(rng), prob=rng.uniform(0.05, 1.0))
            for _ in range(20)
        ]
        states += [
            QubitState(rho=np.eye(2) / 2.0, prob=0.0),  # a zero block has root 0
            QubitState(rho=np.outer(ket, ket.conj()), prob=0.3),
            QubitState(rho=np.eye(2) / 2.0, prob=0.25),
        ]
        roots = [
            sum(
                (np.outer(f, f.conj()) / np.linalg.norm(f) for f in F.T if f.any()),
                np.zeros((2, 2)),
            )
            for F in _purification_factors(*_stack(states))
        ]
        for root, state in zip(roots, states):
            np.testing.assert_allclose(root, root.conj().T, atol=1e-15)
            assert np.linalg.eigvalsh(root)[0] >= -1e-9
            np.testing.assert_allclose(root @ root, state.weighted(), atol=1e-14)
        assert not roots[-3].any()
        # a pure state's root is the scaled projector, up to the square root
        # of the rounding dust in its small eigenvalue
        np.testing.assert_allclose(roots[-2], np.sqrt(0.3) * states[-2].rho, atol=1e-8)


class TestPurificationFactors:
    STATES = (
        bloch_state([0.6, -0.48, 0.64], 0.3),  # pure
        bloch_state([0.1, 0.5, -0.3], 0.2),  # mixed
        bloch_state([0.0, 0.0, 0.0], 0.25),  # fully mixed
        bloch_state([0.0, 0.0, -1.0], 0.25),  # pure, V
        bloch_state([0.0, 0.0, 0.0], 0.0),  # zero prior
    )

    def test_factors_purify_the_weighted_states(self):
        rng = np.random.default_rng(11)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        states = [*self.STATES, QubitState(rho=np.outer(ket, ket.conj()), prob=0.3)]
        states += [
            QubitState(rho=random_density_matrix(rng), prob=rng.uniform(0.05, 1.0))
            for _ in range(20)
        ]
        factors = _purification_factors(*_stack(states))
        assert factors.shape == (len(states), 2, 2)
        for F, state in zip(factors, states):
            np.testing.assert_allclose(F @ F.conj().T, state.weighted(), atol=1e-15)
        assert not factors[4].any()  # a zero prior gives F = 0
        # a pure state's factor is its scaled ket, up to a phase and the
        # square root of the rounding dust in its small eigenvalue
        F = factors[5]
        np.testing.assert_allclose(np.abs(ket.conj() @ F[:, 0]), np.sqrt(0.3), atol=1e-15)
        assert np.abs(F[:, 1]).max() <= 1e-8

    def test_pair_factors_factor_the_ancilla_blocks(self):
        # S_xy = F_x (x) G_y has S S^dag = W_xy: the twist's factors are the
        # ancillas of the baseline's eigenbasis purification
        ens = model_states(ModelParams(delta=0.1, depol=0.05))
        rng = np.random.default_rng(13)
        bob = random_ensemble(rng)
        ak, bk = ens.key_states(), bob.key_states()
        rho, prob = _stack((*ak, *bk))
        left, right = _pair_factors(rho.reshape(2, 2, 2, 2), prob.reshape(2, 2))
        pairs = (((0, 1), (1, 0)), ((0, 0), (1, 1)))
        for k, ((xl, yl), (xr, yr)) in enumerate(pairs):
            for S, (x, y) in ((left[k].T, (xl, yl)), (right[k].conj(), (xr, yr))):
                np.testing.assert_allclose(
                    S @ S.conj().T, ancilla_gram_block(ak[x], bk[y]), atol=1e-15
                )
                np.testing.assert_array_equal(S, _purification_vectors(ak[x], bk[y]))

    def test_eigenvalues_decrease(self):
        factors = _purification_factors(*_stack(self.STATES))
        for F, state in zip(factors, self.STATES):
            # orthogonal columns of squared norm prob * lam_k, decreasing
            weights = np.sum(np.abs(F) ** 2, axis=0)
            assert weights[0] >= weights[1]
            np.testing.assert_allclose(F.conj().T @ F, np.diag(weights), atol=1e-15)
            np.testing.assert_allclose(
                weights, state.prob * np.linalg.eigvalsh(state.rho)[::-1], atol=1e-15
            )
        # a pure state's second column vanishes; a fully mixed state's columns
        # carry equal weight
        assert np.abs(factors[0][:, 1]).max() <= 1e-8
        np.testing.assert_allclose(np.sum(np.abs(factors[2]) ** 2, axis=0), 0.125, atol=1e-15)

    def test_columns_are_those_of_each_matrix_own_eigh(self):
        # the baseline depends on the eigenvector phases, so the batched
        # decomposition must return exactly what a per-matrix one returns
        rng = np.random.default_rng(17)
        for _ in range(200):
            states = [
                QubitState(rho=random_density_matrix(rng), prob=rng.uniform(0.05, 1.0))
                for _ in range(4)
            ]
            for F, state in zip(_purification_factors(*_stack(states)), states):
                w, V = np.linalg.eigh(state.rho)
                w, V = w[::-1], V[:, ::-1]
                np.testing.assert_array_equal(
                    F, np.sqrt(state.prob) * (V * np.sqrt(np.clip(w, 0.0, None)))
                )


class TestConstraints:
    def test_zero_bit_error_forces_zero_eminus(self):
        # with e_z = 0 the scalar constraints pin e_minus to zero even when
        # the pairing would otherwise allow more
        ens, eve, p00, _ = pipeline_inputs(0.2, 0.3)
        problem = TwistProblem.from_key_states(ens.key_states(), ens.key_states(), eve, p00, 0.0)
        result = optimize_phase_errors(problem)
        assert result.e_minus == 0.0
        assert result.bound_minus > 0.0
        oracle = sdp_phase_errors(problem)
        assert oracle is not None
        assert result.e_plus == pytest.approx(oracle[1], abs=1e-7)

    def test_constraint_activation_at_ez(self):
        # blocks of fully dephased states with a strongly-aligned Gram push
        # the unconstrained minimum of e_plus below e_z, so the scalar
        # constraint clamps the optimum exactly at e_z
        mixed = QubitState(rho=np.eye(2) / 2.0, prob=0.25)
        honest = np.zeros((4, 4), dtype=complex)
        honest[0, 0] = honest[0, 3] = honest[3, 0] = honest[3, 3] = 0.5
        eve = EveGram(e_matrix=honest, clipped_mass=0.0, raw=np.zeros(16, dtype=complex))
        e_z = 0.3
        problem = TwistProblem.from_key_states((mixed, mixed), (mixed, mixed), eve, 1.0 / 32.0, e_z)
        result = optimize_phase_errors(problem)
        assert result.e_plus == pytest.approx(e_z, abs=1e-6)

    def test_bounds_always_hold(self):
        for delta, depol, dist in ((0.05, 0.02, 0.0), (0.1, 0.05, 50.0), (0.2, 0.2, 120.0)):
            ens, eve, p00, e_z = pipeline_inputs(delta, depol, distance=dist)
            problem = TwistProblem.from_key_states(
                ens.key_states(), ens.key_states(), eve, p00, e_z
            )
            result = optimize_phase_errors(problem)
            assert -1e-9 <= result.e_minus <= e_z + 1e-9
            assert e_z - 1e-9 <= result.e_plus <= 1.0 + 1e-9
            # the windows clamp the unclamped twist optima
            assert result.e_minus == min(result.bound_minus, problem.e_z)
            assert result.e_plus == max(result.bound_plus, problem.e_z)
            assert 0.0 <= result.e_x <= 1.0
            assert 0.0 <= result.e_y <= 1.0


class TestNaiveGram:
    def test_diagonal_blocks_match_constraints(self):
        ens, _, _, _ = pipeline_inputs(0.1, 0.05)
        ak, bk = ens.key_states(), ens.key_states()
        for pair, combos in (("minus", ((0, 1), (1, 0))), ("plus", ((0, 0), (1, 1)))):
            G = naive_twist_gram(ak, bk, pair)
            assert np.linalg.eigvalsh(G)[0] >= -1e-12
            for k, (x, y) in enumerate(combos):
                W = ancilla_gram_block(ak[x], bk[y])
                np.testing.assert_allclose(
                    G[4 * k : 4 * k + 4, 4 * k : 4 * k + 4], W, atol=1e-12
                )

    def test_objective_at_identity_twist_matches_naive(self):
        ens, eve, p00, _ = pipeline_inputs(0.1, 0.05, distance=30.0)
        ak, bk = ens.key_states(), ens.key_states()
        naive = naive_phase_errors(ak, bk, eve, p00)
        G_minus = naive_twist_gram(ak, bk, "minus")
        G_plus = naive_twist_gram(ak, bk, "plus")
        s_minus = float(np.real(np.sum(eve.e_matrix * G_minus[:4, 4:])))
        s_plus = float(np.real(np.sum(eve.e_matrix * G_plus[:4, 4:])))
        assert -2.0 / p00 * s_minus == pytest.approx(naive.e_minus, abs=1e-12)
        assert 1.0 - 2.0 / p00 * s_plus == pytest.approx(naive.e_plus, abs=1e-12)


class TestDominance:
    def test_optimized_dominates_naive(self):
        for delta, depol, dist in (
            (0.0, 0.05, 0.0),
            (0.1, 0.05, 50.0),
            (0.1, 0.01, 100.0),
            (0.3, 0.3, 20.0),
        ):
            ens, eve, p00, e_z = pipeline_inputs(delta, depol, distance=dist)
            ak, bk = ens.key_states(), ens.key_states()
            problem = TwistProblem.from_key_states(ak, bk, eve, p00, e_z)
            opt = optimize_phase_errors(problem)
            naive = naive_phase_errors(ak, bk, eve, p00)
            assert naive.e_minus <= opt.e_minus + 1e-7
            assert naive.e_plus >= opt.e_plus - 1e-7

    def test_every_row_dominates_its_baseline(self):
        # The baseline is the twist at K = I, so |Re tr X| <= ||X||_1 holds
        # on every row of the row stage, as computed: rows whose baseline
        # e_plus lies above 1, which the rate reads reflected, are checked too.
        # Each draw adds a model pair, pure or not; pure ones reach equality.
        above = []

        @settings(max_examples=60, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 150.0), min_size=1, max_size=4))
        def rows_dominate(seed, distances):
            rng = np.random.default_rng(seed)
            model = model_states(ModelParams(delta=rng.uniform(0.0, 0.3),
                                             depol=rng.choice((0.0, 0.05))))
            for alice, bob in ((random_ensemble(rng), random_ensemble(rng)), (model, model)):
                channels = (ChannelParams(eta=0.5, p_dark=1e-5, distance_km=d) for d in distances)
                eves, p00, e_z = zip(*(pair_inputs(alice, bob, channel) for channel in channels))
                rho, prob = _stack((*alice.key_states(), *bob.key_states()))
                factors = _pair_factors(rho.reshape(2, 2, 2, 2), prob.reshape(2, 2))
                _, _, s_minus, bound_plus, signed, plus = twist_module._phase_error_rows(
                    factors, np.stack([eve.e_matrix for eve in eves]), np.array(p00),
                    np.clip(e_z, 0.0, 1.0),
                )
                assert np.all(s_minus >= np.abs(signed) - 1e-12)
                assert np.all(bound_plus <= plus + 1e-12)
                above.extend(plus > 1.0)

        rows_dominate()
        assert any(above)

    def test_sampled_twists_never_beat_sdp(self):
        ens, eve, p00, e_z = pipeline_inputs(0.1, 0.05, distance=50.0)
        ak, bk = ens.key_states(), ens.key_states()
        opt = optimize_phase_errors(TwistProblem.from_key_states(ak, bk, eve, p00, e_z))
        em_samples, ep_samples = sampled_twist_values(ak, bk, eve, p00, 300, seed=157)
        assert np.all(em_samples <= opt.e_minus + 1e-7)
        assert np.all(ep_samples >= opt.e_plus - 1e-7)
        # samples respect the physical window used by the constraints
        assert np.all(em_samples <= e_z + 1e-12)
        assert np.all(ep_samples >= e_z - 1e-12)

    def test_purity_limit_monotone(self):
        gaps = []
        for depol in (0.1, 0.05, 0.01, 0.0):
            ens, eve, p00, e_z = pipeline_inputs(0.1, depol, distance=40.0)
            ak, bk = ens.key_states(), ens.key_states()
            opt = optimize_phase_errors(TwistProblem.from_key_states(ak, bk, eve, p00, e_z))
            naive = naive_phase_errors(ak, bk, eve, p00)
            gaps.append(naive.e_plus - opt.e_plus)
        assert all(g >= -1e-7 for g in gaps)
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier + 1e-7
        assert gaps[-1] == pytest.approx(0.0, abs=1e-7)

    def test_pure_states_match_naive(self):
        ens, eve, p00, e_z = pipeline_inputs(0.15, 0.0, distance=60.0)
        ak, bk = ens.key_states(), ens.key_states()
        problem = TwistProblem.from_key_states(ak, bk, eve, p00, e_z)
        for W in (ancilla_gram_block(ak[x], bk[y]) for x in (0, 1) for y in (0, 1)):
            # rank-1 blocks
            assert np.sum(np.linalg.eigvalsh(W) > 1e-12 * np.abs(W).max()) == 1
        opt = optimize_phase_errors(problem)
        naive = naive_phase_errors(ak, bk, eve, p00)
        assert opt.e_plus == pytest.approx(naive.e_plus, abs=1e-6)
        assert opt.e_minus == pytest.approx(abs(naive.e_minus), abs=1e-6)
        oracle = sdp_phase_errors(problem)
        assert oracle is not None
        assert opt.e_minus == pytest.approx(oracle[0], abs=1e-7)
        assert opt.e_plus == pytest.approx(oracle[1], abs=1e-7)


def haar_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(ensemble, U):
    """Every state of ``ensemble`` conjugated by ``U``."""
    return SignalEnsemble(
        states=tuple(QubitState(rho=U @ s.rho @ U.conj().T, prob=s.prob) for s in ensemble)
    )


def twisted_values(alice, bob, channel):
    eve, p00, e_z = pair_inputs(alice, bob, channel)
    problem = TwistProblem.from_key_states(alice.key_states(), bob.key_states(), eve, p00, e_z)
    opt = optimize_phase_errors(problem)
    return [p00, e_z, opt.e_minus, opt.e_plus, opt.bound_minus, opt.bound_plus]


class TestPhaseInvariance:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_rotation_of_the_parties(self, seed):
        # U on every Alice state and conj(U) on every Bob state fixes
        # |Phi+>, so the statistics and the twisted optimum do not move.
        # The eigenbasis baseline is not invariant and is not checked.
        rng = np.random.default_rng(seed)
        alice, bob = random_ensemble(rng), random_ensemble(rng)
        channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=rng.uniform(0.0, 150.0))
        U = haar_unitary(rng, 2)
        before = twisted_values(alice, bob, channel)
        after = twisted_values(rotated(alice, U), rotated(bob, U.conj()), channel)
        np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_eigenvector_phases(self, seed):
        # The twist's factors are the baseline's F = sqrt(p) V sqrt(lam), and
        # re-phasing V's columns multiplies each factor by a diagonal unitary
        # on the right, which the trace norm absorbs: with every eigenvector
        # column that eigh returns, as twistqkd.twist sees it, multiplied by
        # a random unit phase, the optimum does not move beyond rounding, on random ensembles and on
        # model states, pure ones included.  The baseline may move (see
        # naive_phase_errors) and is not checked.
        rng = np.random.default_rng(seed)
        channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=rng.uniform(0.0, 150.0))
        model = (model_states(ModelParams(delta=rng.uniform(0.0, 0.2), depol=depol))
                 for depol in (0.0, rng.uniform(0.0, 0.1)))
        pairs = [(random_ensemble(rng), random_ensemble(rng))] + [(ens, ens) for ens in model]
        eigh, calls = np.linalg.eigh, []

        def rephased(a):
            w, V = eigh(a)
            calls.append(a.shape)
            return w, V * np.exp(2j * np.pi * rng.uniform(size=V.shape[:-2] + (1, V.shape[-1])))

        for alice, bob in pairs:
            before = twisted_values(alice, bob, channel)
            eve, p00, e_z = pair_inputs(alice, bob, channel)
            problem = TwistProblem.from_key_states(
                alice.key_states(), bob.key_states(), eve, p00, e_z
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(twist_module.np.linalg, "eigh", rephased)
                opt = optimize_phase_errors(problem)
            after = before[:2] + [opt.e_minus, opt.e_plus, opt.bound_minus, opt.bound_plus]
            np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-14)
        assert calls == [(2, 2, 2, 2)] * len(pairs)  # one eigh of the four key states per call


def matches_oracle(problem):
    """Whether the SDP oracle converges; if so, assert the closed form
    agrees with it to 1e-7."""
    oracle = sdp_phase_errors(problem)
    if oracle is None:
        return False
    opt = optimize_phase_errors(problem)
    assert opt.e_minus == pytest.approx(oracle[0], abs=1e-7)
    assert opt.e_plus == pytest.approx(oracle[1], abs=1e-7)
    return True


class TestClosedFormOracle:
    """The closed form against the interior-point SDP of ``conftest``."""

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.2])
    def test_matches_sdp_on_model_grid(self, delta):
        grid = itertools.product((0.0, 0.01, 0.05, 0.2), (0.0, 50.0, 150.0))
        converged = [matches_oracle(model_problem(delta, p, distance=d)) for p, d in grid]
        assert sum(converged) >= 10

    def test_matches_sdp_on_random_ensembles(self):
        rng = np.random.default_rng(2007)
        converged = 0
        for _ in range(30):
            alice, bob = random_ensemble(rng), random_ensemble(rng)
            channel = ChannelParams(eta=0.5, p_dark=1e-5, distance_km=rng.uniform(0.0, 150.0))
            eve, p00, e_z = pair_inputs(alice, bob, channel)
            problem = TwistProblem.from_key_states(
                alice.key_states(), bob.key_states(), eve, p00, e_z
            )
            converged += matches_oracle(problem)
        assert converged >= 27


def oracle_point(kind, seed):
    """A drawn point: its ensembles, channel and statistics ``p_det``, and
    the ``stats`` the kernel takes (None: it simulates ``p_det`` itself).
    ``"model"`` is a (delta, depol) model pair, ``"asym"`` a random pair,
    each under the honest node, and ``"node"`` a random pair under a random
    pass operator."""
    rng = np.random.default_rng(seed)
    if kind == "model":
        depol = rng.uniform(1e-4, 0.1) if rng.integers(2) else 0.0
        alice = bob = model_states(ModelParams(delta=rng.uniform(0.0, 0.2), depol=depol))
    else:
        alice, bob = random_ensemble(rng), random_ensemble(rng)
    if kind == "node":
        p_det = node_stats(alice, bob, random_pass_operator(rng))
        channel = ChannelParams(eta=1.0, p_dark=0.0, distance_km=0.0)
        return alice, bob, channel, p_det, DetectionStats(p_det=p_det)
    p_dark = 10.0 ** rng.uniform(-7.0, -4.0) if rng.integers(2) else 0.0
    channel = ChannelParams(eta=rng.uniform(0.05, 1.0), p_dark=p_dark,
                            distance_km=rng.uniform(0.0, 150.0))
    return alice, bob, channel, detection_stats(alice, bob, channel).p_det, None


class TestMpmathOracle:
    """The kernel against a 40-digit recomputation that solves for the
    node's pass operator from its definition (``conftest.mp_twist_oracle``),
    so the Gram matrix's index convention is checked with the arithmetic."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("kind", ["model", "asym", "node"])
    def test_kernel_matches_the_oracle(self, kind, seed):
        # Every point is a result: the rate windows refuse no baseline.  The
        # baseline itself depends on eigenvector phases, so its rate is not
        # compared.
        alice, bob, channel, p_det, stats = oracle_point(kind, seed)
        result = keyrate_point(alice, bob, channel, stats=stats)
        d = result.diagnostics
        kernel = (d["twist_bound_minus"], d["twist_bound_plus"], result.rate_twisted / result.p_det00)
        np.testing.assert_allclose(kernel, mp_twist_oracle(alice, bob, p_det), rtol=0.0,
                                   atol=oracle_tol(result))


def oracle_tol(*results):
    """The oracle's tolerance on phase errors and on rates per ``p_det00``:
    rounding in the Gram solve grows with the state matrix's condition number."""
    return max(1e-12, 1e-16 * max(r.diagnostics["gamma_cond"] for r in results))


def twisted_columns(r):
    """The twisted phase errors, bounds and rate per ``p_det00`` of a result."""
    d = r.diagnostics
    return [r.e_minus, r.e_plus, d["twist_bound_minus"], d["twist_bound_plus"],
            r.rate_twisted / r.p_det00]


class TestNodeSymmetries:
    """Symmetries of the statistics of any node: the model, random
    asymmetric pairs under the honest node, and random pass operators."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("kind", ["model", "asym", "node"])
    def test_local_unitaries(self, kind, seed):
        # Alice's states rotated by U, Bob's by V and the node by
        # M -> (U (x) V) M (U (x) V)^dag give the same statistics, so the
        # rotated states with the same statistics give the same twisted
        # columns.  The baseline follows the eigenvector phases and is not
        # compared.
        alice, bob, channel, p_det, _ = oracle_point(kind, seed)
        stats = DetectionStats(p_det=p_det)
        rng = np.random.default_rng([seed, 1])
        U, V = haar_unitary(rng, 2), haar_unitary(rng, 2)
        before = keyrate_point(alice, bob, channel, stats=stats)
        after = keyrate_point(rotated(alice, U), rotated(bob, V), channel, stats=stats)
        assert (after.p_det00, after.e_z) == (before.p_det00, before.e_z)
        np.testing.assert_allclose(twisted_columns(after), twisted_columns(before), rtol=0.0,
                                   atol=oracle_tol(before, after))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("kind", ["model", "asym", "node"])
    def test_linearity_in_the_node(self, kind, seed):
        # M -> c M scales the statistics by c: p_det00 and both rates scale
        # by c, and e_z, s_- and s_+ do not move.
        alice, bob, channel, p_det, _ = oracle_point(kind, seed)
        c = np.random.default_rng([seed, 2]).uniform(0.05, 1.0)
        r, scaled = (keyrate_point(alice, bob, channel, stats=DetectionStats(p_det=k * p_det))
                     for k in (1.0, c))
        assert scaled.p_det00 == pytest.approx(c * r.p_det00, rel=1e-14, abs=0.0)

        def unmoved(r):
            d = r.diagnostics
            return [r.e_z, d["twist_bound_minus"], d["twist_bound_plus"],
                    r.rate_twisted / r.p_det00, r.rate_naive / r.p_det00]

        np.testing.assert_allclose(unmoved(scaled), unmoved(r), rtol=0.0,
                                   atol=oracle_tol(r, scaled))


class TestNearPure:
    """Points just off purity, where an interior-point solve of the twist
    programs loses strict feasibility; the closed form has no such limit."""

    @pytest.mark.parametrize("depol", [0.0005, 0.001])
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.2])
    def test_returns_and_dominates_sampled_twists(self, delta, depol):
        for distance in (0.0, 50.0, 150.0):
            ens, eve, p00, e_z = pipeline_inputs(delta, depol, distance=distance)
            ak, bk = ens.key_states(), ens.key_states()
            opt = optimize_phase_errors(TwistProblem.from_key_states(ak, bk, eve, p00, e_z))
            assert 0.0 <= opt.e_minus <= e_z <= opt.e_plus <= 1.0
            em, ep = sampled_twist_values(ak, bk, eve, p00, 3000, seed=int(1e4 * depol + distance))
            assert np.all(em <= opt.e_minus + 1e-7)
            assert np.all(ep >= opt.e_plus - 1e-7)


def test_runtime_does_not_load_the_sdp_solver():
    code = "import sys, twistqkd; print('twistqkd.sdp' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestErrors:
    def test_bad_p00(self):
        ens, eve, p00, e_z = pipeline_inputs(0.0, 0.0)
        with pytest.raises(InvalidParamsError):
            TwistProblem.from_key_states(ens.key_states(), ens.key_states(), eve, 0.0, e_z)
        # p_det00 is checked before e_z
        with pytest.raises(InvalidParamsError, match="p_det00 must be positive"):
            TwistProblem.from_key_states(ens.key_states(), ens.key_states(), eve, 0.0, 2.0)

    @pytest.mark.parametrize("p00", [math.nan, math.inf, 0.0, -0.0])
    @pytest.mark.parametrize("stage", [
        lambda keys, p00, e_z: TwistProblem.from_key_states(*keys, p00, e_z),
        lambda keys, p00, e_z: naive_phase_errors(*keys, p00),
    ], ids=["TwistProblem", "naive_phase_errors"])
    def test_p00_must_be_positive_and_finite(self, stage, p00):
        ens, eve, _, e_z = pipeline_inputs(0.1, 0.05)
        keys = (ens.key_states(), ens.key_states(), eve)
        with pytest.raises(InvalidParamsError, match="^p_det00 must be positive and finite, got "):
            stage(keys, p00, e_z)

    def test_zero_prior_block_raises(self):
        ens, eve, p00, e_z = pipeline_inputs(0.1, 0.05)
        ak = list(ens.key_states())
        ak[1] = QubitState(rho=ak[1].rho, prob=0.0)
        problem = TwistProblem.from_key_states(ak, ens.key_states(), eve, p00, e_z)
        with pytest.raises(InvalidParamsError, match="zero"):
            optimize_phase_errors(problem)
