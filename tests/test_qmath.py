import warnings

import numpy as np
import pytest

from conftest import random_hermitian, real_embed_hermitian
from twistqkd.errors import NotHermitianError
from twistqkd.qmath import PAULI, kron, psd_project, require_hermitian, vec_rowmajor


class TestVec:
    def test_identity(self):
        np.testing.assert_array_equal(vec_rowmajor(np.eye(2)), [1, 0, 0, 1])

    def test_h_bra_v(self):
        M = np.zeros((2, 2))
        M[0, 1] = 1.0  # |H><V|
        np.testing.assert_array_equal(vec_rowmajor(M), [0, 1, 0, 0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        rng = np.random.default_rng(d)
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.testing.assert_array_equal(vec_rowmajor(M).reshape(d, d), M)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            vec_rowmajor(np.zeros((2, 3)))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector(self):
        H = np.array([[1, 0], [0, 0]], dtype=complex)
        V = np.array([[0, 0], [0, 1]], dtype=complex)
        P = kron(H, V)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |HV> has index 2*0 + 1
        np.testing.assert_array_equal(P, expected)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                np.trace(kron(A, B)), np.trace(A) * np.trace(B), atol=1e-12
            )

    def test_stack_matches_each_pair(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        B = rng.normal(size=(3, 2, 3)) + 1j * rng.normal(size=(3, 2, 3))
        K = kron(A, B)
        assert K.shape == (3, 4, 6)
        for k in range(3):
            np.testing.assert_array_equal(K[k], np.kron(A[k], B[k]))


class TestRequireHermitian:
    def test_entries_beyond_the_squares_range(self):
        # the squares of 1e200 overflow: the matrix is judged scaled by a
        # power of two, with no floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError,
                               match=r"asymmetry 1\.414e\+200 exceeds 1\.0e-12 \* 1\.732e\+200"):
                require_hermitian(np.array([[1e200, 1e200], [0.0, 1e200]]))
            hermitian = np.array([[1e200, 1e200j], [-1e200j, 3e200]])
            np.testing.assert_array_equal(require_hermitian(hermitian), hermitian)
            # a finite matrix stacked with it keeps its verdict and message
            with pytest.raises(NotHermitianError,
                               match=r"asymmetry 1\.414e-03 exceeds 1\.0e-12 \* 1\.414e\+00"):
                require_hermitian(np.array([hermitian, [[1.0, 1e-3], [0.0, 1.0]]]))
            with pytest.raises(NotHermitianError, match="NaN or Inf"):
                require_hermitian(np.array([hermitian, [[np.inf, 0.0], [0.0, 1.0]]]))


class TestPsdProject:
    def test_psd_input_unchanged(self):
        M = np.diag([1.0, 0.5, 0.0]).astype(complex)
        out, mass, top = psd_project(M)
        assert out is M
        assert mass == 0.0
        assert top == 1.0

    def test_tiny_negative_clipped(self):
        out, mass, _ = psd_project(np.diag([1.0, -1e-12]).astype(complex))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-15)
        assert mass == pytest.approx(1e-12)

    def test_matches_eigen_clipping_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            M = random_hermitian(rng, 5)
            w, V = np.linalg.eigh(M)
            oracle = (V * np.maximum(w, 0.0)) @ V.conj().T
            out, mass, top = psd_project(M)
            np.testing.assert_allclose(out, oracle, atol=1e-12)
            assert top == w[-1]
            assert mass == pytest.approx(float(-np.sum(w[w < 0])), abs=1e-12)
            # nearest PSD matrix in Frobenius norm
            assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(17)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        stack[2] = np.diag([1.0, 0.5, 0.25, 0.0])
        out, mass, top = psd_project(stack)
        assert mass.shape == top.shape == (6,)
        for M, M_psd, m, t in zip(stack, out, mass, top):
            expected, expected_mass, expected_top = psd_project(M)
            np.testing.assert_allclose(M_psd, expected, atol=1e-13)
            assert m == pytest.approx(expected_mass, abs=1e-13)
            assert t == pytest.approx(expected_top, abs=1e-13)
        np.testing.assert_array_equal(out[2], stack[2])


class TestRealEmbed:
    """The real symmetric embedding of the SDP oracle in ``conftest``."""

    def test_real_symmetric_duplicates(self):
        C = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        out = real_embed_hermitian(C)
        np.testing.assert_allclose(out[:2, :2], C.real)
        np.testing.assert_allclose(out[2:, 2:], C.real)
        np.testing.assert_allclose(out[:2, 2:], 0.0, atol=1e-15)

    def test_pauli_y_spectrum(self):
        out = real_embed_hermitian(PAULI[2])
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-1, -1, 1, 1], atol=1e-14)

    def test_spectrum_doubled(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            C = random_hermitian(rng, 4)
            w = np.linalg.eigvalsh(C)
            w_emb = np.linalg.eigvalsh(real_embed_hermitian(C))
            np.testing.assert_allclose(w_emb, np.sort(np.repeat(w, 2)), atol=1e-10)

    def test_preserves_psd_both_directions(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            C = G @ G.conj().T  # PSD
            assert np.linalg.eigvalsh(real_embed_hermitian(C))[0] >= -1e-10
            H = random_hermitian(rng, 4)
            if np.linalg.eigvalsh(H)[0] < -1e-6:
                assert np.linalg.eigvalsh(real_embed_hermitian(H))[0] < -1e-8

    def test_trace_doubled(self):
        rng = np.random.default_rng(23)
        C = random_hermitian(rng, 3)
        np.testing.assert_allclose(
            np.trace(real_embed_hermitian(C)), 2 * np.trace(C).real, atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            real_embed_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
