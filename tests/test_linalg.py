"""Operator and state primitives: algebra, exponentials, reductions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag import linalg
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_state, bell_basis,
                          bell_state, density, expm_hermitian, haar_state,
                          index_normals, is_hermitian, is_unitary, ket,
                          partial_trace, pauli_op, pure_cov, tensor)


class TestPauli:
    def test_definitions(self):
        np.testing.assert_array_equal(pauli_op("x"), [[0, 1], [1, 0]])
        np.testing.assert_array_equal(pauli_op("z"), [[1, 0], [0, -1]])

    def test_involution(self):
        for axis in "xyz":
            s = pauli_op(axis)
            np.testing.assert_allclose(s @ s, I2, atol=1e-15)

    def test_traceless_hermitian_unitary(self):
        for axis in "xyz":
            s = pauli_op(axis)
            assert abs(np.trace(s)) == 0
            assert is_hermitian(s)
            assert is_unitary(s)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli_op("w")


class TestIsHermitian:
    def test_a_stack_is_checked_matrix_by_matrix(self):
        stack = np.stack([SIGMA_X, SIGMA_Y, 0.3 * SIGMA_Z])
        assert is_hermitian(stack)
        stack[1, 0, 1] += 1e-6
        assert not is_hermitian(stack)
        assert [is_hermitian(h) for h in stack] == [True, False, True]

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1j * np.nan])
    def test_a_non_finite_entry_is_not_hermitian(self, value):
        # a NaN compares False with any tolerance, so it must fail the check
        for i, j in [(0, 0), (0, 1)]:
            h = SIGMA_X.copy()
            h[i, j] = value
            assert not is_hermitian(h)
            assert not is_hermitian(np.stack([SIGMA_Z, h]))


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_zz_eigenvalue_on_00(self):
        psi = ket(4, 0)
        np.testing.assert_allclose(tensor(SIGMA_Z, SIGMA_Z) @ psi, psi)

    def test_x_on_first_qubit_of_bell(self):
        out = tensor(SIGMA_X, I2) @ bell_state("phi+")
        expected = (ket(4, 2) + ket(4, 1)) / np.sqrt(2)  # (|10> + |01>)/sqrt2
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_dimension_cap(self):
        m4 = tensor(SIGMA_X, SIGMA_X)
        m16 = tensor(m4, m4)
        assert m16.shape == (16, 16)
        with pytest.raises(ValueError):
            tensor(m16, SIGMA_X)


class TestExpmHermitian:
    def test_pauli_x_quarter_period(self):
        np.testing.assert_allclose(expm_hermitian(SIGMA_X, np.pi / 2),
                                   -1j * SIGMA_X, atol=1e-14)

    def test_zero_time(self):
        np.testing.assert_allclose(expm_hermitian(SIGMA_Y, 0.0), I2, atol=1e-15)

    def test_diagonal_case(self):
        theta = 0.7321
        u = expm_hermitian(SIGMA_Z, theta)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-1j * theta), np.exp(1j * theta)]), atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_inverse_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (a + a.conj().T) / 2
            t = rng.uniform(-100, 100)
            u = expm_hermitian(h, t) @ expm_hermitian(h, -t)
            np.testing.assert_allclose(u, np.eye(4), atol=1e-10)

    def test_composition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = (a + a.conj().T) / 2
            t, s = rng.uniform(-5, 5, size=2)
            np.testing.assert_allclose(
                expm_hermitian(h, t + s),
                expm_hermitian(h, t) @ expm_hermitian(h, s), atol=1e-9)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = partial_trace(density(bell_state("phi+")))
        np.testing.assert_allclose(rho, I2 / 2, atol=1e-14)

    def test_product_state(self):
        rho = partial_trace(density(ket(4, 0)))
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_trace_preserved_and_psd_on_random_states(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            r = partial_trace(density(haar_state(4, rng)))
            assert abs(np.trace(r).real - 1.0) < 1e-12
            np.testing.assert_allclose(r, r.conj().T, rtol=0, atol=1e-12)
            assert np.linalg.eigvalsh(r).min() > -1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError):
            partial_trace(np.eye(4, dtype=complex))  # trace 4, not 1


class TestPureCov:
    def test_variance_of_x_in_bell(self):
        op = tensor(SIGMA_X, I2)
        assert pure_cov(bell_state("phi+"), op, op) == pytest.approx(1.0)

    def test_xy_cross_covariance_vanishes(self):
        a = tensor(SIGMA_X, I2)
        b = tensor(SIGMA_Y, I2)
        assert pure_cov(bell_state("phi+"), a, b) == pytest.approx(0.0, abs=1e-14)

    def test_eigenstate_has_zero_variance(self):
        assert pure_cov(ket(2, 0), SIGMA_Z, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_and_nonnegative_variance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            psi = haar_state(2, rng)
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = (a + a.conj().T) / 2
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = (b + b.conj().T) / 2
            assert abs(pure_cov(psi, a, b) - pure_cov(psi, b, a)) <= 1e-12
            assert pure_cov(psi, a, a) >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pure_cov(ket(2, 0), tensor(SIGMA_X, I2), tensor(SIGMA_X, I2))


class TestStates:
    def test_as_state_validates_norm(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 1.0]))

    def test_bell_states_orthonormal(self):
        basis = bell_basis()
        gram = np.array([[abs(a.conj() @ b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_unknown_bell_label(self):
        with pytest.raises(ValueError):
            bell_state("phi")


def _rows(seed, indices, size):
    return np.array([np.random.default_rng([seed, i]).standard_normal(size)
                     for i in indices]).reshape(len(indices), size)


class TestIndexNormals:
    # seeds of one, two, three and four entropy words; four or more run
    # SeedSequence's remaining-entropy mix
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 7]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.sampled_from(SEEDS) | st.integers(0, 2**64 - 1),
           n=st.integers(1, 40), size=st.integers(1, 8))
    def test_rows_are_the_default_rng_streams_bit_for_bit(self, seed, n,
                                                          size):
        got = index_normals(seed, n, size)
        assert got.shape == (n, size) and got.dtype == np.float64
        assert got.tobytes() == _rows(seed, range(n), size).tobytes()

    def test_indices_past_two_bytes(self):
        # index words with their high halves set
        idx = [0, 255, 256, 65535, 65536, 65537]
        got = index_normals(7919, 65538, 3)
        assert got[idx].tobytes() == _rows(7919, idx, 3).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_longer_call_extends_a_shorter_one(self, seed):
        assert (index_normals(seed, 50, 8)[:17].tobytes()
                == index_normals(seed, 17, 8).tobytes())

    def test_no_indices_is_an_empty_table(self):
        assert index_normals(3, 0, 8).shape == (0, 8)

    def test_changed_seeding_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "_MIX_L", linalg._MIX_L ^ 1)
        with pytest.raises(RuntimeError, match="differs from default_rng"):
            index_normals(0, 4, 8)

    def test_bad_arguments_raise_before_any_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the argument check")

        for name in ("empty", "zeros", "arange", "array"):
            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            index_normals(0, 2**32 + 1, 8)
        with pytest.raises(ValueError, match="non-negative"):
            index_normals(-1, 4, 8)
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            index_normals(0, -1, 8)
        with pytest.raises(ValueError,
                           match="^n must be an integer, got 2.5$"):
            index_normals(0, 2.5, 8)
        # the count check runs first, so a string n is named, not compared
        with pytest.raises(ValueError,
                           match="^n must be an integer, got '3'$"):
            index_normals(0, "3", 2)
        with pytest.raises(TypeError,
                           match="^seed must be an integer, got 1.0$"):
            index_normals(1.0, 4, 8)
        # operator.index takes True as 1, the streams of seed 1
        with pytest.raises(TypeError,
                           match="^seed must be an integer, got True$"):
            index_normals(True, 4, 8)


_NON_HERMITIAN = np.triu(np.ones((4, 4))) / 4


@pytest.mark.parametrize("call,match", [
    (lambda: pure_cov(bell_state("phi+"), _NON_HERMITIAN, np.eye(4)),
     "pure_cov requires Hermitian operators"),
    (lambda: partial_trace(_NON_HERMITIAN),
     "density matrix must be Hermitian"),
], ids=["pure_cov", "partial_trace"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# one count of each kind with its verdict and exact message (None where it
# is accepted): plain ints take a path of their own and must agree with
# the numpy path that every other kind takes
@pytest.mark.parametrize("value,minimum,message", [
    (5, 5, None), (6, 5, None), (0, 0, None),
    (4, 5, "n must be >= 5, got 4"),
    (-1, 0, "n must be >= 0, got -1"),
    # numpy holds ints below 2**64 as int64 or uint64, larger ones as objects
    (2**64 - 1, 1, None),
    (2**64, 1, "n must be an integer, got 18446744073709551616"),
    (True, 1, "n must be an integer, got True"),
    (False, 0, "n must be an integer, got False"),
    (np.True_, 1, "n must be an integer, got np.True_"),
    (2.0, 1, "n must be an integer, got 2.0"),
    (np.int64(3), 1, None), (np.uint8(2), 1, None),
    (np.int64(0), 1, "n must be >= 1, got np.int64(0)"),
    (np.array([1, 2]), 1, None), (np.array([], dtype=int), 1, None),
    (np.array([0, 2]), 1, "n must be >= 1, got array([0, 2])"),
    (np.array([True]), 0, "n must be an integer, got array([ True])"),
])
def test_count_check_verdicts(value, minimum, message):
    if message is None:
        linalg._check_count(value, "n", minimum)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg._check_count(value, "n", minimum)


def test_plain_int_counts_skip_numpy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a plain int count went through numpy")

    monkeypatch.setattr(np, "asarray", refuse)
    linalg._check_count(7, "n", 1)
    linalg._check_count(0, "n")
