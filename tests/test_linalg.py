"""Operator and state primitives: algebra, exponentials, reductions."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag import linalg
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_state, bell_basis,
                          bell_state, expm_hermitian, haar_state,
                          index_normals, is_hermitian, is_unitary, pure_cov,
                          tensor)


class TestPauli:
    def test_definitions(self):
        np.testing.assert_array_equal(SIGMA_X, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(SIGMA_Y, [[0, -1j], [1j, 0]])
        np.testing.assert_array_equal(SIGMA_Z, [[1, 0], [0, -1]])

    def test_involution(self):
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_allclose(s @ s, I2, atol=1e-15)

    def test_traceless_hermitian_unitary(self):
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert abs(np.trace(s)) == 0
            assert is_hermitian(s)
            assert is_unitary(s)

    @pytest.mark.parametrize("name", ["I2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z"])
    def test_shared_constants_are_read_only(self, name):
        m = getattr(linalg, name)
        # checked before the write, which would corrupt every later test
        assert not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7.0


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
        psi = np.eye(4)[0]
        np.testing.assert_allclose(tensor(SIGMA_Z, SIGMA_Z) @ psi, psi)

    def test_x_on_first_qubit_of_bell(self):
        out = tensor(SIGMA_X, I2) @ bell_state("phi+")
        expected = (np.eye(4)[2] + np.eye(4)[1]) / np.sqrt(2)  # (|10> + |01>)/sqrt2
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


class TestPureCov:
    def test_variance_of_x_in_bell(self):
        op = tensor(SIGMA_X, I2)
        assert pure_cov(bell_state("phi+"), op, op) == pytest.approx(1.0)

    def test_xy_cross_covariance_vanishes(self):
        a = tensor(SIGMA_X, I2)
        b = tensor(SIGMA_Y, I2)
        assert pure_cov(bell_state("phi+"), a, b) == pytest.approx(0.0, abs=1e-14)

    def test_eigenstate_has_zero_variance(self):
        assert pure_cov(np.eye(2)[0], SIGMA_Z, SIGMA_Z) == pytest.approx(0.0, abs=1e-14)

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
            pure_cov(np.eye(2)[0], tensor(SIGMA_X, I2), tensor(SIGMA_X, I2))


class TestStates:
    def test_as_state_validates_norm(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_as_state_refuses_a_non_finite_norm(self, value):
        # NaN compares False with the tolerance, so it must fail the check
        with pytest.raises(ValueError, match=f"norm\\^2 = {value} is not 1"):
            as_state(np.array([value, 0.0]))

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
        for n in (4, 1000):  # row by row, and in a batch
            with pytest.raises(RuntimeError, match="differs from default_rng"):
                index_normals(0, n, 8)

    def test_bad_arguments_raise_before_any_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the argument check")

        for name in ("empty", "zeros", "arange", "array"):
            monkeypatch.setattr(np, name, refuse)
        for name in ("_ziggurat_tables", "_probe", "_seed_words"):
            monkeypatch.setattr(linalg, name, refuse)
        with pytest.raises(ValueError, match="non-negative"):
            index_normals(-1, 4000, 8)
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
        # size is checked by name too, not left to numpy's own errors
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            index_normals(0, 4, -1)
        with pytest.raises(ValueError,
                           match="^size must be an integer, got True$"):
            index_normals(0, 4, True)
        with pytest.raises(ValueError,
                           match="^size must be an integer, got 1.5$"):
            index_normals(0, 4, 1.5)


@pytest.fixture
def batches(monkeypatch):
    """The row counts of the chunks that take index_normals' batch path.
    The probed tables are cleared before and after."""
    calls = []
    real = linalg._batch_normals

    def spy(block, *states):
        calls.append(len(block))
        return real(block, *states)

    monkeypatch.setattr(linalg, "_batch_normals", spy)
    linalg._ziggurat_tables.cache_clear()
    yield calls
    linalg._ziggurat_tables.cache_clear()


class TestIndexNormalsBatch:
    # seeds of one to four entropy words
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 + 3, 2**96 + 7])
    def test_rows_are_the_default_rng_streams(self, batches, seed, size):
        n = linalg._BATCH_ROWS_PER_DRAW * size + 37
        got = index_normals(seed, n, size)
        assert batches == [n]
        assert got.tobytes() == _rows(seed, range(n), size).tobytes()

    def test_chunks_take_it_down_to_the_break_even(self, batches,
                                                   monkeypatch):
        monkeypatch.setattr(linalg, "_CHUNK_ROWS", 100)
        assert linalg._BATCH_ROWS_PER_DRAW * 3 == 48
        for n, chunks in ((348, [100, 100, 100, 48]), (347, [100] * 3)):
            batches.clear()
            got = index_normals(7919, n, 3)
            assert batches == chunks
            assert got.tobytes() == _rows(7919, range(n), 3).tobytes()

    def test_larger_rows_and_smaller_calls_go_row_by_row(self, batches):
        size = linalg._BATCH_SIZE + 1
        index_normals(3, 100 * size, size)
        index_normals(3, linalg._BATCH_ROWS_PER_DRAW * 8 - 1, 8)
        assert batches == []

    def test_the_tables_are_probed_on_first_use_not_at_import(self):
        src = str(Path(linalg.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import acmag.cli, acmag.linalg as m; "
             "print(m._ziggurat_tables.cache_info().currsize)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "0\n", done.stderr

    def test_the_probed_tables_cover_every_idx_but_one(self):
        wi, bound = linalg._ziggurat_tables()
        # numpy's ki[1] is 0, so idx 1 always leaves the fast branch
        assert bound[1] == 0
        assert np.all(bound[np.arange(256) != 1] > 2**51)
        assert np.all(bound <= 2**52) and np.all(wi > 0)
        # a row of 8 draws leaves it about one time in ten
        entropy = np.array([[0] * 4000, range(4000)], dtype=np.uint32)
        redrawn = linalg._batch_normals(np.empty((4000, 8)),
                                        *linalg._seed_words(entropy))
        assert len(redrawn) == 409

    def test_a_probe_counts_the_outputs_its_draw_took(self):
        wi, _ = linalg._ziggurat_tables()
        bits = np.random.PCG64(0)
        gen = np.random.Generator(bits)
        # rabs 2**51 at idx 3 takes the fast branch: one output
        assert linalg._probe(bits, gen, 1 << 60 | 3) == (2.0**51 * wi[3], 1)
        # numpy's ki[1] is 0: the slow branch reads the 0 after r, which
        # accepts x at once
        assert linalg._probe(bits, gen, 1 << 60 | 1) == (2.0**51 * wi[1], 2)
        # rabs 2**52 - 1 at idx 0 goes to the tail, which reads two more
        z, took = linalg._probe(bits, gen, ((1 << 52) - 1) << 9)
        assert took == 0 and z < -3.6

    def test_each_bound_is_the_probe_that_verified_it_plus_one(self, batches,
                                                              monkeypatch):
        probed = {}
        real = linalg._probe

        def spy(bits, gen, r):
            if r >> 9 != 1 << 51:  # a bound check, not a width
                probed[r & 0xFF] = r >> 9
            return real(bits, gen, r)

        monkeypatch.setattr(linalg, "_probe", spy)
        _, bound = linalg._ziggurat_tables()
        assert [probed[i] + 1 for i in np.flatnonzero(bound)] == \
            bound[bound > 0].tolist()

    def test_a_draw_at_its_bound_leaves_the_batch(self, monkeypatch):
        # row 0's one draw sits at its idx's bound, where the batch would
        # use a doubled width
        r = int(np.random.default_rng([0, 0]).bit_generator.random_raw())
        i, rabs = r & 0xFF, r >> 9 & (1 << 52) - 1
        wi, bound = (a.copy() for a in linalg._ziggurat_tables())
        wi[i], bound[i] = 2 * wi[i], rabs
        monkeypatch.setattr(linalg, "_ziggurat_tables", lambda: (wi, bound))
        got = index_normals(0, linalg._BATCH_ROWS_PER_DRAW, 1)
        assert got[0].tobytes() == _rows(0, [0], 1).tobytes()

    def test_tables_without_a_fast_branch_give_the_same_bytes(self,
                                                             monkeypatch):
        wi, bound = linalg._ziggurat_tables()
        want = index_normals(5, 500, 8)
        monkeypatch.setattr(linalg, "_ziggurat_tables",
                            lambda: (wi, np.zeros_like(bound)))
        got = index_normals(5, 500, 8)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == _rows(5, range(500), 8).tobytes()

    def test_a_probe_that_disagrees_disables_its_idx(self, batches,
                                                     monkeypatch):
        _, want = linalg._ziggurat_tables()
        linalg._ziggurat_tables.cache_clear()
        real = linalg._probe

        def probe(bits, gen, r):
            z, took = real(bits, gen, r)
            check = r >> 9 != 1 << 51  # a bound check, not a width
            if r & 0xFF == 5 and check:  # a value off by one ulp
                z = float(np.nextafter(z, 0.0))
            if r & 0xFF == 7 and not check:  # a width after more outputs
                took = 0
            if r & 0xFF == 9 and check:  # the value, after two outputs
                took = 2
            return z, took

        monkeypatch.setattr(linalg, "_probe", probe)
        _, bound = linalg._ziggurat_tables()
        # idx 8's bound is predicted from idx 7's width
        assert np.flatnonzero(bound != want).tolist() == [5, 7, 8, 9]
        assert not bound[[5, 7, 8, 9]].any()
        got = index_normals(0, 1000, 8)
        assert batches == [1000]
        assert got.tobytes() == _rows(0, range(1000), 8).tobytes()


_NON_HERMITIAN = np.triu(np.ones((4, 4))) / 4


@pytest.mark.parametrize("call,match", [
    (lambda: pure_cov(bell_state("phi+"), _NON_HERMITIAN, np.eye(4)),
     "pure_cov requires Hermitian operators"),
], ids=["pure_cov"])
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
