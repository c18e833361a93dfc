import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_complex
from loowit.linalg import herm_eigvalues, max_abs
from loowit.loo import (
    _phase_fixed_q,
    ORTHOGONALITY_TOL,
    apply_orthogonal,
    asym_slot,
    battery_mixings,
    cycle_mixings,
    diag_cycle,
    is_orthogonal,
    make_transform,
    random_orthogonal,
    random_unitary,
    standard_basis,
    standard_positions,
    sym_slot,
    transpose_transform,
)
from loowit.witness import perm_ew
from loowit.states import phi
from oracles import (
    conjugate_basis,
    expand,
    gram_matrix,
    pair_sum,
    reconstruct,
    swap_operator,
    transpose_basis,
    unitary_mixing_single,
    validate_basis,
)


class TestStandardBasis:
    def test_qubit_matrices(self):
        basis = standard_basis(2)
        s = 1.0 / np.sqrt(2.0)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        assert max_abs(basis[0] - np.diag([1.0, 0.0])) == 0.0
        assert max_abs(basis[1] - np.diag([0.0, 1.0])) == 0.0
        assert max_abs(basis[2] - s * sigma_x) < 1e-15
        assert max_abs(basis[3] - s * sigma_y) < 1e-15

    @pytest.mark.parametrize("d", range(2, 9))
    def test_gram_identity(self, d):
        assert max_abs(gram_matrix(standard_basis(d)) - np.eye(d * d)) < 1e-12

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_pair_sums(self, d):
        basis = standard_basis(d)
        v = phi(d)
        transposed = basis.transpose(0, 2, 1)
        assert max_abs(pair_sum(basis, transposed) - np.outer(v, v.conj())) < 1e-12
        assert max_abs(pair_sum(basis, basis) - swap_operator(d)) < 1e-12

    @given(st.integers(2, 5))
    def test_completeness(self, d):
        rng = np.random.default_rng(d)
        basis = standard_basis(d)
        x = random_complex(rng, d)
        assert max_abs(reconstruct(basis, expand(basis, x)) - x) < 1e-9

    def test_cached_read_only_array(self):
        basis = standard_basis(3)
        assert basis is standard_basis(3)
        assert basis.shape == (9, 3, 3)
        assert not basis.flags.writeable

    @pytest.mark.parametrize("d", range(2, 7))
    def test_positions_hold_every_nonzero_entry(self, d):
        basis = standard_basis(d)
        slots, values = standard_positions(d)
        rebuilt = np.zeros_like(basis)
        for m in range(d):
            for k in range(d):
                for i in range(2):
                    rebuilt[slots[i, m, k], m, k] += values[i, m, k]
        assert np.array_equal(rebuilt, basis)
        # a diagonal position holds its projector alone; elsewhere the symmetric slot comes first
        off = ~np.eye(d, dtype=bool)
        assert np.array_equal(np.diagonal(slots[0]), np.arange(d))
        assert (np.diagonal(values[1]) == 0).all()
        assert (slots[0][off] < slots[1][off]).all()
        assert not values.flags.writeable

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            standard_basis(1)

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (-1, 2), (0, 3)])
    def test_sym_slot_out_of_range_named(self, m, n):
        with pytest.raises(ValueError, match=rf"^need 0 <= m < n < d, got \({m}, {n}\) with d=3$"):
            sym_slot(3, m, n)

    def test_validate_deviations(self):
        for d in (2, 3, 4, 16):
            dev = validate_basis(standard_basis(d))
            assert all(v < 1e-12 for v in dev.values()), d


class TestApplyOrthogonal:
    def test_identity(self):
        basis = standard_basis(3)
        out = apply_orthogonal(basis, np.eye(9))
        assert max_abs(out - basis) == 0.0

    def test_permutation_matrix_reorders(self):
        basis = standard_basis(3)
        out = apply_orthogonal(basis, diag_cycle(3, 1))
        images = [1, 2, 0, 3, 4, 5, 6, 7, 8]
        for slot in range(9):
            assert max_abs(out[slot] - basis[images[slot]]) == 0.0

    def test_random_orthogonal_keeps_gram(self, rng):
        basis = standard_basis(3)
        for _ in range(10):
            out = apply_orthogonal(basis, make_transform(random_orthogonal(9, rng)))
            assert max_abs(gram_matrix(out) - np.eye(9)) < 1e-9

    def test_contraction_tagged_non_orthonormal(self):
        basis = standard_basis(2)
        out = apply_orthogonal(basis, make_transform(0.5 * np.eye(4)))
        assert max_abs(gram_matrix(out) - np.eye(4)) > 0.5

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply_orthogonal(standard_basis(2), np.eye(9))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"transform shape \(9, 4\) does not match basis size 4"):
            apply_orthogonal(standard_basis(2), np.ones((9, 4)))

    def test_stack_matches_members(self, rng):
        basis = standard_basis(3)
        stack = np.stack([random_orthogonal(9, rng) for _ in range(3)] + [np.eye(9)]).reshape(2, 2, 9, 9)
        out = apply_orthogonal(basis, stack)
        assert out.shape == (2, 2, 9, 3, 3)
        for index in np.ndindex(2, 2):
            assert np.array_equal(out[index], apply_orthogonal(basis, stack[index]))


class TestConjugateBasis:
    def test_identity(self):
        basis = standard_basis(3)
        assert max_abs(conjugate_basis(basis, np.eye(3)) - basis) == 0.0

    def test_phase_rotation_mixes_pairs(self):
        theta = 0.3
        basis = standard_basis(2)
        u = np.diag([1.0, np.exp(1j * theta)])
        out = conjugate_basis(basis, u)
        sym, asym = basis[sym_slot(2, 0, 1)], basis[asym_slot(2, 0, 1)]
        assert max_abs(out[0] - basis[0]) < 1e-15
        assert max_abs(out[1] - basis[1]) < 1e-15
        assert max_abs(out[2] - (np.cos(theta) * sym + np.sin(theta) * asym)) < 1e-14
        assert max_abs(out[3] - (np.cos(theta) * asym - np.sin(theta) * sym)) < 1e-14

    def test_gram_invariance(self, rng):
        basis = standard_basis(3)
        for _ in range(20):
            out = conjugate_basis(basis, random_unitary(3, rng))
            assert max_abs(gram_matrix(out) - np.eye(9)) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            conjugate_basis(standard_basis(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestTransposeBasis:
    def test_qubit_sign_flip(self):
        basis = standard_basis(2)
        out = transpose_basis(basis)
        for slot in range(3):
            assert max_abs(out[slot] - basis[slot]) == 0.0
        assert max_abs(out[3] + basis[3]) == 0.0

    def test_involution(self):
        basis = standard_basis(3)
        assert max_abs(transpose_basis(transpose_basis(basis)) - basis) == 0.0

    def test_transposed_pair_sum_is_swap(self):
        basis = transpose_basis(standard_basis(3))
        operator = pair_sum(basis, basis)
        assert max_abs(operator - swap_operator(3)) < 1e-12
        eigs = herm_eigvalues(operator)
        assert np.allclose(np.sort(eigs), [-1.0] * 3 + [1.0] * 6, atol=1e-12)


class TestTransforms:
    def test_transpose_transform_qubit(self):
        assert max_abs(transpose_transform(2) - np.diag([1.0, 1.0, 1.0, -1.0])) == 0.0

    def test_cycle_power_is_identity_mixing(self):
        # the cycle by 1 has order d, so its d-th power is the identity mixing exactly
        assert np.array_equal(np.linalg.matrix_power(diag_cycle(3, 1), 3), np.eye(9))

    # the mixing a unitary induces on the standard set (unitary_mixing_single)
    def test_unitary_transform_orthogonal(self, rng):
        for _ in range(20):
            r = unitary_mixing_single(random_unitary(3, rng), 3)
            assert max_abs(r @ r.T - np.eye(9)) < 1e-9

    def test_unitary_transform_matches_conjugation(self, rng):
        basis = standard_basis(3)
        for _ in range(5):
            u = random_unitary(3, rng)
            via_transform = apply_orthogonal(basis, unitary_mixing_single(u, 3))
            via_conjugation = conjugate_basis(basis, u)
            assert max_abs(via_transform - via_conjugation) < 1e-9

    @pytest.mark.parametrize("d", (2, 3))
    def test_transpose_not_unitary_generated(self, d, rng):
        # determinant separates the transposition from every unitary-induced
        # mixing; evidence, not a proof
        t = transpose_transform(d)
        assert max_abs(t - t.T) == 0.0
        expected = (-1.0) ** (d * (d - 1) // 2)
        assert abs(np.linalg.det(t) - expected) < 1e-9
        for _ in range(10):
            assert abs(np.linalg.det(unitary_mixing_single(random_unitary(d, rng), d)) - 1.0) < 1e-9

    def test_make_transform_classification(self):
        assert is_orthogonal(make_transform(np.eye(4)))
        assert not is_orthogonal(make_transform(0.3 * np.eye(4)))
        with pytest.raises(ValueError, match="2.25"):
            make_transform(1.5 * np.eye(4))
        with pytest.raises(ValueError, match="non-finite"):
            make_transform(np.diag([1.0, np.nan, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "matrix, peak",
        [(np.full((2, 2), 1e308), "1e+308"), (1e200 * np.eye(4), "1e+200"), (1e160 * np.eye(9), "1e+160")],
        ids=("full-2x2", "eye-4", "eye-9"),
    )
    def test_make_transform_rejects_overflowing_entries(self, matrix, peak):
        # O O^T overflows on each: the entry bound |O_ij| <= 1 rejects them before it is formed
        with pytest.raises(ValueError) as exc:
            make_transform(matrix)
        assert type(exc.value) is ValueError  # not LAPACK's LinAlgError, a ValueError subclass
        assert str(exc.value).startswith(
            f"transform is neither orthogonal nor a contraction: max |O_ij| is {peak}, "
        )

    @pytest.mark.parametrize("shape", [(3, 4), (9,), (2, 3, 3)])
    def test_make_transform_rejects_non_square(self, shape):
        shown = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"^transform must be square, got shape {shown}$"):
            make_transform(np.zeros(shape))

    def test_make_transform_rejects_every_complex_array(self):
        # the reduction kernel's rule: a complex mixing is rejected even with a zero imaginary part
        with pytest.raises(ValueError, match="transform matrix must be real"):
            make_transform(np.eye(9, dtype=complex))

    def test_make_transform_returns_float_array(self):
        out = make_transform(np.eye(3, dtype=int))
        assert out.dtype == float
        assert np.array_equal(out, np.eye(3))

    def test_is_orthogonal(self, rng):
        assert is_orthogonal(random_orthogonal(9, rng))
        assert is_orthogonal(transpose_transform(3))
        assert not is_orthogonal(0.5 * np.eye(4))
        assert not is_orthogonal(np.eye(4)[:3])  # not square
        assert not is_orthogonal(np.diag([1.0, np.nan]))
        assert not is_orthogonal(np.eye(4) + 2 * ORTHOGONALITY_TOL)


class TestPermutations:
    def test_diag_cycle_examples(self):
        cycle = diag_cycle(3, 1)
        assert cycle.dtype == float
        assert np.array_equal(cycle, np.eye(9)[[1, 2, 0, 3, 4, 5, 6, 7, 8]])
        assert np.trace(cycle) == 6
        assert np.array_equal(diag_cycle(3, 2), cycle.T)

    def test_fixed_slot_count(self):
        # perm_ew counts the fixed slots of a permutation mixing as its trace
        assert perm_ew(np.eye(9), 3).provenance == "permutation(fixed_points=9)"
        swap_two = np.eye(9)[[1, 0, 2, 3, 4, 5, 6, 7, 8]]
        assert perm_ew(swap_two, 3).provenance == "permutation(fixed_points=7)"

    @pytest.mark.parametrize("d", range(2, 9))
    def test_cycle_mixings_stack_the_shifts(self, d):
        # the battery's stack is built once per d: identity, transpose, then the shifts, bit for bit
        members = [np.eye(d * d), transpose_transform(d), *(diag_cycle(d, l) for l in range(1, d))]
        battery = battery_mixings(d)
        assert battery.dtype == float and battery.shape == (d + 1, d * d, d * d)
        assert battery.tobytes() == np.stack(members).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            battery[0, 0, 0] = 2.0
        stack = cycle_mixings(d)
        assert stack.shape == (d - 1, d * d, d * d)
        assert stack.tobytes() == battery[2:].tobytes() and not stack.flags.writeable
        for l in range(1, d):
            assert np.array_equal(stack[l - 1], diag_cycle(d, l))

    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_cycle_fixed_point_count(self, d):
        for l in range(1, d):
            assert np.trace(diag_cycle(d, l)) == d * d - d

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="1 <= l <= d-1"):
            diag_cycle(3, 3)
        with pytest.raises(ValueError, match="1 <= l <= d-1"):
            diag_cycle(3, 0)


class TestRandomSampling:
    def test_orthogonal_and_unitary(self, rng):
        o = random_orthogonal(5, rng)
        assert max_abs(o @ o.T - np.eye(5)) < 1e-12
        u = random_unitary(5, rng)
        assert max_abs(u @ u.conj().T - np.eye(5)) < 1e-12

    def test_seed_reproducible(self):
        a = random_orthogonal(4, np.random.default_rng(11))
        b = random_orthogonal(4, np.random.default_rng(11))
        assert np.array_equal(a, b)

    @staticmethod
    def stacked_and_lone(sampler, n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """One size=(k,) call, and np.stack of k successive lone calls on an equal generator."""
        stack = sampler(n, np.random.default_rng(seed), (k,))
        rng = np.random.default_rng(seed)
        lone = np.stack([sampler(n, rng) for _ in range(k)])
        return stack, lone

    @given(st.integers(4, 36), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_orthogonal_sequence_has_the_bits_of_lone_calls(self, n, k, seed):
        stack, lone = self.stacked_and_lone(random_orthogonal, n, k, seed)
        assert stack.shape == lone.shape == (k, n, n) and stack.tobytes() == lone.tobytes()
        assert max_abs(stack @ np.swapaxes(stack, -1, -2) - np.eye(n)) < 1e-12

    @given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_unitary_sequence_has_the_bits_of_lone_calls(self, n, k, seed):
        stack, lone = self.stacked_and_lone(random_unitary, n, k, seed)
        assert stack.shape == lone.shape == (k, n, n) and stack.tobytes() == lone.tobytes()
        assert max_abs(stack @ np.swapaxes(stack, -1, -2).conj() - np.eye(n)) < 1e-12

    @given(st.integers(2, 36), st.integers(0, 2**32 - 1))
    def test_lone_calls_have_the_bits_of_one_matrix_qr(self, n, seed):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        assert random_orthogonal(n, np.random.default_rng(seed)).tobytes() == (q * np.sign(np.diag(r))).tobytes()
        m = min(n, 6)
        z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        expected = q * (np.diag(r) / np.abs(np.diag(r)))
        rng = np.random.default_rng(seed)
        random_orthogonal(n, rng)
        assert random_unitary(m, rng).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", (float, complex))
    def test_zero_r_diagonal_keeps_phase_one(self, dtype):
        z = np.zeros((3, 3), dtype=dtype)
        assert np.array_equal(_phase_fixed_q(z), np.linalg.qr(z)[0])

    @pytest.mark.parametrize("sampler", [random_orthogonal, random_unitary])
    def test_empty_sequence_gives_an_empty_stack(self, sampler):
        assert sampler(3, np.random.default_rng(0), (0,)).shape == (0, 3, 3)
