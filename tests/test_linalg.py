import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    near_float_limit_rho,
    overflowing_entry_rho,
    random_complex,
    random_density,
    random_hermitian,
    same_bits,
)
from loowit.linalg import (
    HERMITICITY_TOL,
    DimPair,
    checked_spectrum,
    dagger,
    herm_eigvalues,
    is_psd,
    max_abs,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from loowit.loo import (
    battery_mixings,
    diag_cycle,
    random_orthogonal,
    random_unitary,
    standard_basis,
    sym_slot,
    transpose_transform,
)
from loowit.states import (
    FamilyParams,
    check_densities,
    family_rho,
    family_special,
    horodecki_rho,
    make_state,
    max_entangled,
    phi,
    random_separable_state,
    special_slice,
    werner2,
)
from loowit.sweep import run_sweep


def assert_non_finite_named(f):
    """f raises a named error for a NaN in a single matrix and for a NaN or inf in a stack member."""
    with pytest.raises(ValueError, match=r"^matrix has non-finite entries \(NaN or inf\)$"):
        f(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        stack = np.stack([np.eye(3, dtype=complex)] * 3)
        stack[1, 2, 0] = stack[1, 0, 2] = bad
        with pytest.raises(ValueError, match=r"^matrix\[1\] has non-finite entries \(NaN or inf\)$"):
            f(stack)


class TestDimPair:
    @pytest.mark.parametrize("d_a, d_b", [(1, 3), (3, 1), (0, 0)])
    def test_dimension_below_two_named(self, d_a, d_b):
        # d_A is checked first
        name, value = ("d_A", d_a) if d_a < 2 else ("d_B", d_b)
        with pytest.raises(ValueError, match=rf"^subsystem dimension {name} must be an integer >= 2, got {value}$"):
            DimPair(d_a, d_b)

    def test_square_dim_of_non_square_pair_named(self):
        assert DimPair.square(3).square_dim == 3
        with pytest.raises(ValueError, match=r"^operation requires d_A == d_B, got \(2, 3\)$"):
            DimPair(2, 3).square_dim


# Each count or dimension an entry point takes: a call with it, its name in linalg.require_count's
# message, and its least value.
COUNTS = {
    "DimPair-d_A": (lambda n: DimPair(n, 3), "subsystem dimension d_A", 2),
    "DimPair-d_B": (lambda n: DimPair(3, n), "subsystem dimension d_B", 2),
    "standard_basis": (standard_basis, "local dimension d", 2),
    "battery_mixings": (battery_mixings, "local dimension d", 2),
    "transpose_transform": (transpose_transform, "local dimension d", 2),
    "diag_cycle-d": (lambda n: diag_cycle(n, 1), "local dimension d", 2),
    "diag_cycle-l": (lambda n: diag_cycle(3, n), "shift l", 1),
    "phi": (phi, "local dimension d", 2),
    "FamilyParams": (lambda n: FamilyParams(n, (0.5, 0.5)), "local dimension d", 2),
    "special_slice": (lambda n: special_slice(n, 0.2, 0.5), "special slice dimension d", 3),
    "family_special": (lambda n: family_special(n, 0.2, 0.5), "special slice dimension d", 3),
    "random_separable_state": (lambda n: random_separable_state(DimPair.square(2), n, 0), "mixture count k", 1),
    "run_sweep-d": (lambda n: run_sweep(n, 4), "special slice dimension d", 3),
    "run_sweep-resolution": (lambda n: run_sweep(3, n), "grid resolution", 2),
}


class TestRequireCount:
    """Every count goes through linalg.require_count: a float, a bool or a value below the least is named."""

    @pytest.mark.parametrize("entry", COUNTS)
    @pytest.mark.parametrize("kind", ["fraction", "integral-float", "bool", "below-least"])
    def test_bad_count_named(self, entry, kind):
        f, name, least = COUNTS[entry]
        whole = max(least, 2)  # a valid count that True does not equal
        value = {"fraction": whole + 0.5, "integral-float": float(whole), "bool": True, "below-least": least - 1}[kind]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got {value}$"):
            f(value)
        f(whole)  # the same count as an int is accepted


# reference implementations used as oracles

def partial_trace_loops(rho, dims, subsystem):
    da, db = dims.d_a, dims.d_b
    if subsystem == "B":
        out = np.zeros((da, da), dtype=complex)
        for m in range(da):
            for k in range(da):
                out[m, k] = sum(rho[m * db + n, k * db + n] for n in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for n in range(db):
            for l in range(db):
                out[n, l] = sum(rho[m * db + n, m * db + l] for m in range(da))
    return out


def realign_loops(rho, dims):
    da, db = dims.d_a, dims.d_b
    out = np.zeros((da * da, db * db), dtype=complex)
    for m in range(da):
        for n in range(da):
            for k in range(db):
                for l in range(db):
                    out[m * da + n, k * db + l] = rho[m * db + k, n * db + l]
    return out


class TestKron:
    """The basis-ordering convention: np.kron puts |m,n> at row d_B*m + n."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pair_observable_placement(self):
        basis = standard_basis(2)
        proj = np.diag([1.0, 0.0]).astype(complex)
        result = np.kron(basis[sym_slot(2, 0, 1)], proj)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1.0 / np.sqrt(2.0)
        assert max_abs(result - expected) < 1e-15

    def test_trace_multiplicative(self, rng):
        for _ in range(100):
            a = random_complex(rng, int(rng.integers(2, 5)))
            b = random_complex(rng, int(rng.integers(2, 5)))
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


class TestPartialTranspose:
    def test_product_state(self, rng):
        dims = DimPair(3, 3)
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        got = partial_transpose(np.kron(r1, r2), dims)
        assert max_abs(got - np.kron(r1, r2.T)) < 1e-14

    def test_max_entangled_min_eig(self):
        state = max_entangled(3)
        pt = partial_transpose(state.rho, state.dims)
        assert abs(herm_eigvalues(pt)[0] + 1.0 / 3.0) < 1e-12

    def test_horodecki_is_ppt(self):
        for a in np.arange(0.1, 0.95, 0.1):
            state = horodecki_rho(float(a))
            pt = partial_transpose(state.rho, state.dims)
            assert herm_eigvalues(pt)[0] >= -1e-9

    def test_involution_and_composition(self, rng):
        dims = DimPair(2, 3)
        rho = random_density(rng, 6)
        twice = partial_transpose(partial_transpose(rho, dims), dims)
        assert max_abs(twice - rho) < 1e-15

    def test_preserves_trace_and_hermiticity(self, rng):
        dims = DimPair(2, 2)
        rho = random_density(rng, 4)
        pt = partial_transpose(rho, dims)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-12
        assert max_abs(pt - pt.conj().T) < 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        dims = DimPair(3, 3)
        r1, r2 = random_density(rng, 3), random_complex(rng, 3)
        got = partial_trace(np.kron(r1, r2), dims, "B")
        assert max_abs(got - np.trace(r2) * r1) < 1e-13

    def test_phi_projector(self):
        d = 3
        v = phi(d)
        got = partial_trace(np.outer(v, v.conj()), DimPair.square(d), "B")
        assert max_abs(got - np.eye(d)) < 1e-15

    def test_family_reduction_uniform(self):
        state = family_rho(FamilyParams(3, (1 / 3, 1 / 3, 1 / 3)))
        reduced = partial_trace(state.rho, state.dims, "A")
        oracle = partial_trace_loops(state.rho, state.dims, "A")
        assert max_abs(reduced - oracle) < 1e-14
        assert max_abs(reduced - np.eye(3) / 3.0) < 1e-12

    def test_against_loop_oracle(self, rng):
        dims = DimPair(2, 4)
        rho = random_complex(rng, 8)
        for side in ("A", "B"):
            assert max_abs(partial_trace(rho, dims, side) - partial_trace_loops(rho, dims, side)) < 1e-13

    def test_trace_preserved(self, rng):
        dims = DimPair(3, 2)
        rho = random_density(rng, 6)
        for side in ("A", "B"):
            assert abs(np.trace(partial_trace(rho, dims, side)) - 1.0) < 1e-12

    @pytest.mark.parametrize("side", ["C", "a", ""])
    def test_bad_subsystem_named(self, side):
        with pytest.raises(ValueError, match=rf"^subsystem must be 'A' or 'B', got '{side}'$"):
            partial_trace(np.eye(4) / 4.0, DimPair.square(2), side)


class TestRealign:
    def test_entry_rule(self, rng):
        dims = DimPair(3, 3)
        rho = random_complex(rng, 9)
        tilde = realign(rho, dims)
        # 1-based: tilde[(1,2),(1,1)] = rho[(1,1),(2,1)]
        assert tilde[1, 0] == rho[0, 3]
        assert max_abs(tilde - realign_loops(rho, dims)) == 0.0

    def test_entry_rule_rectangular(self, rng):
        dims = DimPair(2, 3)
        rho = random_complex(rng, 6)
        assert max_abs(realign(rho, dims) - realign_loops(rho, dims)) == 0.0

    def test_max_entangled_value(self):
        state = max_entangled(3)
        tilde = realign(state.rho, state.dims)
        assert max_abs(tilde - np.eye(9) / 3.0) < 1e-15
        assert abs(trace_norm(tilde) - 3.0) < 1e-12

    def test_product_state_value(self, rng):
        for _ in range(100):
            r1, r2 = random_density(rng, 3), random_density(rng, 3)
            value = trace_norm(realign(np.kron(r1, r2), DimPair(3, 3)))
            closed = np.sqrt(np.trace(r1 @ r1).real * np.trace(r2 @ r2).real)
            assert abs(value - closed) < 1e-10

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, alpha, beta):
        rng = np.random.default_rng(7)
        dims = DimPair(2, 2)
        x, y = random_complex(rng, 4), random_complex(rng, 4)
        lhs = realign(alpha * x + beta * y, dims)
        rhs = alpha * realign(x, dims) + beta * realign(y, dims)
        assert max_abs(lhs - rhs) < 1e-12


class TestHermEig:
    def test_sorted_diag(self):
        assert np.allclose(herm_eigvalues(np.diag([3.0, 1.0, 2.0]).astype(complex)), [1.0, 2.0, 3.0])

    def test_pair_observable_eigenvalues(self):
        values = herm_eigvalues(standard_basis(2)[sym_slot(2, 0, 1)])
        assert np.allclose(values, [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)])

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(ValueError, match="hermiticity"):
            herm_eigvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        assert_non_finite_named(herm_eigvalues)


@st.composite
def hermitian_stacks(draw):
    """(d, a seeded exactly Hermitian (k, d^2, d^2) stack for d = 2..6 and k = 1..4, one member's index)."""
    d, k = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return d, np.stack([random_hermitian(rng, d * d) for _ in range(k)]), draw(st.integers(0, k - 1))


class TestCheckedSpectrum:
    """Equal to its dagger entry for entry, a stack is solved as it is; only a mismatch computes the defect."""

    @given(hermitian_stacks())
    def test_exactly_hermitian_as_it_is(self, case):
        _, h, _ = case
        assert (h == dagger(h)).all()
        spectrum, _, decomposed = checked_spectrum(h)
        assert same_bits(spectrum, np.linalg.eigvalsh(h))
        assert same_bits(decomposed, h)

    @given(hermitian_stacks())
    def test_one_ulp_off_symmetrizes_the_stack(self, case):
        _, h, i = case
        h[i, 1, 0] = np.nextafter(h[i, 1, 0].real, np.inf) + 1j * h[i, 1, 0].imag
        assert (h != dagger(h)).sum() == 2  # the entry and its mirror, in member i only
        spectrum, _, decomposed = checked_spectrum(h)
        # member i alone is replaced by its Hermitian part, and the spectra keep the symmetrized stack's bits
        assert same_bits(spectrum, np.linalg.eigvalsh(h / 2.0 + dagger(h) / 2.0))
        assert same_bits(decomposed[i], h[i] / 2.0 + dagger(h[i]) / 2.0)
        assert same_bits(np.delete(decomposed, i, axis=0), np.delete(h, i, axis=0))

    @given(hermitian_stacks())
    def test_defect_above_tolerance_named(self, case):
        _, h, i = case
        h[i, 0, 1] += 1e3 * HERMITICITY_TOL * max(1.0, np.abs(h[i]).max())
        with pytest.raises(ValueError, match=rf"^state\[{i}\] violates hermiticity: max \|rho - rho\^dagger\| = \d\.\d{{3}}e-0[67]$"):
            checked_spectrum(h, "state", "rho")

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (4,)])
    def test_non_square_named(self, shape):
        shown = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"^matrix must be square, got shape {shown}$"):
            checked_spectrum(np.ones(shape))

    @given(hermitian_stacks())
    def test_overflowing_sum_named(self, case):
        # H + H^dagger overflows in member i: the defect path halves first, and positivity names it
        d, h, i = case
        n = d * d
        up = np.triu(np.ones((n, n)), 1)
        stack = np.stack([np.eye(n, dtype=complex) / n] * len(h))
        stack[i] = 1.5e308 * (up + up.T) + np.eye(n) / n + 1e280j * up
        with pytest.raises(ValueError, match=rf"^state\[{i}\] violates positivity: min eigenvalue = -1\.500e\+308$"):
            check_densities(stack, DimPair.square(d))


class TestTraceNorm:
    def test_identity(self):
        for d in (2, 5, 9):
            assert abs(trace_norm(np.eye(d)) - d) < 1e-12

    def test_diagonal(self):
        assert abs(trace_norm(np.diag([-2.0, 3.0])) - 5.0) < 1e-12

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            m = random_complex(rng, 4)
            u, v = random_unitary(4, rng), random_unitary(4, rng)
            assert abs(trace_norm(u @ m @ v) - trace_norm(m)) < 1e-10
        h = random_hermitian(rng, 5)
        assert abs(trace_norm(h) - np.abs(herm_eigvalues(h)).sum()) < 1e-11

    def test_dominates_orthogonal_pairing(self, rng):
        m = rng.standard_normal((6, 6))
        bound = trace_norm(m)
        for _ in range(100):
            o = random_orthogonal(6, rng)
            assert abs(np.trace(m @ o)) <= bound + 1e-10

    def test_rejects_non_finite(self):
        assert_non_finite_named(trace_norm)

    @pytest.mark.parametrize("m, ndim", [(np.ones(3), 1), (np.float64(2.0), 0)])
    def test_rejects_non_matrix(self, m, ndim):
        with pytest.raises(ValueError, match=rf"^expected a matrix, got ndim={ndim}$"):
            trace_norm(m)


class TestIsPsd:
    def test_examples(self):
        ok, min_eig = is_psd(np.eye(3))
        assert ok and abs(min_eig - 1.0) < 1e-12
        ok, min_eig = is_psd(np.diag([1.0, -0.5]))
        assert not ok and abs(min_eig + 0.5) < 1e-12

    def test_generator_outputs(self, rng):
        for state in (horodecki_rho(0.4), werner2(0.8), max_entangled(2)):
            ok, _ = is_psd(state.rho)
            assert ok

    def test_rejects_non_finite(self):
        assert_non_finite_named(is_psd)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)], ids=["matrix", "stack"])
    def test_empty_matrix_named(self, shape):
        with pytest.raises(ValueError, match=rf"^matrix must not be empty, got shape {re.escape(str(shape))}$"):
            is_psd(np.zeros(shape))

    def test_entries_near_the_float_limit(self):
        # H + H^dagger overflows here, which used to surface LAPACK's "did not converge"
        ok, min_eig = is_psd(near_float_limit_rho())
        assert not ok and min_eig == pytest.approx(-1.5e308)
        # H - H^dagger overflows here: the defect reads inf and is named
        with pytest.raises(ValueError, match=r"^matrix violates hermiticity: max \|M - M\^dagger\| = inf$"):
            is_psd(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))


class TestOverflowingMagnitude:
    """A finite entry whose |z| passes the float limit is named by its size, not called non-finite."""

    SIZE = r"has an entry whose magnitude overflows: max\(\|Re\|, \|Im\|\) = 1\.500e\+308$"

    @pytest.mark.parametrize("f", [is_psd, trace_norm], ids=["is_psd", "trace_norm"])
    def test_named_by_size(self, f):
        h = overflowing_entry_rho()
        assert np.isfinite(h).all() and (h == h.conj().T).all()
        with pytest.raises(ValueError, match="^matrix " + self.SIZE):
            f(h)
        with pytest.raises(ValueError, match=r"^matrix\[1\] " + self.SIZE):
            f(np.stack([np.eye(4), h, h]))
        # each member gets its own message: the first bad member here is NaN
        nan = np.full((4, 4), np.nan)
        with pytest.raises(ValueError, match=r"^matrix\[1\] has non-finite entries \(NaN or inf\)$"):
            f(np.stack([np.eye(4), nan, h]))

    def test_make_state_named_by_size(self):
        with pytest.raises(ValueError, match="^state " + self.SIZE):
            make_state(overflowing_entry_rho(), DimPair.square(2), "overflowing")
