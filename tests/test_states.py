import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import near_float_limit_rho, noisy_phi_mixture, random_density, same_bits, signed_zero_variants
from loowit.criteria import battery
from loowit.linalg import (
    DimPair,
    dagger,
    herm_eigvalues,
    is_psd,
    max_abs,
    partial_trace,
    partial_transpose,
    trace_norm,
    realign,
)
from loowit.states import (
    FamilyParams,
    check_densities,
    family_region,
    family_rho,
    family_special,
    family_stack,
    horodecki_rho,
    in_simplex,
    load_state,
    make_state,
    max_entangled,
    phi,
    random_product_state,
    random_separable_state,
    save_state,
    werner2,
)


class TestPhi:
    def test_qubit_vector(self):
        assert np.array_equal(phi(2), np.array([1, 0, 0, 1], dtype=complex))

    def test_norm(self):
        v = phi(3)
        assert abs(np.vdot(v, v) - 3.0) < 1e-15

    def test_reduction_identity(self):
        v = phi(4)
        assert max_abs(partial_trace(np.outer(v, v.conj()), DimPair.square(4), "B") - np.eye(4)) < 1e-15

    @pytest.mark.parametrize("d", (1, 0))
    def test_small_dimension_named(self, d):
        with pytest.raises(ValueError, match=rf"^local dimension d must be an integer >= 2, got {d}$"):
            phi(d)


class TestHorodecki:
    @pytest.mark.parametrize("a", (0.0, 0.3, 1.0))
    def test_trace_one(self, a):
        assert abs(np.trace(horodecki_rho(a).rho) - 1.0) < 1e-12

    def test_zero_parameter_is_product(self):
        state = horodecki_rho(0.0)
        ket3 = np.zeros(3)
        ket3[2] = 1.0
        plus = np.zeros(3)
        plus[0] = plus[2] = 1.0 / np.sqrt(2.0)
        expected = np.kron(np.outer(ket3, ket3), np.outer(plus, plus))
        assert max_abs(state.rho - expected) < 1e-15
        assert herm_eigvalues(partial_transpose(state.rho, state.dims))[0] >= -1e-12

    def test_corner_entry(self):
        a = 0.6
        state = horodecki_rho(a)
        expected = np.sqrt(1.0 - a * a) / (2.0 * (1.0 + 8.0 * a))
        assert abs(state.rho[6, 8] - expected) < 1e-15
        assert abs(expected - 0.4 / 5.8) < 1e-15

    def test_psd_and_ppt_grid(self):
        for a in np.linspace(0.0, 1.0, 33):
            state = horodecki_rho(float(a))
            assert herm_eigvalues(state.rho)[0] >= -1e-9
            assert herm_eigvalues(partial_transpose(state.rho, state.dims))[0] >= -1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            horodecki_rho(1.2)


class TestFamily:
    def test_pure_limit_is_max_entangled(self):
        state = family_rho(FamilyParams(3, (1.0, 0.0, 0.0)))
        assert max_abs(state.rho - max_entangled(3).rho) < 1e-15

    def test_uniform_point(self):
        params = FamilyParams(3, (1 / 3, 1 / 3, 1 / 3))
        state = family_rho(params)
        for side in ("A", "B"):
            assert max_abs(partial_trace(state.rho, state.dims, side) - np.eye(3) / 3.0) < 1e-12
        assert family_region(params.a) == "separable"

    def test_random_simplex_points(self, rng):
        for _ in range(50):
            d = int(rng.integers(3, 6))
            a = rng.dirichlet(np.ones(d))
            a = a / a.sum()
            state = family_rho(FamilyParams(d, tuple(a)))
            assert abs(np.trace(state.rho) - 1.0) < 1e-9
            assert herm_eigvalues(state.rho)[0] >= -1e-9
            for side in ("A", "B"):
                reduced = partial_trace(state.rho, state.dims, side)
                assert max_abs(reduced - np.eye(d) / d) < 1e-12

    def test_structure_diagonal_outside_phi_block(self):
        state = family_rho(FamilyParams(3, (0.2, 0.5, 0.3)))
        offdiag = state.rho - np.diag(np.diag(state.rho))
        mask = np.zeros((9, 9), dtype=bool)
        diag_idx = [0, 4, 8]
        mask[np.ix_(diag_idx, diag_idx)] = True
        assert max_abs(offdiag[~mask]) == 0.0

    def test_special_slice(self):
        assert family_special(3, 0.2, 0.5).a == (0.2, 0.5, pytest.approx(0.3))
        assert family_special(4, 0.1, 0.4).a == (0.1, 0.4, 0.1, pytest.approx(0.4))
        with pytest.raises(ValueError):
            family_special(3, 0.4, 0.7)

    def test_separable_sufficient(self):
        assert family_region((1 / 3, 1 / 3, 1 / 3)) == "separable"
        assert family_region((0.25, 0.65, 0.10)) != "separable"
        assert family_region((0.2, 0.5, 0.3)) == "separable"

    def test_ppt_sufficient_with_eigensolve_oracle(self):
        cases = [
            ((0.25, 0.65, 0.10), True),
            ((0.30, 0.65, 0.05), False),
            ((1.0, 0.0, 0.0), False),
        ]
        for a, expected in cases:
            params = FamilyParams(3, a)
            assert (family_region(params.a) != "free") is expected
            state = family_rho(params)
            min_eig = herm_eigvalues(partial_transpose(state.rho, state.dims))[0]
            assert bool(min_eig >= -1e-9) is expected

    def test_ppt_condition_matches_eigensolve_on_random_points(self, rng):
        # PPT, not "free", iff the partial transpose passes is_psd; a "separable" row passes every cycle map
        for d in range(3, 7):
            a = rng.dirichlet(np.ones(d), size=60)
            # skip rows near the PPT boundary at any i, where the eigensolve verdict is tolerance-limited
            a = a[np.abs(a[:, 1:] * a[:, :0:-1] - a[:, :1] ** 2).min(axis=-1) >= 1e-4][:30]
            assert len(a) == 30
            region, stack, dims = family_region(a), family_stack(a), DimPair.square(d)
            assert np.array_equal(region != "free", is_psd(partial_transpose(stack, dims))[0])
            cycle_ok = battery(stack, dims)[3]
            assert cycle_ok[region == "separable"].all()

    @given(st.integers(0, 2**32 - 1))
    def test_params_validation(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(4))
        a = a / a.sum()
        FamilyParams(4, tuple(a))  # no raise
        with pytest.raises(ValueError):
            FamilyParams(4, (0.5, 0.5, 0.5, -0.5))

    @pytest.mark.parametrize(
        "d, a, message",
        [
            (1, (1.0,), r"local dimension d must be an integer >= 2, got 1"),
            (3, (0.5, 0.5), r"need 3 weights, got 2"),
            (3, (0.2, 0.2, 0.2, 0.4), r"need 3 weights, got 4"),
            (3, (0.5, 0.5, 0.5), r"weights must sum to 1, got sum = 1\.5"),
            (2, (0.25, 0.25), r"weights must sum to 1, got sum = 0\.5"),
            # a non-finite weight is named before the sign and sum checks, which read "sum = nan"
            (3, (float("nan"), 0.5, 0.5), r"weights must be finite, got \(nan, 0\.5, 0\.5\)"),
            (3, (0.5, float("inf"), 0.5), r"weights must be finite, got \(0\.5, inf, 0\.5\)"),
            (3, (0.5, 0.5, -float("inf")), r"weights must be finite, got \(0\.5, 0\.5, -inf\)"),
            # numpy floats are named as plain floats, not as np.float64(...)
            (3, tuple(np.array([0.5, 0.5, 0.5])), r"weights must sum to 1, got sum = 1\.5"),
            (3, tuple(np.array([0.5, 0.75, -0.25])), r"weights must be nonnegative, got \(0\.5, 0\.75, -0\.25\)"),
            # one row, not a stack of valid rows
            (2, ((0.5, 0.5), (0.5, 0.5)), r"weights must be one row, got \(\(0\.5, 0\.5\), \(0\.5, 0\.5\)\)"),
            # text and bools are not weights, though float() reads them
            (2, ("0.5", "0.5"), r"weights entries must be numbers, not str"),
            (2, (True, False), r"weights entries must be numbers, not bool"),
        ],
        ids=[
            "d-below-two", "too-few", "too-many", "sum-above", "sum-below", "nan", "inf", "minus-inf",
            "numpy-sum", "numpy-negative", "nested", "text", "bool",
        ],
    )
    def test_params_rejections_named(self, d, a, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FamilyParams(d, a)

    def test_stack_needs_two_levels(self):
        with pytest.raises(ValueError, match=r"^local dimension d must be an integer >= 2, got 1$"):
            family_stack(np.ones((2, 1)))

    @given(
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(("dirichlet", "non-finite", "negative", "shifted")), min_size=1, max_size=5),
    )
    def test_one_weights_rule(self, d, seed, kinds):
        # FamilyParams and family_stack judge a row by one rule, in_simplex, with one message; in a stack
        # the named row is the first that the order non-finite, negative, sum rejects
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(d), size=len(kinds))
        for row, kind in zip(rows, kinds):
            j = rng.integers(d)
            if kind == "non-finite":
                row[j] = rng.choice([np.nan, np.inf, -np.inf])
            elif kind == "negative":
                row[j] = -rng.choice([1e-15, 1e-12, 0.3])
            elif kind == "shifted":  # multiples of 1e-13 across the 1e-12 sum band
                row[row.argmax()] += 1e-13 * rng.integers(-15, 16)

        def message(call):
            try:
                call()
            except ValueError as exc:
                return str(exc)
            return None

        alone = []
        for row in rows:
            text = message(lambda: FamilyParams(d, tuple(row.tolist())))
            assert (text is None) == bool(in_simplex(row))
            assert message(lambda: family_stack(row)) == text
            alone.append(text)
        first = None
        for bad in (~np.isfinite(rows).all(axis=-1), (rows < 0.0).any(axis=-1), ~in_simplex(rows)):
            if bad.any():
                first = int(np.argmax(bad))
                break
        expected = None if first is None else f"weights[{first}]" + alone[first].removeprefix("weights")
        assert message(lambda: family_stack(rows)) == expected


class TestSamplers:
    def test_product_state_invariants(self):
        dims = DimPair.square(3)
        for seed in range(10):
            state = random_product_state(dims, seed=seed)
            assert abs(np.trace(state.rho) - 1.0) < 1e-9
            pt = partial_transpose(state.rho, dims)
            assert herm_eigvalues(pt)[0] >= -1e-9
            assert trace_norm(realign(state.rho, dims)) <= 1.0 + 1e-9

    def test_product_mixed_mode(self):
        state = random_product_state(DimPair.square(2), seed=5, mode="mixed")
        assert abs(np.trace(state.rho) - 1.0) < 1e-9
        assert herm_eigvalues(state.rho)[0] >= -1e-9

    def test_separable_reduces_to_product_for_single_term(self):
        dims = DimPair.square(3)
        sep = random_separable_state(dims, k=1, seed=42)
        prod = random_product_state(dims, seed=42)
        assert max_abs(sep.rho - prod.rho) == 0.0

    def test_separable_trace_one(self):
        state = random_separable_state(DimPair.square(3), k=6, seed=3)
        assert abs(np.trace(state.rho) - 1.0) < 1e-9

    def test_seed_reproducibility(self):
        a = random_separable_state(DimPair.square(2), k=4, seed=9)
        b = random_separable_state(DimPair.square(2), k=4, seed=9)
        assert np.array_equal(a.rho, b.rho)

    @pytest.mark.parametrize("mode", ("Pure", "wishart", ""))
    def test_bad_mode_named(self, mode):
        with pytest.raises(ValueError, match=rf"^mode must be 'pure' or 'mixed', got '{mode}'$"):
            random_product_state(DimPair.square(2), seed=0, mode=mode)
        with pytest.raises(ValueError, match=rf"^mode must be 'pure' or 'mixed', got '{mode}'$"):
            random_separable_state(DimPair.square(2), k=3, seed=0, mode=mode)

    @pytest.mark.parametrize("k", (0, -2))
    def test_no_mixture_terms_named(self, k):
        with pytest.raises(ValueError, match=rf"^mixture count k must be an integer >= 1, got {k}$"):
            random_separable_state(DimPair.square(3), k=k, seed=0)


class TestWerner:
    def test_fully_mixed_limit(self):
        assert max_abs(werner2(0.0).rho - np.eye(4) / 4.0) < 1e-15

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 6))
    def test_partial_transpose_closed_form(self, p):
        state = werner2(float(p))
        min_eig = herm_eigvalues(partial_transpose(state.rho, state.dims))[0]
        assert abs(min_eig - (1.0 - 3.0 * p) / 4.0) < 1e-12

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 6))
    def test_realignment_closed_form(self, p):
        state = werner2(float(p))
        assert abs(trace_norm(realign(state.rho, state.dims)) - (1.0 + 3.0 * p) / 2.0) < 1e-12

    def test_half_point_value(self):
        state = werner2(0.5)
        min_eig = herm_eigvalues(partial_transpose(state.rho, state.dims))[0]
        assert abs(min_eig + 0.125) < 1e-12

    @pytest.mark.parametrize("p", (-0.1, 1.5, float("nan")))
    def test_out_of_range_named(self, p):
        with pytest.raises(ValueError, match=rf"^mixing parameter must lie in \[0, 1\], got {p}$"):
            werner2(p)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        state = horodecki_rho(0.3)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert loaded.dims == state.dims
        assert max_abs(loaded.rho - state.rho) <= 1e-15

    def test_trace_violation_named(self, tmp_path):
        state = horodecki_rho(0.3)
        bad = {"dim_a": 3, "dim_b": 3, "re": (state.rho.real * 0.9).tolist(), "im": state.rho.imag.tolist()}
        path = tmp_path / "bad_trace.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="trace"):
            load_state(path)

    def test_hermiticity_violation_named(self, tmp_path):
        m = np.eye(4) / 4.0
        m[0, 1] = 0.2
        bad = {"dim_a": 2, "dim_b": 2, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}
        path = tmp_path / "bad_herm.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="hermiticity"):
            load_state(path)

    def test_positivity_violation_named(self, tmp_path):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        bad = {"dim_a": 2, "dim_b": 2, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}
        path = tmp_path / "bad_psd.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="positivity"):
            load_state(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_state(path)

    def test_re_im_shape_mismatch_named(self, tmp_path):
        bad = {"dim_a": 2, "dim_b": 2, "re": (np.eye(4) / 4.0).tolist(), "im": np.zeros((4, 3)).tolist()}
        path = tmp_path / "bad_shapes.json"
        path.write_text(json.dumps(bad))
        message = rf"^malformed matrix file {re.escape(str(path))}: re/im shapes \(4, 4\) vs \(4, 3\)$"
        with pytest.raises(ValueError, match=message):
            load_state(path)

    def test_make_state_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            make_state(np.eye(4) / 4.0, DimPair(2, 3), "bad")

    @pytest.mark.parametrize("entry", (np.nan, np.inf))
    def test_non_finite_named(self, entry):
        m = np.eye(4) / 4.0
        m[1, 2] = entry
        with pytest.raises(ValueError, match="non-finite"):
            make_state(m, DimPair(2, 2), "bad")


class TestCheckedState:
    """check_densities returns the matrix whose spectrum it validated: each member exactly Hermitian."""

    @pytest.mark.parametrize("d", (2, 3, 6))
    def test_defect_comes_back_as_hermitian_part(self, d):
        rho = noisy_phi_mixture(d)
        checked = check_densities(rho, DimPair.square(d))
        assert (checked == dagger(checked)).all()
        assert same_bits(checked, rho / 2.0 + dagger(rho) / 2.0)
        assert same_bits(make_state(rho, DimPair.square(d), "noisy").rho, checked)

    @pytest.mark.parametrize("d", (2, 3, 6))
    def test_exactly_hermitian_input_keeps_its_bits(self, d):
        # zeros of either sign included, alone or beside a member with a defect
        rng = np.random.default_rng(d)
        w = np.stack([random_density(rng, d * d) for _ in range(2)])
        exact = signed_zero_variants(np.concatenate([(w + dagger(w)) / 2.0, family_stack(np.eye(d)[:2])]))
        dims = DimPair.square(d)
        assert same_bits(check_densities(exact, dims), exact)
        for rho in exact:
            assert same_bits(check_densities(rho, dims), rho)
        mixed = check_densities(np.concatenate([exact, noisy_phi_mixture(d)[None]]), dims)
        assert same_bits(mixed[:-1], exact)
        assert same_bits(mixed[-1], check_densities(noisy_phi_mixture(d), dims))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 3e-11))
    def test_accepted_states_are_exactly_hermitian(self, d, seed, size):
        # a random density, as drawn (its product g g^dagger need not be exactly Hermitian), mixed
        # with white noise and given an off-diagonal and imaginary-diagonal defect of up to 3e-11
        rng = np.random.default_rng(seed)
        n = d * d
        defect = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        defect.real[np.diag_indices(n)] = 0.0
        rho = random_density(rng, n) / 2.0 + np.eye(n) / (2 * n) + size * defect
        dims = DimPair.square(d)
        for state in (
            make_state(rho, dims, "noisy"),
            random_separable_state(dims, k=int(rng.integers(1, 4)), seed=seed, mode="mixed"),
            random_product_state(dims, seed=seed),
        ):
            assert (state.rho == dagger(state.rho)).all()


def hermiticity_overflow_rho() -> np.ndarray:
    m = np.eye(9) / 9.0
    m[0, 1], m[1, 0] = 1.5e308, -1.5e308
    return m


class TestNearFloatLimit:
    """Finite entries near the float limit are named as the violation they are, with no numpy warning."""

    @pytest.mark.parametrize(
        "rho, message",
        [
            (near_float_limit_rho, r"violates positivity: min eigenvalue = -1\.500e\+308"),
            (hermiticity_overflow_rho, r"violates hermiticity: max \|rho - rho\^dagger\| = inf"),
            (lambda: np.diag([1.7e308] * 2 + [0.0] * 7), r"violates trace normalization: trace = inf"),
        ],
        ids=("hermitian-part", "defect", "trace"),
    )
    def test_overflow_named(self, rho, message):
        # rho + rho^dagger, rho - rho^dagger and the trace overflow on these, in turn
        with pytest.raises(ValueError, match=rf"^state {message}$"):
            make_state(rho(), DimPair.square(3), "huge")
