import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import random_complex, random_density, random_state, same_bits, sample_states
from loowit import criteria
from loowit.criteria import (
    ALGEBRAIC_TOL,
    SEARCH_BUDGET,
    SEARCH_ROUNDS,
    SEARCH_STALL,
    SEARCH_TOL,
    _o_gradient,
    _residue,
    _search_starts,
    _t_from_residue,
    _x_stack,
    _x_tables,
    battery,
    classify_family_point,
    correlation_T,
    full_report,
    o_reduction_apply,
    o_reduction_operator,
    pair_correlation,
    perm_reduction_family,
    ppt_check,
    realignment_value,
    x_search,
)
from loowit.linalg import DimPair, herm_eigvalues, is_psd, max_abs, partial_transpose, realign, trace_norm
from loowit.loo import (
    battery_mixings,
    diag_cycle,
    is_orthogonal,
    make_transform,
    random_orthogonal,
    random_unitary,
    standard_basis,
    transpose_transform,
)
from loowit.states import (
    FamilyParams,
    family_rho,
    family_special,
    horodecki_rho,
    make_state,
    max_entangled,
    random_product_state,
    random_separable_state,
    werner2,
)
from loowit.sweep import run_sweep
from loowit.witness import ew_from_transform, expectation, horodecki_ew
from oracles import (
    best_orthogonal,
    drawn_start,
    expand,
    local_map,
    map_minimum_alone,
    perm_reduction_closed_form,
    phi_pairing,
    reconstruct,
    reference_race,
    swap_operator,
    tiles_upb_state,
    uniform_pairing,
    white_noise_qstar,
    x_matrix,
    x_reduction_form,
    x_search_fixed_rounds,
)


class TestPpt:
    def test_horodecki_passes(self):
        report = ppt_check(horodecki_rho(0.5))
        assert report.verdict == "pass"

    def test_werner_violates(self):
        report = ppt_check(werner2(0.5))
        assert report.verdict == "violated"
        assert abs(report.scalar + 0.125) < 1e-12

    def test_product_passes(self):
        report = ppt_check(random_product_state(DimPair.square(3), seed=1))
        assert report.verdict == "pass"


class TestCorrelationT:
    def test_max_entangled(self):
        t = correlation_T(max_entangled(3))
        assert max_abs(t - np.eye(9) / 3.0) < 1e-12

    def test_fully_mixed(self):
        d = 3
        state = make_state(np.eye(9) / 9.0, DimPair.square(d), "mixed")
        t = correlation_T(state)
        expected = np.zeros((9, 9))
        expected[:d, :d] = 1.0 / (d * d)
        assert max_abs(t - expected) < 1e-12
        assert abs(trace_norm(t) - 1.0 / d) < 1e-12

    def test_product_state_rank_one(self, rng):
        state = random_product_state(DimPair.square(3), seed=8)
        singular = np.linalg.svd(correlation_T(state), compute_uv=False)
        assert singular[1] < 1e-10 * singular[0]

    def test_transpose_convention_invariant(self, rng):
        # B-side transposition changes T by an orthogonal factor only
        state = random_state(rng, 3)
        assert abs(trace_norm(correlation_T(state)) - trace_norm(pair_correlation(state))) < 1e-9

    @pytest.mark.parametrize("d", range(2, 7))
    def test_pair_correlation_is_t_times_transpose_mixing(self, d):
        # S = T P and P P = I: multiplying by +-1 and adding zeros keeps every value
        for state in sample_states(d, seed=d):
            assert np.array_equal(pair_correlation(state) @ transpose_transform(d), correlation_T(state))

    def test_non_real_residue_named(self, rng):
        # a non-Hermitian matrix gives a complex T; a stack names its first bad member.
        # Through battery the partial transpose's Hermiticity check would name it first.
        bad = random_density(rng, 4) + 0.1j * np.diag([1.0, 0.0, 0.0, -1.0])
        good = random_density(rng, 4)
        with pytest.raises(ValueError, match=r"^correlation matrix has non-real residue \d"):
            _t_from_residue(_residue(bad, DimPair.square(2)))
        with pytest.raises(ValueError, match=r"^correlation matrix\[1\] has non-real residue \d"):
            _t_from_residue(_residue(np.stack([good, bad, bad]), DimPair.square(2)))


class TestRealignment:
    def test_max_entangled_violates(self):
        value, report = realignment_value(max_entangled(3))
        assert abs(value - 3.0) < 1e-12
        assert report.verdict == "violated"

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_werner_closed_form(self, p):
        value, _ = realignment_value(werner2(float(p)))
        assert abs(value - (1.0 + 3.0 * p) / 2.0) < 1e-9

    def test_separable_bounded(self):
        for seed in range(200):
            state = random_separable_state(DimPair.square(3), k=8, seed=seed)
            value, report = realignment_value(state)
            assert value <= 1.0 + 1e-9
            assert report.verdict == "pass"

    def test_rejects_wrong_size_state(self):
        with pytest.raises(ValueError, match=r"matrix shape \(8, 8\) does not match dims 3x3"):
            battery(np.eye(8) / 8.0, DimPair.square(3), battery_mixings(3))

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_matches_realigned_trace_norm(self, d_a, d_b, seed):
        dims = DimPair(d_a, d_b)
        state = make_state(random_density(np.random.default_rng(seed), dims.total), dims, "random")
        value, _ = realignment_value(state)
        assert abs(value - trace_norm(realign(state.rho, dims))) < 1e-9
        assert value == battery(state.rho, dims, battery_mixings(d_a))[2]


class TestBestOrthogonal:
    def test_spd_gives_identity(self, rng):
        g = rng.standard_normal((5, 5))
        t = g @ g.T + 5.0 * np.eye(5)
        o = best_orthogonal(t)
        assert max_abs(o - np.eye(5)) < 1e-9

    def test_negative_identity(self):
        o = best_orthogonal(-np.eye(9))
        assert max_abs(o + np.eye(9)) < 1e-12
        assert abs(np.trace(-np.eye(9) @ o) - 9.0) < 1e-12

    def test_maximizes_over_samples(self, rng):
        t = rng.standard_normal((4, 4))
        o_star = best_orthogonal(t)
        value = np.trace(t @ o_star)
        assert abs(value - trace_norm(t)) < 1e-9
        for _ in range(1000):
            o = random_orthogonal(4, rng)
            assert np.trace(t @ o) <= value + 1e-9

    def test_contractions_stay_below_trace_norm(self, rng):
        # mixing with O O^T <= I can never beat the orthogonal maximum
        state = random_state(rng, 3)
        t = correlation_T(state)
        bound = trace_norm(t)
        for _ in range(100):
            contraction = rng.uniform(0.0, 1.0) * random_orthogonal(9, rng)
            assert not is_orthogonal(make_transform(contraction))
            assert abs(np.trace(t @ contraction)) <= bound + 1e-9


class TestLocalMap:
    def test_reduction_map_on_pure_state(self, rng):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z /= np.linalg.norm(z)
        proj = np.outer(z, z.conj())
        out = local_map(proj, np.eye(9))
        assert max_abs(out - (np.eye(3) - proj)) < 1e-12
        assert herm_eigvalues(out)[0] >= -1e-12

    def test_transpose_map_completely_positive_action(self, rng):
        for _ in range(100):
            rho = random_density(rng, 3)
            out = local_map(rho, transpose_transform(3))
            assert max_abs(out - (np.eye(3) - rho.T)) < 1e-12
            assert herm_eigvalues(out)[0] >= -1e-10

    def test_linearity(self, rng):
        t = make_transform(random_orthogonal(9, rng))
        x, y = random_density(rng, 3), random_density(rng, 3)
        lhs = local_map(0.3 * x + 0.7 * y, t)
        rhs = 0.3 * local_map(x, t) + 0.7 * local_map(y, t)
        assert max_abs(lhs - rhs) < 1e-12


class TestOReduction:
    def test_rejects_non_contraction(self):
        # 2 I is neither orthogonal nor a contraction: no verdict, an error naming it
        with pytest.raises(ValueError, match=r"neither orthogonal nor a contraction: .* O O\^T is 4\.0$"):
            o_reduction_apply(max_entangled(3), 2 * np.eye(9))

    def test_rejects_mixing_stack_that_does_not_broadcast(self, rng):
        stack = np.stack([random_density(rng, 9) for _ in range(5)])
        message = r"transform batch shape \(2,\) does not broadcast against state batch shape \(5,\)"
        with pytest.raises(ValueError, match=message):
            o_reduction_operator(stack, DimPair.square(3), battery_mixings(3))
        assert o_reduction_operator(stack[:, None], DimPair.square(3), battery_mixings(3)).shape == (5, 2, 9, 9)

    def test_rejects_wrong_size_mixing(self):
        with pytest.raises(ValueError, match=r"transform shape \(4, 4\) does not match basis size 9"):
            o_reduction_operator(max_entangled(3).rho, DimPair.square(3), np.eye(4))

    def test_rejects_complex_mixing(self):
        with pytest.raises(ValueError, match="transform matrix must be real"):
            o_reduction_operator(max_entangled(3).rho, DimPair.square(3), np.eye(9, dtype=complex))

    def test_rejects_wrong_size_state(self):
        with pytest.raises(ValueError, match=r"matrix shape \(8, 8\) does not match dims 3x3"):
            o_reduction_operator(np.eye(8) / 8.0, DimPair.square(3), np.eye(9))

    @pytest.mark.parametrize("kernel", (battery, o_reduction_operator), ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "mixing, message",
        [
            # unchecked, 2 I read this separable state as violated (map_min -0.511)
            (2.0 * np.eye(9), r"transform is neither orthogonal nor a contraction: max \|O_ij\| is 2\.0, "
             r"max eigenvalue of O O\^T is 4\.0"),
            (np.stack([np.eye(9), 2.0 * np.eye(9)]), r"transform\[1\] is neither orthogonal nor a contraction: .*"),
            (1e308 * np.eye(9), r"transform is neither orthogonal nor a contraction: max \|O_ij\| is 1e\+308, "
             r"max eigenvalue of O O\^T is inf"),
            (np.diag([1.0] * 8 + [np.nan]), r"transform matrix has non-finite entries \(NaN or inf\)"),
            (np.stack([np.diag([np.inf] * 9), np.eye(9)]), r"transform\[0\] has non-finite entries \(NaN or inf\)"),
            (np.eye(9).astype(str), "transform matrix must be real"),
            (np.eye(9, dtype=object), "transform matrix must be real"),
        ],
        ids=("2I", "2I-member", "1e308I", "nan", "inf-member", "text", "object"),
    )
    def test_public_kernels_read_mixings_through_make_transform(self, kernel, mixing, message):
        # the mixing is named, before any map is built: no verdict, no numpy warning or TypeError
        state = random_separable_state(DimPair.square(3), 4, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            kernel(state.rho, state.dims, mixing)

    def test_reduction_detects_max_entangled(self):
        state = max_entangled(3)
        operator, report = o_reduction_apply(state, np.eye(9))
        expected = np.eye(9) / 3.0 - state.rho
        assert max_abs(operator - expected) < 1e-12
        assert report.verdict == "violated"
        assert abs(report.scalar - (1.0 - 3.0) / 3.0) < 1e-12

    def test_separable_passes_random_transforms(self, rng):
        for seed in range(10):
            state = random_separable_state(DimPair.square(3), k=5, seed=seed)
            for _ in range(2):
                transform = make_transform(random_orthogonal(9, rng))
                _, report = o_reduction_apply(state, transform)
                assert report.verdict == "pass"

    def test_permutation_matches_family_closed_form(self, rng):
        # same operator through the generic machinery and the family closed form
        for _ in range(10):
            a = rng.dirichlet(np.ones(3))
            params = FamilyParams(3, tuple(a / a.sum()))
            state = family_rho(params)
            for l in (1, 2):
                transform = diag_cycle(3, l)
                generic, _ = o_reduction_apply(state, transform)
                family_operator, _ = perm_reduction_family(state, l)
                assert max_abs(generic - family_operator) < 1e-12
                assert max_abs(generic - perm_reduction_closed_form(params, l)) < 1e-12


class TestPermReductionFamily:
    def test_bound_point_detected_at_shift_one(self):
        params = family_special(3, 0.25, 0.65)
        _, report = perm_reduction_family(family_rho(params), 1)
        assert report.verdict == "violated"
        assert report.scalar < -1e-9
        # consistent with the binding constraint 1 - a_2 < (d-1) a_1
        assert abs(report.scalar - (1.0 - 0.65 - 2 * 0.25) / 3.0) < 1e-12
        assert ppt_check(family_rho(params)).verdict == "pass"

    def test_uniform_point_passes_all_shifts(self):
        state = family_rho(FamilyParams(3, (1 / 3, 1 / 3, 1 / 3)))
        for l in (1, 2):
            _, report = perm_reduction_family(state, l)
            assert report.verdict == "pass"
            assert (report.criterion, report.params) == ("perm_reduction", {"tol": 1e-9, "l": l, "d": 3})

    def test_closed_form_agreement_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(3, 5))
            a = rng.dirichlet(np.ones(d))
            params = FamilyParams(d, tuple(a / a.sum()))
            state = family_rho(params)
            for l in range(1, d):
                operator, _ = perm_reduction_family(state, l)
                assert max_abs(operator - perm_reduction_closed_form(params, l)) < 1e-9

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            perm_reduction_family(family_rho(FamilyParams(3, (1 / 3, 1 / 3, 1 / 3))), 3)


class TestPhiPairing:
    def test_max_entangled_identity_transform(self):
        lhs, rhs = phi_pairing(max_entangled(3), np.eye(9))
        assert abs(lhs - (1.0 - 3.0)) < 1e-12
        assert abs(rhs - (1.0 - 3.0)) < 1e-12

    def test_agreement_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 4))
            state = random_state(rng, d)
            transform = make_transform(random_orthogonal(d * d, rng))
            lhs, rhs = phi_pairing(state, transform)
            assert abs(lhs - rhs) < 1e-9

    def test_fully_mixed_closed_form(self, rng):
        d = 3
        state = make_state(np.eye(9) / 9.0, DimPair.square(d), "mixed")
        transform = make_transform(random_orthogonal(9, rng))
        lhs, rhs = phi_pairing(state, transform)
        t = correlation_T(state)
        assert abs(rhs - (1.0 - np.trace(t @ transform.T))) < 1e-12
        assert abs(lhs - rhs) < 1e-9

    def test_realignment_violation_gives_negative_pairing(self, rng):
        # wherever the realignment value exceeds 1, the maximizing mixing
        # already exhibits a non-positive map output through this pairing
        for state in (max_entangled(3), werner2(0.6), family_rho(family_special(3, 0.3, 0.65))):
            value, report = realignment_value(state)
            if report.verdict != "violated":
                continue
            o_star = best_orthogonal(correlation_T(state))
            lhs, rhs = phi_pairing(state, make_transform(o_star.T))
            assert abs(rhs - (1.0 - value)) < 1e-9
            assert lhs < -1e-9


class TestXMatrix:
    def test_positive_on_separable(self, rng):
        for seed in range(20):
            d = 2 if seed % 2 == 0 else 3
            state = random_separable_state(DimPair.square(d), k=5, seed=seed)
            for _ in range(3):
                o = make_transform(random_orthogonal(d * d, rng))
                u = random_unitary(d, rng)
                x = x_matrix(state, o, u)
                assert max_abs(x - x.conj().T) < 1e-9
                assert herm_eigvalues(x)[0] >= -1e-9

    def test_matches_reduction_map_contraction(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 4))
            state = random_state(rng, d)
            o = make_transform(random_orthogonal(d * d, rng))
            u = random_unitary(d, rng)
            direct = x_matrix(state, o, u)
            contracted = x_reduction_form(state, o, u)
            assert max_abs(direct - contracted) < 1e-9

    def test_uniform_vector_pairing(self, rng):
        # the all-ones vector turns X into the correlation sum with a
        # transposed (not conjugated) B side
        for _ in range(50):
            d = int(rng.integers(2, 4))
            state = random_state(rng, d)
            o = make_transform(random_orthogonal(d * d, rng))
            u = random_unitary(d, rng)
            x = x_matrix(state, o, u)
            s = np.ones(d)
            assert abs(float(np.real(s @ x @ s)) - uniform_pairing(state, o, u)) < 1e-9

    def test_reconstruction_self_consistency(self, rng):
        state = random_state(rng, 3)
        x = x_matrix(state, make_transform(random_orthogonal(9, rng)), random_unitary(3, rng))
        basis = standard_basis(3)
        assert max_abs(reconstruct(basis, expand(basis, x)) - x) < 1e-12

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_interlaces_reduction_map(self, d, seed):
        # X compresses M(rho, O^T) onto the orthonormal vectors (I x u)|kk>, so by Cauchy
        # interlacing X's smallest eigenvalue is at least M's
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        o = make_transform(random_orthogonal(d * d, rng))
        u = random_unitary(d, rng)
        m_min = herm_eigvalues(o_reduction_operator(state.rho, state.dims, o.T))[0]
        assert m_min <= herm_eigvalues(x_matrix(state, o, u))[0] + 1e-12


# Points of the diagonal family in the bound-entangled region: (d, a1, a2).
BOUND_POINTS = ((3, 0.25, 0.65), (3, 0.15, 0.1), (4, 0.15, 0.6), (4, 0.2, 0.1), (5, 0.15, 0.45))


def restart_finals(state, budget: int, seed: int) -> list[tuple[float, np.ndarray]]:
    """Each restart's final (lambda_min, O) in x_search, in restart order."""
    return list(zip(*x_search(state, budget, seed)))


def search_minima(state, budget: int, seed: int) -> tuple[float, float]:
    """x_search's least restart value and the least map minimum at its finals, at any d >= 2.

    At d_A = d_B >= 3 these are full_report's x_search and o_search scalars;
    at 2 x 2 full_report runs no search, so tests of the search call it here.
    """
    values, finals = x_search(state, budget, seed)
    return min(values.tolist()), map_minimum_alone(state, finals)


class TestXSearch:
    def test_singlet_detected(self):
        x_value, _ = search_minima(werner2(1.0), 200, 123)
        assert x_value < -SEARCH_TOL

    def test_weakly_mixed_inconclusive_and_ppt(self):
        x_value, _ = search_minima(werner2(0.25), 200, 123)
        assert x_value >= -SEARCH_TOL
        assert ppt_check(werner2(0.25)).verdict == "pass"

    def test_separable_stays_nonnegative(self):
        state = random_separable_state(DimPair.square(3), k=5, seed=77)
        report = search_reports(full_report(state, budget=100, seed=5))[0]
        assert report.verdict == "inconclusive"
        assert report.scalar >= -1e-6

    def test_deterministic_given_seed(self):
        a = x_search(werner2(0.5), budget=20, seed=3)
        b = x_search(werner2(0.5), budget=20, seed=3)
        assert all(same_bits(x, y) for x, y in zip(a, b))

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_pairing_is_affine_in_o(self, d, seed):
        # v^dagger X(O) v = c + <G, O>: the same c for every O, and c is the value at O = 0
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        u = random_unitary(d, rng)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        tables = _x_tables(_residue(state.rho, state.dims), u, d)
        g = _o_gradient(tables, v, d)
        c = float(np.real(v.conj() @ _x_stack(tables, np.zeros((d * d, d * d)), d) @ v))
        for _ in range(3):
            o = random_orthogonal(d * d, rng)
            value = float(np.real(v.conj() @ x_matrix(state, make_transform(o), u) @ v))
            assert abs(value - np.sum(g * o) - c) < 1e-12

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_rounds_never_raise_min_eig(self, d, seed):
        # each restart of the race is monotone over the rounds it runs, its last round is the
        # eigenvalue of its final O, and the search returns each restart's last round; the map
        # minimum at the finals is the smallest eigenvalue of M(rho, O^T) over them
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        lows, maps = [], []
        for rounds, o, u in reference_race(state, seed, 4):
            assert np.all(np.diff(rounds) <= 1e-12)
            assert abs(np.linalg.eigvalsh(x_matrix(state, make_transform(o), u))[0] - rounds[-1]) <= 1e-12
            lows.append(rounds[-1])
            maps.append(herm_eigvalues(o_reduction_operator(state.rho, state.dims, o.T))[0])
        values, finals = x_search(state, 4, seed)
        assert values.tolist() == lows
        assert abs(map_minimum_alone(state, finals) - min(maps)) <= 1e-12

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_warm_start_at_realignment_bound(self, d, seed):
        # restart 0 starts where <s|X|s> = 1 - ||T||_tr and ends at or below a d-th of it; no
        # restart races it out, so at the default budget it ends with the bits it has alone
        rng = np.random.default_rng(seed)
        for state in (random_state(rng, d), max_entangled(d)):
            bound = 1.0 - realignment_value(state)[0]
            o, u = _search_starts(correlation_T(state), d, seed, 1)
            assert abs(uniform_pairing(state, make_transform(o[0]), u[0]) - bound) < 1e-12
            (alone,), _ = x_search(state, 1, seed)
            assert alone <= bound / d + 1e-12
            assert restart_finals(state, SEARCH_BUDGET, seed)[0][0] == alone

    @pytest.mark.parametrize("state", [horodecki_rho(0.5), tiles_upb_state()], ids=lambda state: state.label)
    def test_restart_ends_alike_at_every_budget_above_it(self, state):
        # the race reads only restarts of lower index, so restart b's final (lambda, O) has the
        # same bits at budget b + 1, where it is the last restart, as at budgets 16 and 40
        at_16, at_40 = restart_finals(state, 16, 0), restart_finals(state, 40, 0)
        for b in range(16):
            lam, o = restart_finals(state, b + 1, 0)[b]
            for other_lam, other_o in (at_16[b], at_40[b]):
                assert other_lam == lam and other_o.tobytes() == o.tobytes()

    @given(
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.integers(1, 9).flatmap(lambda b: st.tuples(st.just(b), st.integers(b, 9))),
        st.integers(0, 6),
    )
    def test_restarts_are_a_budget_prefix_and_bound_their_maps(self, d, seed, budgets, k):
        # restart i's (value, O) has the same bits at every budget above i; the map at its O^T
        # reads at or below its value (interlacing); on separable samples (k >= 1) no value is
        # below -SEARCH_TOL
        b, big = budgets
        rng = np.random.default_rng(seed)
        state = random_separable_state(DimPair.square(d), k, seed) if k else random_state(rng, d)
        values, finals = x_search(state, big, seed)
        short_values, short_finals = x_search(state, b, seed)
        assert same_bits(values[:b], short_values) and same_bits(finals[:b], short_finals)
        allowance = 1e-12 * max(1.0, np.abs(state.rho).max())
        for value, o in zip(values, finals):
            assert is_psd(o_reduction_operator(state.rho, state.dims, o.T))[1] <= value + allowance
        assert k == 0 or np.all(values >= -SEARCH_TOL)

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 7), (6, 11)])
    def test_drawn_starts_are_a_budget_prefix(self, d, seed):
        # restart b >= 1 is the b-th lone draw of each stream, so budget 16's starts begin budget 40's
        t = correlation_T(max_entangled(d))
        o, u = _search_starts(t, d, seed, 40)
        short_o, short_u = _search_starts(t, d, seed, 16)
        assert short_o.tobytes() == o[:16].tobytes() and short_u.tobytes() == u[:16].tobytes()
        for b in range(1, 40):
            drawn_o, drawn_u = drawn_start(d, seed, b)
            assert drawn_o.tobytes() == o[b].tobytes() and drawn_u.tobytes() == u[b].tobytes()
        # and restart b ends where it ends at any budget, so both minima over more restarts end no higher
        state = random_state(np.random.default_rng(seed), d)
        fewer, more = (search_minima(state, b, seed) for b in (16, 40))
        assert more[0] <= fewer[0]
        assert more[1] <= fewer[1]

    @pytest.mark.parametrize("state", [horodecki_rho(0.5), tiles_upb_state(), max_entangled(4)], ids=lambda s: s.label)
    def test_searched_check_builds_maps_once(self, state):
        # x_search builds and eigensolves no map; full_report's one battery call builds every map,
        # battery's then each final's M(rho, O^T), and eigensolves them in one is_psd call. o_search
        # has the bits of the least minimum over the finals, each eigensolved alone
        built, solved = [], []
        reduction, psd = criteria._reduction_from_residue, criteria.is_psd

        def building(residue, transform):
            built.append(np.shape(transform))
            return reduction(residue, transform)

        def solving(h):
            solved.append(np.shape(h))
            return psd(h)

        d = state.dims.square_dim
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(criteria, "_reduction_from_residue", building)
            patch.setattr(criteria, "is_psd", solving)
            _, finals = x_search(state, SEARCH_BUDGET, 3)
            assert built == solved == []
            _, o_report = search_reports(full_report(state, seed=3))
        maps = (d - 1 + SEARCH_BUDGET, d * d, d * d)
        assert finals.shape == (SEARCH_BUDGET, d * d, d * d)
        assert built == [maps] and solved == [(d * d, d * d), maps]  # the partial transpose, then the maps
        assert o_report.scalar == map_minimum_alone(state, finals)

    @pytest.mark.parametrize("tie", [(0.0, -0.0), (-0.0, 0.0)], ids=("plus-first", "minus-first"))
    def test_tied_zeros_read_as_the_lower_restart(self, tie):
        # both search scalars are the first of the least per-restart values, so between restarts
        # tied at 0.0 and -0.0 the scalar carries restart 0's sign, whatever order a reduction takes
        search, run_battery = criteria.x_search, criteria._battery

        def tied_search(state, budget, seed):
            return np.array(tie), search(state, budget, seed)[1]

        def tied_battery(rho, dims, mixings):
            *head, map_min = run_battery(rho, dims, mixings)
            map_min = map_min.copy()
            map_min[-2:] = tie  # the two finals' map minima end the battery's
            return (*head, map_min)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(criteria, "x_search", tied_search)
            patch.setattr(criteria, "_battery", tied_battery)
            reports = search_reports(full_report(horodecki_rho(0.5), budget=2))
        for report in reports:
            assert report.scalar == 0.0 and math.copysign(1.0, report.scalar) == math.copysign(1.0, tie[0])

    @pytest.mark.parametrize("rotated", (False, True), ids=("plain", "rotated"))
    @pytest.mark.parametrize(
        "state",
        [horodecki_rho(a) for a in np.round(np.arange(0.1, 0.95, 0.1), 1)]
        + [family_rho(family_special(d, a1, a2)) for d, a1, a2 in BOUND_POINTS],
        ids=lambda state: state.label,
    )
    def test_detects_ppt_entangled_states(self, state, rotated):
        d = state.dims.square_dim
        assert ppt_check(state).verdict == "pass"
        if rotated:
            rng = np.random.default_rng(d)
            local = np.kron(random_unitary(d, rng), random_unitary(d, rng))
            state = make_state(local @ state.rho @ local.conj().T, state.dims, "rotated")
        for budget in (1, SEARCH_BUDGET):
            x_report, o_report = search_reports(full_report(state, budget=budget))
            assert x_report.verdict == o_report.verdict == "violated"
            assert o_report.scalar <= x_report.scalar + 1e-12

    @pytest.mark.parametrize("seed", (-1, 1.5, True, False))
    def test_bad_seed_named(self, seed):
        # a bool is no seed, although bool is an Integral
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            x_search(werner2(0.5), budget=1, seed=seed)
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0"):
            full_report(werner2(0.5), seed=seed)

    @pytest.mark.parametrize("budget", (0, -3, 1.5, 2.0, True))
    def test_bad_budget_named(self, budget):
        # a float or a bool is no restart count, even with an integer value
        message = rf"^budget must be an integer >= 1, got {budget}$"
        with pytest.raises(ValueError, match=message):
            x_search(werner2(0.5), budget=budget, seed=0)
        with pytest.raises(ValueError, match=message):
            full_report(werner2(0.5), budget=budget, include_search=False)


def stall_test_state(kind: str, d: int, seed: int, p: float):
    """A state of the given kind at d: random mixed or pure, random separable, phi, isotropic or Werner."""
    rng = np.random.default_rng(seed)
    dims = DimPair.square(d)
    n = d * d
    if kind == "mixed":
        return random_state(rng, d)
    if kind == "pure":
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return make_state(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, dims, "pure")
    if kind == "separable":
        return random_separable_state(dims, k=int(rng.integers(1, 6)), seed=seed, mode="mixed")
    if kind == "phi":
        return max_entangled(d)
    if kind == "isotropic":
        return make_state(p * max_entangled(d).rho + (1.0 - p) * np.eye(n) / n, dims, "isotropic")
    # Werner: p on the antisymmetric subspace, 1 - p on the symmetric one
    swap = swap_operator(d)
    anti, sym = (np.eye(n) - swap) / 2.0, (np.eye(n) + swap) / 2.0
    return make_state(p * anti / np.trace(anti) + (1.0 - p) * sym / np.trace(sym), dims, "werner")


class TestSearchStall:
    """A restart stops once a round no longer lowers its eigenvalue, at almost no cost in descent."""

    @given(
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
        st.sampled_from(("mixed", "pure", "separable", "phi", "isotropic", "werner")),
        st.floats(0.0, 1.0),
    )
    def test_matches_fixed_rounds(self, d, seed, kind, p):
        # each restart's rounds are monotone, so where the stall rule or the race stops it lies at
        # or above where all SEARCH_ROUNDS steps end it, to within SEARCH_ROUNDS * SEARCH_STALL
        state = stall_test_state(kind, d, seed, p)
        values, _ = x_search(state, SEARCH_BUDGET, seed)
        fixed = x_search_fixed_rounds(state, SEARCH_BUDGET, seed)
        assert np.all(values >= fixed - SEARCH_ROUNDS * SEARCH_STALL)
        assert np.all((values >= -SEARCH_TOL) | (fixed < -SEARCH_TOL))

    @staticmethod
    def procrustes_members(monkeypatch, state, budget: int, seed: int) -> int:
        """How many matrices the search hands to criteria._procrustes, the SVD of each O step."""
        counted = []
        procrustes = criteria._procrustes

        def counting(g):
            counted.append(int(np.prod(g.shape[:-2], dtype=int)))
            return procrustes(g)

        monkeypatch.setattr(criteria, "_procrustes", counting)
        x_search(state, budget, seed)
        return sum(counted)

    def test_converged_restarts_stop(self, monkeypatch):
        # phi's restarts stop moving after one or two rounds: at most two O steps each, plus the
        # warm start's Procrustes, against 16 x SEARCH_ROUNDS + 1 = 161 for fixed rounds
        members = self.procrustes_members(monkeypatch, max_entangled(3), 16, 0)
        assert members <= 2 * 16 + 1
        assert members == 32

    def test_moving_restarts_keep_their_rounds(self, monkeypatch):
        # one O step per round before each restart's last, as the race's reference runs them, plus
        # the warm start's Procrustes; on horodecki(0.5) the race stops some restarts early
        state = horodecki_rho(0.5)
        members = self.procrustes_members(monkeypatch, state, 16, 0)
        assert members == 1 + sum(len(rounds) - 1 for rounds, _, _ in reference_race(state, 0, 16))
        assert members < 16 * SEARCH_ROUNDS + 1


def search_reports(report) -> tuple:
    """full_report's two search reports, x_search's then o_search's, which end its list."""
    x, o = report.reports[-2:]
    assert (x.criterion, o.criterion) == ("x_search", "o_search")
    return x, o


class TestSoundness:
    """On separable samples no criterion reports "violated" and both searches stay above -SEARCH_TOL.

    On every state, o_search reads at or below x_search: X(u, O) is the map
    M(rho, O^T) compressed, so interlacing puts M's smallest eigenvalue lower.
    The searches are called directly (search_minima), as full_report skips
    them at 2 x 2.
    """

    @given(st.integers(2, 5), st.integers(0, 2**31 - 1), st.sampled_from(("pure", "mixed")), st.integers(0, 6))
    def test_separable_samples_never_violated(self, d, seed, mode, k):
        dims = DimPair.square(d)
        if k == 0:
            state = random_product_state(dims, seed=seed, mode=mode)
        else:
            state = random_separable_state(dims, k=k, seed=seed, mode=mode)
        report = full_report(state, budget=4, seed=seed % 1000)
        assert [r.criterion for r in report.reports if r.verdict == "violated"] == []
        x_value, o_value = search_minima(state, 4, seed % 1000)
        assert x_value >= -SEARCH_TOL and o_value >= -SEARCH_TOL
        assert o_value <= x_value + 1e-12

    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_o_search_at_or_below_x_search(self, d, seed):
        # random mixed states, mostly entangled at these dimensions, and the maximally entangled state
        for state in (random_state(np.random.default_rng(seed), d), max_entangled(d)):
            x_value, o_value = search_minima(state, 4, seed % 1000)
            assert o_value <= x_value + 1e-12

    @given(
        st.sampled_from(("werner", "pure", "mixed", "separable")),
        st.floats(0.0, 1.0),
        st.integers(0, 2**31 - 1),
    )
    @example("werner", 1.0 / 3.0, 0)
    @example("werner", math.nextafter(1.0 / 3.0, 1.0), 0)
    @example("werner", 1.0 / 3.0 + 1e-6, 0)
    @example("werner", 1.0 / 3.0 + 1e-4, 1)
    def test_two_qubit_search_detections_are_ppt_violations(self, kind, p, seed):
        # at 2 x 2, PPT is necessary and sufficient for separability (Horodecki 1996), so a state
        # either search flags below -SEARCH_TOL is one battery's PPT verdict, at its own tolerance,
        # already flags; full_report, whose ppt report is that verdict, runs no search there
        if kind == "werner":
            state = werner2(p)
        elif kind == "separable":
            mode = ("pure", "mixed")[seed % 2]
            state = random_separable_state(DimPair.square(2), k=1 + seed % 6, seed=seed, mode=mode)
        else:
            state = stall_test_state(kind, 2, seed, p)
        report = full_report(state, seed=seed % 1000)
        assert not {"x_search", "o_search"} & {r.criterion for r in report.reports}
        ppt = report.reports[0]
        assert ppt.criterion == "ppt"
        if min(search_minima(state, SEARCH_BUDGET, seed % 1000)) < -SEARCH_TOL:
            assert ppt.verdict == "violated"


# The white-noise tolerance q* (%) that x_search alone reaches at budget 16, the median over seeds
# 0-4, by white_noise_qstar's bisection; each is floored to its 4th decimal.
X_BUDGET16_QSTAR = {
    "horodecki(a=0.2)": 1.9369,
    "horodecki(a=0.5)": 1.6113,
    "horodecki(a=0.8)": 0.7154,
    "tiles": 12.5806,
    "family(d=3, a=(0.25, 0.65, 0.1))": 19.5129,
}


class TestWhiteNoiseTolerance:
    """The default search detects as much white noise as x_search alone did at twice the budget."""

    def test_bisection_matches_ppt_closed_form(self):
        # rho = (phi + I/4) / 2 at d = 2: lambda_min of its partial transpose is -1/8, and
        # (I/4)^T_B = I/4, so PPT detects (1 - q) rho + q I/4 exactly for q < (1/8) / (1/4 + 1/8) = 1/3
        rho = (max_entangled(2).rho + np.eye(4) / 4.0) / 2.0

        def detect(mixed):
            return ppt_check(make_state(mixed, DimPair.square(2), "noisy")).verdict == "violated"

        assert 0.0 <= 1.0 / 3.0 - white_noise_qstar(detect, rho) <= 0.5 / 2**18

    def test_tiles_is_ppt_entangled(self):
        state = tiles_upb_state()
        assert ppt_check(state).verdict == "pass"
        assert full_report(state).entangled

    @pytest.mark.parametrize(
        "state",
        [horodecki_rho(a) for a in (0.2, 0.5, 0.8)] + [tiles_upb_state(), family_rho(family_special(3, 0.25, 0.65))],
        ids=lambda state: state.label,
    )
    def test_median_qstar_holds(self, state):
        def detect(mixed, seed):
            report = full_report(make_state(mixed, state.dims, "noisy"), seed=seed)
            return any(r.verdict == "violated" for r in search_reports(report))

        qstar = [white_noise_qstar(lambda mixed: detect(mixed, seed), state.rho) for seed in range(5)]
        assert 100.0 * np.median(qstar) >= X_BUDGET16_QSTAR[state.label]


class TestLocalUnitaryInvariance:
    """PPT, realignment and the reduction/transpose o-reductions are unchanged by rho -> U rho U^dagger, U = u x v.

    The cycle(l) mixings are not invariant: a local unitary changes which
    observables the permutation pairs, so they are left out.
    """

    @staticmethod
    def scalars(state):
        d = state.dims.square_dim
        ppt = ppt_check(state)
        realignment = realignment_value(state)[1]
        reduction = o_reduction_apply(state, np.eye(d * d))[1]
        transpose = o_reduction_apply(state, transpose_transform(d))[1]
        return [(ppt, 0.0), (realignment, 1.0), (reduction, 0.0), (transpose, 0.0)]

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_invariant_scalars(self, d, seed):
        rng = np.random.default_rng(seed)
        band = 10 * ALGEBRAIC_TOL
        for state in sample_states(d, seed):
            local = np.kron(random_unitary(d, rng), random_unitary(d, rng))
            moved = make_state(local @ state.rho @ local.conj().T, state.dims, "rotated")
            for (before, threshold), (after, _) in zip(self.scalars(state), self.scalars(moved)):
                assert abs(after.scalar - before.scalar) < 1e-9, before.criterion
                if abs(before.scalar - threshold) > band:
                    assert after.verdict == before.verdict, before.criterion


class TestBatteryRule:
    """A mixing is in the battery iff its map is neither completely positive nor completely copositive.

    The map's Choi matrix is W = ew_from_transform(O).matrix = M(|phi><phi|, O). The map is
    completely positive iff W is PSD, and then positive on every state; it is completely
    copositive iff W^T_B is PSD, and then it fires only where PPT does. Either way it cannot
    detect a PPT state.
    """

    @staticmethod
    def min_eigs(o) -> tuple[float, float]:
        """lambda_min of W and of W^T_B."""
        w = ew_from_transform(o)
        return w.min_eig, herm_eigvalues(partial_transpose(w.matrix, w.dims))[0]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_every_member_has_a_negative_candidate(self, d):
        assert len(battery_mixings(d)) == (d - 1 if d >= 3 else 0)
        for o in battery_mixings(d):
            w_min, w_tb_min = self.min_eigs(o)
            assert w_min < -0.5 and w_tb_min < -0.5

    @pytest.mark.parametrize(
        "o, psd",
        [pytest.param(transpose_transform(d), "W", id=f"transpose(d={d})") for d in range(2, 7)]
        + [pytest.param(diag_cycle(2, 1), "W", id="cycle(d=2)")]
        + [pytest.param(np.eye(d * d), "W^T_B", id=f"identity(d={d})") for d in range(2, 7)],
    )
    def test_left_out_mixings_have_psd_candidates(self, o, psd):
        # the CP maps have a PSD candidate W; the reduction map (O = I) has a PSD W^T_B
        w_min, w_tb_min = self.min_eigs(o)
        assert {"W": w_min, "W^T_B": w_tb_min}[psd] >= 0.0
        assert ew_from_transform(o).candidate_only is (psd == "W")

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 25), st.integers(0, 2**32 - 1))
    @example(3, 3, 1, 0)
    @example(2, 4, 4, 1)
    @example(4, 2, 8, 2)
    def test_reduction_map_fires_only_where_ppt_does(self, d_a, d_b, rank, seed):
        # I x rho_B - rho = sum_{i<j} (W_ij x I) rho^T_A (W_ij x I)^dagger with W_ij = |i><j| - |j><i|
        # and sum_{i<j} W_ij W_ij^dagger = (d_A - 1) I, so lambda_min >= (d_A - 1) min(0, lambda_min(rho^T_B)):
        # the left-out identity mixing is kept here as the oracle of that theorem
        dims = DimPair(d_a, d_b)
        g = random_complex(np.random.default_rng(seed), dims.total, min(rank, dims.total))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        operator = o_reduction_operator(rho, dims, np.eye(d_a * d_a))
        bound = (d_a - 1) * min(0.0, herm_eigvalues(partial_transpose(rho, dims))[0])
        assert herm_eigvalues(operator)[0] >= bound - 1e-12 * max(1.0, max_abs(operator))

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 25), st.integers(0, 2**32 - 1))
    @example(2, 2, 1, 0)  # pure 2 x 2 states: entangled with probability 1
    @example(3, 3, 1, 1)
    @example(2, 5, 1, 2)
    @example(5, 3, 1, 3)
    def test_left_out_maps_stay_positive(self, d_a, d_b, rank, seed):
        # on random states of every rank up to D = d_A d_B, rank 1 an entangled pure state, the
        # transpose map (and at d_A = 2 the cycle's) leaves no eigenvalue below rounding
        dims = DimPair(d_a, d_b)
        g = random_complex(np.random.default_rng(seed), dims.total, min(rank, dims.total))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        for o in [transpose_transform(d_a)] + ([diag_cycle(2, 1)] if d_a == 2 else []):
            operator = o_reduction_operator(rho, dims, o)
            assert herm_eigvalues(operator)[0] >= -1e-12 * max(1.0, max_abs(operator))


class TestClassifyFamilyPoint:
    def test_reference_points(self):
        assert classify_family_point(3, 0.2, 0.5) == "separable"
        assert classify_family_point(3, 0.25, 0.65) == "bound"
        assert classify_family_point(3, 0.3, 0.65) == "free"
        assert classify_family_point(3, 0.4, 0.7) == "invalid"

    def test_matches_criteria_verdicts(self):
        # bound: PPT passes, a cyclic shift detects; free: PPT fails
        bound = family_special(3, 0.25, 0.65)
        assert ppt_check(family_rho(bound)).verdict == "pass"
        assert perm_reduction_family(family_rho(bound), 1)[1].verdict == "violated"
        free = family_special(3, 0.3, 0.65)
        assert ppt_check(family_rho(free)).verdict == "violated"

    @pytest.mark.parametrize("d, grid", [(4, 30), (5, 20)])
    def test_exact_on_the_slice_beyond_qutrits(self, d, grid):
        # every off-boundary label matches the eigensolves, the bound points included
        result = run_sweep(d, grid)
        assert result.agreement == 1.0
        assert result.n_bound > 0


class TestFullReport:
    def test_horodecki_with_witness(self):
        # the paper's witness detects the PPT state, and realignment, whose value bounds it, reports it
        state = horodecki_rho(0.5)
        report = full_report(state, budget=20)
        verdicts = {(r.criterion, r.params.get("transform")): r.verdict for r in report.reports}
        assert verdicts[("ppt", None)] == "pass"
        assert verdicts[("realignment", None)] == "violated"
        assert "witness" not in {r.criterion for r in report.reports}
        realignment = next(r for r in report.reports if r.criterion == "realignment")
        assert 1.0 - realignment.scalar <= expectation(horodecki_ew(0.5), state) < 0.0
        assert report.entangled
        # every report names the tolerance it applied
        assert all("tol" in r.params for r in report.reports)

    def test_family_bound_point(self):
        state = family_rho(family_special(3, 0.25, 0.65))
        report = full_report(state, include_search=False)
        by_tag = {r.params.get("transform"): r for r in report.reports if r.criterion == "o_reduction"}
        assert by_tag["cycle(l=1)"].verdict == "violated"
        assert next(r for r in report.reports if r.criterion == "ppt").verdict == "pass"
        assert report.entangled

    def test_separable_clean(self):
        state = random_separable_state(DimPair.square(3), k=6, seed=11)
        report = full_report(state, budget=10, seed=2)
        assert not report.entangled
        assert all(r.verdict in ("pass", "inconclusive") for r in report.reports)

    @staticmethod
    def labels(report) -> list:
        return [(r.criterion, r.params.get("transform")) for r in report.reports]

    @pytest.mark.parametrize("dims", [DimPair(2, 3), DimPair(3, 2)])
    def test_non_square_product_gets_the_battery(self, dims):
        # PPT, realignment and the A-side maps, and no search: X needs d_A = d_B. At d_A = 2 the
        # battery holds no map, at d_A = 3 both cycles
        state = random_product_state(dims, seed=5)
        report = full_report(state)
        tags = {2: [], 3: ["cycle(l=1)", "cycle(l=2)"]}[dims.d_a]
        assert self.labels(report) == [("ppt", None), ("realignment", None)] + [("o_reduction", t) for t in tags]
        assert report.reports[0] == ppt_check(state)
        assert report.reports[1] == realignment_value(state)[1]
        assert not report.entangled

    def test_non_square_entangled(self):
        v = np.zeros(6)
        v[[0, 4]] = 1.0 / np.sqrt(2.0)  # (|00> + |11>) / sqrt(2) in 2 x 3
        state = make_state(np.outer(v, v), DimPair(2, 3), label="bell(2x3)")
        report = full_report(state)
        assert report.reports[0] == ppt_check(state)
        verdicts = {label: r.verdict for label, r in zip(self.labels(report), report.reports)}
        assert verdicts == {("ppt", None): "violated", ("realignment", None): "violated"}
        assert report.entangled

    def test_builds_its_mixings_unchecked(self):
        # full_report passes battery_mixings and the search's orthogonal finals to _battery, not through
        # make_transform, so check pays no validation
        def refuse(_):
            raise AssertionError("make_transform called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(criteria, "make_transform", refuse)
            report = full_report(horodecki_rho(0.5), budget=2)
        assert report.to_dict() == full_report(horodecki_rho(0.5), budget=2).to_dict()

    def test_report_serialization(self):
        report = full_report(werner2(0.5), include_search=False)
        payload = report.to_dict()
        assert payload["overall"] == "entangled"
        assert all(set(r) == {"criterion", "verdict", "scalar", "params"} for r in payload["reports"])

    def test_numpy_integer_budget_and_seed_serialize(self):
        # require_count accepts numpy integers, and the search reports store them as Python ints
        state = horodecki_rho(0.5)
        as_numpy = full_report(state, budget=np.int64(2), seed=np.int64(1)).to_dict()
        assert json.dumps(as_numpy) == json.dumps(full_report(state, budget=2, seed=1).to_dict())


RECTANGULAR = [DimPair(d_a, d_b) for d_a in range(2, 5) for d_b in range(2, 5) if d_a != d_b]


def schmidt_state(dims: DimPair, weights: np.ndarray, rng: np.random.Generator):
    """sum_i sqrt(p_i) (U|i>) x (V|i>) for the normalised weights p, U and V Haar-random unitaries."""
    p = np.asarray(weights, dtype=float) / np.sum(weights)
    u, v = random_unitary(dims.d_a, rng), random_unitary(dims.d_b, rng)
    psi = np.einsum("i,ai,bi->ab", np.sqrt(p), u[:, : len(p)], v[:, : len(p)]).reshape(-1)
    return make_state(np.outer(psi, psi.conj()), dims, f"schmidt(rank={len(p)})")


class TestEveryShape:
    """full_report at d_A != d_B: one battery call, no search; sound on separable states."""

    @given(
        st.sampled_from(RECTANGULAR), st.sampled_from(["pure", "mixed"]), st.integers(1, 6), st.integers(0, 2**31 - 1)
    )
    @example(DimPair(2, 3), "pure", 1, 0)  # product pure states
    @example(DimPair(4, 3), "pure", 1, 1)
    def test_separable_samples_are_never_violated(self, dims, mode, k, seed):
        report = full_report(random_separable_state(dims, k=k, seed=seed, mode=mode))
        assert len(report.reports) == 2 + len(battery_mixings(dims.d_a))
        assert [r.verdict for r in report.reports] == ["pass"] * len(report.reports)

    @given(st.sampled_from(RECTANGULAR), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_entangled_pure_states_are_violated(self, dims, rank, seed):
        # Schmidt rank >= 2: rho^T_B has eigenvalue -sqrt(p_1 p_2) and ||T||_tr = (sum_i sqrt(p_i))^2 > 1;
        # at rank <= 3 each weight is at least 0.1 / 3.3 of the total, well clear of the tolerances
        rng = np.random.default_rng(seed)
        rank = min(rank, dims.d_a, dims.d_b)
        state = schmidt_state(dims, rng.random(rank) + 0.1, rng)
        verdicts = {r.criterion: r.verdict for r in full_report(state).reports[:2]}
        assert verdicts == {"ppt": "violated", "realignment": "violated"}

