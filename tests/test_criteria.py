import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density, random_state, sample_states
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
from loowit.linalg import DimPair, herm_eigvalues, max_abs, realign, trace_norm
from loowit.loo import (
    cycle_mixings,
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
from loowit.witness import horodecki_ew
from oracles import (
    best_orthogonal,
    drawn_start,
    expand,
    local_map,
    perm_reduction_closed_form,
    phi_pairing,
    reconstruct,
    reference_rounds,
    swap_operator,
    uniform_pairing,
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
            _t_from_residue(_residue(bad, 2), 2)
        with pytest.raises(ValueError, match=r"^correlation matrix\[1\] has non-real residue \d"):
            _t_from_residue(_residue(np.stack([good, bad, bad]), 2), 2)


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
            battery(np.eye(8) / 8.0, 3, cycle_mixings(3))

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_matches_realigned_trace_norm(self, d, seed):
        state = random_state(np.random.default_rng(seed), d)
        value, _ = realignment_value(state)
        assert abs(value - trace_norm(realign(state.rho, state.dims))) < 1e-9


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
        with pytest.raises(ValueError, match=r"neither orthogonal nor a contraction: .* O O\^T is 4$"):
            o_reduction_apply(max_entangled(3), 2 * np.eye(9))

    def test_rejects_mixing_stack_that_does_not_broadcast(self, rng):
        stack = np.stack([random_density(rng, 9) for _ in range(5)])
        message = r"transform batch shape \(2,\) does not broadcast against state batch shape \(5,\)"
        with pytest.raises(ValueError, match=message):
            o_reduction_operator(stack, 3, cycle_mixings(3))
        assert o_reduction_operator(stack[:, None], 3, cycle_mixings(3)).shape == (5, 2, 9, 9)

    def test_rejects_wrong_size_mixing(self):
        with pytest.raises(ValueError, match=r"transform shape \(4, 4\) does not match basis size 9"):
            o_reduction_operator(max_entangled(3).rho, 3, np.eye(4))

    def test_rejects_complex_mixing(self):
        with pytest.raises(ValueError, match="transform matrix must be real"):
            o_reduction_operator(max_entangled(3).rho, 3, np.eye(9, dtype=complex))

    def test_rejects_wrong_size_state(self):
        with pytest.raises(ValueError, match=r"matrix shape \(8, 8\) does not match dims 3x3"):
            o_reduction_operator(np.eye(8) / 8.0, 3, np.eye(9))

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
        m_min = herm_eigvalues(o_reduction_operator(state.rho, d, o.T))[0]
        assert m_min <= herm_eigvalues(x_matrix(state, o, u))[0] + 1e-12


# Points of the diagonal family in the bound-entangled region: (d, a1, a2).
BOUND_POINTS = ((3, 0.25, 0.65), (3, 0.15, 0.1), (4, 0.15, 0.6), (4, 0.2, 0.1), (5, 0.15, 0.45))


class TestXSearch:
    def test_singlet_detected(self):
        result = x_search(werner2(1.0), budget=200, seed=123)
        assert result.report.verdict == "violated"
        assert result.report.scalar < -1e-6

    def test_weakly_mixed_inconclusive_and_ppt(self):
        result = x_search(werner2(0.25), budget=200, seed=123)
        assert result.report.verdict == "inconclusive"
        assert result.report.scalar >= -1e-6
        assert ppt_check(werner2(0.25)).verdict == "pass"

    def test_separable_stays_nonnegative(self):
        state = random_separable_state(DimPair.square(3), k=5, seed=77)
        result = x_search(state, budget=100, seed=5)
        assert result.report.verdict == "inconclusive"
        assert result.report.scalar >= -1e-6

    def test_deterministic_given_seed(self):
        a = x_search(werner2(0.5), budget=20, seed=3)
        b = x_search(werner2(0.5), budget=20, seed=3)
        assert a.report.scalar == b.report.scalar

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_pairing_is_affine_in_o(self, d, seed):
        # v^dagger X(O) v = c + <G, O>: the same c for every O, and c is the value at O = 0
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        u = random_unitary(d, rng)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        tables = _x_tables(_residue(state.rho, d), u, d)
        g = _o_gradient(tables, v, d)
        c = float(np.real(v.conj() @ _x_stack(tables, np.zeros((d * d, d * d)), d) @ v))
        for _ in range(3):
            o = random_orthogonal(d * d, rng)
            value = float(np.real(v.conj() @ x_matrix(state, make_transform(o), u) @ v))
            assert abs(value - np.sum(g * o) - c) < 1e-12

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_rounds_never_raise_min_eig(self, d, seed):
        # each restart is monotone over the rounds it runs, its last round is the eigenvalue
        # of its final O, and the search reports the smallest of the restarts' last rounds
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        finals = []
        for restart in range(4):
            rounds, o, u = reference_rounds(state, seed, restart)
            assert np.all(np.diff(rounds) <= 1e-12)
            assert abs(np.linalg.eigvalsh(x_matrix(state, make_transform(o), u))[0] - rounds[-1]) <= 1e-12
            finals.append(rounds[-1])
        assert x_search(state, 4, seed).report.scalar == min(finals)

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_warm_start_at_realignment_bound(self, d, seed):
        # restart 0 starts where <s|X|s> = 1 - ||T||_tr and ends at or below a d-th of it
        rng = np.random.default_rng(seed)
        for state in (random_state(rng, d), max_entangled(d)):
            bound = 1.0 - realignment_value(state)[0]
            o, u = _search_starts(correlation_T(state), d, seed, 1)
            assert abs(uniform_pairing(state, make_transform(o[0]), u[0]) - bound) < 1e-12
            assert x_search(state, 1, seed).report.scalar <= bound / d + 1e-12

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
            assert x_search(state, budget, seed=0).report.verdict == "violated"

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
        # the descent the stall rule can give up is at most SEARCH_ROUNDS * SEARCH_STALL
        state = stall_test_state(kind, d, seed, p)
        result = x_search(state, SEARCH_BUDGET, seed)
        fixed = float(x_search_fixed_rounds(state, SEARCH_BUDGET, seed).min())
        assert abs(result.report.scalar - fixed) <= SEARCH_ROUNDS * SEARCH_STALL
        assert result.report.verdict == ("violated" if fixed < -SEARCH_TOL else "inconclusive")

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
        # horodecki(0.5) still descends in every round of every restart: the fixed-round count
        members = self.procrustes_members(monkeypatch, horodecki_rho(0.5), 16, 0)
        assert members == 16 * SEARCH_ROUNDS + 1


class TestSoundness:
    """On separable samples no criterion reports "violated" and the search stays above -SEARCH_TOL."""

    @given(st.integers(2, 4), st.integers(0, 2**31 - 1), st.sampled_from(("pure", "mixed")), st.integers(0, 6))
    def test_separable_samples_never_violated(self, d, seed, mode, k):
        dims = DimPair.square(d)
        if k == 0:
            state = random_product_state(dims, seed=seed, mode=mode)
        else:
            state = random_separable_state(dims, k=k, seed=seed, mode=mode)
        report = full_report(state, budget=4, seed=seed % 1000)
        assert [r.criterion for r in report.reports if r.verdict == "violated"] == []
        search = report.reports[-1]
        assert search.criterion == "x_search"
        assert search.scalar >= -SEARCH_TOL


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
        state = horodecki_rho(0.5)
        witness = horodecki_ew(0.5)
        report = full_report(state, budget=20, witnesses=(witness,))
        verdicts = {(r.criterion, r.params.get("transform")): r.verdict for r in report.reports}
        assert verdicts[("ppt", None)] == "pass"
        witness_reports = [r for r in report.reports if r.criterion == "witness"]
        assert witness_reports[0].verdict == "violated"
        assert abs(witness_reports[0].scalar - (1.0 - np.sqrt(1.002))) < 1e-9
        assert report.entangled

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

    @pytest.mark.parametrize("dims", [DimPair(2, 3), DimPair(3, 2)])
    def test_non_square_product_gets_ppt_alone(self, dims):
        state = random_product_state(dims, seed=5)
        assert full_report(state).reports == (ppt_check(state),)
        assert not full_report(state).entangled

    def test_non_square_entangled(self):
        v = np.zeros(6)
        v[[0, 4]] = 1.0 / np.sqrt(2.0)  # (|00> + |11>) / sqrt(2) in 2 x 3
        state = make_state(np.outer(v, v), DimPair(2, 3), label="bell(2x3)")
        report = full_report(state)
        assert report.reports == (ppt_check(state),)
        assert report.reports[0].verdict == "violated"
        assert report.entangled

    def test_report_serialization(self):
        report = full_report(werner2(0.5), include_search=False)
        payload = report.to_dict()
        assert payload["overall"] == "entangled"
        assert all(set(r) == {"criterion", "verdict", "scalar", "params"} for r in payload["reports"])
