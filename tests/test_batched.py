"""Stacks of states against the same states one at a time.

The linalg primitives, the state validation and the criterion kernels take a
leading batch axis. A stack must give the bits its members give alone, so the
sweep's block boundaries cannot change a result; an invalid member must be
named by its index. The reduction maps take a stack of mixings as well, and
each (state, mixing) pair must give the bits of its own call. The correlation
search runs its restarts as one stack, and must give the bits of the search
that runs one restart at a time.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import random_density, same_bits, sample_states, signed_zero_variants
from loowit import criteria
from loowit.criteria import (
    _XTables,
    _o_gradient,
    _reduction_from_residue,
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
    ppt_check,
    realignment_value,
    x_search,
)
from loowit.linalg import (
    DimPair,
    dagger,
    herm_eigvalues,
    is_psd,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from loowit.loo import (
    apply_orthogonal,
    battery_mixings,
    make_transform,
    random_orthogonal,
    random_unitary,
    standard_basis,
    transpose_transform,
)
from loowit.states import (
    FamilyParams,
    check_densities,
    family_region,
    family_rho,
    family_special,
    family_stack,
    horodecki_rho,
    make_state,
    max_entangled,
    random_separable_state,
)
from loowit.sweep import evaluate_point, run_sweep
from oracles import (
    correlation_T_dense,
    correlation_dense,
    expand,
    family_matrix_loops,
    o_gradient_entries,
    o_gradient_loops,
    o_reduction_dense,
    o_reduction_mixed_residue_dense,
    reduction_from_zeros,
    reference_race,
    residue_from_zeros,
    t_from_zeros,
    unitary_mixing_single,
    x_coefficients_loops,
    x_gathered,
    x_matrix,
)


def transforms(d: int) -> list:
    """The identity, the battery's mixings and the transpose mixing: signed permutations the kernels keep bit for bit."""
    return [np.eye(d * d), *battery_mixings(d), transpose_transform(d)]


# d_A != d_B in 2..6
RECTANGULAR = st.tuples(st.integers(2, 6), st.integers(2, 5)).map(lambda p: DimPair(p[0], p[1] + (p[1] >= p[0])))


class TestRouteAgreement:
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_stack_matches_members(self, d, seed, split):
        # the stack alone: split in two blocks or sliced to one member, every battery output keeps
        # the whole stack's bits (test_battery_matches_members compares members with single criteria)
        states = sample_states(d, seed)
        stack = np.stack([s.rho for s in states])
        split = split % len(states)
        mixings = np.stack(transforms(d) + [random_orthogonal(d * d, np.random.default_rng(seed))])
        dims = states[0].dims
        whole = battery(stack, dims, mixings)
        blocks = [battery(stack[:split], dims, mixings), battery(stack[split:], dims, mixings)]
        for k in range(5):
            assert same_bits(np.concatenate([blocks[0][k], blocks[1][k]]), whole[k])
        for i in range(len(states)):
            member = battery(stack[i : i + 1], dims, mixings)
            for k in range(5):
                assert same_bits(whole[k][i], member[k][0])

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_gathers_keep_signed_zeros(self, d, seed):
        # the gathers accumulate in their first term and keep the bits of sums from np.zeros, so
        # equal values and each zero's sign, real and imaginary: on random and family states (many
        # exact zeros), single and stacked mixings, and on the same states with their zero real
        # parts, then all their zero parts, made -0.0, where a sum not started at +0 keeps a -0.0
        rng = np.random.default_rng(seed)
        stack = np.concatenate(
            [
                np.stack([random_density(rng, d * d) for _ in range(2)]),
                family_stack(rng.dirichlet(np.ones(d), size=3)),
                family_stack(np.eye(d)[:2]),
            ]
        )
        stack = signed_zero_variants(stack)
        mixings = np.stack(transforms(d) + [random_orthogonal(d * d, rng)])
        dims = DimPair.square(d)
        residue = _residue(stack, dims)
        assert same_bits(residue, residue_from_zeros(stack, dims))
        assert same_bits(_residue(stack[-1], dims), residue_from_zeros(stack[-1], dims))
        assert same_bits(_t_from_residue(residue), t_from_zeros(residue).real)
        for t in mixings:
            assert same_bits(_reduction_from_residue(residue, t), reduction_from_zeros(residue, t))
        stacked = residue[:, None]
        assert same_bits(_reduction_from_residue(stacked, mixings), reduction_from_zeros(stacked, mixings))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_mixing_stack_matches_members(self, d, seed):
        # seeded mixed and family states against the battery's mixings and a Haar-random one
        rng = np.random.default_rng(seed)
        stack = np.concatenate(
            [
                np.stack([random_density(rng, d * d) for _ in range(2)]),
                family_stack(rng.dirichlet(np.ones(d), size=2)),
            ]
        )
        mixings = np.stack(transforms(d) + [random_orthogonal(d * d, rng)])
        dims = DimPair.square(d)
        pairs = o_reduction_operator(stack[:, None], dims, mixings)
        for i, rho in enumerate(stack):
            per_state = o_reduction_operator(rho, dims, mixings)
            for c, t in enumerate(mixings):
                single = o_reduction_operator(rho, dims, t)
                assert same_bits(pairs[i, c], single)
                assert same_bits(per_state[c], single)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_full_report_matches_single_mixings(self, d):
        tags = [f"cycle(l={l})" for l in range(1, d) if d >= 3]
        for state in sample_states(d, d):
            report = full_report(state, include_search=False)
            reductions = [r for r in report.reports if r.criterion == "o_reduction"]
            assert len(reductions) == len(tags)
            for r, tag, t in zip(reductions, tags, battery_mixings(d)):
                single = o_reduction_apply(state, t)[1]
                assert r == replace(single, params={**single.params, "transform": tag})
                assert same_bits(r.scalar, single.scalar)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_full_report_matches_single_criteria(self, d):
        for state in sample_states(d, d):
            report = full_report(state, include_search=False)
            for r, single in zip(report.reports[:2], (ppt_check(state), realignment_value(state)[1])):
                assert r == single
                assert same_bits(r.scalar, single.scalar)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_battery_matches_members(self, d, seed):
        # a state stack against a mixing stack: every (state, mixing) pair gives its own call's bits
        states = sample_states(d, seed)
        mixings = np.stack(transforms(d) + [random_orthogonal(d * d, np.random.default_rng(seed))])
        whole = battery(np.stack([s.rho for s in states]), states[0].dims, mixings)
        assert whole[3].shape == whole[4].shape == (len(states), len(mixings))
        for i, state in enumerate(states):
            one = battery(state.rho, state.dims, mixings)
            for k in range(5):
                assert same_bits(whole[k][i], one[k])
            ppt = ppt_check(state)
            assert one[0] == (ppt.verdict == "pass")
            assert same_bits(one[1], ppt.scalar)
            assert same_bits(one[2], realignment_value(state)[0])
            for c, t in enumerate(mixings):
                single = o_reduction_apply(state, t)[1]
                assert one[3][c] == (single.verdict == "pass")
                assert same_bits(one[4][c], single.scalar)

    @given(st.integers(3, 5), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_sweep_point_matches_check(self, d, s, t):
        # a sweep row's numeric region is what check reads off the same family point:
        # free if the partial transpose fails, else bound if any cycle map fails
        a1 = s / (d - 1)
        a2 = t * (1.0 - (d - 2) * a1)
        row = evaluate_point(d, a1, a2)
        assume(row is not None and not row["boundary_flag"])
        report = full_report(family_rho(family_special(d, a1, a2)), include_search=False)
        ppt = report.reports[0]
        cycles = [r for r in report.reports if str(r.params.get("transform")).startswith("cycle")]
        assert len(cycles) == d - 1
        if ppt.verdict == "violated":
            expected = "free"
        else:
            expected = "bound" if any(r.verdict == "violated" for r in cycles) else "separable"
        assert row["numeric_region"] == expected
        assert same_bits(row["ppt_min_eig"], ppt.scalar)
        assert same_bits(row["oreduction_min_eig"], min(r.scalar for r in cycles))

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_linalg_stack_matches_members(self, d, seed):
        rng = np.random.default_rng(seed)
        dims = DimPair(d, int(rng.integers(2, 5)))
        stack = np.stack([random_density(rng, dims.total) for _ in range(4)])
        for f in (
            lambda m: partial_transpose(m, dims),
            lambda m: partial_trace(m, dims, "A"),
            lambda m: partial_trace(m, dims, "B"),
            lambda m: realign(m, dims),
            herm_eigvalues,
            trace_norm,
            lambda m: is_psd(m)[1],
        ):
            assert same_bits(f(stack), np.stack([f(m) for m in stack]))


class TestExactHermitianRoute:
    """herm_eigvalues decomposes an exactly Hermitian stack as it is, with the bits of symmetrising it."""

    @staticmethod
    def symmetrised(h):
        return np.linalg.eigvalsh((h + dagger(h)) / 2.0)

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_exactly_hermitian_stacks(self, d, seed):
        rng = np.random.default_rng(seed)
        w = np.stack([random_density(rng, d * d) for _ in range(3)])
        rho = np.concatenate([(w + dagger(w)) / 2.0, family_stack(rng.dirichlet(np.ones(d), size=2))])
        mixings = np.stack(transforms(d) + [random_orthogonal(d * d, rng)])
        a = rng.standard_normal((3, d * d, d * d)) + 1j * rng.standard_normal((3, d * d, d * d))
        for h in (
            partial_transpose(rho, DimPair.square(d)),
            o_reduction_operator(rho[:, None], DimPair.square(d), mixings),
            (a + dagger(a)) / 2.0,
        ):
            assert (h == dagger(h)).all()
            assert same_bits(herm_eigvalues(h), self.symmetrised(h))
            assert same_bits(is_psd(h)[1], self.symmetrised(h)[..., 0])

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_defect_is_symmetrised_or_rejected(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, d * d, d * d)) + 1j * rng.standard_normal((3, d * d, d * d))
        h = (a + dagger(a)) / 2.0
        h[1, 0, 1] += 1e-13  # above the diagonal, where eigvalsh does not read
        assert same_bits(herm_eigvalues(h), self.symmetrised(h))
        assert not same_bits(herm_eigvalues(h)[1], np.linalg.eigvalsh(h[1]))
        h[1, 0, 1] += 1e-3
        with pytest.raises(ValueError, match=r"^matrix\[1\] violates hermiticity"):
            herm_eigvalues(h)


class TestOperatorsBuiltHermitian:
    """At a signed permutation of an exactly Hermitian state the reduction operator is built exactly Hermitian.

    _reduction_from_residue returns the operator as built, so this is what
    lets is_psd decompose the battery's permutation members and every sweep
    operator without computing a Hermiticity defect.
    """

    @staticmethod
    def check_exact(dims, stack, rng):
        # the exactly Hermitian draws and their signed-zero variants, against every signed permutation
        stack = signed_zero_variants(stack)
        assert (stack == dagger(stack)).all()
        n = dims.d_a**2
        signed = [np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n) for _ in range(2)]
        operators = _reduction_from_residue(_residue(stack, dims)[:, None], np.stack(transforms(dims.d_a) + signed))
        assert (operators == dagger(operators)).all()

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_square_states(self, d, seed):
        rng = np.random.default_rng(seed)
        w = np.stack([random_density(rng, d * d) for _ in range(2)])
        family = family_stack(np.concatenate([rng.dirichlet(np.ones(d), size=2), np.eye(d)[:2]]))
        self.check_exact(DimPair.square(d), np.concatenate([(w + dagger(w)) / 2.0, family]), rng)

    @given(RECTANGULAR, st.integers(0, 2**32 - 1))
    def test_rectangular_states(self, dims, seed):
        rng = np.random.default_rng(seed)
        w = np.stack([random_density(rng, dims.total) for _ in range(2)])
        self.check_exact(dims, (w + dagger(w)) / 2.0, rng)

    @pytest.mark.parametrize("d", range(3, 7))
    def test_sweep_never_symmetrises(self, monkeypatch, d):
        # every matrix a sweep block hands is_psd, its partial transposes and its reduction operators,
        # equals its conjugate transpose entry for entry
        seen = []

        def exact_is_psd(h):
            seen.append(bool((h == dagger(h)).all()))
            return is_psd(h)

        monkeypatch.setattr(criteria, "is_psd", exact_is_psd)
        run_sweep(d, 30)
        assert seen and all(seen)


class TestSparseContractions:
    """The kernels add only the nonzero observable entries; the dense einsums are the reference.

    The reduction operator mixes the residue, not the basis. Its dense form
    mixes the residue the same way; mixing the basis is the second route.
    Every check runs on square d x d draws, and again on d_A != d_B: the
    kernels read both dimensions off the residue.
    """

    @staticmethod
    def check_correlation(dims, rng):
        # T reads the residue: it has the bits of its own two-step dense form, and S = T P
        # agrees with the one-step dense S, the second route, to rounding
        state = make_state(random_density(rng, dims.total), dims, "random")
        assert correlation_T(state).shape == (dims.d_a**2, dims.d_b**2)
        assert same_bits(correlation_T(state), correlation_T_dense(state.rho, dims))
        assert np.abs(pair_correlation(state) - correlation_dense(state.rho, dims).real).max() <= 1e-15

    @staticmethod
    def check_o_reduction_dense(dims, rng):
        n = dims.d_a**2
        stack = np.stack([random_density(rng, dims.total) for _ in range(3)])
        contraction = make_transform(0.5 * random_orthogonal(n, rng))
        mixings = transforms(dims.d_a) + [make_transform(random_orthogonal(n, rng)), contraction]
        # battery's form too: the (states, 1) stack against all k mixings at once, (states, k) operators
        operators = o_reduction_operator(stack[:, None], dims, np.stack(mixings))
        for j, t in enumerate(mixings):
            dense = o_reduction_mixed_residue_dense(stack, dims, t)
            operator = o_reduction_operator(stack, dims, t)
            assert same_bits(operator, dense)
            assert same_bits(operators[:, j], operator)

    @staticmethod
    def check_basis_mixing(dims, stack, rng):
        # mixing the residue instead of the basis keeps the bits for every signed permutation
        n = dims.d_a**2
        signed = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
        for t in transforms(dims.d_a) + [signed]:
            assert same_bits(o_reduction_operator(stack, dims, t), o_reduction_dense(stack, dims, t))
        # a general mixing or contraction changes only the last bits
        for t in (random_orthogonal(n, rng), 0.5 * random_orthogonal(n, rng)):
            dense = o_reduction_dense(stack, dims, make_transform(t))
            operator = o_reduction_operator(stack, dims, make_transform(t))
            assert np.abs(operator - dense).max() <= 1e-12

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_correlation_matches_dense_einsum(self, d, seed):
        self.check_correlation(DimPair.square(d), np.random.default_rng(seed))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_o_reduction_matches_dense_einsum(self, d, seed):
        self.check_o_reduction_dense(DimPair.square(d), np.random.default_rng(seed))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_o_reduction_matches_basis_mixing(self, d, seed):
        # the diagonal-family stack the sweep feeds through the same kernels rides along
        rng = np.random.default_rng(seed)
        stack = np.concatenate(
            [
                np.stack([random_density(rng, d * d) for _ in range(2)]),
                family_stack(rng.dirichlet(np.ones(d), size=2)),
            ]
        )
        self.check_basis_mixing(DimPair.square(d), stack, rng)

    @given(RECTANGULAR, st.integers(0, 2**32 - 1))
    def test_rectangular_shapes_match_dense_forms(self, dims, seed):
        rng = np.random.default_rng(seed)
        self.check_correlation(dims, rng)
        self.check_o_reduction_dense(dims, rng)
        self.check_basis_mixing(dims, np.stack([random_density(rng, dims.total) for _ in range(2)]), rng)

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_o_reduction_matches_correlation_form(self, d_a, d_b, seed):
        # the map's defining form I x rho_B - sum_uv T_uv L^o_u x L_v^T, from the dense T = S P,
        # is a third route; it agrees to 1e-14 x scale on every shape
        rng = np.random.default_rng(seed)
        dims = DimPair(d_a, d_b)
        rho = random_density(rng, dims.total)
        t = correlation_dense(rho, dims).real @ transpose_transform(d_b)
        identity_rho_b = np.kron(np.eye(d_a), partial_trace(rho, dims, "A"))
        for o in transforms(d_a) + [random_orthogonal(d_a * d_a, rng)]:
            mixed = apply_orthogonal(standard_basis(d_a), o)
            form = identity_rho_b - np.einsum("uv,uab,vdc->acbd", t, mixed, standard_basis(d_b)).reshape(rho.shape)
            assert np.abs(o_reduction_operator(rho, dims, o) - form).max() <= 1e-14 * max(1.0, np.abs(rho).max())


def search_state(d: int):
    """Separable samples at d = 3 and 5, else phi."""
    if d in (3, 5):
        return random_separable_state(DimPair.square(d), k=3, seed=d, mode="mixed")
    return max_entangled(d)


@functools.lru_cache(maxsize=None)
def reference_restarts(d: int, seed: int, budget: int) -> list:
    return reference_race(search_state(d), seed, budget)


def same_search(state, budget: int, seed: int, restarts: list) -> bool:
    """x_search's every value and final O, and the unitaries it starts from, bit for bit the reference race's."""
    values, finals = x_search(state, budget, seed)
    rounds, ends, unitaries = zip(*restarts)
    starts = _search_starts(correlation_T(state), state.dims.square_dim, seed, budget)[1]
    return (
        same_bits(values, np.array([r[-1] for r in rounds]))
        and same_bits(finals, np.array(ends))
        and same_bits(starts, np.array(unitaries))
    )


class TestLockstepSearch:
    """Restarts advanced as one stack against the reference search, one restart at a time.

    The kernels the search runs on stacks of (O, u) pairs must also give the
    bits of x_matrix and of the gradient's entry loop on each pair, and agree
    with the slot-rule oracles to rounding.
    """

    @pytest.mark.parametrize("budget", (1, 5, 32, 33))
    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 7), (4, 123), (5, 2024)])
    def test_matches_reference(self, d, seed, budget):
        # restart b races only restarts below b, so a smaller budget's reference is a prefix
        assert same_search(search_state(d), budget, seed, reference_restarts(d, seed, 33)[:budget])

    @pytest.mark.parametrize("state", [horodecki_rho(0.5), max_entangled(2)], ids=["horodecki", "phi2"])
    def test_full_budget_matches_reference(self, state):
        assert same_search(state, 200, 3, reference_race(state, 3, 200))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_coefficient_stack_matches_slot_loops(self, d, seed):
        # each stack member has the bits of its lone call (x_matrix, the entry loop of the
        # gradient), and both kernels agree with the slot-rule oracles to rounding. Odd seeds
        # take phi, whose residue at u = I (member 0) has exact zeros, so signs of zero count.
        rng = np.random.default_rng(seed)
        state = make_state(random_density(rng, d * d), DimPair.square(d), "random")
        state = max_entangled(d) if seed % 2 else state
        s = pair_correlation(state)
        o = np.stack([random_orthogonal(d * d, rng) for _ in range(3)])
        u = np.stack([np.eye(d)] + [random_unitary(d, rng) for _ in range(2)])
        tables = _x_tables(_residue(state.rho, state.dims), u, d)
        x = _x_stack(tables, o, d)
        v = np.linalg.eigh(x)[1][..., 0]
        g = _o_gradient(tables, v, d)
        basis = standard_basis(d)
        for i in range(3):
            assert same_bits(x[i], x_matrix(state, make_transform(o[i]), u[i]))
            q = _x_tables(_residue(state.rho, state.dims), u[i], d).q
            assert same_bits(g[i], o_gradient_entries(q, v[i], d))
            r = unitary_mixing_single(u[i], d)
            assert np.abs(expand(basis, x[i]) - x_coefficients_loops(s, o[i], r, d)).max() <= 1e-12
            assert np.abs(g[i] - o_gradient_loops(s, r, v[i], d)).max() <= 1e-12

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_x_keeps_gathered_bits(self, d, seed):
        # X sums every slot's product through zeros, where the gather adds only the two nonzero
        # ones: the same bits, each zero's sign included, on tables whose entries are signed zeros
        # and a few exact values, for a stack of pairs and for one pair alone
        rng = np.random.default_rng(seed)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.25])

        def draw(*shape):
            return rng.choice(values, shape)

        n, batch = d * d, 3
        tables = _XTables(draw(batch, n, d, d) + 1j * draw(batch, n, d, d), draw(batch, d) + 1j * draw(batch, d), None)
        o = draw(batch, n, n)
        assert same_bits(_x_stack(tables, o, d), x_gathered(tables, o, d))
        alone = _XTables(tables.q[0], tables.h[0], None)
        assert same_bits(_x_stack(alone, o[0], d), x_gathered(alone, o[0], d))


class TestFamilyStack:
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_matches_entrywise_construction(self, d, seed):
        weights = np.random.default_rng(seed).dirichlet(np.ones(d), size=5)
        stack = family_stack(weights)
        for row, rho in zip(weights, stack):
            assert same_bits(rho, family_matrix_loops(FamilyParams(d, tuple(row.tolist()))))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_weights_check_is_the_density_check(self, d, seed):
        # family_stack checks weights only; the full check and the eigensolve are the oracle
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(d), size=6)
        zero = rng.random(weights.shape) < 0.4
        zero[np.arange(len(weights)), weights.argmax(axis=-1)] = False
        weights[zero] = 0.0
        weights /= weights.sum(axis=-1, keepdims=True)
        stack = family_stack(weights)
        check_densities(stack, DimPair.square(d))
        # spectrum {a_1, a_i/d (each d times), 0 (d - 1 times)}
        closed = np.concatenate(
            [weights[:, :1], np.repeat(weights[:, 1:] / d, d, axis=-1), np.zeros((len(weights), d - 1))],
            axis=-1,
        )
        assert np.abs(herm_eigvalues(stack) - np.sort(closed, axis=-1)).max() <= 1e-12

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_vectorised_labels_match_scalar(self, d, seed):
        weights = np.random.default_rng(seed).dirichlet(np.ones(d), size=8)
        regions = family_region(weights)
        for i, row in enumerate(weights):
            params = FamilyParams(d, tuple(row.tolist()))
            assert regions[i] == family_region(params.a)

    def test_classify_arrays_match_points(self):
        a1, a2 = np.meshgrid(np.linspace(0.0, 0.6, 9), np.linspace(0.0, 1.0, 9))
        regions = classify_family_point(3, a1, a2)
        for i, j in np.ndindex(a1.shape):
            assert regions[i, j] == classify_family_point(3, float(a1[i, j]), float(a2[i, j]))

    @pytest.mark.parametrize("d", (3, 4, 5, 6))
    def test_sweep_rows_match_points(self, d):
        columns = run_sweep(d, 9).columns
        rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]
        assert rows
        for row in rows:
            assert evaluate_point(d, row["a1"], row["a2"]) == row
        # off the simplex there is no row: a_d < 0 far from and just past the a_d = 0 edge, and a1 < 0
        for a1, a2 in ((0.6, 0.6), (0.1, 1.0 - (d - 2) * 0.1 + 1e-9), (-0.1, 0.5)):
            assert evaluate_point(d, a1, a2) is None


class TestInvalidMember:
    @pytest.mark.parametrize("index", (0, 2, 4))
    @pytest.mark.parametrize(
        "defect, quantity",
        [("hermiticity", "hermiticity"), ("trace", "trace normalization"), ("positivity", "positivity")],
    )
    def test_named_by_index(self, index, defect, quantity):
        states = sample_states(3, 7)[:5]
        stack = np.stack([s.rho for s in states])
        if defect == "hermiticity":
            stack[index, 0, 1] += 0.05
        elif defect == "trace":
            stack[index] *= 0.9
        else:
            stack[index] = np.diag([1.5, -0.5] + [0.0] * 7)
        with pytest.raises(ValueError, match=rf"^state\[{index}\] violates {quantity}"):
            check_densities(stack, DimPair.square(3))

    @given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.integers(0, 5), st.booleans())
    def test_property_names_first_invalid_member(self, d, seed, index, hermitian_defect):
        states = sample_states(d, seed)
        stack = np.stack([s.rho for s in states])
        index %= len(states)
        if hermitian_defect:
            stack[index, 0, d * d - 1] += 0.1
        else:
            stack[index] *= 1.5
        with pytest.raises(ValueError, match=rf"^state\[{index}\] violates"):
            check_densities(stack, DimPair.square(d))

    def test_trace_checked_on_every_member_before_positivity(self):
        stack = np.stack([np.eye(9, dtype=complex) / 9.0] * 5)
        stack[0] = np.diag([1.5, -0.5] + [0.0] * 7)  # positivity only
        stack[3] *= 0.9  # trace only
        with pytest.raises(ValueError, match=r"^state\[3\] violates trace normalization"):
            check_densities(stack, DimPair.square(3))

    def test_hermiticity_checked_on_every_member_before_trace(self):
        stack = np.stack([np.eye(9, dtype=complex) / 9.0] * 5)
        stack[1] *= 0.9  # trace only
        stack[3, 0, 1] += 0.05  # hermiticity only
        with pytest.raises(ValueError, match=r"^state\[3\] violates hermiticity"):
            check_densities(stack, DimPair.square(3))

    def test_non_finite_member(self):
        stack = np.stack([np.eye(4) / 4.0] * 3)
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"^state\[1\] has non-finite entries"):
            check_densities(stack, DimPair.square(2))

    def test_family_weights_outside_simplex(self):
        weights = np.array([[0.2, 0.5, 0.3], [0.6, -0.2, 0.6], [1 / 3, 1 / 3, 1 / 3]])
        with pytest.raises(ValueError, match=r"^weights\[1\] must be nonnegative, got \(0\.6, -0\.2, 0\.6\)$"):
            family_stack(weights)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.5, np.nan, 0.5), r"must be finite, got \(0\.5, nan, 0\.5\)"),
            ((0.5, -1e-12, 0.5 + 1e-12), r"must be nonnegative, got \(0\.5, -1e-12, 0\.500000000001\)"),
            ((0.2, 0.5, 0.3 + 1e-6), r"must sum to 1, got sum = 1\.000001"),
        ],
        ids=("nan", "negative", "sum"),
    )
    def test_family_weights_named(self, row, message):
        # in_simplex's rule: a weight of -1e-12 passes check_densities' eigenvalue tolerance, not this check
        weights = np.array([[1 / 3, 1 / 3, 1 / 3], row, [0.2, 0.5, 0.3]])
        with pytest.raises(ValueError, match=rf"^weights\[1\] {message}$"):
            family_stack(weights)

    def test_linalg_names_member(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 3)
        stack[2, 0, 1] = 1.0
        with pytest.raises(ValueError, match=r"^matrix\[2\] violates hermiticity"):
            herm_eigvalues(stack)

    def test_single_matrix_messages_unchanged(self):
        m = np.eye(4) / 4.0
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match=r"^state violates hermiticity: max \|rho - rho\^dagger\|"):
            make_state(m, DimPair(2, 2), "bad")
