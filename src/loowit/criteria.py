"""Separability criteria: partial transpose, realignment, observable-mixing
reduction maps, and the Hermitian correlation matrix test.

The reduction-map criterion generalizes the usual reduction criterion: mix the
A-side standard observable set by an orthogonal matrix O and require

    I x rho_B - sum_uv <L_u x L_v^T>  L^o_u x L_v^T  >=  0,

which holds for every separable state and every orthogonal O, at any shape
d_A x d_B: on a product state sigma x tau the map is (I - sigma') x tau, with
||sigma' = sum_u Tr(sigma L_u) L^o_u||_2 <= 1. Permutation mixings are cheap
instances that already detect PPT entangled states. The Hermitian correlation
matrix is the same map compressed onto span{|kk>}, a measurable d x d object
at d_A = d_B = d: it is positive semidefinite on separable states for every
unitary u and orthogonal O. The search over (u, O) lowers X's smallest
eigenvalue from each of its restarts until one value below -SEARCH_TOL
certifies entanglement, and returns each restart's value and final O;
full_report reports the least value, and its battery reads the full map at
each final O, which by interlacing goes at least as low. Imports run
down the module order linalg, loo, states, criteria, witness, sweep, cli:
witness builds on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import (
    PSD_TOL,
    DimPair,
    blocks,
    dagger,
    is_psd,
    member_max_abs,
    partial_transpose,
    raise_first,
    require_count,
    scalar_or_stack,
    trace_norm,
)
from .loo import (
    battery_mixings,
    diag_cycle,
    make_transform,
    random_orthogonal,
    random_unitary,
    require_mixing_size,
    standard_basis,
    standard_entries,
    standard_positions,
    transpose_transform,
)
from .states import BipartiteState, family_region, special_slice

# The criteria's thresholds: numerical allowances on exact inequalities, not parameters.
# The eigenvalue criteria (PPT, the reduction maps) report the tolerance is_psd applies.
ALGEBRAIC_TOL = PSD_TOL
SEARCH_TOL = 1e-6
# x_search stops a restart at the first round whose eigensolve lowers its smallest
# eigenvalue by no more than SEARCH_STALL: an allowance on the exact monotonicity of
# the rounds. The descent it can give up, SEARCH_ROUNDS * SEARCH_STALL, is far below
# SEARCH_TOL.
SEARCH_STALL = 1e-12
# x_search: at most SEARCH_ROUNDS exact O steps per restart, and the default number of restarts.
SEARCH_ROUNDS = 10
SEARCH_BUDGET = 8


@dataclass(frozen=True)
class CriterionReport:
    """Per-criterion verdict with the decisive scalar and the parameters used."""

    criterion: str
    verdict: str  # "pass" | "violated" | "inconclusive"
    scalar: float
    params: dict = field(default_factory=dict)


def _report(criterion: str, ok: bool, scalar: float, **params) -> CriterionReport:
    """An algebraic criterion's report: "pass" or "violated" at ALGEBRAIC_TOL, the first of its params."""
    return CriterionReport(criterion, "pass" if ok else "violated", scalar, {"tol": ALGEBRAIC_TOL, **params})


# rho is gathered against the standard set once, in _residue; T, rho_B, the
# reduction maps and the X tables all read that residue, so battery and
# x_search each gather rho once. The gathers add only the nonzero entries of
# the standard set (loo.standard_entries per observable, loo.standard_positions
# per matrix position), in the order np.einsum visits them in the dense form
# named in each docstring. _gathered_sum adds them in place in the first
# gathered term, with no zero accumulator and no array per product. _residue
# adds 0.0 to its sum, which gives it the signed zeros of a sum from +0 and no
# -0.0; the sums read off the residue then have those bits without such a pass
# (tests/test_batched.py, test_gathers_keep_signed_zeros). Tables that depend on
# the shape alone are built once and read-only (_reduction_gather, loo.battery_mixings).
# A skipped term is a product with a zero entry, which adds nothing, so each
# result has the bits of that einsum at a fraction of its cost. No operator is
# symmetrised: at a signed permutation of an exactly Hermitian state each entry and
# its mirror sum conjugate terms, and is_psd removes a general mixing's rounding asymmetry.
# T's dense form is residue = np.einsum("...mnkl,ukm->...unl", r4, mats), then
# T = np.einsum("...unl,vnl->...uv", residue, mats).real.


def _gathered_sum(terms, values) -> np.ndarray:
    """terms[0] values[0] + terms[1] values[1] for two gathered terms, summed in place in the first."""
    total, term = terms
    total *= values[0]
    term *= values[1]
    total += term
    return total


def _residue(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """residue_u = Tr_A((L_u x I) rho) over the A-side standard set: (..., d_A^2, d_B, d_B).

    The one reader of rho's shape: the kernels read d_A and d_B off the residue.
    Dense form: np.einsum("...mnkl,ukm->...unl", r4, mats).
    """
    by_slot = np.swapaxes(blocks(rho, dims), -3, -2)  # (..., m, k, n, l)
    rows, cols, values = standard_entries(dims.d_a)
    residue = _gathered_sum((by_slot[..., cols[i], rows[i], :, :] for i in range(2)), values[:, :, None, None])
    residue += 0.0  # summed from +0: no entry is -0.0
    return residue


def _t_from_residue(residue: np.ndarray) -> np.ndarray:
    """T[..., u, v] = Tr(residue_u L_v^T) = Tr(rho L_u x L_v^T), real and (..., d_A^2, d_B^2); dense form above."""
    rows, cols, values = standard_entries(residue.shape[-1])
    t = _gathered_sum((residue[..., rows[i], cols[i]] for i in range(2)), values)
    imag = member_max_abs(t.imag)
    raise_first(imag > ALGEBRAIC_TOL, "correlation matrix", lambda i: f"has non-real residue {imag[i]:.3e}")
    return t.real


def _mix(o: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(O ops)_v = sum_w O[v, w] ops_w for (..., n, d, d) operator stacks, batch axes broadcast.

    One real matmul on the float view mixes the real and imaginary parts together.
    """
    n, d = ops.shape[-3], ops.shape[-1]
    flat = ops.reshape(ops.shape[:-3] + (n, d * d)).view(float)
    mixed = (o @ flat).view(complex)
    return mixed.reshape(mixed.shape[:-1] + (d, d))


def o_reduction_operator(rho: np.ndarray, dims: DimPair, transform: np.ndarray) -> np.ndarray:
    """I x rho_B minus the A-side-mixed state, sum_uv <L_u x L_v^T> L^o_u x L_v^T.

    transform is one A-side mixing, read through make_transform, and rho one
    state or a (..., n, n) stack. The operator is returned as built: exactly
    Hermitian at a signed permutation of an exactly Hermitian rho, as every
    validated state is (check_densities), else Hermitian to rounding, which is_psd removes.

    The map is reassociated onto the B-side operators paired with L_u
    (_residue):

        sum_u residue_u x (sum_v O_uv L_v) = sum_v (sum_u O_uv residue_u) x L_v,

    so the mixing is one matmul by O^T on the residue, and the standard set's
    at most two nonzero entries per matrix position are gathered from it.
    Dense form: mixed = O^T @ residue, then np.einsum("...vnl,vmk->...mnkl",
    mixed, mats). For a signed permutation (identity, transpose, diag_cycle)
    the matmul only moves and negates residues, and no entry sums more than
    two nonzero terms, so the operator has the bits of mixing the basis
    instead (tests/oracles.o_reduction_dense). A general mixing changes the last bits.
    """
    return _reduction_from_residue(_residue(rho, dims), make_transform(transform))


@lru_cache(maxsize=None)
def _reduction_gather(d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the mixed residue and values of the reduction operator's terms, (2, d_A, d_B, d_A, d_B)."""
    slots, entries = (a[:, :, None, :, None] for a in standard_positions(d_a))  # (2, m, k) onto (2, m, n, k, l)
    # [i, m, n, k, l] reads residue entry (n, l) of the i-th observable nonzero at (m, k)
    index = (slots * d_b + np.arange(d_b)[:, None, None]) * d_b + np.arange(d_b)
    values = np.ascontiguousarray(np.broadcast_to(entries, index.shape))
    index.flags.writeable = values.flags.writeable = False
    return index, values


def _reduction_from_residue(residue: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """o_reduction_operator, as built, from rho's residue (_residue), rho_B included: d_A and d_B read off its shape.

    transform is one mixing or a (..., n, n) stack whose batch axes broadcast against the residue's.
    """
    n, d_b = residue.shape[-3], residue.shape[-1]
    d_a = math.isqrt(n)
    require_mixing_size(transform, n)
    mixed = _mix(np.swapaxes(transform, -1, -2), residue)
    batch = mixed.shape[:-3]
    mixed = mixed.reshape(batch + (n * d_b * d_b,))
    # at most three operator-sized arrays live at once: mixed and the two gathered terms
    index, values = _reduction_gather(d_a, d_b)
    m = _gathered_sum((np.take(mixed, index[i], axis=-1) for i in range(2)), values)  # (..., m, n, k, l)
    del mixed
    rho_b = residue[..., :d_a, :, :].sum(axis=-3)  # the projector slots u < d_A sum to I
    # I x rho_B is np.kron(np.eye(d_a), rho_b)'s own broadcast product, one per state, not per (state, mixing)
    np.subtract(np.eye(d_a)[:, None, :, None] * rho_b[..., None, :, None, :], m, out=m)
    return m.reshape(batch + (d_a * d_b, d_a * d_b))


def battery(rho: np.ndarray, dims: DimPair):
    """(ppt_ok, ppt_min, realignment, map_ok, map_min) of a state or a (..., n, n) stack: the paper's fixed criteria.

    dims is each state's shape, square or not. Each has the bits of its one-state
    relation: is_psd of the partial transpose, trace_norm(correlation_T), and is_psd of
    o_reduction_operator per mixing of battery_mixings(d_A), the cycles, as (..., k): k = d_A - 1,
    and k = 0 at d_A = 2. The map at any other mixing O is o_reduction_operator's.
    """
    return _battery(rho, dims, battery_mixings(dims.d_a))


def _battery(rho: np.ndarray, dims: DimPair, mixings: np.ndarray):
    """battery on a (k, d_A^2, d_A^2) stack of mixings built by the caller, which it does not validate.

    The residue is dropped before the eigensolve.
    """
    ppt_ok, ppt_min = is_psd(partial_transpose(rho, dims))
    residue = _residue(rho, dims)
    realignment = trace_norm(_t_from_residue(residue))
    operators = _reduction_from_residue(residue[..., None, :, :, :], mixings)
    del residue
    map_ok, map_min = is_psd(operators)
    return ppt_ok, ppt_min, realignment, map_ok, map_min


def ppt_check(state: BipartiteState) -> CriterionReport:
    """PPT report, scalar the minimum eigenvalue of rho^T_B; kept for perfbench's tracer until ROADMAP item 3."""
    return _report("ppt", *is_psd(partial_transpose(state.rho, state.dims)))


def pair_correlation(state: BipartiteState) -> np.ndarray:
    """S[u, v] = Tr(rho L_u x L_v) = (T P)[u, v]; kept for perfbench's tracer until ROADMAP item 3."""
    return correlation_T(state) @ transpose_transform(state.dims.d_b)


def correlation_T(state: BipartiteState) -> np.ndarray:
    """T[u, v] = Tr(rho L_u x L_v^T): the B side uses the transposed standard set.

    Equals S[u, v] = Tr(rho L_u x L_v) (tests/oracles.correlation_dense) times the
    diagonal +-1 transpose mixing, so its singular values do not depend on the B-side convention.
    """
    return _t_from_residue(_residue(state.rho, state.dims))


def _realignment_report(value: float) -> CriterionReport:
    return _report("realignment", value <= 1.0 + ALGEBRAIC_TOL, value)


def realignment_value(state: BipartiteState) -> tuple[float, CriterionReport]:
    """Trace norm of the correlation matrix T; separable states satisfy value <= 1.

    It equals the trace norm of the index-realigned density matrix; kept for perfbench's tracer until ROADMAP item 3.
    """
    value = trace_norm(correlation_T(state))
    return value, _realignment_report(value)


def o_reduction_apply(state: BipartiteState, transform: np.ndarray) -> tuple[np.ndarray, CriterionReport]:
    """Extend the local map to the composite: I x rho_B minus the A-side-mixed state.

    Separable states stay positive semidefinite for every orthogonal mixing;
    a negative eigenvalue certifies entanglement. make_transform checks the mixing.
    """
    operator = o_reduction_operator(state.rho, state.dims, transform)
    return operator, _report("o_reduction", *is_psd(operator))


def perm_reduction_family(state: BipartiteState, l: int) -> tuple[np.ndarray, CriterionReport]:
    """Cyclic-permutation reduction test: the A-side projector slots cycled by l.

    On the diagonal family state this shifts the weight at diagonal offset
    i-1 from a_i to a_{i+l} (subscripts wrapped into 1..d). The binding
    constraint is 1 - a_{l+1} >= (d-1) a_1, so l = 1 probes the a_2 weight.
    It is kept for perfbench's tracer until ROADMAP item 3.
    """
    d = state.dims.square_dim
    operator, report = o_reduction_apply(state, diag_cycle(d, l))
    return operator, replace(report, criterion="perm_reduction", params={"tol": ALGEBRAIC_TOL, "l": l, "d": d})


class _XTables(NamedTuple):
    """What X and its O-gradient need of the state, per unitary of a stack (_x_tables)."""

    q: np.ndarray  # (..., d^2, d, d): Q_w = u^dagger residue_w u
    h: np.ndarray  # (..., d): diag(u^dagger rho_B u)
    entries: np.ndarray  # (..., 2, d^2, d^2): [..., i, a, w] = Q_w at the i-th nonzero entry of L_a


def _x_tables(residue: np.ndarray, u: np.ndarray, d: int) -> _XTables:
    """The tables of X for u or a (..., d, d) stack of unitaries, read off rho's residue (_residue).

    Q_w = u^dagger residue_w u is the residue of (I x u^dagger) rho (I x u), and
    h = diag(sum_{k<d} Q_k) = diag(u^dagger rho_B u): the projector slots sum to I.
    The entries of Q that the gradient reads are gathered once into a contiguous
    table; gathered each round, they cost more than the round's products at d = 6.
    """
    u = u[..., None, :, :]
    q = dagger(u) @ residue @ u
    h = np.diagonal(q[..., :d, :, :].sum(axis=-3), axis1=-2, axis2=-1)
    rows, cols, _ = standard_entries(d)
    return _XTables(q, h, np.ascontiguousarray(np.moveaxis(q[..., rows, cols], -3, -1)))


def _x_stack(tables: _XTables, o: np.ndarray, d: int) -> np.ndarray:
    """X[..., m, n] = delta_mn h_m - sum_v L_v[m, n] (O Q)_v[m, n] for each (o, tables) pair of the stacks.

    The mixing is one matmul on the residue, as in o_reduction_operator. The
    sum over v runs in slot order through zero products, which change no bit
    of the at most two nonzero terms at each position (tests/oracles.x_gathered).
    """
    mixed = _mix(o, tables.q)
    terms = mixed.reshape(mixed.shape[:-2] + (d * d,)) * standard_basis(d).reshape(d * d, d * d)
    x = -terms.sum(axis=-2)  # (..., d^2): X flattened, its diagonal every d + 1 entries
    x[..., :: d + 1] += tables.h
    return x.reshape(x.shape[:-1] + (d, d))


def _x_min_eig(tables: _XTables, o: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min(X(o)) and its unit eigenvector v for each (o, tables) pair, from one batched eigh."""
    vals, vecs = np.linalg.eigh(_x_stack(tables, o, d))
    return vals[..., 0], vecs[..., 0]


def _o_gradient(tables: _XTables, v: np.ndarray, d: int) -> np.ndarray:
    """G with v^dagger X(O) v = c + <G, O> for every mixing O, for unit vectors v.

    X is affine in O through O Q (_x_stack), so pairing it with v gives

        G[a, w] = -Re sum_mn conj(v_m) v_n L_a[m, n] Q_w[m, n],

    summed over the at most two nonzero entries of each L_a (tables.entries).
    v is (..., d); G is (..., d^2, d^2).
    """
    rows, cols, values = standard_entries(d)
    weights = values * np.take(v, rows, axis=-1).conj() * np.take(v, cols, axis=-1)  # (..., 2, d^2)
    terms = np.multiply(weights[..., None], tables.entries, order="C").real  # (..., 2, a, w)
    # summed from +0, so a projector's padded second entry changes no bit, not even a zero's sign
    return -(0.0 + terms[..., 0, :, :] + terms[..., 1, :, :])


def _procrustes(g: np.ndarray) -> np.ndarray:
    """The orthogonal O minimising <G, O> for each G of the stack: -U V^T from G = U S V^T.

    On a round's gradient (_o_gradient at v, the lowest eigenvector of X(o)
    from _x_min_eig) this is the O' minimising v^dagger X(O') v, so the step
    cannot raise the smallest eigenvalue: lambda_min(X(O')) <= v^dagger X(O') v
    <= v^dagger X(o) v = lambda_min(X(o)).
    """
    u, _, vh = np.linalg.svd(g)
    return -u @ vh


def _search_starts(t: np.ndarray, d: int, seed: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting (O, u) stacks of the restarts, (budget, d^2, d^2) and (budget, d, d).

    Restart 0 is the warm start: u = I and the O maximising Tr(O T), taken
    from t = T itself as _procrustes(-t^T), so that <s|X|s> = 1 - ||T||_tr for
    the all-ones s. Restart b >= 1 takes the b-th O of default_rng([seed, 0])
    and the b-th u of default_rng([seed, 1]), both from one stacked draw, so
    restart b starts from the same pair at every budget above b.
    """
    n = d * d
    o = np.empty((budget, n, n))
    u = np.empty((budget, d, d), dtype=complex)
    o[0] = _procrustes(-t.T)
    u[0] = np.eye(d)
    o[1:] = random_orthogonal(n, np.random.default_rng([seed, 0]), (budget - 1,))
    u[1:] = random_unitary(d, np.random.default_rng([seed, 1]), (budget - 1,))
    return o, u


def _search_report(criterion: str, restarts: np.ndarray, budget: int, seed: int) -> CriterionReport:
    """A search's report on its restart values: "violated" below -SEARCH_TOL, else "inconclusive", never "pass"."""
    value = min(restarts.tolist())  # the first of tied minima, so 0.0 and -0.0 read as the lower restart
    verdict = "violated" if value < -SEARCH_TOL else "inconclusive"
    # int(): a numpy integer budget or seed is a valid count, but json.dumps rejects it
    return CriterionReport(criterion, verdict, value, {"budget": int(budget), "seed": int(seed), "tol": SEARCH_TOL})


def x_search(state: BipartiteState, budget: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the smallest correlation-matrix eigenvalue over (unitary, orthogonal) pairs.

    ``budget`` restarts, all advanced as one stack. Each keeps its unitary
    and runs at most SEARCH_ROUNDS + 1 rounds: an eigh gives lambda_min(X(O))
    and its eigenvector v (_x_min_eig), then an exact O step (_procrustes)
    moves O, so its smallest eigenvalue never rises. Three rules stop a
    restart; a stopped restart's latest eigenvalue is its final value:
    - the stall: its eigh finds its eigenvalue lowered by no more than
      SEARCH_STALL since the last round, or it is round SEARCH_ROUNDS + 1,
      which takes no step;
    - the race: in a round r (from 0) with 2 r > SEARCH_ROUNDS, it stops
      unless its eigenvalue is strictly below the latest one of every restart
      of lower index;
    - the certificate: the least latest eigenvalue of itself and the restarts
      of lower index is below -SEARCH_TOL. X is positive semidefinite on every
      separable state, so one such value decides the verdict, and while no
      restart up to b has one, restart b runs as if the rule were not there.
    A stopped restart keeps that round's O and eigenvalue, so its value is the
    eigh that stopped it. The stack shrinks only in such a round. The rules
    read restart b and the restarts below it only, so restart b's result does
    not depend on the budget; restart 0 is never raced out, and no certificate
    but its own stops it. Restart 0 starts at the realignment optimum,
    read off T, which comes off the same residue as the X tables, and ends at
    or below (1 - ||T||_tr) / d, so every realignment detection is a search
    detection; the others start from seeded random pairs.

    Returns (values, finals) in restart order: each restart's final
    eigenvalue, (budget,), and its final O, (budget, d^2, d^2). The search
    builds no map and picks no restart; _search_report reduces the values.
    A certified search returns a certificate, a value below -SEARCH_TOL, not
    the least value its restarts could reach.
    X(u, O) is M(rho, O^T) compressed onto the orthonormal vectors
    (I x u)|kk>, so by interlacing M's smallest eigenvalue at a restart's
    final O is at most its value, and M is positive on separable states for
    every orthogonal O.
    """
    require_count(budget, "budget", 1)
    require_count(seed, "seed", 0)
    d = state.dims.square_dim
    residue = _residue(state.rho, state.dims)  # the one gather: T and the X tables both read it
    o, u = _search_starts(_t_from_residue(residue), d, seed, budget)
    tables = _x_tables(residue, u, d)
    final_o = o  # each restart's O, written back when it stops
    lead = np.full(budget + 1, np.inf)  # +inf, then each restart's latest eigenvalue
    val = lead[1:]  # the one record of it: the stall rule, the race and the result read it
    moving = np.arange(budget)  # restart index of each member of the moving stack
    for round_ in range(SEARCH_ROUNDS + 1):
        lam, v = _x_min_eig(tables, o, d)
        stopped = (val[moving] - lam <= SEARCH_STALL) | (round_ == SEARCH_ROUNDS)  # val is still the last round's
        val[moving] = lam
        least = np.minimum.accumulate(lead)  # least[b]: the least latest value of the restarts below b
        stopped |= least[moving + 1] < -SEARCH_TOL  # certified by itself or by a lower restart
        if 2 * round_ > SEARCH_ROUNDS:  # the race: ahead of every lower restart's latest value, or stop
            stopped |= lam >= least[moving]
        if stopped.any():
            final_o[moving[stopped]] = o[stopped]
            keep = ~stopped
            moving, o, v = moving[keep], o[keep], v[keep]
            if not moving.size:
                break
            tables = _XTables(*(table[keep] for table in tables))
        o = _procrustes(_o_gradient(tables, v, d))
    return val, final_o


def classify_family_point(d: int, a1, a2):
    """states.family_region of a special-slice family point, or of each point of (a1, a2) arrays.

    Returns "invalid" where the weights leave the simplex. Scalar (a1, a2)
    give a str, arrays an array of str. It is kept for perfbench's tracer until ROADMAP item 3.
    """
    a, valid = special_slice(d, a1, a2)
    return scalar_or_stack(np.where(valid, family_region(a), "invalid"))


@dataclass(frozen=True, eq=False)
class FullReport:
    """Aggregate of criterion reports; entangled iff any criterion is violated."""

    state_label: str
    reports: tuple[CriterionReport, ...]

    @property
    def entangled(self) -> bool:
        return any(r.verdict == "violated" for r in self.reports)

    @property
    def overall(self) -> str:
        """The one-line verdict that check prints and to_dict carries."""
        return "entangled" if self.entangled else "no entanglement detected"

    def to_dict(self) -> dict:
        return {
            "state": self.state_label,
            "overall": self.overall,
            # each report's fields in order; dataclasses.asdict would deep-copy every value
            "reports": [dict(vars(r)) for r in self.reports],
        }


def full_report(
    state: BipartiteState, *, budget: int = SEARCH_BUDGET, seed: int = 0, include_search: bool = True
) -> FullReport:
    """Run every criterion and aggregate the verdicts; budget and seed are checked even without the search.

    Every shape gets one _battery call, on mixings built here and so not read
    through make_transform: partial transpose, realignment and the maps of
    battery_mixings(d_A), the cycles (none at d_A = 2), plus the search's
    transposed finals. Then,
    unless include_search is off, x_search and o_search follow on square
    states with d_A = d_B >= 3 only: X pairs the sides through (I x u)|kk>,
    which needs d_A = d_B, and at 2 x 2 PPT is necessary and sufficient for
    separability (M., P. and R. Horodecki, Phys. Lett. A 223, 1 (1996)), so
    the ppt report already flags every state a search could.
    x_search runs first, and the battery call also eigensolves M(rho, O^T) at
    its finals. _search_report reduces the restart values to x_search and those
    map minima to o_search, each to the first of its least values. The search
    stops once a restart certifies, so a "violated" x_search scalar is a
    certificate below -SEARCH_TOL, not the least value the restarts could
    reach, and o_search, read at the same finals, is "violated" with it.
    """
    require_count(seed, "seed", 0)
    require_count(budget, "budget", 1)
    d_a = state.dims.d_a
    search = x_search(state, budget=budget, seed=seed) if include_search and d_a == state.dims.d_b >= 3 else None
    mixings = battery_mixings(d_a)
    tags = [f"cycle(l={l})" for l in range(1, len(mixings) + 1)]
    if search:
        values, finals = search
        mixings = np.concatenate([mixings, np.swapaxes(finals, -1, -2)])
    ppt_ok, ppt_min, realignment, map_ok, map_min = _battery(state.rho, state.dims, mixings)
    reports = [_report("ppt", ppt_ok, ppt_min), _realignment_report(realignment)]
    reports += [
        _report("o_reduction", member_ok, member_min, transform=tag)
        for tag, member_ok, member_min in zip(tags, map_ok.tolist(), map_min.tolist())
    ]
    if search:
        reports += [
            _search_report("x_search", values, budget, seed),
            _search_report("o_search", map_min[len(tags) :], budget, seed),
        ]
    return FullReport(state_label=state.label, reports=tuple(reports))
