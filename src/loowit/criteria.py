"""Separability criteria: partial transpose, realignment, observable-mixing
reduction maps, and the Hermitian correlation matrix test.

The reduction-map criterion generalizes the usual reduction criterion: mix the
A-side standard observable set by an orthogonal matrix O and require

    I x rho_B - sum_uv <L_u x L_v^T>  L^o_u x L_v^T  >=  0,

which holds for every separable state and every orthogonal O. Permutation
mixings are cheap instances that already detect PPT entangled states. The
Hermitian correlation matrix packs the same criterion into a measurable d x d
object: it is positive semidefinite on separable states for every unitary u
and orthogonal O.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    DimPair,
    dagger,
    is_psd,
    kron,
    max_abs,
    member_max_abs,
    partial_trace,
    partial_transpose,
    raise_first,
    require_nonnegative,
    require_seed,
    scalar_or_stack,
    trace_norm,
)
from .loo import (
    apply_orthogonal,
    cycle_mixings,
    diag_cycle,
    is_orthogonal,
    make_transform,
    pair_slots,
    permutation_transform,
    random_orthogonal,
    random_unitary,
    require_unitary,
    standard_basis,
    standard_entries,
    transpose_transform,
)
from .states import BipartiteState, family_ppt_sufficient, family_separable_sufficient, special_slice
from .witness import Witness, expectation

ALGEBRAIC_TOL = 1e-9
SEARCH_TOL = 1e-6
# x_search: exact O steps per restart, and the default number of restarts.
SEARCH_ROUNDS = 10
SEARCH_BUDGET = 16


@dataclass(frozen=True)
class CriterionReport:
    """Per-criterion verdict with the decisive scalar and the parameters used."""

    criterion: str
    verdict: str  # "pass" | "violated" | "inconclusive"
    scalar: float
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "scalar": self.scalar,
            "params": self.params,
        }


def _psd_report(criterion: str, ok: bool, min_eig: float, params: dict) -> CriterionReport:
    return CriterionReport(
        criterion=criterion,
        verdict="pass" if ok else "violated",
        scalar=min_eig,
        params=params,
    )


# Stacked kernels: each takes one density matrix or a (..., n, n) stack of them
# and gives the decisive scalars per member (Python scalars for one matrix).


def ppt_psd(rho: np.ndarray, dims: DimPair, tol: float = ALGEBRAIC_TOL):
    """PSD verdicts and minimum eigenvalues of the partial transposes rho^T_B."""
    return is_psd(partial_transpose(rho, dims, "B"), tol=tol)


# The contractions below add only the nonzero entries of the standard set
# (loo.standard_entries) and add them in the order np.einsum visits them in the
# dense contraction named in each docstring, starting from +0. A skipped term
# is a product with a zero entry, which adds nothing, so each result has the
# bits of that einsum at a fraction of its cost.


def _correlation(rho: np.ndarray, d: int) -> np.ndarray:
    """S[..., u, v] = Tr(rho L_u x L_v) for the untransposed standard set on both sides. Real.

    Dense form: np.einsum("...mnkl,ukm,vln->...uv", r4, mats, mats), whose
    terms run over (k, m, l, n) ascending.
    """
    rows, cols, values = standard_entries(d)
    r4 = rho.reshape(rho.shape[:-2] + (d, d, d, d))
    s = np.zeros(rho.shape[:-2] + (d * d, d * d), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = r4[..., cols[i][:, None], cols[j], rows[i][:, None], rows[j]]
            s = s + (block * values[i][:, None]) * values[j]
    imag = member_max_abs(s.imag)
    raise_first(imag > ALGEBRAIC_TOL, "correlation matrix", lambda i: f"has non-real residue {imag[i]:.3e}")
    return s.real


def _correlation_T(rho: np.ndarray, d: int) -> np.ndarray:
    return _correlation(rho, d) @ transpose_transform(d)


def realignment_norm(rho: np.ndarray, d: int):
    """Trace norms of the correlation matrices T; separable states give at most 1."""
    return trace_norm(_correlation_T(rho, d))


def o_reduction_operator(rho: np.ndarray, d: int, transform: np.ndarray) -> np.ndarray:
    """I x rho_B minus the A-side-mixed state, sum_uv <L_u x L_v^T> L^o_u x L_v^T.

    transform is one mixing or a (..., d^2, d^2) stack broadcast against rho's
    batch axes. The result is the Hermitian part (M + M^dagger)/2: exactly
    Hermitian, so is_psd's re-check passes and decomposes it unchanged.
    """
    rows, cols, values = standard_entries(d)
    r4 = rho.reshape(rho.shape[:-2] + (d, d, d, d))
    # B-side operators paired with L_u; dense form np.einsum("...mnkl,ukm->...unl", r4, mats)
    by_slot = np.swapaxes(r4, -3, -2)  # (..., m, k, n, l)
    residue = np.zeros(rho.shape[:-2] + (d * d, d, d), dtype=complex)
    for i in range(2):
        residue = residue + by_slot[..., cols[i], rows[i], :, :] * values[i][:, None, None]
    mixed = apply_orthogonal(standard_basis(d), transform)
    mapped = np.einsum("...unl,...umk->...mnkl", residue, mixed)
    mapped = mapped.reshape(mapped.shape[:-4] + rho.shape[-2:])
    m = kron(np.eye(d), partial_trace(rho, DimPair.square(d), "A")) - mapped
    return (m + dagger(m)) / 2.0


def ppt_check(state: BipartiteState, tol: float = ALGEBRAIC_TOL) -> CriterionReport:
    """Partial-transpose criterion; decisive scalar is the minimum eigenvalue of rho^T_B."""
    ok, min_eig = ppt_psd(state.rho, state.dims, tol)
    return _psd_report("ppt", ok, min_eig, {"tol": tol})


def pair_correlation(state: BipartiteState) -> np.ndarray:
    """S[u, v] = Tr(rho L_u x L_v), both sides the untransposed standard set. Real."""
    return _correlation(state.rho, state.dims.square_dim)


def correlation_T(state: BipartiteState) -> np.ndarray:
    """T[u, v] = Tr(rho L_u x L_v^T): the B side uses the transposed standard set.

    Equals pair_correlation times the diagonal +-1 transpose mixing, so its
    singular values do not depend on the B-side convention.
    """
    return _correlation_T(state.rho, state.dims.square_dim)


def realignment_value(
    state: BipartiteState, tol: float = ALGEBRAIC_TOL
) -> tuple[float, CriterionReport]:
    """Trace norm of the correlation matrix T; separable states satisfy value <= 1.

    It equals the trace norm of the index-realigned density matrix.
    """
    value = realignment_norm(state.rho, state.dims.square_dim)
    verdict = "pass" if value <= 1.0 + tol else "violated"
    report = CriterionReport("realignment", verdict, value, {"tol": tol})
    return value, report


def o_reduction_apply(
    state: BipartiteState,
    transform: np.ndarray,
    tol: float = ALGEBRAIC_TOL,
    label: str | None = None,
) -> tuple[np.ndarray, CriterionReport]:
    """Extend the local map to the composite: I x rho_B minus the A-side-mixed state.

    Separable states stay positive semidefinite for every orthogonal mixing;
    a negative eigenvalue certifies entanglement. make_transform checks the mixing.
    """
    operator = o_reduction_operator(state.rho, state.dims.square_dim, make_transform(transform))
    params: dict = {"tol": tol}
    if label is not None:
        params["transform"] = label
    ok, min_eig = is_psd(operator, tol=tol)
    return operator, _psd_report("o_reduction", ok, min_eig, params)


def perm_reduction_family(
    state: BipartiteState, l: int, tol: float = ALGEBRAIC_TOL
) -> tuple[np.ndarray, CriterionReport]:
    """Cyclic-permutation reduction test: the A-side projector slots cycled by l.

    On the diagonal family state this shifts the weight at diagonal offset
    i-1 from a_i to a_{i+l} (subscripts wrapped into 1..d). The binding
    constraint is 1 - a_{l+1} >= (d-1) a_1, so l = 1 probes the a_2 weight.
    """
    d = state.dims.square_dim
    operator, report = o_reduction_apply(state, permutation_transform(diag_cycle(d, l)), tol=tol)
    return operator, replace(report, criterion="perm_reduction", params={"tol": tol, "l": l, "d": d})


def _unitary_mixing(u: np.ndarray, d: int) -> np.ndarray:
    """R[..., a, b] = Tr(L_b  u L_a u^dagger) for the standard set, for u or a (..., d, d) stack.

    The result is the .real view of a complex array (row stride 16 bytes);
    _x_coefficients relies on that layout, see there.
    """
    mats = standard_basis(d)
    u = u[..., None, :, :]
    conj = np.matmul(np.matmul(u, mats), np.swapaxes(u.conj(), -1, -2))
    return np.einsum("...mij,nji->...mn", conj, mats).real


def _x_coefficients(s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """Standard-set coefficients of X, (..., d^2), from pair correlations s and mixings o, r.

    o and r are one mixing each or (..., d^2, d^2) stacks. s and r must be the
    .real views that pair_correlation and _unitary_mixing return: numpy's
    matmul cannot hand 16-byte-strided operands to BLAS and uses its own loop,
    while a contiguous copy goes to BLAS and changes the last bits. Keeping
    the views keeps every stack member bit-identical to x_matrix on that
    member alone.
    """
    n = d * d
    sym, asym = pair_slots(d)
    trace_vec = np.zeros(n)
    trace_vec[:d] = 1.0  # Tr of the projector slots; pair slots are traceless
    r_t = np.swapaxes(r, -1, -2)
    g = o @ s @ r_t
    h = trace_vec @ s @ r_t
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    coeffs = np.empty(g.shape[:-1])
    coeffs[..., :d] = h[..., :d] - diag[..., :d]
    coeffs[..., sym] = -inv_sqrt2 * (diag[..., sym] - diag[..., asym])
    coeffs[..., asym] = -inv_sqrt2 * (g[..., sym, asym] + g[..., asym, sym])
    return coeffs


def _x_stack(s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """X for each (o, r) pair of the stacks, (..., d, d)."""
    return np.einsum("...u,uij->...ij", _x_coefficients(s, o, r, d), standard_basis(d))


def _x_min_eig(s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """Smallest eigenvalue of X for each (o, r) pair of the stacks."""
    return np.linalg.eigvalsh(_x_stack(s, o, r, d))[..., 0]


def x_matrix(state: BipartiteState, transform: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hermitian correlation matrix of the O-mixed A set against the u-conjugated B set.

    Component rule, in standard-set coefficients (m < n):

        Tr(X P_m)   =  <(I - L^o_m) x L^u_m>
        Tr(X S_mn)  = -(1/sqrt2) <S^o x S^u - A^o x A^u>
        Tr(X A_mn)  = -(1/sqrt2) <S^o x A^u + A^o x S^u>

    where P/S/A are the projector, symmetric, and antisymmetric slots. For
    every separable state the result is positive semidefinite, for all
    unitary u and orthogonal O. Pairing X with the all-ones vector s gives
    <s|X|s> = 1 - sum_a <L^o_a x (u L_a^T u^dagger)>; note the B-side
    transpose in that identity.
    """
    d = state.dims.square_dim
    u = require_unitary(u)
    if u.shape[0] != d:
        raise ValueError(f"unitary dim {u.shape[0]} does not match local dim {d}")
    n = d * d
    if np.shape(transform) != (n, n):
        raise ValueError(f"transform shape {np.shape(transform)} does not match local dim {d}, needs d^2 = {n}")
    if not is_orthogonal(transform):
        raise ValueError("correlation matrix requires an orthogonal mixing")
    return _x_stack(pair_correlation(state), transform, _unitary_mixing(u, d), d)


@dataclass(frozen=True, eq=False)
class XSearchResult:
    """Best correlation-matrix violation found by randomized search."""

    unitary: np.ndarray
    transform: np.ndarray
    min_eig: float
    report: CriterionReport


def _o_gradient(s: np.ndarray, r: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """G with v^dagger X(O, r) v = c + <G, O> for every mixing O, for unit vectors v.

    X is affine in O through g = O S R^T (_x_coefficients). Pairing it with v
    weights each slot a by w_a = v^dagger L_a v and gives c + <W, g>, where W
    places the weights as the slot rule of _x_coefficients reads g, so
    G = W R S^T. v is (..., d), r one mixing or a (..., d^2, d^2) stack; G is
    (..., d^2, d^2).
    """
    n = d * d
    sym, asym = pair_slots(d)
    w = np.einsum("...i,uij,...j->...u", v.conj(), standard_basis(d), v).real
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    weights = np.zeros(w.shape[:-1] + (n, n))
    diag = np.arange(d)
    weights[..., diag, diag] = -w[..., :d]
    weights[..., sym, sym] = -inv_sqrt2 * w[..., sym]
    weights[..., asym, asym] = inv_sqrt2 * w[..., sym]
    weights[..., sym, asym] = -inv_sqrt2 * w[..., asym]
    weights[..., asym, sym] = -inv_sqrt2 * w[..., asym]
    return weights @ r @ s.T


def _procrustes(g: np.ndarray) -> np.ndarray:
    """The orthogonal O minimising <G, O> for each G of the stack: -U V^T from G = U S V^T."""
    u, _, vh = np.linalg.svd(g)
    return -u @ vh


def _o_step(s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """One search round: v is the lowest eigenvector of X(o, r), then the O minimising v^dagger X v.

    The new O cannot raise the smallest eigenvalue: lambda_min(X(O')) <=
    v^dagger X(O') v <= v^dagger X(o) v = lambda_min(X(o)).
    """
    _, vecs = np.linalg.eigh(_x_stack(s, o, r, d))
    return _procrustes(_o_gradient(s, r, vecs[..., 0], d))


def _require_budget(budget: int) -> None:
    """Reject a search budget below one restart."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def _search_starts(s: np.ndarray, d: int, seed: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting (O, u) stacks of the restarts, (budget, d^2, d^2) and (budget, d, d).

    Restart 0 is the warm start: u = I and the O maximising Tr(O T), so that
    <s|X|s> = 1 - ||T||_tr for the all-ones s. Restart b >= 1 draws O, then u,
    from default_rng([seed, b]).
    """
    n = d * d
    o = np.empty((budget, n, n))
    u = np.empty((budget, d, d), dtype=complex)
    o[0] = _procrustes(-(s @ transpose_transform(d)).T)
    u[0] = np.eye(d)
    for b in range(1, budget):
        rng = np.random.default_rng([seed, b])
        o[b] = random_orthogonal(n, rng)
        u[b] = random_unitary(d, rng)
    return o, u


def x_search(
    state: BipartiteState,
    budget: int,
    seed: int,
    tol: float = SEARCH_TOL,
) -> XSearchResult:
    """Minimize the smallest correlation-matrix eigenvalue over (unitary, orthogonal) pairs.

    ``budget`` restarts, all advanced as one stack. Each keeps its unitary
    and runs SEARCH_ROUNDS exact O steps (_o_step), so its smallest
    eigenvalue never rises. Restart 0 starts at the realignment optimum and
    ends at or below (1 - ||T||_tr) / d, so every realignment detection is a
    search detection; the others start from seeded random pairs. The
    verdict is "violated" only below -tol; a failed search is
    "inconclusive", never a separability certificate.
    """
    _require_budget(budget)
    require_seed(seed)
    d = state.dims.square_dim
    s = pair_correlation(state)
    o, u = _search_starts(s, d, seed, budget)
    r = _unitary_mixing(u, d)
    for _ in range(SEARCH_ROUNDS):
        o = _o_step(s, o, r, d)
    val = _x_min_eig(s, o, r, d)
    b = int(np.argmin(val))  # the first restart of the minimum
    best_val = float(val[b])

    verdict = "violated" if best_val < -tol else "inconclusive"
    report = CriterionReport(
        "x_search", verdict, best_val, {"budget": budget, "seed": seed, "tol": tol}
    )
    return XSearchResult(unitary=u[b], transform=o[b], min_eig=best_val, report=report)


def classify_family_point(d: int, a1, a2):
    """Analytic region of a special-slice family point, or of each point of (a1, a2) arrays.

    On the slice the family conditions read: separable iff a2 >= a1 and
    a_d >= a1; PPT iff a2 * a_d >= a1^2. Bound means PPT but not separable;
    free means the partial transpose is negative. Returns "invalid" when the
    weights leave the simplex. Scalar (a1, a2) give a str, arrays an array of str.
    """
    a, valid = special_slice(d, a1, a2)
    region = np.where(family_ppt_sufficient(a), "bound", "free")
    region = np.where(family_separable_sufficient(a), "separable", region)
    return scalar_or_stack(np.where(valid, region, "invalid"))


@dataclass(frozen=True, eq=False)
class ReportConfig:
    """Settings for full_report: tolerances, search budget and seed, witnesses."""

    tol: float = ALGEBRAIC_TOL
    tol_search: float = SEARCH_TOL
    budget: int = SEARCH_BUDGET
    seed: int = 0
    include_search: bool = True
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self) -> None:
        require_nonnegative("tol", self.tol)
        require_nonnegative("tol_search", self.tol_search)
        require_seed(self.seed)
        _require_budget(self.budget)


@dataclass(frozen=True, eq=False)
class FullReport:
    """Aggregate of criterion reports; entangled iff any criterion is violated."""

    state_label: str
    reports: tuple[CriterionReport, ...]
    entangled: bool

    def to_dict(self) -> dict:
        return {
            "state": self.state_label,
            "overall": "entangled" if self.entangled else "no entanglement detected",
            "reports": [r.to_dict() for r in self.reports],
        }


def full_report(state: BipartiteState, config: ReportConfig = ReportConfig()) -> FullReport:
    """Run every configured criterion and aggregate the verdicts.

    Square states get the full battery (partial transpose, realignment, the
    reduction maps for the identity / transpose / all diagonal-cycle mixings,
    each configured witness, then the randomized correlation search).
    Non-square states only support the partial transpose.
    """
    reports: list[CriterionReport] = [ppt_check(state, tol=config.tol)]
    if state.dims.d_a == state.dims.d_b:
        d = state.dims.d_a
        _, realignment_report = realignment_value(state, tol=config.tol)
        reports.append(realignment_report)
        tags = ["reduction", "transpose"] + [f"cycle(l={l})" for l in range(1, d)]
        mixings = np.concatenate([[np.eye(d * d), transpose_transform(d)], cycle_mixings(d)])
        ok, min_eig = is_psd(o_reduction_operator(state.rho, d, mixings), tol=config.tol)
        reports += [
            _psd_report("o_reduction", member_ok, member_min, {"tol": config.tol, "transform": tag})
            for tag, member_ok, member_min in zip(tags, ok.tolist(), min_eig.tolist())
        ]
        for witness in config.witnesses:
            value = expectation(witness, state)
            scale = max(1.0, max_abs(witness.matrix))
            verdict = "pass" if value >= -config.tol * scale else "violated"
            reports.append(
                CriterionReport("witness", verdict, value, {"witness": witness.provenance})
            )
        if config.include_search:
            result = x_search(state, budget=config.budget, seed=config.seed, tol=config.tol_search)
            reports.append(result.report)
    entangled = any(r.verdict == "violated" for r in reports)
    return FullReport(state_label=state.label, reports=tuple(reports), entangled=entangled)
