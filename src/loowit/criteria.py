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
    is_psd,
    kron,
    max_abs,
    partial_trace,
    partial_transpose,
    trace_norm,
)
from .loo import (
    OrthTransform,
    apply_orthogonal,
    asym_slot,
    diag_cycle,
    identity_transform,
    pair_list,
    permutation_transform,
    random_orthogonal,
    random_unitary,
    require_unitary,
    standard_basis,
    sym_slot,
    transpose_transform,
)
from .states import BipartiteState, family_ppt_sufficient, family_separable_sufficient, family_special
from .witness import Witness, expectation

ALGEBRAIC_TOL = 1e-9
SEARCH_TOL = 1e-6
# Refinement of each x_search restart: rotation rounds and their step decay.
REFINE_ROUNDS = 40
STEP_DECAY = 0.7


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


def _psd_report(criterion: str, matrix: np.ndarray, tol: float, params: dict) -> CriterionReport:
    ok, min_eig = is_psd(matrix, tol=tol)
    return CriterionReport(
        criterion=criterion,
        verdict="pass" if ok else "violated",
        scalar=min_eig,
        params=params,
    )


def ppt_check(state: BipartiteState, tol: float = ALGEBRAIC_TOL) -> CriterionReport:
    """Partial-transpose criterion; decisive scalar is the minimum eigenvalue of rho^T_B."""
    pt = partial_transpose(state.rho, state.dims, "B")
    return _psd_report("ppt", pt, tol, {"tol": tol})


def pair_correlation(state: BipartiteState) -> np.ndarray:
    """S[u, v] = Tr(rho L_u x L_v), both sides the untransposed standard set. Real."""
    d = state.dims.square_dim
    mats = standard_basis(d).mats
    r4 = state.rho.reshape(d, d, d, d)
    s = np.einsum("mnkl,ukm,vln->uv", r4, mats, mats)
    if max_abs(s.imag) > ALGEBRAIC_TOL:
        raise ValueError(f"correlation matrix has non-real residue {max_abs(s.imag):.3e}")
    return s.real


def correlation_T(state: BipartiteState) -> np.ndarray:
    """T[u, v] = Tr(rho L_u x L_v^T): the B side uses the transposed standard set.

    Equals pair_correlation times the diagonal +-1 transpose mixing, so its
    singular values do not depend on the B-side convention.
    """
    d = state.dims.square_dim
    return pair_correlation(state) @ transpose_transform(d).matrix


def realignment_value(
    state: BipartiteState, tol: float = ALGEBRAIC_TOL
) -> tuple[float, CriterionReport]:
    """Trace norm of the correlation matrix T; separable states satisfy value <= 1.

    It equals the trace norm of the index-realigned density matrix.
    """
    value = trace_norm(correlation_T(state))
    verdict = "pass" if value <= 1.0 + tol else "violated"
    report = CriterionReport("realignment", verdict, value, {"tol": tol})
    return value, report


def _transformed_a_side(rho: np.ndarray, d: int, transform: OrthTransform) -> np.ndarray:
    """sum_uv <L_u x L_v^T> L^o_u x L_v^T, via A-side basis expansion."""
    basis = standard_basis(d)
    mixed = apply_orthogonal(basis, transform)
    r4 = rho.reshape(d, d, d, d)
    residue = np.einsum("mnkl,ukm->unl", r4, basis.mats)  # B-side operators paired with L_u
    out = np.einsum("unl,umk->mnkl", residue, mixed.mats)
    return out.reshape(d * d, d * d)


def o_reduction_apply(
    state: BipartiteState,
    transform: OrthTransform,
    tol: float = ALGEBRAIC_TOL,
    label: str | None = None,
) -> tuple[np.ndarray, CriterionReport]:
    """Extend the local map to the composite: I x rho_B minus the A-side-mixed state.

    Separable states stay positive semidefinite for every orthogonal mixing;
    a negative eigenvalue certifies entanglement.
    """
    d = state.dims.square_dim
    mapped = _transformed_a_side(state.rho, d, transform)
    operator = kron(np.eye(d), partial_trace(state.rho, state.dims, "A")) - mapped
    params: dict = {"tol": tol}
    if label is not None:
        params["transform"] = label
    report = _psd_report("o_reduction", operator, tol, params)
    return operator, report


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
    """R[a, b] = Tr(L_b  u L_a u^dagger) for the standard set."""
    mats = standard_basis(d).mats
    conj = np.matmul(np.matmul(u, mats), u.conj().T)
    return np.einsum("mij,nji->mn", conj, mats).real


def _x_components(
    s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int
) -> np.ndarray:
    """Expansion coefficients of X in the standard set from pair correlations."""
    trace_vec = np.zeros(d * d)
    trace_vec[:d] = 1.0  # Tr of the projector slots; pair slots are traceless
    g = o @ s @ r.T
    h = trace_vec @ s @ r.T
    coeffs = np.zeros(d * d)
    for m in range(d):
        coeffs[m] = h[m] - g[m, m]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for m, n in pair_list(d):
        p = sym_slot(d, m, n)
        q = asym_slot(d, m, n)
        coeffs[p] = -inv_sqrt2 * (g[p, p] - g[q, q])
        coeffs[q] = -inv_sqrt2 * (g[p, q] + g[q, p])
    return coeffs


def x_matrix(state: BipartiteState, transform: OrthTransform, u: np.ndarray) -> np.ndarray:
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
    if transform.kind != "orthogonal":
        raise ValueError("correlation matrix requires an orthogonal mixing")
    s = pair_correlation(state)
    r = _unitary_mixing(u, d)
    coeffs = _x_components(s, transform.matrix, r, d)
    return np.einsum("u,uij->ij", coeffs, standard_basis(d).mats)


@dataclass(frozen=True, eq=False)
class XSearchResult:
    """Best correlation-matrix violation found by randomized search."""

    unitary: np.ndarray
    transform: OrthTransform
    min_eig: float
    report: CriterionReport


def _givens(n: int, i: int, j: int, theta: float) -> np.ndarray:
    g = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


def _complex_givens(n: int, i: int, j: int, theta: float, phase: float) -> np.ndarray:
    g = np.eye(n, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s * np.exp(1j * phase)
    g[j, i] = s * np.exp(-1j * phase)
    return g


def _x_min_eig(s: np.ndarray, o: np.ndarray, u: np.ndarray, d: int, mats: np.ndarray) -> float:
    r = _unitary_mixing(u, d)
    coeffs = _x_components(s, o, r, d)
    matrix = np.einsum("u,uij->ij", coeffs, mats)
    return float(np.linalg.eigvalsh(matrix)[0])


def x_search(
    state: BipartiteState,
    budget: int,
    seed: int,
    tol: float = SEARCH_TOL,
) -> XSearchResult:
    """Minimize the smallest correlation-matrix eigenvalue over (unitary, orthogonal) pairs.

    ``budget`` random restarts, each followed by accept-if-better plane-rotation
    perturbations of both factors with geometrically decaying step size.
    Restarts draw from independently derived seeds, so results do not depend on
    evaluation order. The verdict is "violated" only below -tol; a failed
    search is "inconclusive", never a separability certificate.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    d = state.dims.square_dim
    n = d * d
    mats = standard_basis(d).mats
    s = pair_correlation(state)

    best_val = np.inf
    best_o: np.ndarray | None = None
    best_u: np.ndarray | None = None
    for restart in range(budget):
        rng = np.random.default_rng([seed, restart])
        o = random_orthogonal(n, rng)
        u = random_unitary(d, rng)
        val = _x_min_eig(s, o, u, d, mats)
        step = np.pi / 2.0
        for _ in range(REFINE_ROUNDS):
            i, j = rng.choice(n, size=2, replace=False)
            o_try = _givens(n, int(i), int(j), step * rng.standard_normal()) @ o
            val_try = _x_min_eig(s, o_try, u, d, mats)
            if val_try < val:
                o, val = o_try, val_try
            i, j = rng.choice(d, size=2, replace=False)
            rot = _complex_givens(
                d, int(i), int(j), step * rng.standard_normal(), rng.uniform(0.0, 2.0 * np.pi)
            )
            u_try = rot @ u
            val_try = _x_min_eig(s, o, u_try, d, mats)
            if val_try < val:
                u, val = u_try, val_try
            step *= STEP_DECAY
        if val < best_val:
            best_val, best_o, best_u = val, o, u

    verdict = "violated" if best_val < -tol else "inconclusive"
    report = CriterionReport(
        "x_search", verdict, float(best_val), {"budget": budget, "seed": seed, "tol": tol}
    )
    return XSearchResult(
        unitary=best_u,
        transform=OrthTransform(matrix=best_o, kind="orthogonal"),
        min_eig=float(best_val),
        report=report,
    )


def classify_family_point(d: int, a1: float, a2: float) -> str:
    """Analytic region of a special-slice family point.

    On the slice the family conditions read: separable iff a2 >= a1 and
    a_d >= a1; PPT iff a2 * a_d >= a1^2. Bound means PPT but not separable;
    free means the partial transpose is negative. Returns "invalid" when the
    weights leave the simplex.
    """
    try:
        params = family_special(d, a1, a2)
    except ValueError:
        return "invalid"
    if family_separable_sufficient(params):
        return "separable"
    return "bound" if family_ppt_sufficient(params) else "free"


@dataclass(frozen=True, eq=False)
class ReportConfig:
    """Settings for full_report: tolerances, search budget and seed, witnesses."""

    tol: float = ALGEBRAIC_TOL
    tol_search: float = SEARCH_TOL
    budget: int = 200
    seed: int = 0
    include_search: bool = True
    witnesses: tuple[Witness, ...] = ()


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
        transforms: list[tuple[str, OrthTransform]] = [
            ("reduction", identity_transform(d * d)),
            ("transpose", transpose_transform(d)),
        ]
        transforms += [(f"cycle(l={l})", permutation_transform(diag_cycle(d, l))) for l in range(1, d)]
        for tag, transform in transforms:
            _, report = o_reduction_apply(state, transform, tol=config.tol, label=tag)
            reports.append(report)
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
