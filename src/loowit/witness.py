"""Entanglement witnesses built from local orthogonal observable sets.

The generic construction is W = I x I - sum_u M[u, v] A_u x B_v^T with the
A side a (possibly contraction-) mixed standard set and the B side the
transposed standard set. A Cauchy-Schwarz argument over the observable sets
makes Tr(rho W) >= 0 for every product (hence separable) state whenever
M M^T <= I, so any negative eigenvalue turns the candidate into a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .linalg import DimPair, is_psd, max_abs
from .loo import (
    apply_orthogonal,
    asym_slot,
    is_orthogonal,
    make_transform,
    pair_sum,
    standard_basis,
    sym_slot,
    transpose_basis,
)
from .states import BipartiteState, horodecki_rho, save_matrix

WITNESS_EIG_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian operator on the composite space plus construction metadata.

    ``candidate_only`` is False only when a negative eigenvalue is certified
    (by eigensolve, or for permutation witnesses by the fixed-point rule), in
    which case the operator is a genuine witness. ``phi_value`` carries the
    maximally-entangled-vector expectation for permutation constructions.
    """

    dims: DimPair
    matrix: np.ndarray
    provenance: str
    candidate_only: bool
    min_eig: float
    phi_value: float | None = None


def _weighted_pair_sum(weights: np.ndarray, mats_a: np.ndarray, mats_b: np.ndarray) -> np.ndarray:
    """sum_uv weights[u, v] kron(mats_a[u], mats_b[v])."""
    d = mats_a.shape[1]
    out = np.einsum("uv,uab,vcd->acbd", weights, mats_a, mats_b)
    return out.reshape(d * d, d * d)


def _eigensolved(matrix: np.ndarray, d: int, provenance: str) -> Witness:
    """The candidate, confirmed as a witness when the eigensolve finds a negative eigenvalue."""
    ok, min_eig = is_psd(matrix, tol=WITNESS_EIG_TOL)
    return Witness(DimPair.square(d), matrix, provenance, candidate_only=ok, min_eig=min_eig)


def ew_from_transform(o: np.ndarray, d: int) -> Witness:
    """Witness candidate I x I - sum_u (mixed set)_u x (standard set)_u^T.

    The mixing o must be orthogonal or a contraction (make_transform enforces
    this here); the candidate becomes a confirmed witness when the eigensolve
    finds a negative eigenvalue.
    """
    o = make_transform(o)
    basis = standard_basis(d)
    mixed = apply_orthogonal(basis, o)
    transposed = transpose_basis(basis)
    matrix = np.eye(d * d, dtype=complex) - pair_sum(mixed, transposed)
    kind = "orthogonal" if is_orthogonal(o) else "contraction"
    return _eigensolved(matrix, d, f"transform({kind})")


def perm_ew(o: np.ndarray, d: int) -> Witness:
    """Witness candidate I x I - sum_u L_sigma(u) x L_u^T for a slot permutation mixing o.

    o must be a d^2 x d^2 orthogonal 0/1 matrix, which is exactly a permutation
    matrix; Tr(o) counts its fixed slots. The expectation in the unnormalized
    maximally entangled vector is d - Tr(o); with at least d+1 fixed slots that
    value is negative, which certifies a negative eigenvalue without an eigensolve.
    """
    o = np.asarray(o)
    if o.shape != (d * d, d * d):
        raise ValueError(f"permutation mixing has shape {o.shape}, expected (d^2, d^2) = {(d * d, d * d)}")
    if not (np.isin(o, (0, 1)).all() and is_orthogonal(o)):
        raise ValueError("mixing is not a permutation matrix: need 0/1 entries, one 1 per row and column")
    witness = ew_from_transform(o, d)
    f = int(np.trace(o).real)
    return replace(
        witness, provenance=f"permutation(fixed_points={f})", candidate_only=f < d + 1, phi_value=float(d - f)
    )


@dataclass(frozen=True, eq=False)
class HorodeckiWitnessData:
    """Intermediate quantities of the 3x3 PPT-entangled-state witness.

    ``coeffs`` is the 9x9 expansion of the state in the A x B^T observable
    pair basis; ``n_vec`` its first-row/first-column antisymmetry (slots
    2..9); ``mixing`` the near-identity contraction built from it. The
    construction makes the witness expectation in the target state equal to
    1 - sqrt(1 + n_sq), strictly negative inside the open parameter interval.
    """

    a: float
    basis_a: np.ndarray
    basis_b: np.ndarray
    coeffs: np.ndarray
    n_vec: np.ndarray
    n_sq: float
    mixing: np.ndarray


def horodecki_loo_bases(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Tailored orthonormal observable sets for the 3x3 PPT-entangled state.

    The diagonal combinations and the a-dependent rotation in the plane
    spanned by (2 L_3 - L_1 - L_2)/sqrt(6) and the symmetric 1-3 pair make the
    pair-basis expansion of the state have unit diagonal sum.
    """
    std = standard_basis(3)
    l1, l2, l3 = std[:3]
    sym13 = std[sym_slot(3, 0, 2)]
    asym13 = std[asym_slot(3, 0, 2)]
    sym12, asym12 = std[sym_slot(3, 0, 1)], std[asym_slot(3, 0, 1)]
    sym23, asym23 = std[sym_slot(3, 1, 2)], std[asym_slot(3, 1, 2)]

    e_diag = (2.0 * l3 - l1 - l2) / np.sqrt(6.0)
    c = (1.0 + 2.0 * a) / (2.0 + a)
    s = np.sqrt(3.0 * (1.0 - a * a)) / (2.0 + a)

    mats_a = np.stack([
        (l1 + l2 + l3) / np.sqrt(3.0),
        (l1 - l2) / np.sqrt(2.0),
        c * e_diag - s * sym13,
        c * sym13 + s * e_diag,
        asym13,
        sym12,
        asym12,
        sym23,
        asym23,
    ])
    mats_b = np.stack([
        (l1 + l2 + l3) / np.sqrt(3.0),
        (l3 - l1) / np.sqrt(2.0),
        (l1 + l3 - 2.0 * l2) / np.sqrt(6.0),
        sym13,
        asym13,
        sym12,
        asym12,
        sym23,
        asym23,
    ])
    return mats_a, mats_b


def horodecki_ew(a: float) -> tuple[Witness, HorodeckiWitnessData]:
    """Explicit witness for the 3x3 PPT-entangled state at parameter a.

    At the endpoints a in {0, 1} the antisymmetry vector vanishes, the mixing
    degenerates to the identity and the witness expectation in the target
    state is 0 (detection fails there, consistent with those states being
    separable).
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {a}")
    basis_a, basis_b = horodecki_loo_bases(a)
    state = horodecki_rho(a)
    r4 = state.rho.reshape(3, 3, 3, 3)
    # coeffs[u, v] = Tr(rho A_u x B_v^T); B^T[l, n] = B[n, l]
    coeffs = np.einsum("mnkl,ukm,vnl->uv", r4, basis_a, basis_b).real

    n_vec = coeffs[0, 1:] - coeffs[1:, 0]
    n_sq = float(np.dot(n_vec, n_vec))
    scale = 1.0 / np.sqrt(1.0 + n_sq)
    mixing = np.eye(9) * scale
    mixing[0, 1:] = n_vec * scale
    mixing[1:, 0] = -n_vec * scale

    transposed_b = basis_b.transpose(0, 2, 1)
    matrix = np.eye(9, dtype=complex) - _weighted_pair_sum(mixing, basis_a, transposed_b)
    witness = _eigensolved(matrix, 3, f"horodecki(a={a:g})")
    data = HorodeckiWitnessData(
        a=a, basis_a=basis_a, basis_b=basis_b, coeffs=coeffs, n_vec=n_vec, n_sq=n_sq, mixing=mixing
    )
    return witness, data


def expectation(witness: Witness, state: BipartiteState) -> float:
    """Tr(rho W); the imaginary residue must be negligible for valid inputs."""
    if witness.dims != state.dims:
        raise ValueError(
            f"dimension mismatch: witness {witness.dims} vs state {state.dims}"
        )
    value = complex(np.trace(state.rho @ witness.matrix))
    scale = max(1.0, max_abs(witness.matrix))
    if abs(value.imag) > EXPECTATION_IMAG_TOL * scale:
        raise ValueError(f"expectation has non-real residue {value.imag:.3e}")
    return float(value.real)


def save_witness(witness: Witness, path: str | Path) -> None:
    """Write the witness in the state matrix JSON format plus a provenance field."""
    save_matrix(path, witness.dims, witness.matrix, provenance=witness.provenance)
