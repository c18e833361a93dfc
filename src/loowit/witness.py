"""Entanglement witnesses built from local orthogonal observable sets.

A witness is the observable-mixing reduction map at the unnormalised
maximally entangled state: for rho = |phi><phi|, rho_B = I and
<L_u x L_v^T> = delta_uv, so criteria.o_reduction_operator gives

    W = I x I - sum_u L^o_u x L_u^T,   L^o_u = sum_v O[u, v] L_v,

with the A side the mixed standard set and the B side the transposed one.
A Cauchy-Schwarz argument over the observable sets makes Tr(rho W) >= 0 for
every product (hence separable) state whenever O O^T <= I, so any negative
eigenvalue turns the candidate into a witness. Tailored observable sets are
orthogonal mixings of the standard set, so their witnesses (the 3x3 one for
P. Horodecki's state included) are the same operator for a composed mixing.
Imports run down the module order linalg, loo, states, criteria, witness,
sweep, cli. A Witness judges a state itself (Witness.report), in full_report too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .criteria import ALGEBRAIC_TOL, CriterionReport, correlation_T, o_reduction_operator
from .linalg import DimPair, is_psd, max_abs
from .loo import asym_slot, is_orthogonal, make_transform, sym_slot
from .states import BipartiteState, horodecki_rho, phi, save_matrix

EXPECTATION_IMAG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian operator on the composite space plus construction metadata.

    ``candidate_only`` is False only when the eigensolve finds a negative
    eigenvalue, in which case the operator is a genuine witness. ``phi_value``
    carries the maximally-entangled-vector expectation for permutation
    constructions.
    """

    dims: DimPair
    matrix: np.ndarray
    provenance: str
    candidate_only: bool
    min_eig: float
    phi_value: float | None = None

    def report(self, state: BipartiteState) -> CriterionReport:
        """Verdict on state: "violated" when Tr(rho W) < -ALGEBRAIC_TOL * max(1, max |W_ij|)."""
        value = expectation(self, state)
        ok = value >= -ALGEBRAIC_TOL * max(1.0, max_abs(self.matrix))
        return CriterionReport("witness", "pass" if ok else "violated", value, {"witness": self.provenance})


def ew_from_transform(o: np.ndarray, d: int) -> Witness:
    """Witness candidate I x I - sum_u (mixed set)_u x (standard set)_u^T.

    It is the reduction-map operator at the unnormalised |phi><phi|. The
    mixing o must be orthogonal or a contraction (make_transform enforces
    this here); the candidate becomes a confirmed witness when the eigensolve
    finds a negative eigenvalue.
    """
    o = make_transform(o)
    v = phi(d)
    matrix = o_reduction_operator(np.outer(v, v.conj()), d, o)
    kind = "orthogonal" if is_orthogonal(o) else "contraction"
    ok, min_eig = is_psd(matrix)
    return Witness(DimPair.square(d), matrix, f"transform({kind})", candidate_only=ok, min_eig=min_eig)


def perm_ew(o: np.ndarray, d: int) -> Witness:
    """Witness candidate I x I - sum_u L_sigma(u) x L_u^T for a slot permutation mixing o.

    o must be a d^2 x d^2 orthogonal 0/1 matrix, which is exactly a permutation
    matrix; Tr(o) counts its fixed slots. The expectation in the unnormalized
    maximally entangled vector is d - Tr(o), reported as ``phi_value``; with at
    least d+1 fixed slots it is negative, so the eigensolve confirms the witness.
    """
    o = np.asarray(o)
    if o.shape != (d * d, d * d):
        raise ValueError(f"permutation mixing has shape {o.shape}, expected (d^2, d^2) = {(d * d, d * d)}")
    if not (np.isin(o, (0, 1)).all() and is_orthogonal(o)):
        raise ValueError("mixing is not a permutation matrix: need 0/1 entries, one 1 per row and column")
    witness = ew_from_transform(o, d)
    f = int(np.trace(o).real)
    return replace(witness, provenance=f"permutation(fixed_points={f})", phi_value=float(d - f))


@dataclass(frozen=True, eq=False)
class HorodeckiWitnessData:
    """Intermediate quantities of the 3x3 PPT-entangled-state witness.

    ``coeffs`` is the 9x9 expansion of the state in the A x B^T pair basis of
    the tailored observable sets; ``n_vec`` its first-row/first-column
    antisymmetry (slots 2..9); ``mixing`` the near-identity contraction built
    from it. The construction makes the witness expectation in the target
    state equal to 1 - sqrt(1 + n_sq), strictly negative inside the open
    parameter interval.
    """

    a: float
    coeffs: np.ndarray
    n_vec: np.ndarray
    n_sq: float
    mixing: np.ndarray


def horodecki_mixings(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal mixings O_A, O_B of the standard set onto the tailored sets of the 3x3 state.

    Row u of O_A holds the standard-set coefficients of the tailored A-side
    observable A_u = sum_v O_A[u, v] L_v, and likewise for B. The diagonal
    combinations and the a-dependent rotation in the plane spanned by
    (2 L_3 - L_1 - L_2)/sqrt(6) and the symmetric 1-3 pair make the
    pair-basis expansion of the state have unit diagonal sum.
    """
    slot = np.eye(9)
    l1, l2, l3 = slot[:3]
    sym13 = slot[sym_slot(3, 0, 2)]
    asym13 = slot[asym_slot(3, 0, 2)]
    sym12, asym12 = slot[sym_slot(3, 0, 1)], slot[asym_slot(3, 0, 1)]
    sym23, asym23 = slot[sym_slot(3, 1, 2)], slot[asym_slot(3, 1, 2)]

    e_diag = (2.0 * l3 - l1 - l2) / np.sqrt(6.0)
    c = (1.0 + 2.0 * a) / (2.0 + a)
    s = np.sqrt(3.0 * (1.0 - a * a)) / (2.0 + a)

    o_a = np.stack([
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
    o_b = np.stack([
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
    return o_a, o_b


def horodecki_ew(a: float) -> tuple[Witness, HorodeckiWitnessData]:
    """Explicit witness for the 3x3 PPT-entangled state at parameter a.

    On the tailored sets A = O_A L and B = O_B L the witness is
    I x I - sum_uv M[u, v] A_u x B_v^T, which is the standard-set witness of
    the contraction K = O_A^T M O_B, built as ew_from_transform(K^T).

    At the endpoints a in {0, 1} the antisymmetry vector vanishes, the mixing
    degenerates to the identity and the witness expectation in the target
    state is 0 (detection fails there, consistent with those states being
    separable).
    """
    state = horodecki_rho(a)  # checks a before the mixings are formed
    o_a, o_b = horodecki_mixings(a)
    # coeffs[u, v] = Tr(rho A_u x B_v^T)
    coeffs = o_a @ correlation_T(state) @ o_b.T

    n_vec = coeffs[0, 1:] - coeffs[1:, 0]
    n_sq = float(np.dot(n_vec, n_vec))
    scale = 1.0 / np.sqrt(1.0 + n_sq)
    mixing = np.eye(9) * scale
    mixing[0, 1:] = n_vec * scale
    mixing[1:, 0] = -n_vec * scale

    witness = replace(ew_from_transform((o_a.T @ mixing @ o_b).T, 3), provenance=f"horodecki(a={a:g})")
    data = HorodeckiWitnessData(a=a, coeffs=coeffs, n_vec=n_vec, n_sq=n_sq, mixing=mixing)
    return witness, data


def expectation(witness: Witness, state: BipartiteState) -> float:
    """Tr(rho W); the imaginary residue must be negligible for valid inputs."""
    if witness.dims != state.dims:
        raise ValueError(
            f"dimension mismatch: witness {witness.dims.d_a}x{witness.dims.d_b} "
            f"vs state {state.dims.d_a}x{state.dims.d_b}"
        )
    value = complex(np.trace(state.rho @ witness.matrix))
    scale = max(1.0, max_abs(witness.matrix))
    if abs(value.imag) > EXPECTATION_IMAG_TOL * scale:
        raise ValueError(f"expectation has non-real residue {value.imag:.3e}")
    return float(value.real)


def save_witness(witness: Witness, path: str | Path) -> None:
    """Write the witness in the state matrix JSON format plus a provenance field."""
    save_matrix(path, witness.dims, witness.matrix, provenance=witness.provenance)
