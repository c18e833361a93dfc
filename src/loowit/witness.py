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
sweep, cli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .criteria import correlation_T, o_reduction_operator
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


def ew_from_transform(o: np.ndarray) -> Witness:
    """Witness candidate I x I - sum_u (mixed set)_u x (standard set)_u^T, with d read off o's size d^2.

    It is the reduction-map operator at the unnormalised |phi><phi|, stored as built: exactly
    Hermitian at a signed slot permutation, else Hermitian to rounding. The mixing o must be
    orthogonal or a contraction (make_transform enforces this here); the candidate becomes a
    confirmed witness when the eigensolve finds a negative eigenvalue. An orthogonal 0/1 mixing
    is exactly a slot permutation, row u holding its 1 in column sigma(u), and Tr(o) counts its
    fixed slots: its provenance reads permutation(fixed_points=Tr(o)) and its ``phi_value`` is d - Tr(o),
    negative from d+1 fixed slots on. Any other o reads transform(orthogonal) or transform(contraction).
    """
    o = make_transform(o)
    if o.ndim != 2:  # make_transform also reads stacks
        raise ValueError(f"a witness takes one mixing, got shape {o.shape}")
    d = math.isqrt(len(o))
    if d * d != len(o):
        raise ValueError(f"transform dimension {len(o)} is not a square")
    v = phi(d)
    matrix = o_reduction_operator(np.outer(v, v.conj()), DimPair.square(d), o)
    ok, min_eig = is_psd(matrix)
    provenance, phi_value = "transform(contraction)", None
    if is_orthogonal(o):
        provenance = "transform(orthogonal)"
        if np.isin(o, (0, 1)).all():
            f = int(np.trace(o))
            provenance, phi_value = f"permutation(fixed_points={f})", float(d - f)
    return Witness(DimPair.square(d), matrix, provenance, candidate_only=ok, min_eig=min_eig, phi_value=phi_value)


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


def horodecki_ew(a: float) -> Witness:
    """Explicit witness for the 3x3 PPT-entangled state at parameter a.

    coeffs[u, v] = Tr(rho A_u x B_v^T) expands the state in the pair basis of
    the tailored sets A = O_A L and B = O_B L; n_vec, the antisymmetry of its
    first row and column (slots 2..9), builds the near-identity contraction M.
    The witness I x I - sum_uv M[u, v] A_u x B_v^T is the standard-set witness
    of the contraction K = O_A^T M O_B, built as ew_from_transform(K^T), and
    its expectation in the state is 1 - sqrt(1 + n^2), with
    n^2 = |n_vec|^2 = (1 - a) a^2 / ((2 + a)(1 + 8a)^2), strictly negative
    inside the open parameter interval. On every state, with T its
    correlation_T, it reads 1 - Tr(K^T T) >= 1 - ||T||_tr: it detects nothing
    that realignment misses, so check reports realignment and not this witness.

    At the endpoints a in {0, 1} the antisymmetry vector vanishes, the mixing
    degenerates to the identity and the witness expectation in the target
    state is 0 (detection fails there, consistent with those states being
    separable).
    """
    state = horodecki_rho(a)  # checks a before the mixings are formed
    o_a, o_b = horodecki_mixings(a)
    coeffs = o_a @ correlation_T(state) @ o_b.T
    n_vec = coeffs[0, 1:] - coeffs[1:, 0]
    scale = 1.0 / np.sqrt(1.0 + np.dot(n_vec, n_vec))
    mixing = np.eye(9) * scale
    mixing[0, 1:] = n_vec * scale
    mixing[1:, 0] = -n_vec * scale
    return replace(ew_from_transform((o_a.T @ mixing @ o_b).T), provenance=f"horodecki(a={a:g})")


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
    """Write the matrix as stored (see ew_from_transform) in the state matrix JSON format plus a provenance field."""
    save_matrix(path, witness.dims, witness.matrix, provenance=witness.provenance)
