"""Complete sets of local orthogonal observables (LOOs) and their transforms.

A complete LOO set for a d-level system is d^2 Hermitian matrices that are
orthonormal under the Hilbert-Schmidt inner product, Tr(L_u L_v) = delta_uv.
A set is held as a (d^2, d, d) array, one observable per leading index.
The standard set used throughout, in this fixed slot order:

  slots 0 .. d-1                        projectors |m><m|
  slots d .. d + d(d-1)/2 - 1           (|m><n| + |n><m|) / sqrt(2),   m < n
  remaining d(d-1)/2 slots              (|m><n| - |n><m|) / (i sqrt(2)), m < n

with the (m, n) pairs in lexicographic order within each block. For d=2 this
is {|1><1|, |2><2|, sigma_x/sqrt(2), sigma_y/sqrt(2)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import dagger, max_abs

ORTHOGONALITY_TOL = 1e-10


def sym_slot(d: int, m: int, n: int) -> int:
    """Slot of the symmetric observable of the 0-based pair (m, n), m < n: d plus the pair's rank."""
    if not 0 <= m < n < d:
        raise ValueError(f"need 0 <= m < n < d, got ({m}, {n}) with d={d}")
    return d + m * d - m * (m + 1) // 2 + (n - m - 1)


def asym_slot(d: int, m: int, n: int) -> int:
    """Slot of the antisymmetric observable of the pair: d(d-1)/2 slots after the symmetric one."""
    return sym_slot(d, m, n) + d * (d - 1) // 2


def pair_list(d: int) -> list[tuple[int, int]]:
    """All 0-based (m, n) pairs with m < n, lexicographic."""
    return [(m, n) for m in range(d) for n in range(m + 1, d)]


@lru_cache(maxsize=None)
def pair_slots(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric slots of the pairs in pair_list order, each (d(d-1)/2,)."""
    pairs = pair_list(d)
    sym = np.array([sym_slot(d, m, n) for m, n in pairs], dtype=int)
    asym = np.array([asym_slot(d, m, n) for m, n in pairs], dtype=int)
    for a in (sym, asym):
        a.flags.writeable = False
    return sym, asym


@lru_cache(maxsize=None)
def standard_basis(d: int) -> np.ndarray:
    """The standard complete LOO set for local dimension d, a read-only (d^2, d, d) array."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    mats = np.zeros((d * d, d, d), dtype=complex)
    for m in range(d):
        mats[m, m, m] = 1.0
    s = 1.0 / np.sqrt(2.0)
    for m, n in pair_list(d):
        mats[sym_slot(d, m, n), m, n] = s
        mats[sym_slot(d, m, n), n, m] = s
        mats[asym_slot(d, m, n), m, n] = -1j * s
        mats[asym_slot(d, m, n), n, m] = 1j * s
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=None)
def standard_entries(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of each standard observable: rows, columns and values, each (2, d^2).

    Every observable has one or two nonzero entries; entry 0 precedes entry 1
    in row-major order, and a projector's missing second entry is padded with
    the value 0 at (0, 0).
    """
    mats = standard_basis(d)
    rows = np.zeros((2, d * d), dtype=int)
    cols = np.zeros((2, d * d), dtype=int)
    values = np.zeros((2, d * d), dtype=complex)
    for u, mat in enumerate(mats):
        for i, (k, m) in enumerate(np.argwhere(mat)):
            rows[i, u], cols[i, u], values[i, u] = k, m, mat[k, m]
    for a in (rows, cols, values):
        a.flags.writeable = False
    return rows, cols, values


def gram_matrix(basis: np.ndarray) -> np.ndarray:
    """Pairwise Hilbert-Schmidt inner products Tr(L_u L_v)."""
    flat = basis.reshape(len(basis), -1)
    return (flat @ flat.conj().T).real


def pair_sum(mats_a: np.ndarray, mats_b: np.ndarray) -> np.ndarray:
    """sum_u kron(mats_a[u], mats_b[u]) over two equally long stacks.

    For the standard set this gives |Phi><Phi| when the B stack is transposed
    entrywise and the SWAP operator when it is not.
    """
    d = mats_a.shape[1]
    out = np.einsum("uab,ucd->acbd", mats_a, mats_b)
    return out.reshape(d * d, d * d)


def expand(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients Tr(x L_u) of x in the basis."""
    return np.einsum("ij,uji->u", np.asarray(x, dtype=complex), basis)


def reconstruct(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum_u coeffs[u] L_u."""
    return np.einsum("u,uij->ij", np.asarray(coeffs), basis)


def validate_basis(basis: np.ndarray) -> dict[str, float]:
    """Max deviations of the defining properties; all should be ~1e-13 for exact bases.

    Returns {"gram": ..., "hermiticity": ..., "completeness": ...}. The
    completeness figure is the worst reconstruction error over five seeded
    random matrices.
    """
    rng = np.random.default_rng(0)
    d = basis.shape[1]
    gram_dev = max_abs(gram_matrix(basis) - np.eye(len(basis)))
    herm_dev = max_abs(basis - dagger(basis))
    comp_dev = 0.0
    for _ in range(5):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        comp_dev = max(comp_dev, max_abs(reconstruct(basis, expand(basis, x)) - x))
    return {"gram": gram_dev, "hermiticity": herm_dev, "completeness": comp_dev}


# A mixing is a real (n, n) float array O: orthogonal (O O^T = I) or a
# contraction (O O^T <= I). Contractions still give sound witness candidates,
# but the mixed observable set loses orthonormality.


def is_orthogonal(o: np.ndarray) -> bool:
    """True for a square array with max |O O^T - I| <= ORTHOGONALITY_TOL."""
    o = np.asarray(o)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        return False
    return max_abs(o @ o.T - np.eye(len(o))) <= ORTHOGONALITY_TOL


def make_transform(matrix: np.ndarray) -> np.ndarray:
    """Validate a mixing: a real square matrix that is orthogonal or a contraction, as a float array.

    Raises ValueError naming the offending eigenvalue when O O^T exceeds the
    identity beyond tolerance.
    """
    matrix = np.asarray(matrix)
    if not np.isfinite(matrix).all():
        raise ValueError("transform matrix has non-finite entries (NaN or inf)")
    if np.iscomplexobj(matrix):
        if max_abs(matrix.imag) > ORTHOGONALITY_TOL:
            raise ValueError("transform matrix must be real")
        matrix = matrix.real
    matrix = matrix.astype(float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transform must be square, got shape {matrix.shape}")
    if not is_orthogonal(matrix):
        g = matrix @ matrix.T
        top = float(np.linalg.eigvalsh((g + g.T) / 2.0)[-1])
        if top > 1.0 + ORTHOGONALITY_TOL:
            raise ValueError(
                f"transform is neither orthogonal nor a contraction: max eigenvalue of O O^T is {top:.9g}"
            )
    return matrix


@dataclass(frozen=True)
class Permutation:
    """Bijection on basis slots {0, ..., size-1} (0-based images)."""

    size: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mapping) != self.size or sorted(self.mapping) != list(range(self.size)):
            raise ValueError("mapping is not a bijection on the slot range")

    def __call__(self, slot: int) -> int:
        return self.mapping[slot]


def diag_cycle(d: int, l: int) -> Permutation:
    """Cyclic shift by l of the d projector slots; every pair slot is fixed.

    In 1-based labels the projector slots map as m -> m + l (mod d).
    """
    if not 1 <= l <= d - 1:
        raise ValueError(f"shift must satisfy 1 <= l <= d-1, got l={l} for d={d}")
    mapping = [(i + l) % d for i in range(d)] + list(range(d, d * d))
    return Permutation(size=d * d, mapping=tuple(mapping))


def fixed_points(sigma: Permutation) -> int:
    """Number of slots left unchanged."""
    return sum(1 for i, j in enumerate(sigma.mapping) if i == j)


def cycle_mixings(d: int) -> np.ndarray:
    """The diag_cycle(d, l) mixings for l = 1 .. d-1, as one (d-1, d^2, d^2) stack."""
    return np.stack([permutation_transform(diag_cycle(d, l)) for l in range(1, d)])


def transpose_transform(d: int) -> np.ndarray:
    """Diagonal +-1 matrix realizing entrywise transposition of the standard set.

    Projector and symmetric-pair slots are fixed (+1), antisymmetric-pair
    slots flip sign (-1). Its determinant is (-1)^(d(d-1)/2) while every
    unitary-induced mixing has determinant +1, which is numerical evidence
    (not proof) that no unitary conjugation reproduces the transposition.
    """
    signs = np.ones(d * d)
    signs[d + d * (d - 1) // 2:] = -1.0
    return np.diag(signs)


def permutation_transform(sigma: Permutation) -> np.ndarray:
    """Permutation matrix O with O[u, sigma(u)] = 1, so mixing sends slot u to L_sigma(u)."""
    matrix = np.zeros((sigma.size, sigma.size))
    matrix[np.arange(sigma.size), np.array(sigma.mapping)] = 1.0
    return matrix


def require_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    defect = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > ORTHOGONALITY_TOL:
        raise ValueError(f"matrix is not unitary: max |u^dagger u - I| = {defect:.3e}")
    return u


def apply_orthogonal(basis: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Mix the set, out_u = sum_v O[u, v] L_v, by O or each O of a (..., n, n) stack; contractions too."""
    n = len(basis)
    if np.shape(o)[-2:] != (n, n):
        raise ValueError(f"transform shape {np.shape(o)} does not match basis size {n}")
    return np.einsum("...uv,vij->...uij", o, basis)


def transpose_basis(basis: np.ndarray) -> np.ndarray:
    """Entrywise transpose of every observable.

    On the standard ordering this fixes projector and symmetric slots and
    negates the antisymmetric ones; applied twice it is the identity.
    """
    return basis.transpose(0, 2, 1).copy()


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform orthogonal matrix via QR with R-diagonal sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unitary matrix via QR with R-diagonal phase fixing."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases
