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

from functools import lru_cache

import numpy as np

from .linalg import checked_scale, max_abs, member_max_abs, raise_first, require_count

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


@lru_cache(maxsize=None, typed=True)  # untyped, 3.0 would hit the entry of np.int64(3) and skip the check
def standard_basis(d: int) -> np.ndarray:
    """The standard complete LOO set for local dimension d, a read-only (d^2, d, d) array."""
    require_count(d, "local dimension d", 2)
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


@lru_cache(maxsize=None, typed=True)
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


@lru_cache(maxsize=None, typed=True)
def standard_positions(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Observables nonzero at each matrix position: slots and values, each (2, d, d).

    Position (m, k) is nonzero in the projector slot m when m == k, else in
    the symmetric and then the antisymmetric slot of the pair. A diagonal
    position's missing second entry is padded with the value 0 at slot 0.
    """
    mats = standard_basis(d)
    slots = np.zeros((2, d, d), dtype=int)
    values = np.zeros((2, d, d), dtype=complex)
    for m in range(d):
        for k in range(d):
            for i, u in enumerate(np.flatnonzero(mats[:, m, k])):
                slots[i, m, k], values[i, m, k] = u, mats[u, m, k]
    for a in (slots, values):
        a.flags.writeable = False
    return slots, values


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
    """Validate a mixing or a (..., n, n) stack: real, square, each orthogonal or a contraction; a float array.

    Raises ValueError naming the offending eigenvalue when O O^T exceeds the
    identity beyond tolerance, and max |O_ij| too when an entry exceeds 1. A
    stack names its first bad member transform[i].
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "biuf":  # complex, and text or objects that astype(float) would parse
        raise ValueError("transform matrix must be real")
    matrix = matrix.astype(float)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError(f"transform must be square, got shape {matrix.shape}")
    # Every entry of a contraction is at most 1 in magnitude. Past that bound
    # O O^T can overflow, so its top eigenvalue is read off O / max |O_ij|.
    peak = checked_scale(matrix, "transform matrix" if matrix.ndim == 2 else "transform")
    too_large = peak > 1.0 + ORTHOGONALITY_TOL
    scale = np.where(too_large, peak, 1.0)
    unit = matrix / scale[..., None, None]
    g = unit @ np.swapaxes(unit, -1, -2)
    suspect = too_large | (member_max_abs(g - np.eye(matrix.shape[-1])) > ORTHOGONALITY_TOL)
    if suspect.any():
        top = np.linalg.eigvalsh((g + np.swapaxes(g, -1, -2)) / 2.0)[..., -1]

        def describe(i):
            entry = f"max |O_ij| is {float(peak[i])!r}, " if too_large[i] else ""
            s = float(scale[i])  # a Python float: s * s of a huge entry reads inf, with no numpy warning
            top_value = s * s * float(top[i])
            return f"is neither orthogonal nor a contraction: {entry}max eigenvalue of O O^T is {top_value!r}"

        raise_first(too_large | (top > 1.0 + ORTHOGONALITY_TOL), "transform", describe)
    return matrix


def diag_cycle(d: int, l: int) -> np.ndarray:
    """Permutation mixing that shifts the d projector slots cyclically by l; every pair slot is fixed.

    Row u holds a single 1 in column sigma(u), so mixing sends slot u to
    L_sigma(u); in 1-based labels the projector slots map as m -> m + l (mod d).
    """
    require_count(d, "local dimension d", 2)
    require_count(l, "shift l", 1)
    if l > d - 1:
        raise ValueError(f"shift must satisfy 1 <= l <= d-1, got l={l} for d={d}")
    images = np.concatenate([(np.arange(d) + l) % d, np.arange(d, d * d)])
    return np.eye(d * d)[images]


@lru_cache(maxsize=None, typed=True)
def battery_mixings(d: int) -> np.ndarray:
    """The battery's read-only stack: the mixings whose map can detect a PPT state, diag_cycle l = 1 .. d-1.

    A mixing is kept iff its map is neither completely positive nor completely
    copositive: both ew_from_transform(o).matrix, the map's Choi matrix, and its
    partial transpose have a negative eigenvalue. The transpose mixing and
    diag_cycle(2, 1) give CP maps; the identity gives the reduction map, which is
    completely copositive and so fires only where PPT does (M. and P. Horodecki,
    PRA 59, 4206 (1999)). At d = 2 the stack is empty, (0, 4, 4): every positive
    map on 2 x 2 matrices is decomposable (Stormer 1963; Woronowicz 1976).
    """
    require_count(d, "local dimension d", 2)
    cycles = [diag_cycle(d, l) for l in range(1, d)] if d >= 3 else []
    stack = np.array(cycles, dtype=float).reshape(len(cycles), d * d, d * d)
    stack.flags.writeable = False
    return stack


def transpose_transform(d: int) -> np.ndarray:
    """Diagonal +-1 matrix realizing entrywise transposition of the standard set.

    Projector and symmetric-pair slots are fixed (+1), antisymmetric-pair
    slots flip sign (-1). Its determinant is (-1)^(d(d-1)/2) while every
    unitary-induced mixing has determinant +1, which is numerical evidence
    (not proof) that no unitary conjugation reproduces the transposition.
    """
    require_count(d, "local dimension d", 2)
    signs = np.ones(d * d)
    signs[d + d * (d - 1) // 2:] = -1.0
    return np.diag(signs)


def require_mixing_size(o: np.ndarray, n: int) -> None:
    """Reject a mixing, or a (..., n, n) stack of them, that does not act on n slots."""
    if np.shape(o)[-2:] != (n, n):
        raise ValueError(f"transform shape {np.shape(o)} does not match basis size {n}")


def apply_orthogonal(basis: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Mix the set by O or an O stack: out_u = sum_v O[u, v] L_v; kept for perfbench's tracer until ROADMAP item 3."""
    require_mixing_size(o, len(basis))
    return np.einsum("...uv,vij->...uij", o, basis)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q of one QR of z, a matrix or a stack, column j times the phase r_jj / |r_jj| (1 where r_jj = 0).

    For real z the phase is the sign of r_jj.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(diag)
    q *= np.divide(diag, size, out=np.ones_like(diag), where=size > 0)[..., None, :]
    return q


def random_orthogonal(n: int, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-uniform orthogonal matrix via QR with R-diagonal sign fixing (Mezzadri 2007).

    size is numpy's: the result is a size + (n, n) stack. One standard-normal
    draw fills the stack and one QR factors it, so member i has the bits of
    the i-th of successive lone calls (size=()) on an equal generator.
    """
    return _phase_fixed_q(rng.standard_normal(size + (n, n)))


def random_unitary(n: int, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-uniform unitary matrix via QR with R-diagonal phase fixing (Mezzadri 2007).

    size is numpy's, as for random_orthogonal. One size + (2, n, n)
    standard-normal draw gives each member its real part, then its imaginary
    part, so member i has the bits of the i-th of successive lone calls.
    """
    parts = rng.standard_normal(size + (2, n, n))
    return _phase_fixed_q((parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0))
