"""Dense complex linear algebra for small operator matrices.

Everything works on plain ``numpy.ndarray`` values (complex128, row-major).
Composite-system indexing follows the Kronecker convention: the product basis
vector |m,n> sits at row d_B*(m-1)+n in 1-based labels, which is exactly
``numpy.kron`` ordering with 0-based indices d_B*m + n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (Chebyshev norm)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def hermitian_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| entrywise."""
    return max_abs(np.asarray(m) - dagger(m))


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within a relative tolerance and return the symmetrized matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    defect = hermitian_defect(m)
    if defect > tol * max(1.0, max_abs(m)):
        raise ValueError(f"{name} violates hermiticity: max |M - M^dagger| = {defect:.3e}")
    return (m + dagger(m)) / 2.0


@dataclass(frozen=True)
class DimPair:
    """Subsystem dimensions (d_A, d_B) of a bipartite space."""

    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        if self.d_a < 2 or self.d_b < 2:
            raise ValueError(f"subsystem dimensions must be >= 2, got ({self.d_a}, {self.d_b})")

    @property
    def total(self) -> int:
        return self.d_a * self.d_b

    @property
    def square_dim(self) -> int:
        """Common local dimension; only defined when d_A == d_B."""
        if self.d_a != self.d_b:
            raise ValueError(f"operation requires d_A == d_B, got ({self.d_a}, {self.d_b})")
        return self.d_a

    @staticmethod
    def square(d: int) -> "DimPair":
        return DimPair(d, d)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (a kron b)[m*db + k, n*db + l] = a[m, n] * b[k, l]."""
    return np.kron(np.asarray(a), np.asarray(b))


def _blocks(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    n = dims.total
    if rho.shape != (n, n):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims.d_a}x{dims.d_b}")
    return rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)


def _check_subsystem(subsystem: str) -> str:
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return subsystem


def partial_transpose(rho: np.ndarray, dims: DimPair, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor: <m,n|rho^T_B|k,l> = <m,l|rho|k,n> (and analogously for A)."""
    r4 = _blocks(rho, dims)
    if _check_subsystem(subsystem) == "B":
        out = r4.transpose(0, 3, 2, 1)
    else:
        out = r4.transpose(2, 1, 0, 3)
    return out.reshape(dims.total, dims.total)


def partial_trace(rho: np.ndarray, dims: DimPair, subsystem: str) -> np.ndarray:
    """Trace out the named subsystem, returning the reduced operator on the other one."""
    r4 = _blocks(rho, dims)
    if _check_subsystem(subsystem) == "B":
        return np.einsum("mnkn->mk", r4)
    return np.einsum("mnml->nl", r4)


def realign(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """Row/column realignment: <m,n|out|k,l> = <m,k|rho|n,l> (1-based labels).

    The result is a d_A^2 x d_B^2 matrix whose trace norm is the realignment
    criterion value.
    """
    r4 = _blocks(rho, dims)
    return r4.transpose(0, 2, 1, 3).reshape(dims.d_a * dims.d_a, dims.d_b * dims.d_b)


def herm_eigvalues(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Rejects input whose Hermiticity defect exceeds ``tol`` (relative); the
    symmetrized matrix (H + H^dagger)/2 is decomposed.
    """
    return np.linalg.eigvalsh(require_hermitian(h, tol=tol))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def is_psd(h: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """PSD verdict with the decisive minimum eigenvalue.

    True iff min eigenvalue >= -tol * max(1, |h|_max). The eigenvalue is always
    returned so callers can report it.
    """
    values = herm_eigvalues(h)
    min_eig = float(values[0])
    return min_eig >= -tol * max(1.0, max_abs(h)), min_eig
