"""Dense complex linear algebra for small operator matrices.

Everything works on plain ``numpy.ndarray`` values (complex128, row-major).
Composite-system indexing follows the Kronecker convention: the product basis
vector |m,n> sits at row d_B*(m-1)+n in 1-based labels, which is exactly
``numpy.kron`` ordering with 0-based indices d_B*m + n.

The operator functions take stacks: any leading batch axes in front of the
last two, ``(..., n, n)``. Each stack member is processed as it would be on
its own, so a stack gives the same bits as its members one at a time. A
single matrix gives Python scalars where a stack gives arrays, and an error
about one member of a stack names that member's index.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (Chebyshev norm)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def member_max_abs(m: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix in a (..., r, c) stack."""
    return np.abs(m).max(axis=(-2, -1), initial=0.0)


def dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def scalar_or_stack(values: np.ndarray):
    """A Python scalar for a 0-d result (a single matrix), else the array (a stack)."""
    return values.item() if values.ndim == 0 else values


def raise_first(bad: np.ndarray, name: str, describe: Callable[[tuple[int, ...]], str]) -> None:
    """Raise ValueError("<who> <describe(index)>") for the first flagged stack member.

    ``bad`` holds one flag per member; a 0-d mask stands for a single matrix,
    named ``name``, while a stack member is named ``name[i]``.
    """
    if not bad.any():
        return
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    who = f"{name}[{', '.join(map(str, index))}]" if index else name
    raise ValueError(f"{who} {describe(index)}")


def require_count(value: int, name: str, least: int) -> None:
    """The one check of every count and dimension: an integer >= least (no float, even 3.0, and no bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")


@dataclass(frozen=True)
class DimPair:
    """Subsystem dimensions (d_A, d_B) of a bipartite space."""

    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        require_count(self.d_a, "subsystem dimension d_A", 2)
        require_count(self.d_b, "subsystem dimension d_B", 2)

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


def blocks(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """View a (..., n, n) stack as (..., d_A, d_B, d_A, d_B) tensors; a wrong size is named."""
    rho = np.asarray(rho, dtype=complex)
    n = dims.total
    if rho.shape[-2:] != (n, n):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {dims.d_a}x{dims.d_b}")
    return rho.reshape(rho.shape[:-2] + (dims.d_a, dims.d_b, dims.d_a, dims.d_b))


def _check_subsystem(subsystem: str) -> str:
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return subsystem


def partial_transpose(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """Transpose the B factor: <m,n|rho^T_B|k,l> = <m,l|rho|k,n>; rho^T_A is its full transpose, with its spectrum."""
    r4 = blocks(rho, dims)
    return np.swapaxes(r4, -3, -1).reshape(r4.shape[:-4] + (dims.total, dims.total))


def partial_trace(rho: np.ndarray, dims: DimPair, subsystem: str) -> np.ndarray:
    """Trace out the named subsystem, returning the reduced operator on the other one."""
    r4 = blocks(rho, dims)
    if _check_subsystem(subsystem) == "B":
        return np.einsum("...mnkn->...mk", r4)
    return np.einsum("...mnml->...nl", r4)


def realign(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """Row/column realignment: <m,n|out|k,l> = <m,k|rho|n,l> (1-based labels).

    The result is a d_A^2 x d_B^2 matrix whose trace norm is the realignment
    criterion value.
    """
    r4 = blocks(rho, dims)
    return np.swapaxes(r4, -3, -2).reshape(r4.shape[:-4] + (dims.d_a * dims.d_a, dims.d_b * dims.d_b))


def checked_scale(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Each member's max-abs scale; rejects NaN or inf entries and magnitudes past the float limit.

    |z| of a finite entry such as 1.5e308 + 1.5e308j reads inf, so only when
    some scale is not finite are the entries read again to tell the two apart.
    """
    scale = member_max_abs(m)
    bad = ~np.isfinite(scale)
    if bad.any():
        finite = np.isfinite(m).all(axis=(-2, -1))
        peak = np.maximum(member_max_abs(m.real), member_max_abs(m.imag))

        def describe(i):
            if not finite[i]:
                return "has non-finite entries (NaN or inf)"
            return f"has an entry whose magnitude overflows: max(|Re|, |Im|) = {peak[i]:.3e}"

        raise_first(bad, name, describe)
    return scale


def checked_spectrum(
    h: np.ndarray, name: str = "matrix", symbol: str = "M"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a Hermitian matrix or stack, each member's max-abs scale, and what was decomposed.

    Rejects a non-square or empty (0 x 0) shape, NaN, inf or overflowing entries (checked_scale).
    A member equal to H^dagger entry for entry is decomposed as it is. Only on a
    mismatch is the defect max |H - H^dagger| computed: above HERMITICITY_TOL
    relative to max(1, scale) it is rejected, naming a stack member ``name[i]``
    and writing the defect with ``symbol``; else that member is decomposed as H/2 + H^dagger/2,
    which cannot overflow: the one place where a rounding-level asymmetry is removed.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ValueError(f"matrix must be square, got shape {h.shape}")
    if h.shape[-1] == 0:
        raise ValueError(f"matrix must not be empty, got shape {h.shape}")
    scale = checked_scale(h, name)
    same = h == dagger(h)  # finite entries compare exactly: a zero defect
    if not same.all():
        with np.errstate(over="ignore"):  # a defect past the float limit reads inf
            defect = member_max_abs(h - dagger(h))
        raise_first(
            defect > HERMITICITY_TOL * np.maximum(1.0, scale),
            name,
            lambda i: f"violates hermiticity: max |{symbol} - {symbol}^dagger| = {defect[i]:.3e}",
        )
        h = np.where(same.all(axis=(-2, -1))[..., None, None], h, h / 2.0 + dagger(h) / 2.0)
    return np.linalg.eigvalsh(h), scale, h


def herm_eigvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a stack, as checked_spectrum."""
    return checked_spectrum(h)[0]


def trace_norm(m: np.ndarray):
    """Sum of singular values: a float for one matrix, an array for a (..., r, c) stack."""
    # The complex SVD is kept for real input too: a real one changes the last bit.
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    checked_scale(m)
    return scalar_or_stack(np.linalg.svd(m, compute_uv=False).sum(axis=-1))


def is_psd(h: np.ndarray):
    """PSD verdict with the decisive minimum eigenvalue, per matrix of a stack.

    True iff min eigenvalue >= -PSD_TOL * max(1, |h|_max). The eigenvalue is always
    returned so callers can report it. One matrix gives (bool, float); a stack
    gives a boolean array and a float array. Input is checked and decomposed
    by checked_spectrum, and |h|_max is the scale that check computed.
    """
    eigenvalues, scale, _ = checked_spectrum(h)
    min_eig = eigenvalues[..., 0]
    ok = min_eig >= -PSD_TOL * np.maximum(1.0, scale)
    return scalar_or_stack(ok), scalar_or_stack(min_eig)
