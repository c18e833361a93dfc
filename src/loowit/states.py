"""Built-in bipartite states, random samplers, and JSON (de)serialization.

All randomness flows from one explicit 64-bit seed through numpy's default
PCG64 generator, so sampled fixtures are bit-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .linalg import DimPair, checked_spectrum, raise_first, require_count, scalar_or_stack

STATE_TRACE_TOL = 1e-9
STATE_EIG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Density matrix on a d_A * d_B product space with provenance label."""

    dims: DimPair
    rho: np.ndarray
    label: str


def check_densities(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """Validate a density matrix, or each member of a (..., n, n) stack, and return what checked_spectrum decomposed.

    Errors name the violated quantity and, in a stack, the first failing
    member as ``state[i]``. They come in the order non-finite, Hermiticity,
    trace (of rho as given), positivity, each checked on every member before the next.
    So each member comes back exactly Hermitian: as it is, or as rho/2 + rho^dagger/2.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (dims.total, dims.total):
        raise ValueError(
            f"state matrix shape {rho.shape} does not match dims {dims.d_a}x{dims.d_b} (dimension)"
        )
    eigenvalues, _, hermitian = checked_spectrum(rho, "state", "rho")
    with np.errstate(over="ignore"):  # a trace past the float limit reads inf
        tr = np.trace(rho, axis1=-2, axis2=-1)
    raise_first(
        np.abs(tr - 1.0) > STATE_TRACE_TOL,
        "state",
        lambda i: f"violates trace normalization: trace = {tr[i].real:.12g}",
    )
    min_eig = eigenvalues[..., 0]
    raise_first(
        min_eig < -STATE_EIG_TOL, "state", lambda i: f"violates positivity: min eigenvalue = {min_eig[i]:.3e}"
    )
    return hermitian


def make_state(rho: np.ndarray, dims: DimPair, label: str) -> BipartiteState:
    """Wrap and validate a density matrix; error messages name the violated quantity."""
    return BipartiteState(dims=dims, rho=check_densities(rho, dims), label=label)


def phi(d: int) -> np.ndarray:
    """Unnormalized maximally entangled vector sum_i |i,i>, squared norm d."""
    require_count(d, "local dimension d", 2)
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0
    return v


def max_entangled(d: int) -> BipartiteState:
    """Normalized maximally entangled state |Phi><Phi| / d."""
    v = phi(d)
    return make_state(np.outer(v, v.conj()) / d, DimPair.square(d), label=f"phi(d={d})")


def horodecki_rho(a: float) -> BipartiteState:
    """The 3x3 PPT-entangled one-parameter state, a in [0, 1].

    Entangled for all 0 < a < 1 while its partial transpose stays positive;
    at the endpoints it degenerates to separable states.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {a}")
    rho = np.zeros((9, 9), dtype=complex)
    for i in (0, 1, 2, 3, 4, 5, 7):
        rho[i, i] = a
    rho[6, 6] = (1.0 + a) / 2.0
    rho[8, 8] = (1.0 + a) / 2.0
    for i, j in ((0, 4), (0, 8), (4, 8)):
        rho[i, j] = a
        rho[j, i] = a
    c = np.sqrt(1.0 - a * a) / 2.0
    rho[6, 8] = c
    rho[8, 6] = c
    rho /= 1.0 + 8.0 * a
    return make_state(rho, DimPair.square(3), label=f"horodecki(a={a:g})")


WEIGHT_SUM_TOL = 1e-12


def in_simplex(a: np.ndarray) -> np.ndarray:
    """Mask over the rows of (..., d) weights: nonnegative, summing left to right to 1 within WEIGHT_SUM_TOL."""
    a = np.asarray(a, dtype=float)
    return (a >= 0.0).all(axis=-1) & (np.abs(a.cumsum(axis=-1)[..., -1] - 1.0) <= WEIGHT_SUM_TOL)


def check_weights(weights: np.ndarray) -> np.ndarray:
    """Validate a weights row, or each row of a (..., d) stack, and return it as floats.

    Entries must be numbers (number_array), and a row is valid iff in_simplex
    accepts it. Errors come in the order non-finite, negative, sum, each
    checked on every row before the next, and name the row ``weights``, or
    ``weights[i]`` in a stack, printing it as plain floats and its sum, taken
    as in_simplex takes it, with repr.
    """
    a = number_array(weights, "weights")

    def row(i) -> tuple[float, ...]:
        return tuple(map(float, a[i]))

    raise_first(~np.isfinite(a).all(axis=-1), "weights", lambda i: f"must be finite, got {row(i)}")
    raise_first((a < 0.0).any(axis=-1), "weights", lambda i: f"must be nonnegative, got {row(i)}")
    raise_first(~in_simplex(a), "weights", lambda i: f"must sum to 1, got sum = {float(a[i].cumsum()[-1])!r}")
    return a


@dataclass(frozen=True)
class FamilyParams:
    """Mixing weights (a_1, ..., a_d) of the d-level diagonal family, valid as check_weights judges them."""

    d: int
    a: tuple[float, ...]

    def __post_init__(self) -> None:
        require_count(self.d, "local dimension d", 2)
        if len(self.a) != self.d:
            raise ValueError(f"need {self.d} weights, got {len(self.a)}")
        if np.ndim(self.a) != 1:  # check_weights would read a nested tuple as a stack of rows
            raise ValueError(f"weights must be one row, got {self.a}")
        check_weights(self.a)


def special_slice(d: int, a1, a2) -> tuple[np.ndarray, np.ndarray]:
    """Special-slice weights (..., d) at each (a1, a2), and the mask of valid points.

    The slice is a = (a1, a2, a1, ..., a1, a_d) with a_d = 1 - (d-2) a1 - a2,
    so it needs d >= 3 (at d = 2, a2 and a_d are one weight); a point is
    valid when family_special accepts it.
    """
    require_count(d, "special slice dimension d", 3)
    a1, a2 = np.broadcast_arrays(np.asarray(a1, dtype=float), np.asarray(a2, dtype=float))
    a_d = 1.0 - (d - 2) * a1 - a2
    a = np.repeat(a1[..., None], d, axis=-1)
    a[..., 1] = a2
    a[..., d - 1] = a_d
    return a, in_simplex(a)


def family_special(d: int, a1: float, a2: float) -> FamilyParams:
    """Special slice point a = (a1, a2, a1, ..., a1, a_d) with a_d = 1 - (d-2) a1 - a2; FamilyParams judges it."""
    return FamilyParams(d=d, a=tuple(special_slice(d, a1, a2)[0].tolist()))


def family_stack(weights: np.ndarray) -> np.ndarray:
    """Diagonal d x d family states, one per row of a (..., d) weights array, validated.

    (a_1/d) |Phi><Phi| plus, for i = 2..d, weight a_i/d on each projector
    |k, k+i-1><k, k+i-1| with the second label wrapped into 1..d. The reduced
    state on either side is I/d for every valid parameter choice.

    Each state is Hermitian by construction, its trace is sum(a) and its
    spectrum is {a_1, a_i/d (each d times), 0 (d - 1 times)}, so it is a
    density matrix iff its row is in the simplex: the rows are validated by
    check_weights, which names a failing row ``weights[i]``.
    """
    d = np.shape(weights)[-1]
    require_count(d, "local dimension d", 2)
    a = check_weights(weights)
    rho = np.zeros(a.shape[:-1] + (d * d, d * d), dtype=complex)
    k = np.arange(d)
    phi_idx = k * (d + 1)
    rho[..., phi_idx[:, None], phi_idx] = (a[..., 0] / d)[..., None, None]
    for i in range(1, d):
        idx = k * d + (k + i) % d
        rho[..., idx, idx] = (a[..., i] / d)[..., None]
    return rho


def family_rho(params: FamilyParams) -> BipartiteState:
    """The family state of one weights tuple (see family_stack)."""
    label = "family(d={}, a=({}))".format(params.d, ", ".join(f"{x:g}" for x in params.a))
    return BipartiteState(DimPair.square(params.d), family_stack(params.a), label)


def family_region(weights):
    """Analytic region of the family at a weights row (a str), or at each row of a (..., d) stack (str array).

    "separable" where a_i >= a_1 for every i != 1, else "bound" where the partial transpose is positive,
    a_{i+1} a_{d-i+1} >= a_1^2 for i = 1..d-1, else "free". Exact on the special slice only: off it, at
    d >= 4, a_i >= a_1 is merely sufficient for separability, so a PPT point failing it need not be bound.
    """
    a = np.asarray(weights, dtype=float)
    separable = np.all(a[..., 1:] >= a[..., :1], axis=-1)
    ppt = np.all(a[..., 1:] * a[..., :0:-1] >= a[..., :1] * a[..., :1], axis=-1)
    return scalar_or_stack(np.where(separable, "separable", np.where(ppt, "bound", "free")))


def werner2(p: float) -> BipartiteState:
    """Two-qubit Werner state p |psi-><psi-| + (1-p) I/4; entangled iff p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    rho = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return make_state(rho, DimPair.square(2), label=f"werner2(p={p:g})")


def _random_density(rng: np.random.Generator, d: int, mode: str) -> np.ndarray:
    if mode == "pure":
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z /= np.linalg.norm(z)
        return np.outer(z, z.conj())
    if mode == "mixed":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = g @ g.conj().T
        return w / np.trace(w).real
    raise ValueError(f"mode must be 'pure' or 'mixed', got {mode!r}")


def random_product_state(dims: DimPair, seed: int, mode: str = "pure") -> BipartiteState:
    """Product state rho_1 x rho_2 with independent random factors: the k = 1 separable draw, relabelled."""
    state = random_separable_state(dims, 1, seed, mode)
    return replace(state, label=f"product(dims={dims.d_a}x{dims.d_b}, seed={seed}, mode={mode})")


def random_separable_state(dims: DimPair, k: int, seed: int, mode: str = "pure") -> BipartiteState:
    """Convex mixture of k random product states with uniform-simplex weights.

    ``mode`` selects Haar-random pure projectors or normalized Wishart
    mixtures for the product factors.
    """
    require_count(k, "mixture count k", 1)
    require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    factors = [[_random_density(rng, n, mode) for n in (dims.d_a, dims.d_b)] for _ in range(k)]
    weights = np.ones(1) if k == 1 else rng.dirichlet(np.ones(k))
    rho = sum(w * np.kron(a, b) for w, (a, b) in zip(weights, factors))
    return make_state(
        rho, dims, label=f"separable(dims={dims.d_a}x{dims.d_b}, k={k}, seed={seed}, mode={mode})"
    )


def save_matrix(path: str | Path, dims: DimPair, matrix: np.ndarray, **extra) -> None:
    """Write {"dim_a", "dim_b", "re", "im", **extra} as JSON, row-major composite basis."""
    payload = {"dim_a": dims.d_a, "dim_b": dims.d_b, "re": matrix.real.tolist(), "im": matrix.imag.tolist()}
    Path(path).write_text(json.dumps({**payload, **extra}), encoding="utf-8")


def save_state(state: BipartiteState, path: str | Path) -> None:
    """Write the state in the matrix JSON format read by load_state."""
    save_matrix(path, state.dims, state.rho)


def number_array(entries, key: str) -> np.ndarray:
    """A JSON matrix's entries as a float array; a string or boolean entry is named, not converted."""
    array = np.asarray(entries)
    # a string beside an integer past int64 makes an object array, whose float conversion reads the string
    kinds = {np.asarray(x).dtype.kind for x in array.flat} if array.dtype.kind == "O" else {array.dtype.kind}
    for kind, name in (("U", "str"), ("b", "bool")):
        if kind in kinds:
            raise ValueError(f"{key} entries must be numbers, not {name}")
    return array.astype(float, copy=False)


def payload_value(payload, key: str):
    """A decoded JSON file's value at key, naming a payload that is not an object or lacks the key."""
    if not isinstance(payload, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(payload), "a number")
        raise ValueError(f"expected a JSON object, got {kind}")
    if key not in payload:
        raise ValueError(f"missing the key {key!r}")
    return payload[key]


def _matrix_from_payload(payload, path: Path) -> tuple[np.ndarray, DimPair]:
    try:
        sizes = [payload_value(payload, key) for key in ("dim_a", "dim_b")]
        re, im = (number_array(payload_value(payload, key), key) for key in ("re", "im"))
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric or huge entries
        raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    for key, size in zip(("dim_a", "dim_b"), sizes):
        if isinstance(size, bool) or not isinstance(size, int):
            shown = json.dumps(size)
            raise ValueError(f"malformed matrix file {path}: {key} must be an integer, got {shown}")
    dims = DimPair(*sizes)
    if re.shape != im.shape or re.ndim != 2:
        raise ValueError(f"malformed matrix file {path}: re/im shapes {re.shape} vs {im.shape}")
    return re + 1j * im, dims


def load_state(path: str | Path) -> BipartiteState:
    """Read and validate a state file; a state that save_state wrote comes back with its exact bits."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    rho, dims = _matrix_from_payload(payload, path)
    return make_state(rho, dims, label=f"file:{path.name}")
