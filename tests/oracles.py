"""Second routes to library quantities, kept only as test oracles.

Each function computes, by a different construction, something the library
computes in production (or an identity between library quantities), or checks
a defining property of the standard observable set. The tests assert that
both routes agree.
"""

import math

import numpy as np

from loowit.criteria import (
    SEARCH_ROUNDS,
    SEARCH_STALL,
    SEARCH_TOL,
    _XTables,
    _mix,
    _o_gradient,
    _procrustes,
    _reduction_gather,
    _residue,
    _search_starts,
    _t_from_residue,
    _x_min_eig,
    _x_stack,
    _x_tables,
    correlation_T,
    o_reduction_apply,
    o_reduction_operator,
)
from loowit.linalg import DimPair, blocks, dagger, is_psd, max_abs, partial_trace
from loowit.loo import (
    ORTHOGONALITY_TOL,
    apply_orthogonal,
    asym_slot,
    make_transform,
    pair_list,
    random_orthogonal,
    random_unitary,
    standard_basis,
    standard_entries,
    standard_positions,
    sym_slot,
)
from loowit.states import BipartiteState, FamilyParams, family_rho, horodecki_rho, make_state, phi
from loowit.sweep import COLUMN_NAMES, CSV_COLUMNS, CSV_HEADER, SweepResult
from loowit.witness import horodecki_mixings


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


def transpose_basis(basis: np.ndarray) -> np.ndarray:
    """Entrywise transpose of every observable.

    On the standard ordering this fixes projector and symmetric slots and
    negates the antisymmetric ones; applied twice it is the identity.
    """
    return basis.transpose(0, 2, 1).copy()


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


def n_sq_closed(a: float) -> float:
    """Closed form of n^2 for the 3x3 PPT-entangled state; its witness value is 1 - sqrt(1 + n^2)."""
    return (1.0 - a) * a * a / ((2.0 + a) * (1.0 + 8.0 * a) ** 2)


def basis_mixing_witness(o: np.ndarray, d: int) -> np.ndarray:
    """I x I - sum_u (O L)_u x L_u^T with the mixing applied to the observables themselves."""
    basis = standard_basis(d)
    return np.eye(d * d, dtype=complex) - pair_sum(apply_orthogonal(basis, o), transpose_basis(basis))


def tailored_witness(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 witness, its coefficients, antisymmetry vector and contraction, by dense contractions.

    The sets are A = O_A L and B = O_B L; coeffs[u, v] = Tr(rho A_u x B_v^T)
    and the witness is I x I - sum_uv M[u, v] A_u x B_v^T, M the near-identity
    contraction built from n_vec, the antisymmetry of the first row and column.
    Returns (witness matrix, coeffs, n_vec, M).
    """
    o_a, o_b = horodecki_mixings(a)
    basis_a = apply_orthogonal(standard_basis(3), o_a)
    basis_b = apply_orthogonal(standard_basis(3), o_b)
    r4 = horodecki_rho(a).rho.reshape(3, 3, 3, 3)
    # B^T[l, n] = B[n, l]
    coeffs = np.einsum("mnkl,ukm,vnl->uv", r4, basis_a, basis_b).real
    n_vec = coeffs[0, 1:] - coeffs[1:, 0]
    scale = 1.0 / np.sqrt(1.0 + np.dot(n_vec, n_vec))
    mixing = np.eye(9) * scale
    mixing[0, 1:] = n_vec * scale
    mixing[1:, 0] = -n_vec * scale
    pairs = np.einsum("uv,uab,vcd->acbd", mixing, basis_a, transpose_basis(basis_b)).reshape(9, 9)
    return np.eye(9, dtype=complex) - pairs, coeffs, n_vec, mixing


def swap_operator(d: int) -> np.ndarray:
    """SWAP on C^d x C^d: |m,n> -> |n,m>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            s[m * d + n, n * d + m] = 1.0
    return s


def conjugate_basis(basis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate every observable: L_u -> u L_u u^dagger. Preserves orthonormality."""
    u = np.asarray(u, dtype=complex)
    if u.shape != basis.shape[1:]:
        raise ValueError(f"unitary shape {u.shape} does not match basis dim {basis.shape[1]}")
    defect = max_abs(u.conj().T @ u - np.eye(len(u)))
    if not defect <= ORTHOGONALITY_TOL:  # a NaN defect is rejected too
        raise ValueError(f"matrix is not unitary: max |u^dagger u - I| = {defect:.3e}")
    return np.matmul(np.matmul(u, basis), u.conj().T)


def best_orthogonal(t: np.ndarray) -> np.ndarray:
    """Orthogonal O maximizing Tr(T O); the maximum equals the trace norm of T."""
    u, _, vh = np.linalg.svd(np.asarray(t, dtype=float))
    return make_transform((u @ vh).T)


def local_map(rho_local: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """Single-system positive map (Tr rho) I - sum_u Tr(rho L_u) L^o_u.

    With the identity mixing this is the reduction map; with the transpose
    mixing it is (Tr rho) I - rho^T, which is completely positive.
    """
    rho_local = np.asarray(rho_local, dtype=complex)
    d = rho_local.shape[0]
    basis = standard_basis(d)
    mixed = apply_orthogonal(basis, transform)
    coeffs = np.einsum("ij,uji->u", rho_local, basis)
    return complex(np.trace(rho_local)) * np.eye(d) - np.einsum("u,uij->ij", coeffs, mixed)


def phi_pairing(state: BipartiteState, transform: np.ndarray) -> tuple[float, float]:
    """Both sides of the maximally-entangled-vector pairing identity.

    Returns (<Phi| mapped operator |Phi>, 1 - Tr(T O^T)); the two are equal
    for every state and mixing: the realignment bound is a single matrix
    element of the reduction-map family.
    """
    operator, _ = o_reduction_apply(state, transform)
    v = phi(state.dims.square_dim)
    lhs = float(np.real(v.conj() @ operator @ v))
    rhs = 1.0 - float(np.trace(correlation_T(state) @ transform.T))
    return lhs, rhs


def x_matrix(state: BipartiteState, transform: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hermitian correlation matrix X(O, u) of one pair: the search's kernel on a stack of one.

    With M(rho, O^T) = o_reduction_operator(rho, dims, O^T),

        X[m, n] = <mm| (I x u^dagger) M(rho, O^T) (I x u) |nn>
                = delta_mn h_m - sum_v L_v[m, n] (O Q)_v[m, n],

    where Q_w = u^dagger Tr_A((L_w x I) rho) u and h = diag(u^dagger rho_B u).
    X is positive semidefinite on every separable state, for all unitary u and
    orthogonal O. The vectors (I x u)|kk> are orthonormal, so by Cauchy
    interlacing lambda_min(M) <= lambda_min(X): X detects nothing M misses.
    The all-ones vector s gives <s|X|s> = 1 - sum_a <L^o_a x (u L_a^T u^dagger)>;
    note the B-side transpose there. transform is a float mixing
    (make_transform's output) and u a complex unitary; neither is checked.
    """
    d = state.dims.square_dim
    return _x_stack(_x_tables(_residue(state.rho, state.dims), u, d), transform, d)


def x_reduction_form(state: BipartiteState, transform: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The correlation matrix X obtained by contracting the reduction-map output.

    Apply the reduction map with the transposed mixing on side A, conjugate
    side B by u^dagger, and read off the block X[k, l] = <k,k| . |l,l>.
    """
    d = state.dims.square_dim
    operator, _ = o_reduction_apply(state, transform.T)
    sandwich = np.kron(np.eye(d), u.conj().T) @ operator @ np.kron(np.eye(d), u)
    diag_idx = np.arange(d) * (d + 1)
    return sandwich[np.ix_(diag_idx, diag_idx)]


def uniform_pairing(state: BipartiteState, transform: np.ndarray, u: np.ndarray) -> float:
    """1 - sum_a <L^o_a x (u L_a^T u^dagger)>, which equals <s|X|s> for the all-ones s.

    Note the transposed (not conjugated) B side.
    """
    d = state.dims.square_dim
    mats = standard_basis(d)
    mats_o = np.einsum("uv,vij->uij", transform, mats)
    mats_ut = np.matmul(np.matmul(u, mats.transpose(0, 2, 1)), u.conj().T)
    r4 = state.rho.reshape(d, d, d, d)
    return 1.0 - float(np.real(np.einsum("mnkl,ukm,uln->", r4, mats_o, mats_ut)))


def perm_reduction_closed_form(params: FamilyParams, l: int) -> np.ndarray:
    """Cyclic-permutation reduction operator of the diagonal family state, in closed form.

    Cycling the A-side projector slots by l moves the family weight at
    diagonal offset i-1 from a_i to a_{i+l}; the operator is I x rho_B minus
    the family state with its diagonal weights so shifted.
    """
    d = params.d
    state = family_rho(params)
    shifted = state.rho.copy()
    for i in range(d):
        delta = (params.a[(i + l) % d] - params.a[i]) / d
        for k in range(d):
            idx = k * d + (k + i) % d
            shifted[idx, idx] += delta
    return np.kron(np.eye(d), partial_trace(state.rho, state.dims, "A")) - shifted


def family_ppt_min_closed_form(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of rho^T_B for the family state of each row of (..., d) weights, in closed form.

    The partial transpose turns (a_1/d) |Phi><Phi| into (a_1/d) SWAP and keeps
    the diagonal projectors, so rho^T_B is block diagonal: a_1/d on each |k,k>,
    and on each pair {|k,k+i>, |k+i,k>} (i = 1..d-1, labels mod d) the 2x2
    block [[x_i, a_1], [a_1, y_i]] / d, with x_i = a_{i+1} the weight at offset
    i and y_i = a_{d-i+1} the weight at offset d-i. The smaller eigenvalue of
    that block is (x_i + y_i - sqrt((x_i - y_i)^2 + 4 a_1^2)) / (2d).
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    a1, x, y = a[..., :1], a[..., 1:], a[..., :0:-1]
    pairs = (x + y - np.sqrt((x - y) ** 2 + 4.0 * a1 * a1)) / (2.0 * d)
    return np.minimum(a[..., 0] / d, pairs.min(axis=-1))


def family_cycle_min_closed_form(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue over the cycle maps l = 1..d-1 for each row of (..., d) weights, in closed form.

    By perm_reduction_closed_form the cycle-l operator is I x rho_B = I/d minus
    the family state with the weight at offset i moved from a_{i+1} to
    a_{i+1+l} (subscripts wrapped into 1..d), where on span{|k,k>} only the
    diagonal moves. So it is block diagonal:
    - on span{|k,k>} it is ((1 - a_{l+1} + a_1) I - a_1 J) / d, J the all-ones
      matrix, with eigenvalue (1 - a_{l+1} - (d-1) a_1) / d on the all-ones
      vector and (1 - a_{l+1} + a_1) / d on its complement;
    - on each |k,k+i>, i = 1..d-1, it is (1 - a_{i+1+l}) / d, which runs over
      (1 - a_j) / d for every j other than l+1.
    As a_1 >= 0, neither (1 - a_{l+1} + a_1) / d nor (1 - a_{l+1}) / d lies below
    the all-ones value, so the cycle-l minimum is
    min((1 - a_{l+1} - (d-1) a_1) / d, min_j (1 - a_j) / d).
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    all_ones = (1.0 - a[..., 1:] - (d - 1) * a[..., :1]) / d  # l = 1..d-1
    return np.minimum(all_ones.min(axis=-1), ((1.0 - a) / d).min(axis=-1))


def family_realignment_closed_form(a: np.ndarray) -> np.ndarray:
    """Trace norm of the realigned family state for each row of (..., d) weights, in closed form.

    Realignment maps |kk><ll| to |kl><kl| and |k,m><k,m| to |kk><mm|. So the
    family's (a_1/d) |Phi><Phi| goes to a_1/d on each |k,l>, and its diagonal
    weights to the circulant d x d block on span{|k,k>} whose first row is a/d.
    The d^2 - d states |k,l>, k != l, add (d-1) a_1; the circulant's
    eigenvalues are the discrete Fourier transform of a over d, so its trace
    norm is (1/d) sum_j |a^_j|.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    return (d - 1) * a[..., 0] + np.abs(np.fft.fft(a, axis=-1)).sum(axis=-1) / d


def correlation_dense(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """S[..., u, v] = Tr(rho L_u x L_v) as one dense einsum over the full observable stacks of both sides."""
    return np.einsum(
        "...mnkl,ukm,vln->...uv", blocks(rho, dims), standard_basis(dims.d_a), standard_basis(dims.d_b)
    )


def residue_dense(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """residue_u = Tr_A((L_u x I) rho) as one dense einsum over the full A-side observable stack."""
    return np.einsum("...mnkl,ukm->...unl", blocks(rho, dims), standard_basis(dims.d_a))


def correlation_T_dense(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """T[..., u, v] = Tr(residue_u L_v^T) as two dense einsums: the residue, then the pairing with L_v."""
    return np.einsum("...unl,vnl->...uv", residue_dense(rho, dims), standard_basis(dims.d_b)).real


def o_reduction_dense(rho: np.ndarray, dims: DimPair, transform: np.ndarray) -> np.ndarray:
    """I x rho_B minus the A-side-mixed state, by dense einsums over the full observable stacks.

    The mixing is applied to the A-side basis: the mixed state is
    sum_u residue_u x (sum_v O_uv L_v) = sum_uv T_uv L^o_u x L_v^T.
    """
    mixed = apply_orthogonal(standard_basis(dims.d_a), transform)
    mapped = np.einsum("...unl,umk->...mnkl", residue_dense(rho, dims), mixed).reshape(rho.shape)
    return np.kron(np.eye(dims.d_a), partial_trace(rho, dims, "A")) - mapped


def o_reduction_mixed_residue_dense(rho: np.ndarray, dims: DimPair, transform: np.ndarray) -> np.ndarray:
    """The same map with the mixing applied to the residue: sum_v (sum_u O_uv residue_u) x L_v.

    The residue is mixed by the same real matmul as in o_reduction_operator;
    the standard set is then contracted densely.
    """
    residue = residue_dense(rho, dims)
    flat = residue.reshape(residue.shape[:-2] + (dims.d_b**2,)).view(float)
    mixed = (np.swapaxes(transform, -1, -2) @ flat).view(complex)
    mixed = mixed.reshape(mixed.shape[:-1] + (dims.d_b, dims.d_b))
    mapped = np.einsum("...vnl,vmk->...mnkl", mixed, standard_basis(dims.d_a))
    mapped = mapped.reshape(mixed.shape[:-3] + rho.shape[-2:])
    return np.kron(np.eye(dims.d_a), partial_trace(rho, dims, "A")) - mapped


def residue_from_zeros(rho: np.ndarray, dims: DimPair) -> np.ndarray:
    """criteria._residue with its sum started from an np.zeros accumulator and a fresh array per term.

    The reference for the signs of zero parts: production accumulates in its
    first term after adding 0.0, which must give the same bits.
    """
    by_slot = np.swapaxes(blocks(rho, dims), -3, -2)
    rows, cols, values = standard_entries(dims.d_a)
    residue = np.zeros(by_slot.shape[:-4] + (dims.d_a**2, dims.d_b, dims.d_b), dtype=complex)
    for i in range(2):
        residue = residue + by_slot[..., cols[i], rows[i], :, :] * values[i][:, None, None]
    return residue


def t_from_zeros(residue: np.ndarray) -> np.ndarray:
    """criteria._t_from_residue's T summed from +0 with a fresh array per term, before the real part is taken."""
    rows, cols, values = standard_entries(residue.shape[-1])
    return 0.0 + residue[..., rows[0], cols[0]] * values[0] + residue[..., rows[1], cols[1]] * values[1]


def reduction_from_zeros(residue: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """criteria._reduction_from_residue with its gather summed into an np.zeros accumulator (no input checks)."""
    n, d_b = residue.shape[-3], residue.shape[-1]
    d_a = math.isqrt(n)
    batch = np.broadcast_shapes(residue.shape[:-3], transform.shape[:-2])
    mixed = _mix(np.swapaxes(transform, -1, -2), residue).reshape(batch + (n * d_b * d_b,))
    index, values = _reduction_gather(d_a, d_b)
    m = np.zeros(batch + (d_a, d_b, d_a, d_b), dtype=complex)
    for i in range(2):
        m = m + np.take(mixed, index[i], axis=-1) * values[i]
    rho_b = residue[..., :d_a, :, :].sum(axis=-3)
    m = np.eye(d_a)[:, None, :, None] * rho_b[..., None, :, None, :] - m
    return m.reshape(batch + (d_a * d_b, d_a * d_b))


def x_gathered(tables: _XTables, o: np.ndarray, d: int) -> np.ndarray:
    """criteria._x_stack with the at most two standard observables nonzero at each position (m, n) gathered.

    The mixed residue is read at [..., slot, m, n] for both slots of every
    position, and h is added on the diagonal by index, where the production X
    sums every slot's product and adds h on its flattened diagonal.
    """
    slots, values = standard_positions(d)
    terms = _mix(o, tables.q)[..., slots, np.arange(d)[:, None], np.arange(d)] * values  # (..., 2, d, d)
    x = -(terms[..., 0, :, :] + terms[..., 1, :, :])
    x[..., range(d), range(d)] += tables.h
    return x


def family_matrix_loops(params: FamilyParams) -> np.ndarray:
    """The diagonal family matrix entry by entry: (a_1/d) |Phi><Phi| plus a_i/d on |k, k+i-1><k, k+i-1|."""
    d = params.d
    v = phi(d)
    rho = np.outer(v, v.conj()) * (params.a[0] / d)
    for i in range(1, d):
        for k in range(d):
            idx = k * d + (k + i) % d
            rho[idx, idx] += params.a[i] / d
    return rho


def x_coefficients_loops(s: np.ndarray, o: np.ndarray, r: np.ndarray, d: int) -> np.ndarray:
    """Standard-set coefficients of X for one (o, r) pair, slot by slot.

    s is pair_correlation and r = unitary_mixing_single(u, d). With g = O S R^T
    and h = (sum of the projector rows of S) R^T, for each pair (m < n) with
    symmetric slot p and antisymmetric slot q:

        Tr(X P_m) = h_m - g_mm
        Tr(X S_mn) = -(g_pp - g_qq) / sqrt2
        Tr(X A_mn) = -(g_pq + g_qp) / sqrt2
    """
    trace_vec = np.zeros(d * d)
    trace_vec[:d] = 1.0
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


def unitary_mixing_single(u: np.ndarray, d: int) -> np.ndarray:
    """R[a, b] = Tr(L_b  u L_a u^dagger): the mixing one unitary induces on the standard set."""
    mats = standard_basis(d)
    conj = np.matmul(np.matmul(u, mats), u.conj().T)
    return np.einsum("mij,nji->mn", conj, mats).real


def o_gradient_loops(s: np.ndarray, r: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """G with v^dagger X(O) v = c + <G, O> for one (r, v), by the adjoint of the slot rule.

    Pairing x_coefficients_loops with v weights slot a by w_a = v^dagger L_a v
    and gives c + <W, g>, W placing the weights as the slot rule reads g, so
    G = W R S^T.
    """
    w = np.einsum("i,uij,j->u", v.conj(), standard_basis(d), v).real
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    weights = np.zeros((d * d, d * d))
    for m in range(d):
        weights[m, m] = -w[m]
    for m, n in pair_list(d):
        p = sym_slot(d, m, n)
        q = asym_slot(d, m, n)
        weights[p, p] = -inv_sqrt2 * w[p]
        weights[q, q] = inv_sqrt2 * w[p]
        weights[p, q] = -inv_sqrt2 * w[q]
        weights[q, p] = -inv_sqrt2 * w[q]
    return weights @ r @ s.T


def o_gradient_entries(q: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """G[a, w] = -Re sum_mn conj(v_m) v_n L_a[m, n] Q_w[m, n] for one (q, v), row a by row.

    Each L_a's nonzero entries are visited in row-major order and summed from
    +0, as the production kernel sums them. The products go through
    np.multiply, the ufunc that kernel runs: numpy's scalar operators may round
    a complex product differently (a fused multiply-add on one side only).
    """
    mats = standard_basis(d)
    g = np.zeros((d * d, d * d))
    for a, mat in enumerate(mats):
        total = 0.0
        for m, k in np.argwhere(mat):
            weight = np.multiply(np.multiply(mat[m, k], np.conj(v[m])), v[k])
            total = total + np.multiply(weight, q[:, m, k]).real
        g[a] = -total
    return g


_STREAMS: dict[tuple[int, int], tuple[np.random.Generator, np.random.Generator, list]] = {}


def drawn_start(d: int, seed: int, restart: int) -> tuple[np.ndarray, np.ndarray]:
    """Restart b >= 1's starting (O, u): the b-th lone draw of each seeded stream.

    O comes from default_rng([seed, 0]) and u from default_rng([seed, 1]), one
    random_orthogonal or random_unitary call per restart. The draws made so far
    are kept, read-only, per (d, seed), so walking restarts 1..b costs b draws.
    """
    o_rng, u_rng, draws = _STREAMS.setdefault(
        (d, seed), (np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1]), [None])
    )
    while len(draws) <= restart:
        draws.append((random_orthogonal(d * d, o_rng), random_unitary(d, u_rng)))
        for a in draws[-1]:
            a.flags.writeable = False
    return draws[restart]


def reference_rounds(
    state: BipartiteState, seed: int, restart: int, earlier: list, certify: bool = True
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """One restart of the correlation search through x_matrix: each round's lambda_min, final O and u.

    Restart 0 starts at u = I and the O maximising Tr(O T); restart b >= 1
    starts from drawn_start. Each of at most SEARCH_ROUNDS + 1 rounds takes the
    smallest eigenvalue and its eigenvector v of X(O) from one eigh. The
    restart stops there, keeping O, once that eigenvalue is lowered by no more
    than SEARCH_STALL since the last round, or in round SEARCH_ROUNDS + 1, or,
    in a round r (counted from 0) with 2 r > SEARCH_ROUNDS, unless it is
    strictly below the latest round of every restart in earlier, the recorded
    rounds of restarts 0..b-1 (reference_race); one that stopped before round r
    counts with its last round. With certify, it also stops once that
    eigenvalue, or the latest round of any restart in earlier, is below
    -SEARCH_TOL; without it, the restart runs on past any certificate.
    Otherwise O moves to -U V^T from the SVD of the
    pairing's gradient (o_gradient_entries on the residue of the u-conjugated
    state), the minimiser of v^dagger X(O) v. So the last round's lambda_min is
    the final O's.
    """
    d = state.dims.square_dim
    if restart == 0:
        u_svd, _, vh = np.linalg.svd(-correlation_T(state).T)
        o = -u_svd @ vh
        u = np.eye(d, dtype=complex)
    else:
        o, u = drawn_start(d, seed, restart)
    q = _x_tables(_residue(state.rho, state.dims), u, d).q
    rounds = []
    for r in range(SEARCH_ROUNDS + 1):
        vals, vecs = np.linalg.eigh(x_matrix(state, make_transform(o), u))
        rounds.append(float(vals[0]))
        if r == SEARCH_ROUNDS or (r > 0 and rounds[-2] - rounds[-1] <= SEARCH_STALL):
            break
        latest = [other[min(r, len(other) - 1)] for other in earlier]  # each earlier restart's round r, or its last
        if certify and min([rounds[-1], *latest]) < -SEARCH_TOL:
            break
        if 2 * r > SEARCH_ROUNDS and any(rounds[-1] >= other for other in latest):
            break
        u_svd, _, vh = np.linalg.svd(o_gradient_entries(q, vecs[:, 0], d))
        o = -u_svd @ vh
    return rounds, o, u


def reference_race(
    state: BipartiteState, seed: int, budget: int, certify: bool = True
) -> list[tuple[list[float], np.ndarray, np.ndarray]]:
    """The correlation search one restart at a time, in restart order: each restart's reference_rounds.

    Restart b races against the recorded rounds of restarts 0..b-1 only, so a
    smaller budget's race is a prefix of a larger one's. certify off runs every
    restart without the certificate rule, as the rule-free reference.
    """
    race = []
    for restart in range(budget):
        race.append(reference_rounds(state, seed, restart, [rounds for rounds, _, _ in race], certify))
    return race


def x_search_rule_free(state: BipartiteState, budget: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """x_search's (values, finals) from the reference race without the certificate rule (reference_race)."""
    race = reference_race(state, seed, budget, certify=False)
    return np.array([rounds[-1] for rounds, _, _ in race]), np.array([o for _, o, _ in race])


def x_search_fixed_rounds(state: BipartiteState, budget: int, seed: int) -> np.ndarray:
    """Each restart's final lambda_min when every restart runs all SEARCH_ROUNDS steps, with no stall rule and no race.

    The search's own starts and kernels, advanced as one stack for a fixed
    number of rounds, as the search ran before it stopped stalled restarts.
    Each restart's rounds are monotone, so its final value here is at or
    below where the stall rule or the race stops it.
    """
    d = state.dims.square_dim
    residue = _residue(state.rho, state.dims)
    o, u = _search_starts(_t_from_residue(residue), d, seed, budget)
    tables = _x_tables(residue, u, d)
    for _ in range(SEARCH_ROUNDS):
        o = _procrustes(_o_gradient(tables, _x_min_eig(tables, o, d)[1], d))
    return _x_min_eig(tables, o, d)[0]


def map_minimum_alone(state: BipartiteState, finals: np.ndarray) -> float:
    """o_search one mixing at a time: the least is_psd minimum of M(rho, O^T) over finals, each solved alone."""
    return min(is_psd(o_reduction_operator(state.rho, state.dims, o.T))[1] for o in finals)


def tiles_upb_state() -> BipartiteState:
    """The 3x3 Tiles state: (I - sum_i |psi_i><psi_i|) / 4 over the five product vectors of the Tiles UPB.

    Bennett et al., PRL 82, 5385 (1999): |0>(|0>-|1>), (|0>-|1>)|2>,
    |2>(|1>-|2>), (|1>-|2>)|0> (each over sqrt 2) and the uniform product
    (|0>+|1>+|2>)(|0>+|1>+|2>) / 3. No product vector is orthogonal to all
    five, so the state is entangled, and its partial transpose is positive.
    """
    e = np.eye(3)
    diff01, diff12 = (e[0] - e[1]) / np.sqrt(2.0), (e[1] - e[2]) / np.sqrt(2.0)
    uniform = np.ones(3) / np.sqrt(3.0)
    pairs = ((e[0], diff01), (diff01, e[2]), (e[2], diff12), (diff12, e[0]), (uniform, uniform))
    kets = np.array([np.kron(a, b) for a, b in pairs])
    return make_state((np.eye(9) - kets.T @ kets) / 4.0, DimPair.square(3), label="tiles")


def white_noised(state: BipartiteState, q: float) -> BipartiteState:
    """(1 - q) rho + q I/D, the mixture white_noise_qstar bisects over, its label naming q in percent."""
    noise = np.eye(len(state.rho)) / len(state.rho)
    return make_state((1.0 - q) * state.rho + q * noise, state.dims, f"{state.label}+{100.0 * q:g}% noise")


def white_noise_qstar(detect, rho: np.ndarray) -> float:
    """The largest q at which detect((1 - q) rho + q I/D) holds, by an 18-step bisection on [0, 0.5].

    detect maps a density matrix to a bool, and is assumed to hold below
    some q and fail above it. The result is the last detected midpoint, so
    it is at most 0.5 / 2^18 below the true crossing; 0 if nothing is detected.
    """
    noise = np.eye(len(rho)) / len(rho)
    lo, hi = 0.0, 0.5
    for _ in range(18):
        mid = (lo + hi) / 2.0
        if detect((1.0 - mid) * rho + mid * noise):
            lo = mid
        else:
            hi = mid
    return lo


def sweep_csv_one_shot(result: SweepResult) -> str:
    """The whole sweep CSV (schema v1) as one string, every row of the grid formatted at once.

    Floats by repr, labels as they are, the boundary flag as 1/0: the text
    write_csv streams slice by slice.
    """

    def cells(column: np.ndarray):
        if column.dtype == bool:
            column = column.astype(int)
        return map(repr if column.dtype.kind == "f" else str, column.tolist())

    rows = zip(*(cells(result.columns[name]) for name in COLUMN_NAMES))
    return "\n".join([CSV_HEADER, CSV_COLUMNS] + [",".join(row) for row in rows]) + "\n"
