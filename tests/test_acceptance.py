"""Acceptance suite: one test per release criterion, each printing a summary line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import time

import numpy as np

from conftest import random_state
from loowit.criteria import battery, x_search
from loowit.linalg import DimPair, is_psd, max_abs, realign, trace_norm
from loowit.loo import (
    apply_orthogonal,
    battery_mixings,
    diag_cycle,
    make_transform,
    random_orthogonal,
    random_unitary,
    standard_basis,
)
from loowit.states import (
    family_special,
    family_rho,
    horodecki_rho,
    max_entangled,
    phi,
    random_product_state,
    random_separable_state,
    werner2,
)
from loowit.sweep import run_sweep
from loowit.witness import ew_from_transform, expectation, horodecki_ew, horodecki_mixings
from oracles import gram_matrix, n_sq_closed, phi_pairing, swap_operator, uniform_pairing, x_matrix, x_reduction_form

A_GRID = np.arange(0.05, 0.951, 0.05)


def battery_of(state):
    """(ppt_ok, ppt_min, realignment, map_ok, map_min) as check computes them, over battery_mixings(d_A)."""
    return battery(state.rho, state.dims, battery_mixings(state.dims.d_a))


def check(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_witness_value_identity():
    start = time.perf_counter()
    worst = 0.0
    all_negative = True
    for a in A_GRID:
        a = float(a)
        witness = horodecki_ew(a)
        value = expectation(witness, horodecki_rho(a))
        closed = 1.0 - np.sqrt(1.0 + n_sq_closed(a))
        worst = max(worst, abs(value - closed))
        all_negative = all_negative and value < 0.0
    elapsed = time.perf_counter() - start
    check(
        1,
        "witness expectation equals 1 - sqrt(1 + n^2) on the parameter grid",
        worst <= 1e-9 and all_negative and elapsed < 1.0,
        f"max dev {worst:.2e}, negative on open interval: {all_negative}, {elapsed:.2f}s",
    )


def test_criterion_2_bound_entanglement_of_target_state():
    worst_pt = np.inf
    detected = True
    for a in A_GRID:
        a = float(a)
        state = horodecki_rho(a)
        pt_min = battery_of(state)[1]
        worst_pt = min(worst_pt, pt_min)
        witness = horodecki_ew(a)
        detected = detected and expectation(witness, state) < 0.0
    check(
        2,
        "target state stays PPT on the grid while the witness detects it",
        worst_pt >= -1e-9 and detected,
        f"min PT eigenvalue {worst_pt:.2e}",
    )


def test_criterion_3_witness_soundness_on_product_states():
    start = time.perf_counter()
    dims = DimPair.square(3)
    rhos = np.stack([random_product_state(dims, seed=s).rho for s in range(10_000)])
    rng = np.random.default_rng(424242)
    witnesses = [ew_from_transform(make_transform(random_orthogonal(9, rng))) for _ in range(20)]
    witnesses += [horodecki_ew(a) for a in (0.1, 0.5, 0.9)]
    witnesses += [ew_from_transform(o) for o in (np.eye(9), diag_cycle(3, 1), diag_cycle(3, 2))]
    assert all(w.phi_value < 0 for w in witnesses[-3:])
    worst = np.inf
    for witness in witnesses:
        values = np.einsum("bij,ji->b", rhos, witness.matrix).real
        worst = min(worst, float(values.min()))
    elapsed = time.perf_counter() - start
    check(
        3,
        "10^4 product states x (20 random orthogonal + explicit + permutation) witnesses stay nonnegative",
        worst >= -1e-9 and elapsed < 30.0,
        f"min expectation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_permutation_map_detection():
    # battery_mixings(3) is the identity, then the cycles l = 1, 2
    ppt_bound, _, _, map_ok, map_min = battery_of(family_rho(family_special(3, 0.25, 0.65)))
    ok_bound = ppt_bound and not map_ok[1]

    ppt_clean, _, _, map_ok_clean, _ = battery_of(family_rho(family_special(3, 0.2, 0.5)))
    ok_clean = ppt_clean and map_ok_clean[1:].all()

    ok_free = not battery_of(family_rho(family_special(3, 0.3, 0.65)))[0]
    check(
        4,
        "family verdicts: (0.25,0.65) bound-detected, (0.2,0.5) clean, (0.3,0.65) PPT-violating",
        ok_bound and ok_clean and ok_free,
        f"bound perm eig {map_min[1]:.3e}",
    )


def test_criterion_5_phase_diagram_reproduction():
    start = time.perf_counter()
    result = run_sweep(d=3, resolution=100)
    elapsed = time.perf_counter() - start
    check(
        5,
        "100x100 sweep: analytic and numeric labels agree off-boundary, bound region nonempty",
        result.agreement == 1.0 and result.n_bound > 0 and elapsed < 120.0,
        f"agreement {100 * result.agreement:.2f}% on {result.n_compared} pts, "
        f"{result.n_bound} bound pts, {elapsed:.1f}s",
    )


def test_criterion_6_realignment_equivalence():
    rng = np.random.default_rng(6060)
    states = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        states.append(random_state(rng, d, f"rand{i}"))
    states += [horodecki_rho(float(a)) for a in A_GRID]
    states += [family_rho(family_special(3, 0.25, 0.65)), family_rho(family_special(3, 0.2, 0.5))]
    states += [max_entangled(2), max_entangled(3)]
    states += [werner2(float(p)) for p in np.arange(0.0, 1.01, 0.1)]
    worst = 0.0
    for state in states:
        value = battery_of(state)[2]
        direct = trace_norm(realign(state.rho, state.dims))
        worst = max(worst, abs(value - direct))
    werner_dev = max(
        abs(battery_of(werner2(float(p)))[2] - (1.0 + 3.0 * p) / 2.0)
        for p in np.arange(0.0, 1.01, 0.1)
    )
    check(
        6,
        "correlation-form value equals realigned-matrix trace norm; Werner closed form holds",
        worst <= 1e-9 and werner_dev <= 1e-9,
        f"max route dev {worst:.2e}, max Werner dev {werner_dev:.2e}",
    )


def test_criterion_7_pairing_and_contraction_identities():
    rng = np.random.default_rng(7070)
    worst_pairing = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        state = random_state(rng, d)
        transform = make_transform(random_orthogonal(d * d, rng))
        lhs, rhs = phi_pairing(state, transform)
        worst_pairing = max(worst_pairing, abs(lhs - rhs))

    worst_contraction = 0.0
    worst_uniform = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        state = random_state(rng, d)
        transform = make_transform(random_orthogonal(d * d, rng))
        u = random_unitary(d, rng)
        x = x_matrix(state, transform, u)
        worst_contraction = max(worst_contraction, max_abs(x - x_reduction_form(state, transform, u)))
        s = np.ones(d)
        uniform_dev = abs(float(np.real(s @ x @ s)) - uniform_pairing(state, transform, u))
        worst_uniform = max(worst_uniform, uniform_dev)
    check(
        7,
        "pairing identity, contraction identity, and transposed uniform-vector identity hold",
        worst_pairing <= 1e-9 and worst_contraction <= 1e-9 and worst_uniform <= 1e-9,
        f"devs {worst_pairing:.2e} / {worst_contraction:.2e} / {worst_uniform:.2e}",
    )


def test_criterion_8_correlation_matrix_positivity_and_search():
    rng = np.random.default_rng(8080)
    worst = np.inf
    for i in range(200):
        d = 2 if i < 100 else 3
        state = random_separable_state(DimPair.square(d), k=8, seed=i)
        for _ in range(20):
            transform = make_transform(random_orthogonal(d * d, rng))
            u = random_unitary(d, rng)
            x = x_matrix(state, transform, u)
            worst = min(worst, float(is_psd(x)[1]))
    detected, blind = (min(x_search(werner2(p), budget=200, seed=123)[0]) for p in (0.5, 0.25))
    ppt_ok = battery_of(werner2(0.25))[0]
    check(
        8,
        "X >= 0 on 200 separable states x 20 (u, O); search separates Werner p=0.5 from p=0.25",
        worst >= -1e-9
        and detected < -1e-6
        and blind >= -1e-6
        and ppt_ok,
        f"min separable eig {worst:.2e}, search eigs {detected:.2e} / {blind:.2e}",
    )


def test_criterion_9_observable_set_algebra():
    worst_gram = 0.0
    for d in range(2, 9):
        worst_gram = max(worst_gram, max_abs(gram_matrix(standard_basis(d)) - np.eye(d * d)))

    worst_pair = 0.0
    for d in (2, 3, 4):
        mats = standard_basis(d)
        v = phi(d)
        phi_sum = np.einsum("uab,ucd->acbd", mats, mats.transpose(0, 2, 1)).reshape(d * d, d * d)
        worst_pair = max(worst_pair, max_abs(phi_sum - np.outer(v, v.conj())))
        swap_sum = np.einsum("uab,ucd->acbd", mats, mats).reshape(d * d, d * d)
        worst_pair = max(worst_pair, max_abs(swap_sum - swap_operator(d)))

    worst_tailored = 0.0
    for a in np.arange(0.1, 0.951, 0.1):
        for o in horodecki_mixings(float(a)):
            tailored = apply_orthogonal(standard_basis(3), o)
            worst_tailored = max(worst_tailored, max_abs(gram_matrix(tailored) - np.eye(9)))
    check(
        9,
        "Gram identities (d=2..8), pair-sum identities (d=2,3,4), tailored bases on the a-grid",
        worst_gram <= 1e-12 and worst_pair <= 1e-12 and worst_tailored <= 1e-12,
        f"devs {worst_gram:.2e} / {worst_pair:.2e} / {worst_tailored:.2e}",
    )
