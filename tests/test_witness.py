import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loowit
from conftest import random_state
from loowit.criteria import correlation_T, realignment_value
from loowit.linalg import PSD_TOL, DimPair, herm_eigvalues, max_abs
from loowit.loo import (
    apply_orthogonal,
    battery_mixings,
    diag_cycle,
    make_transform,
    random_orthogonal,
    standard_basis,
    transpose_transform,
)
from loowit.states import horodecki_rho, max_entangled, phi, random_product_state, random_separable_state
from loowit.witness import (
    ew_from_transform,
    expectation,
    horodecki_ew,
    horodecki_mixings,
    save_witness,
)
from oracles import basis_mixing_witness, gram_matrix, n_sq_closed, tailored_witness


class TestTransformWitness:
    def test_identity_transform_gives_phi_witness(self):
        w = ew_from_transform(np.eye(9))
        v = phi(3)
        assert max_abs(w.matrix - (np.eye(9) - np.outer(v, v.conj()))) < 1e-12
        assert abs(w.min_eig - (1.0 - 3.0)) < 1e-12
        assert not w.candidate_only

    def test_transpose_transform_never_a_witness(self):
        # I - SWAP is positive semidefinite: the transposition mixing induces
        # a completely positive map and cannot detect anything
        w = ew_from_transform(transpose_transform(3))
        assert w.min_eig >= -1e-12
        assert w.candidate_only
        eigs = herm_eigvalues(w.matrix)
        assert np.allclose(np.sort(eigs), [0.0] * 6 + [2.0] * 3, atol=1e-12)

    def test_sound_on_product_states(self, rng):
        dims = DimPair.square(3)
        rhos = np.stack([random_product_state(dims, seed=s).rho for s in range(500)])
        for _ in range(5):
            w = ew_from_transform(make_transform(random_orthogonal(9, rng)))
            values = np.einsum("bij,ji->b", rhos, w.matrix).real
            assert values.min() >= -1e-9

    def test_contraction_accepted_non_contraction_rejected(self):
        ew_from_transform(make_transform(0.7 * np.eye(9)))  # no raise
        with pytest.raises(ValueError, match="max eigenvalue"):
            ew_from_transform(make_transform(1.1 * np.eye(9)))

    def test_raw_array_validated_and_labelled(self):
        # a plain array is checked here too, and its provenance comes from is_orthogonal
        assert ew_from_transform(0.5 * np.eye(9)).provenance == "transform(contraction)"
        assert ew_from_transform(transpose_transform(3)).provenance == "transform(orthogonal)"
        with pytest.raises(ValueError, match="max eigenvalue"):
            ew_from_transform(1.1 * np.eye(9))
        # d is read off the d^2 x d^2 mixing, so a size that is no square is named
        with pytest.raises(ValueError, match=r"^transform dimension 5 is not a square$"):
            ew_from_transform(np.eye(5))
        # a witness is built from one mixing: make_transform refuses a stack
        with pytest.raises(ValueError, match=r"^transform must be square, got shape \(2, 9, 9\)$"):
            ew_from_transform(np.stack([np.eye(9)] * 2))

    def test_hermitian(self, rng):
        # exactly Hermitian at every (signed) slot permutation, Hermitian to rounding at a general mixing
        for d in range(2, 7):
            n = d * d
            permutations = [np.eye(n), transpose_transform(d), *battery_mixings(d)]
            permutations += [np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n) for _ in range(3)]
            for o in permutations:
                w = ew_from_transform(o).matrix
                assert (w == w.conj().T).all()
            for o in (random_orthogonal(n, rng), 0.5 * random_orthogonal(n, rng)):
                w = ew_from_transform(o).matrix
                assert max_abs(w - w.conj().T) <= 1e-15 * max(1.0, max_abs(w))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_basis_mixing_oracle(self, d):
        # the reduction map at |phi><phi| has the bits of mixing the observables themselves
        rng = np.random.default_rng(d)
        mixings = [np.eye(d * d), transpose_transform(d), *battery_mixings(d)]
        mixings += [random_orthogonal(d * d, rng), 0.5 * np.eye(d * d)]
        for o in mixings:
            assert np.array_equal(ew_from_transform(o).matrix, basis_mixing_witness(o, d))


class TestBestWitness:
    """Over the family's contraction mixings the witness expectation 1 - Tr(K T) is least at realignment."""

    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_best_witness_is_realignment(self, d, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        u, sv, vh = np.linalg.svd(correlation_T(state))
        best = expectation(ew_from_transform((u @ vh).T), state)
        assert abs(best - (1.0 - realignment_value(state)[0])) < 1e-12
        for _ in range(4):
            g = rng.standard_normal((d * d, d * d))
            k = g * (rng.uniform() / np.linalg.norm(g, 2))
            assert expectation(ew_from_transform(k), state) >= 1.0 - sv.sum() - 1e-12
        if d == 3:  # the paper's tailored witness is a contraction's too, so realignment decides all it detects
            a = rng.uniform()
            for rho in (state, horodecki_rho(a), horodecki_rho(rng.uniform())):
                norm = np.linalg.svd(correlation_T(rho), compute_uv=False).sum()
                assert expectation(horodecki_ew(a), rho) >= 1.0 - norm - 1e-12


class TestPermWitness:
    def test_identity_permutation(self):
        w = ew_from_transform(np.eye(9))
        assert w.phi_value == 3 - 9
        v = phi(3)
        assert max_abs(w.matrix - (np.eye(9) - np.outer(v, v.conj()))) < 1e-12
        assert not w.candidate_only

    def test_diag_cycle_confirmed(self):
        w = ew_from_transform(diag_cycle(3, 1))
        assert w.phi_value == 3 - 6
        assert not w.candidate_only
        assert w.min_eig < -1e-9  # eigensolve confirms the fixed-point certificate

    @pytest.mark.parametrize(
        "o, d, min_eig",
        [(np.eye(4)[[1, 0, 3, 2]], 2, -1.0), (np.eye(9)[np.roll(np.arange(9), 1)], 3, (1.0 - np.sqrt(5.0)) / 2.0)],
        ids=("swap-d2", "roll-d3"),
    )
    def test_fixed_point_free_permutation_is_confirmed_by_eigensolve(self, o, d, min_eig):
        # phi_value >= 0 certifies nothing, yet the eigensolve finds a negative eigenvalue:
        # the eigensolve alone decides, and the operator is sound on product states
        w = ew_from_transform(o)
        assert w.phi_value == d - np.trace(o) >= 0
        assert abs(w.min_eig - min_eig) < 1e-12
        assert w.candidate_only == (w.min_eig >= -1e-9 * max(1.0, max_abs(w.matrix)))
        assert not w.candidate_only
        rhos = np.stack([random_product_state(DimPair.square(d), seed=s).rho for s in range(500)])
        assert np.einsum("bij,ji->b", rhos, w.matrix).real.min() >= -1e-9

    def test_enough_fixed_points_always_confirms(self, rng):
        # any permutation with >= d+1 fixed slots certifies a negative eigenvalue
        d = 3
        for _ in range(20):
            images = np.arange(9)
            moved = rng.choice(9, size=int(rng.integers(2, 5)), replace=False)
            images[moved] = moved[np.argsort(rng.standard_normal(len(moved)))]
            o = np.eye(9)[images]
            if np.trace(o) < d + 1:
                continue
            w = ew_from_transform(o)
            assert not w.candidate_only
            assert w.min_eig < -1e-9

    @given(st.integers(2, 4).flatmap(lambda d: st.permutations(range(d * d))))
    def test_phi_value_is_dense_expectation(self, images):
        # one constructor: a permutation mixing is named by its fixed slots, with d read off its size
        d = math.isqrt(len(images))
        o = np.eye(d * d)[images]
        w = ew_from_transform(o)
        v = phi(d)
        assert w.dims == DimPair.square(d)
        assert w.provenance == f"permutation(fixed_points={int(np.trace(o))})"
        assert w.phi_value == d - np.trace(o)
        assert abs(w.phi_value - (v.conj() @ w.matrix @ v).real) < 1e-12
        assert w.candidate_only == (w.min_eig >= -1e-9 * max(1.0, max_abs(w.matrix)))
        if np.trace(o) >= d + 1:  # the fixed-point rule: phi_value < 0 implies a confirmed witness
            assert not w.candidate_only

    @pytest.mark.parametrize(
        "o, provenance",
        [
            (0.5 * np.eye(9), "transform(contraction)"),
            (random_orthogonal(9, np.random.default_rng(3)), "transform(orthogonal)"),  # Haar orthogonal, not 0/1
            (diag_cycle(3, 1) * (np.arange(9) < 8)[:, None], "transform(contraction)"),  # 0/1, last row zero
        ],
        ids=["half-identity", "haar-orthogonal", "zero-row"],
    )
    def test_non_permutation_keeps_transform_provenance(self, o, provenance):
        # only an orthogonal 0/1 mixing is a permutation; a 0/1 contraction with a zero row is not one,
        # and each still has its phi value d - Tr(o)
        w = ew_from_transform(o)
        assert w.provenance == provenance
        assert w.phi_value == 3 - np.trace(o)

    @given(
        st.integers(2, 4),
        st.sampled_from(("haar", "transpose", "scaled", "zero-row")),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_phi_value_certifies_at_every_mixing(self, d, kind, s, seed):
        # <phi|W|phi> = d - Tr(o) at every orthogonal or contraction mixing, and lambda_min <= <phi|W|phi> / d,
        # so a phi value below -d times is_psd's tolerance confirms the witness (the fixed-point rule, generalised)
        rng = np.random.default_rng(seed)
        n = d * d
        images = np.arange(n)
        moved = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        images[moved] = rng.permutation(moved)
        o = {
            "haar": lambda: random_orthogonal(n, rng),
            "transpose": lambda: transpose_transform(d),
            "scaled": lambda: s * (np.eye(n)[images] if rng.integers(2) else random_orthogonal(n, rng)),
            "zero-row": lambda: np.eye(n)[images] * (np.arange(n) != rng.integers(n))[:, None],
        }[kind]()
        w = ew_from_transform(o)
        v = phi(d)
        scale = max(1.0, max_abs(w.matrix))
        assert abs(w.phi_value - (v.conj() @ w.matrix @ v).real) <= 1e-12 * scale
        if w.phi_value < -d * PSD_TOL * scale:
            assert not w.candidate_only


class TestHorodeckiWitness:
    @pytest.mark.parametrize("a", np.arange(0.1, 0.95, 0.1))
    def test_bases_orthonormal(self, a):
        for o in horodecki_mixings(float(a)):
            assert max_abs(gram_matrix(apply_orthogonal(standard_basis(3), o)) - np.eye(9)) < 1e-12

    @pytest.mark.parametrize("a", [0.0, *np.arange(0.05, 1.0, 0.05), 1.0])
    def test_matches_tailored_set_oracle(self, a):
        matrix, *_ = tailored_witness(float(a))
        assert max_abs(horodecki_ew(float(a)).matrix - matrix) < 1e-12

    def test_a3_normalization_closed_form(self):
        a = 0.35
        num = (1.0 + 2.0 * a) ** 2 + 3.0 * (1.0 - a * a)
        assert abs(num / (2.0 + a) ** 2 - 1.0) < 1e-12

    def test_half_point_values(self):
        _, coeffs, n_vec, _ = tailored_witness(0.5)
        assert abs(np.dot(n_vec, n_vec) - 0.002) < 1e-15
        assert abs(np.trace(coeffs) - 1.0) < 1e-9
        value = expectation(horodecki_ew(0.5), horodecki_rho(0.5))
        assert abs(value - (1.0 - np.sqrt(1.002))) < 1e-12
        assert abs(value + 9.995e-4) < 1e-6

    @pytest.mark.parametrize("a", np.arange(0.05, 1.0, 0.05))
    def test_detection_identity_on_grid(self, a):
        a = float(a)
        _, _, n_vec, _ = tailored_witness(a)
        assert abs(np.dot(n_vec, n_vec) - n_sq_closed(a)) < 1e-12
        w = horodecki_ew(a)
        value = expectation(w, horodecki_rho(a))
        assert abs(value - (1.0 - np.sqrt(1.0 + n_sq_closed(a)))) < 1e-9
        assert value < 0.0
        assert not w.candidate_only

    def test_mixing_is_extremal_contraction(self):
        _, _, n_vec, mixing = tailored_witness(0.5)
        eigs = herm_eigvalues(mixing.T @ mixing)
        low = 1.0 / (1.0 + np.dot(n_vec, n_vec))
        assert eigs[0] >= low - 1e-9
        assert abs(eigs[-1] - 1.0) < 1e-9

    def test_endpoints_degenerate(self):
        for a in (0.0, 1.0):
            _, _, n_vec, mixing = tailored_witness(a)
            assert max_abs(n_vec) < 1e-12
            assert max_abs(mixing - np.eye(9)) < 1e-12
            assert abs(expectation(horodecki_ew(a), horodecki_rho(a))) < 1e-9

    def test_sound_on_separable_samples(self):
        w = horodecki_ew(0.4)
        for seed in range(20):
            state = random_separable_state(DimPair.square(3), k=4, seed=seed)
            assert expectation(w, state) >= -1e-9

    def test_hermitian(self):
        for a in np.linspace(0.0, 1.0, 11):
            w = horodecki_ew(a).matrix
            assert max_abs(w - w.conj().T) <= 1e-15 * max(1.0, max_abs(w))


class TestImportOrder:
    @pytest.mark.parametrize("module", ["loowit.witness", "loowit.criteria"])
    def test_module_imports_alone(self, module):
        # witness imports criteria, never the reverse; either may be the first one imported
        code = f"import {module}\nfrom loowit.witness import horodecki_ew\nassert horodecki_ew(0.5).min_eig < 0"
        src = str(Path(loowit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestExpectation:
    def test_identity_witness_on_max_entangled(self):
        w = ew_from_transform(np.eye(9))
        assert abs(expectation(w, max_entangled(3)) - (1.0 - 3.0)) < 1e-12

    def test_dims_mismatch(self):
        w = ew_from_transform(np.eye(4))
        with pytest.raises(ValueError, match=r"^dimension mismatch: witness 2x2 vs state 3x3$"):
            expectation(w, max_entangled(3))

    def test_non_real_residue_named(self):
        # W + 0.5i I is not Hermitian: Tr(rho W) gains 0.5i on every state
        w = ew_from_transform(np.eye(4))
        skewed = replace(w, matrix=w.matrix + 0.5j * np.eye(4))
        with pytest.raises(ValueError, match=r"^expectation has non-real residue 5\.000e-01$"):
            expectation(skewed, max_entangled(2))


class TestSerialization:
    def test_export_schema(self, tmp_path):
        w = horodecki_ew(0.5)
        path = tmp_path / "witness.json"
        save_witness(w, path)
        payload = json.loads(path.read_text())
        assert payload["provenance"] == "horodecki(a=0.5)"
        assert payload["dim_a"] == payload["dim_b"] == 3
        matrix = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
        assert max_abs(matrix - w.matrix) <= 1e-15
