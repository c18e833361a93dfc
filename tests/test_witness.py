import importlib.util
import json
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
from loowit.linalg import DimPair, herm_eigvalues, max_abs
from loowit.loo import (
    apply_orthogonal,
    cycle_mixings,
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
    perm_ew,
    save_witness,
)
from oracles import basis_mixing_witness, gram_matrix, n_sq_closed, tailored_witness


class TestTransformWitness:
    def test_identity_transform_gives_phi_witness(self):
        w = ew_from_transform(np.eye(9), 3)
        v = phi(3)
        assert max_abs(w.matrix - (np.eye(9) - np.outer(v, v.conj()))) < 1e-12
        assert abs(w.min_eig - (1.0 - 3.0)) < 1e-12
        assert not w.candidate_only

    def test_transpose_transform_never_a_witness(self):
        # I - SWAP is positive semidefinite: the transposition mixing induces
        # a completely positive map and cannot detect anything
        w = ew_from_transform(transpose_transform(3), 3)
        assert w.min_eig >= -1e-12
        assert w.candidate_only
        eigs = herm_eigvalues(w.matrix)
        assert np.allclose(np.sort(eigs), [0.0] * 6 + [2.0] * 3, atol=1e-12)

    def test_sound_on_product_states(self, rng):
        dims = DimPair.square(3)
        rhos = np.stack([random_product_state(dims, seed=s).rho for s in range(500)])
        for _ in range(5):
            w = ew_from_transform(make_transform(random_orthogonal(9, rng)), 3)
            values = np.einsum("bij,ji->b", rhos, w.matrix).real
            assert values.min() >= -1e-9

    def test_contraction_accepted_non_contraction_rejected(self):
        ew_from_transform(make_transform(0.7 * np.eye(9)), 3)  # no raise
        with pytest.raises(ValueError, match="max eigenvalue"):
            ew_from_transform(make_transform(1.1 * np.eye(9)), 3)

    def test_raw_array_validated_and_labelled(self):
        # a plain array is checked here too, and its provenance comes from is_orthogonal
        assert ew_from_transform(0.5 * np.eye(9), 3).provenance == "transform(contraction)"
        assert ew_from_transform(transpose_transform(3), 3).provenance == "transform(orthogonal)"
        with pytest.raises(ValueError, match="max eigenvalue"):
            ew_from_transform(1.1 * np.eye(9), 3)
        with pytest.raises(ValueError, match="does not match basis size"):
            ew_from_transform(np.eye(4), 3)

    def test_hermitian(self, rng):
        w = ew_from_transform(make_transform(random_orthogonal(4, rng)), 2)
        assert max_abs(w.matrix - w.matrix.conj().T) <= 1e-10

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_basis_mixing_oracle(self, d):
        # the reduction map at |phi><phi| has the bits of mixing the observables themselves
        rng = np.random.default_rng(d)
        mixings = [np.eye(d * d), transpose_transform(d), *cycle_mixings(d)]
        mixings += [random_orthogonal(d * d, rng), 0.5 * np.eye(d * d)]
        for o in mixings:
            assert np.array_equal(ew_from_transform(o, d).matrix, basis_mixing_witness(o, d))


class TestBestWitness:
    """Over the family's contraction mixings the witness expectation 1 - Tr(K T) is least at realignment."""

    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_best_witness_is_realignment(self, d, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, d)
        u, sv, vh = np.linalg.svd(correlation_T(state))
        best = expectation(ew_from_transform((u @ vh).T, d), state)
        assert abs(best - (1.0 - realignment_value(state)[0])) < 1e-12
        for _ in range(4):
            g = rng.standard_normal((d * d, d * d))
            k = g * (rng.uniform() / np.linalg.norm(g, 2))
            assert expectation(ew_from_transform(k, d), state) >= 1.0 - sv.sum() - 1e-12


class TestPermWitness:
    def test_identity_permutation(self):
        w = perm_ew(np.eye(9), 3)
        assert w.phi_value == 3 - 9
        v = phi(3)
        assert max_abs(w.matrix - (np.eye(9) - np.outer(v, v.conj()))) < 1e-12
        assert not w.candidate_only

    def test_diag_cycle_confirmed(self):
        w = perm_ew(diag_cycle(3, 1), 3)
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
        w = perm_ew(o, d)
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
            w = perm_ew(o, d)
            assert not w.candidate_only
            assert w.min_eig < -1e-9

    @given(st.integers(2, 4).flatmap(lambda d: st.permutations(range(d * d))))
    def test_phi_value_is_dense_expectation(self, images):
        d = int(round(np.sqrt(len(images))))
        o = np.eye(d * d)[images]
        w = perm_ew(o, d)
        v = phi(d)
        assert w.phi_value == d - np.trace(o)
        assert abs(w.phi_value - (v.conj() @ w.matrix @ v).real) < 1e-12
        assert w.candidate_only == (w.min_eig >= -1e-9 * max(1.0, max_abs(w.matrix)))
        if np.trace(o) >= d + 1:  # the fixed-point rule: phi_value < 0 implies a confirmed witness
            assert not w.candidate_only

    @pytest.mark.parametrize(
        "o",
        [
            0.5 * np.eye(9),  # a contraction
            random_orthogonal(9, np.random.default_rng(3)),  # Haar orthogonal, not 0/1
            np.eye(9)[[0, 0, 2, 3, 4, 5, 6, 7, 8]],  # 0/1 with a repeated row
        ],
        ids=["half-identity", "haar-orthogonal", "repeated-row"],
    )
    def test_rejects_non_permutation(self, o):
        with pytest.raises(ValueError, match="not a permutation matrix"):
            perm_ew(o, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=r"shape \(9, 9\), expected"):
            perm_ew(diag_cycle(3, 1), 2)


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
        w = horodecki_ew(0.25)
        assert max_abs(w.matrix - w.matrix.conj().T) <= 1e-10


def load_scan_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "witness_scan.py"
    spec = importlib.util.spec_from_file_location("witness_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScanScript:
    def test_closed_form_is_the_papers(self):
        scan = load_scan_script()
        for a in (0.05, 0.5, 0.95):
            assert scan.closed_form(a) == 1.0 - np.sqrt(1.0 + n_sq_closed(a))

    def test_scan_passes(self, capsys):
        assert load_scan_script().main(["--points", "3"]) == 0
        assert capsys.readouterr().out.count(" ok\n") == 3

    @pytest.mark.parametrize("value", (0.0, -0.5), ids=("nonnegative", "off-closed-form"))
    def test_scan_fails_on_a_wrong_witness_value(self, monkeypatch, capsys, value):
        scan = load_scan_script()
        monkeypatch.setattr(scan, "expectation", lambda witness, state: value)
        assert scan.main(["--points", "3"]) == 1
        out, err = capsys.readouterr()
        assert out.count(" FAIL\n") == 3 and "3 of 3 points failed" in err

    def test_scan_fails_on_a_state_that_is_not_ppt(self, monkeypatch, capsys):
        scan = load_scan_script()
        battery = scan.battery
        monkeypatch.setattr(scan, "battery", lambda *args: (False, *battery(*args)[1:]))
        assert scan.main(["--points", "3"]) == 1
        assert capsys.readouterr().out.count(" FAIL\n") == 3


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
        w = ew_from_transform(np.eye(9), 3)
        assert abs(expectation(w, max_entangled(3)) - (1.0 - 3.0)) < 1e-12

    def test_dims_mismatch(self):
        w = ew_from_transform(np.eye(4), 2)
        with pytest.raises(ValueError, match=r"^dimension mismatch: witness 2x2 vs state 3x3$"):
            expectation(w, max_entangled(3))

    def test_non_real_residue_named(self):
        # W + 0.5i I is not Hermitian: Tr(rho W) gains 0.5i on every state
        w = ew_from_transform(np.eye(4), 2)
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
