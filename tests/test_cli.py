import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loowit import cli, criteria, states, sweep
from loowit.linalg import DimPair
from loowit.states import max_entangled, phi, random_separable_state, save_matrix, save_state
from loowit.sweep import CSV_HEADER
from conftest import near_float_limit_rho, overflowing_entry_rho
from oracles import n_sq_closed

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def search_report(out: str) -> dict:
    """The x_search report of check's JSON output."""
    return next(r for r in json.loads(out)["reports"] if r["criterion"] == "x_search")


class TestCheck:
    def test_horodecki_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--builtin", "horodecki:a=0.5", "--json", "--no-search"
        )
        assert code == cli.EXIT_ENTANGLED
        payload = json.loads(out)
        assert payload["overall"] == "entangled"
        witness_reports = [r for r in payload["reports"] if r["criterion"] == "witness"]
        assert len(witness_reports) == 1
        assert abs(witness_reports[0]["scalar"] - (1.0 - np.sqrt(1.002))) < 1e-9
        ppt = next(r for r in payload["reports"] if r["criterion"] == "ppt")
        assert ppt["verdict"] == "pass"

    def test_family_bound_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--builtin", "family:d=3,a1=0.25,a2=0.65", "--json", "--no-search"
        )
        assert code == cli.EXIT_ENTANGLED
        payload = json.loads(out)
        assert payload["overall"] == "entangled"
        assert next(r for r in payload["reports"] if r["criterion"] == "ppt")["verdict"] == "pass"
        cycles = [
            r
            for r in payload["reports"]
            if r["criterion"] == "o_reduction" and r["params"].get("transform") == "cycle(l=1)"
        ]
        assert cycles[0]["verdict"] == "violated"

    def test_separable_file_exits_zero(self, capsys, tmp_path):
        state = random_separable_state(DimPair.square(3), k=5, seed=21)
        path = tmp_path / "sep.json"
        save_state(state, path)
        code, out, _ = run_cli(
            capsys, "check", "--file", str(path), "--budget", "10", "--seed", "4"
        )
        assert code == cli.EXIT_OK
        assert "no entanglement detected" in out

    def test_non_square_file_gets_ppt_alone(self, capsys, tmp_path):
        v = np.zeros(6)
        v[[0, 4]] = 1.0 / np.sqrt(2.0)  # (|00> + |11>) / sqrt(2) in 2 x 3
        path = tmp_path / "bell23.json"
        save_matrix(path, DimPair(2, 3), np.outer(v, v))
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--json")
        assert code == cli.EXIT_ENTANGLED
        reports = json.loads(out)["reports"]
        assert [(r["criterion"], r["verdict"]) for r in reports] == [("ppt", "violated")]

    def test_malformed_file_errors(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "check", "--file", str(path))
        assert code == cli.EXIT_ERROR
        assert "error" in err

    @pytest.mark.parametrize("command", (("check", "--file"), ("witness", "perm:cycle,d=3,l=1", "--state")))
    @pytest.mark.parametrize(
        "field, entry, kind",
        [("re", [0.0], "matrix"), ("im", ["a"] * 9, "matrix"), ("re", [10**400] * 9, "matrix"), (None, None, "state")],
        ids=("ragged", "non-numeric", "int-overflow", "non-utf8"),
    )
    def test_malformed_entries_name_the_file(self, capsys, tmp_path, command, field, entry, kind):
        path = tmp_path / "bad.json"
        save_state(max_entangled(3), path)
        if field is None:
            path.write_bytes(b"\xff" + path.read_bytes())
        else:
            payload = json.loads(path.read_text())
            payload[field][0] = entry
            path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, *command, str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith(f"error: malformed {kind} file {path}: ")

    @pytest.mark.parametrize(
        "field, convert, kind",
        [
            ("re", lambda rows: [[str(x) for x in row] for row in rows], "str"),
            ("im", lambda rows: [[bool(x) for x in row] for row in rows], "bool"),
            # beside an integer past int64, numpy types the row as objects, not as strings
            ("re", lambda rows: [["0.25", 2**70] + rows[0][2:]] + rows[1:], "str"),
            ("im", lambda rows: [[False, 2**70] + rows[0][2:]] + rows[1:], "bool"),
        ],
        ids=("re-str", "im-bool", "re-str-object", "im-bool-object"),
    )
    def test_non_number_entries_named(self, capsys, tmp_path, field, convert, kind):
        # numpy's float conversion reads "0.25" and false as numbers: such a file used to pass as a valid state
        path = tmp_path / "typed.json"
        save_state(max_entangled(3), path)
        payload = json.loads(path.read_text())
        payload[field] = convert(payload[field])
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "check", "--file", str(path), "--no-search")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: malformed matrix file {path}: {field} entries must be numbers, not {kind}\n"

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (("phi:d=3", "--budget", "100000000000"), criteria, "x_search"),
            (("product:d=100000", "--no-search"), states, "random_product_state"),
        ],
        ids=("search", "state"),
    )
    def test_out_of_memory_named(self, capsys, monkeypatch, argv, module, name):
        # the callee raises as numpy does on an allocation the host refuses, so nothing is allocated here
        message = "Unable to allocate 58.9 TiB for an array with shape (100000000000, 9, 9) and data type float64"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, name, no_memory)
        code, out, err = run_cli(capsys, "check", "--builtin", *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: out of memory: {message}\n"

    def test_non_finite_file_named(self, capsys, tmp_path):
        rho = np.eye(9) / 9.0
        rho[0, 1] = np.nan
        path = tmp_path / "nan.json"
        save_matrix(path, DimPair.square(3), rho)
        code, _, err = run_cli(capsys, "check", "--file", str(path))
        assert code == cli.EXIT_ERROR
        assert "state has non-finite entries" in err

    def test_state_near_the_float_limit_named(self, capsys, tmp_path):
        # rho + rho^dagger overflows, which used to surface LAPACK's "did not converge";
        # an entry 1.5e308 (1 + 1j) is finite, but its magnitude is not
        cases = (
            (3, near_float_limit_rho(), "violates positivity: min eigenvalue = -1.500e+308"),
            (2, overflowing_entry_rho(), "has an entry whose magnitude overflows: max(|Re|, |Im|) = 1.500e+308"),
        )
        for d, rho, message in cases:
            path = tmp_path / "huge.json"
            save_matrix(path, DimPair.square(d), rho)
            code, out, err = run_cli(capsys, "check", "--file", str(path))
            assert code == cli.EXIT_ERROR
            assert out == ""
            assert err == f"error: state {message}\n"

    @pytest.mark.parametrize(
        "key, value, shown",
        [("dim_a", 3.7, "3.7"), ("dim_a", 3.0, "3.0"), ("dim_b", "3", '"3"'), ("dim_a", True, "true")],
    )
    def test_non_integer_dimension_named(self, capsys, tmp_path, key, value, shown):
        # a float, string or bool dimension must not be truncated by int() into a valid-looking state
        path = tmp_path / "dims.json"
        save_state(max_entangled(3), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "check", "--file", str(path), "--no-search")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: malformed matrix file {path}: {key} must be an integer, got {shown}\n"

    @pytest.mark.parametrize("d", (3, 6))
    def test_hermiticity_defect_within_tolerance(self, capsys, tmp_path, d):
        # a 9e-11 defect passes the state check; I x rho_B minus the mixed state doubles it,
        # and the reduction operators must still be decomposed, not rejected
        v = phi(d).real
        n = d * d
        rho = np.eye(n) / (2 * n) + np.outer(v, v) / (2 * d) + 9e-11j * np.triu(np.ones((n, n)), 1)
        path = tmp_path / "noisy.json"
        save_matrix(path, DimPair.square(d), rho)
        code, out, err = run_cli(capsys, "check", "--file", str(path), "--json", "--budget", "2")
        assert err == ""
        assert code == cli.EXIT_ENTANGLED
        payload = json.loads(out)
        assert payload["overall"] == "entangled"
        criteria = [r["criterion"] for r in payload["reports"]]
        assert criteria == ["ppt", "realignment"] + ["o_reduction"] * (d + 1) + ["x_search"]

    @pytest.mark.parametrize(
        "spec",
        ("horodecki:a=0.123457", "horodecki:a=0.5", "family:d=3,a1=0.25,a2=0.65", "phi:d=6", "werner:p=0.5"),
    )
    def test_verdict_column_aligned(self, capsys, spec):
        # the tag column fits the longest tag, a witness's included
        _, out, _ = run_cli(capsys, "check", "--builtin", spec, "--budget", "2")
        rows = [line for line in out.splitlines() if line.startswith("  ")]
        assert len(rows) > 3
        starts = {len(line) - len(line[2:].split(" ", 1)[1].lstrip(" ")) for line in rows}
        assert len(starts) == 1, out

    @pytest.mark.parametrize("spec", ("family:d=2,a1=0.3,a2=0.7", "family:d=2,a1=0.3,a2=0.3"))
    def test_family_needs_d3(self, capsys, spec):
        # at d = 2, a2 and a_d are one weight: no point of such a spec is on the slice
        code, out, err = run_cli(capsys, "check", "--builtin", spec, "--no-search")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: the special slice needs d >= 3, got 2\n"

    def test_zero_budget_named_without_search(self, capsys):
        code, out, err = run_cli(capsys, "check", "--builtin", "phi:d=2", "--budget", "0", "--no-search")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: budget must be an integer >= 1, got 0\n"

    def test_missing_input_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check"])
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("usage: loowit check")
        assert captured.err.endswith("error: one of the arguments --builtin --file is required\n")

    def test_both_inputs_error(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_state(max_entangled(3), path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--builtin", "phi:d=3", "--file", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("usage: loowit check")
        assert captured.err.endswith("error: argument --file: not allowed with argument --builtin\n")

    def test_deterministic_output(self, capsys):
        args = ("check", "--builtin", "werner:p=0.5", "--json", "--budget", "15", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("argv", [("family:d=3,a1=0.25,a2=0.65",), ("phi:d=6", "--budget", "4")])
    def test_search_detects(self, capsys, argv):
        # the search alone detects the bound-entangled family point, and phi at d = 6
        code, out, _ = run_cli(capsys, "check", "--builtin", *argv, "--json")
        assert code == cli.EXIT_ENTANGLED
        assert search_report(out)["verdict"] == "violated"

    def test_larger_budget_ends_no_higher(self, capsys):
        # restarts 0..15 start from the same pairs at any budget, so budget 32 ends at or below the default 16
        args = ("check", "--builtin", "horodecki:a=0.5", "--json", "--seed", "3")

        def search_scalar(*budget):
            return search_report(run_cli(capsys, *args, *budget)[1])["scalar"]

        assert search_scalar("--budget", "32") <= search_scalar()


class TestWitnessCommand:
    def test_horodecki_expectation(self, capsys):
        for a in (0.3, 0.5):  # the tailored witness detects the PPT-entangled state it is built for
            argv = ("witness", f"horodecki:a={a}", "--state", f"builtin:horodecki:a={a}", "--json")
            code, out, _ = run_cli(capsys, *argv)
            assert code == cli.EXIT_OK
            payload = json.loads(out)
            expected = 1.0 - np.sqrt(1.0 + n_sq_closed(a))
            assert expected < 0.0
            assert abs(payload["expectation"] - expected) < 1e-9
            assert payload["confirmed_witness"] is True

    def test_cycle_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "perm:cycle,d=3,l=1", "--json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["confirmed_witness"] is True
        assert "fixed_points=6" in payload["provenance"]
        assert payload["phi_expectation"] == -3.0

    def test_generic_non_contraction_rejected(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": (1.5 * np.eye(9)).tolist()}))
        code, _, err = run_cli(capsys, "witness", "generic", "--transform", str(path))
        assert code == cli.EXIT_ERROR
        assert "2.25" in err

    def test_generic_overflowing_transform_named(self, capsys, tmp_path):
        # 1e200 I: O O^T overflows, which used to surface LAPACK's "did not converge"
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": (1e200 * np.eye(4)).tolist()}))
        code, out, err = run_cli(capsys, "witness", "generic", "--transform", str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith("error: transform is neither orthogonal nor a contraction: max |O_ij| is 1e+200")

    def test_generic_non_finite_transform_named(self, capsys, tmp_path):
        matrix = np.eye(9)
        matrix[2, 2] = np.nan
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": matrix.tolist()}))
        code, _, err = run_cli(capsys, "witness", "generic", "--transform", str(path))
        assert code == cli.EXIT_ERROR
        assert "transform matrix has non-finite entries" in err

    @pytest.mark.parametrize(
        "text",
        (
            b"{broken",
            b'{"matrix": [[1, 0], [0]]}',
            b'\xff{"matrix": [[1]]}',
            json.dumps({"matrix": np.eye(4).astype(str).tolist()}).encode(),  # numpy's float conversion reads "1.0"
        ),
        ids=("json", "ragged", "non-utf8", "strings"),
    )
    def test_generic_malformed_transform_named(self, capsys, tmp_path, text):
        path = tmp_path / "o.json"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "witness", "generic", "--transform", str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err.startswith(f"error: malformed transform file {path}: ")

    def test_generic_valid_transform(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": np.eye(9).tolist()}))
        code, out, _ = run_cli(capsys, "witness", "generic", "--transform", str(path), "--json")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["confirmed_witness"] is True
        assert abs(payload["min_eig"] - (1.0 - 3.0)) < 1e-9

    @pytest.mark.parametrize(
        "spec, name", (("perm:cycle,d=3,l=1", "perm"), ("horodecki:a=0.5", "horodecki")), ids=("perm", "horodecki")
    )
    def test_transform_outside_generic_named(self, capsys, tmp_path, spec, name):
        # --transform used to be ignored here, building a witness other than the one written
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": (0.5 * np.eye(9)).tolist()}))
        code, out, err = run_cli(capsys, "witness", spec, "--transform", str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: --transform is read only by the generic witness, not by {name!r}\n"

    @pytest.mark.parametrize(
        "spec, transform, message",
        [
            ("perm:bogus,d=3,l=1", False, "unknown permutation witness kind 'bogus'"),
            ("nosuch", False, "unknown witness spec 'nosuch'"),
            ("generic", False, "generic witness requires --transform FILE"),
            ("generic", True, "transform dimension 5 is not a square"),
        ],
        ids=("perm-kind", "unknown-spec", "generic-without-transform", "generic-non-square"),
    )
    def test_witness_errors_named(self, capsys, tmp_path, spec, transform, message):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": np.eye(5).tolist()}))
        code, out, err = run_cli(capsys, "witness", spec, *(("--transform", str(path)) if transform else ()))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: {message}\n"

    def test_witness_export(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "witness", "horodecki:a=0.5", "--out", str(out_path))
        assert code == cli.EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["provenance"] == "horodecki(a=0.5)"


class TestSweepCommand:
    def test_small_grid(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--d", "3", "--grid", "21", "--out", str(out_path)
        )
        assert code == cli.EXIT_OK
        assert "agreement off-boundary: 100.00%" in out
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("a1,a2,a_d,")
        rows = {}
        for line in lines[2:]:
            cells = line.split(",")
            rows[(round(float(cells[0]), 9), round(float(cells[1]), 9))] = cells
        sep = rows[(0.2, 0.5)]
        assert sep[3] == sep[7] == "separable"
        bound = rows[(0.25, 0.65)]
        assert bound[3] == bound[7] == "bound"
        free = rows[(0.3, 0.65)]
        assert free[3] == free[7] == "free"

    def test_bad_resolution(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--grid", "1", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_ERROR
        assert "resolution" in err

    def test_missing_out_directory_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before its output path was checked")

        monkeypatch.setattr(sweep, "run_sweep", no_sweep)
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--grid", "300", "--out", str(out_path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: cannot write --out {out_path}: {out_path.parent} is not a directory\n"
        # an existing directory is no file to write either
        code, out, err = run_cli(capsys, "sweep", "--grid", "300", "--out", str(tmp_path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: cannot write --out {tmp_path}: it is a directory\n"

    # at d = 2, a2 and a_d are one weight: there is no special slice to sweep;
    # past d = 513 a block of BLOCK_OPERATORS reduction operators holds no grid point
    @pytest.mark.parametrize(
        "d, message",
        [
            ("2", "the special slice needs d >= 3, got 2"),
            ("1", "the special slice needs d >= 3, got 1"),
            ("0", "the special slice needs d >= 3, got 0"),
            ("514", "the sweep needs d <= 513, got 514: a block holds no grid point"),
        ],
        ids=("2", "1", "0", "514"),
    )
    def test_bad_dimension(self, capsys, tmp_path, d, message):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--d", d, "--grid", "10", "--out", str(path))
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"error: {message}\n"
        assert not path.exists()


class TestUsageErrors:
    """A usage error exits EXIT_ERROR with argparse's message: exit 2 would read as "entangled"."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--bogus",), "unrecognized arguments: --bogus"),
            (("--budget", "x"), "argument --budget: invalid int value: 'x'"),
            (("--tol", "1e-3"), "unrecognized arguments: --tol 1e-3"),
        ],
        ids=("unknown-flag", "bad-budget", "removed-tol"),
    )
    def test_usage_error_exits_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--builtin", "product:d=3", "--no-search", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("usage: loowit")
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--file", ""),
            ("witness", "perm:cycle,d=3,l=1", "--state", ""),
            ("witness", "perm:cycle,d=3,l=1", "--out", ""),
            ("sweep", "--out", ""),
            ("witness", "generic", "--transform", ""),
        ],
        ids=("check-file", "witness-state", "witness-out", "sweep-out", "witness-transform"),
    )
    def test_empty_path_exits_one(self, capsys, argv):
        # Path("") is the current directory: the empty string is named as the flag's value, before any work
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("usage: loowit")
        assert captured.err.endswith(f"error: argument {argv[-2]}: expected a path, got an empty string\n")

    @pytest.mark.parametrize(
        "command, flag",
        [(("check", "--builtin", "phi:d=3"), "--tol"), (("sweep", "--out", "x.csv"), "--epsilon")],
        ids=("check-tol", "sweep-epsilon"),
    )
    def test_removed_flag_exits_one_as_a_process(self, tmp_path, command, flag):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "loowit.cli", *command, flag, "1e-3"],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        assert proc.returncode == cli.EXIT_ERROR
        assert proc.stdout == ""
        assert f"unrecognized arguments: {flag} 1e-3" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_removed_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["loo-validate", "--d", "3"])
        captured = capsys.readouterr()
        assert exc.value.code == cli.EXIT_ERROR
        assert captured.out == ""
        assert "invalid choice: 'loo-validate'" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--help"])
        assert exc.value.code == 0
        assert "--budget" in capsys.readouterr().out


class TestSeeds:
    """A negative seed is rejected by name, not with numpy's generator message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--builtin", "werner:p=0.5", "--seed", "-1"),
            ("--builtin", "werner:p=0.5", "--seed", "-1", "--no-search"),
            ("--builtin", "product:d=4,seed=-1"),
            ("--builtin", "separable:d=3,k=2,seed=-1"),
        ],
    )
    def test_negative_seed_named(self, capsys, argv):
        code, out, err = run_cli(capsys, "check", *argv, "--json")
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == "error: seed must be an integer >= 0, got -1\n"


class TestSpecParsing:
    def test_parse_spec(self):
        name, pos, kw = cli.parse_spec("perm:cycle,d=3,l=1")
        assert name == "perm"
        assert pos == ["cycle"]
        assert kw == {"d": 3, "l": 1}

    def test_unknown_builtin(self, capsys):
        for spec in ("nosuch:x=1", ""):  # an empty spec names no builtin either
            code, _, err = run_cli(capsys, "check", "--builtin", spec)
            assert code == cli.EXIT_ERROR
            assert err == f"error: unknown builtin state {spec.partition(':')[0]!r}\n"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("check", "--builtin", "horodecki"), "a"),
            (("check", "--builtin", "family:d=3,a1=0.2"), "a2"),
            (("witness", "horodecki"), "a"),
            (("witness", "perm:cycle,d=3"), "l"),
        ],
    )
    def test_missing_spec_key_named(self, capsys, argv, key):
        code, _, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_ERROR
        assert f"is missing the key {key!r}" in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("check", "--builtin", "product:d=3,seed=1.5"), "seed"),
            (("check", "--builtin", "product:d=3.7"), "d"),
            (("check", "--builtin", "separable:d=3,k=2.5"), "k"),
            (("witness", "perm:cycle,d=3,l=1.5"), "l"),
            (("check", "--builtin", "product:d=x"), "d"),
            (("check", "--builtin", "family:d=3,a1=0.2,a2=x"), "a2"),
            (("check", "--builtin", "horodecki:a=1" + "0" * 400), "a"),
        ],
    )
    def test_bad_spec_value_named(self, capsys, argv, key):
        # a fractional, non-numeric or float-overflowing value must not be truncated or reach int()/float()
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert f"the key {key!r} must be" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check", "--builtin", "product:d=3,sed=4"), "unknown key 'sed' for 'product'"),
            (("check", "--builtin", "phi:4"), "unexpected bare token '4'"),
            (("check", "--builtin", "family:d=3,a1=0.25,a2=0.65,a1=0.3"), "repeats the key 'a1'"),
            (("witness", "perm:cycle,d=3,l=1", "--state", "builtin:werner:p=0.5,q=1"), "unknown key 'q'"),
            (("witness", "perm:cycle,shift,d=3,l=1"), "unexpected bare token 'shift'"),
            (("witness", "perm:cycle,d=3,l=1,l=2"), "repeats the key 'l'"),
            (("witness", "horodecki:a=0.3,b=1"), "unknown key 'b' for 'horodecki'"),
            (("witness", "perm:cycle,kind=bogus,d=3,l=1"), "repeats the key 'kind'"),
            (("witness", "perm:kind=cycle,cycle,d=3,l=1"), "repeats the key 'kind'"),
        ],
    )
    def test_stray_spec_parts_named(self, capsys, argv, message):
        # each of these used to judge a state or build a witness other than the one written
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert message in err

    def test_perm_kind_token_and_key(self, capsys):
        _, by_token, _ = run_cli(capsys, "witness", "perm:cycle,d=3,l=1", "--json")
        _, by_key, _ = run_cli(capsys, "witness", "perm:kind=cycle,d=3,l=1", "--json")
        assert by_token == by_key != ""


class TestGoldenOutput:
    """SHA-256 of outputs that must stay byte-identical (sweep CSV schema v1, check, witness)."""

    def test_sweep_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--d", "3", "--grid", "20", "--out", str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "f4f6bb6b3d454d482193ce46e5b1d1087bc15f32963cf5efbb3df709a8248f0c"

    @pytest.mark.parametrize(
        "d, grid, digest, rows",
        [
            # the benchmark's sweep: the digest perfbench/expected.json checks
            (3, 100, "d87ac948548e32430fc18670014829b489a73e1253049a27aa589e1d08162a58", 4966),
            (4, 30, "ac95664be04c3923b73a15b1045c89bc9d0978d359f85a15dc5e1ccbac3fbde0", 238),
            (5, 20, "55e578ff7a7c4d1ee57d64a810a9ac9a44f7f6b766147f85d884f4bb5d0e5016", 77),
            # the largest cycle-mixing stack
            (6, 12, "06e19c0bfa2b5d6226ee5080bddc89f20eccea81817b822346679839371cdf90", 24),
        ],
    )
    def test_sweep_csv_across_d(self, capsys, tmp_path, d, grid, digest, rows):
        path = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--d", str(d), "--grid", str(grid), "--out", str(path))
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert len(data.splitlines()) - 2 == rows

    def test_check_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--builtin", "horodecki:a=0.5", "--json", "--budget", "5")
        assert code == cli.EXIT_ENTANGLED
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "8920301fac9260154b605ff1201b165156849f9599fc296ce188d9d5e9ae464c"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("check", "--builtin", "phi:d=6", "--no-search"),
                "7301936749cacb3e2ef0476f40ec94a8f670e429cf7a60042c9ec05ecc20486b",
            ),
            (
                ("witness", "horodecki:a=0.3", "--json", "--state", "builtin:horodecki:a=0.3"),
                "cfd87d564d02a6ce83d12201c2e161a78738f29945ca350e3bb72466b0b8af6e",
            ),
            (
                ("witness", "perm:cycle,d=3,l=1", "--json"),
                "c439bc877ab5ea52fc8711eab1b62cf360ac23b2e154d4a4e97ebebcb857d47e",
            ),
            (
                ("check", "--builtin", "horodecki:a=0.5", "--budget", "5"),
                "6b32a40f8c6fcbb88d36f3f2f14223c0cf3de245e6e753544f525be8258e8d52",
            ),
            (
                ("check", "--builtin", "separable:d=4,k=3,seed=2", "--json", "--no-search"),
                "3ef7f86eb86bea61c3b93bb630fa028a2634ee2bcf169a055596c48d54e87970",
            ),
            (
                ("check", "--builtin", "family:d=5,a1=0.1,a2=0.4", "--json", "--no-search"),
                "aacf5c6140b91414ee7e4c07b5c3da33e0521cd1454f893a442040dcc97f509f",
            ),
        ],
    )
    def test_observable_set_outputs(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        # check exits 2 exactly when it reports the state entangled
        entangled = "overall: entangled" in out or '"overall": "entangled"' in out
        assert code == (cli.EXIT_ENTANGLED if entangled else cli.EXIT_OK)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_check_file_json(self, capsys, tmp_path):
        # a saved mixed separable state through the file path, with the search
        path = tmp_path / "separable-mixed-d4.json"
        save_state(random_separable_state(DimPair.square(4), k=3, seed=1, mode="mixed"), path)
        code, out, _ = run_cli(capsys, "check", "--file", str(path), "--json", "--budget", "4")
        assert code == cli.EXIT_OK
        digest = "699ba21803aa40757b69885fe1976afee7660319d89d3e8b05c3d51995cfb1f5"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # witness generic on 0.5 I and on the d = 3 transpose mixing (antisymmetric slots negated)
    @pytest.mark.parametrize(
        "matrix, digest",
        [
            (0.5 * np.eye(9), "9a81a20ae2430722b3d3fc5ef2b62a3f26b309c0037ec117abce7f028cd6f74d"),
            (np.diag([1.0] * 6 + [-1.0] * 3), "513e1dcb42129ff02dc2a3951797dfe06f0404b097c911b75d567cc5ea357c6c"),
        ],
        ids=("contraction", "orthogonal"),
    )
    def test_generic_witness_outputs(self, capsys, tmp_path, matrix, digest):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"matrix": matrix.tolist()}))
        code, out, _ = run_cli(capsys, "witness", "generic", "--transform", str(path), "--json")
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
