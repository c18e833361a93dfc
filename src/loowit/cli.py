"""Command-line front end.

Subcommands: ``check`` (run all criteria on a state), ``sweep`` (family phase
diagram to CSV) and ``witness`` (build/evaluate a witness). Exit codes for
check: 0 = no detection, 2 = entangled, 1 = error, a usage error included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import criteria, loo, states, sweep, witness as witness_mod
from .linalg import DimPair
from .states import BipartiteState

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ENTANGLED = 2


# The keys each spec name takes; a spec has no bare tokens.
SPEC_KEYS = {
    "horodecki": ("a",), "family": ("d", "a1", "a2"), "werner": ("p",), "phi": ("d",),
    "product": ("d", "seed"), "separable": ("d", "k", "seed"), "perm": ("d", "l"), "generic": (),
}


def parse_spec(spec: str) -> tuple[str, dict[str, str]]:
    """The name and each key's text of ``name:key=val,...``, naming a repeated or unknown key or a bare token."""
    name, _, rest = (part.strip() for part in spec.partition(":"))
    tokens: list[str] = []
    kwargs: dict[str, str] = {}
    for item in rest.split(",") if rest else ():
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            tokens.append(key)
        elif key in kwargs:
            raise ValueError(f"spec {spec!r} repeats the key {key!r}")
        else:
            kwargs[key] = val
    if name in SPEC_KEYS:  # an unknown name is left to the caller
        for key in kwargs:
            if key not in SPEC_KEYS[name]:
                raise ValueError(f"spec {spec!r}: unknown key {key!r} for {name!r}")
        if tokens:
            raise ValueError(f"spec {spec!r}: unexpected bare token {tokens[0]!r}")
    return name, kwargs


def _key(kw: dict[str, str], key: str, spec: str, *, integer: bool = False, default: int | None = None):
    """A spec key's text read as an int if ``integer``, else as a finite float.

    A key without a default is required; a missing key or a bad value is named in the error, the value as written.
    Only ASCII text without "_" is read: int() and float() also take digit-group underscores and non-ASCII digits.
    """
    if key not in kw:
        if default is None:
            raise ValueError(f"spec {spec!r} is missing the key {key!r}")
        return default
    text = kw[key]
    try:
        if text.isascii() and "_" not in text:
            value = int(text) if integer else float(text)
            if integer or math.isfinite(value):  # float() reads "nan", "inf" and overflowing text as non-finite
                return value
    except ValueError:
        pass
    kind = "an integer" if integer else "a finite number"
    raise ValueError(f"spec {spec!r}: the key {key!r} must be {kind}, got {text!r}")


def builtin_state(spec: str) -> BipartiteState:
    """The state a builtin spec names."""
    name, kw = parse_spec(spec)
    if name == "horodecki":
        return states.horodecki_rho(_key(kw, "a", spec))
    if name == "family":
        d = _key(kw, "d", spec, default=3, integer=True)
        return states.family_rho(states.family_special(d, _key(kw, "a1", spec), _key(kw, "a2", spec)))
    if name == "werner":
        return states.werner2(_key(kw, "p", spec))
    if name == "phi":
        return states.max_entangled(_key(kw, "d", spec, default=3, integer=True))
    if name == "product":
        dims = DimPair.square(_key(kw, "d", spec, default=3, integer=True))
        return states.random_product_state(dims, seed=_key(kw, "seed", spec, default=0, integer=True))
    if name == "separable":
        dims = DimPair.square(_key(kw, "d", spec, default=3, integer=True))
        k = _key(kw, "k", spec, default=4, integer=True)
        return states.random_separable_state(dims, k=k, seed=_key(kw, "seed", spec, default=0, integer=True))
    raise ValueError(f"unknown builtin state {name!r}")


def _load_transform(path: str) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return states.number_array(states.payload_value(payload, "matrix"), "matrix")
    except (TypeError, ValueError, OverflowError) as exc:  # ValueError covers UTF-8 and JSON errors
        raise ValueError(f"malformed transform file {path}: {exc}") from exc


def _print_report(report: criteria.FullReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict()))
        return
    print(f"state: {report.state_label}")
    # a mixing's name is shown in brackets after the criterion
    names = [str(r.params.get("transform", "")) for r in report.reports]
    width = max(len(r.criterion) + len(name) for r, name in zip(report.reports, names)) + 4
    for r, name in zip(report.reports, names):
        tag = f"{r.criterion}[{name}]" if name else r.criterion
        print(f"  {tag:<{width}} {r.verdict:<13} scalar={r.scalar:+.6e}")
    print(f"overall: {report.overall}")


def cmd_check(args: argparse.Namespace) -> int:
    # argparse requires exactly one of --builtin and --file
    state = builtin_state(args.builtin) if args.builtin is not None else states.load_state(args.file)
    report = criteria.full_report(state, budget=args.budget, seed=args.seed, include_search=not args.no_search)
    _print_report(report, args.json)
    return EXIT_ENTANGLED if report.entangled else EXIT_OK


def _check_out(path: str) -> None:
    """Name an --out path that cannot be written as a file, before the command computes anything."""
    if not Path(path).parent.is_dir():
        raise ValueError(f"cannot write --out {path}: {Path(path).parent} is not a directory")
    if Path(path).is_dir():
        raise ValueError(f"cannot write --out {path}: it is a directory")


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_out(args.out)  # the sweep can compute for seconds
    result = sweep.run_sweep(d=args.d, resolution=args.grid)
    sweep.write_csv(result, args.out)
    for line in sweep.summary_lines(result):
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_witness(args: argparse.Namespace) -> witness_mod.Witness:
    name, kw = parse_spec(args.spec)
    if args.transform and name != "generic":  # a mixing no other witness reads must not be dropped silently
        raise ValueError(f"--transform is read only by the generic witness, not by {name!r}")
    if name == "horodecki":
        return witness_mod.horodecki_ew(_key(kw, "a", args.spec))
    if name == "perm":
        d = _key(kw, "d", args.spec, integer=True)
        return witness_mod.ew_from_transform(loo.diag_cycle(d, _key(kw, "l", args.spec, integer=True)))
    if name == "generic":
        if not args.transform:
            raise ValueError("generic witness requires --transform FILE")
        return witness_mod.ew_from_transform(_load_transform(args.transform))
    raise ValueError(f"unknown witness spec {name!r}")


def cmd_witness(args: argparse.Namespace) -> int:
    if args.out:
        _check_out(args.out)
    w = _build_witness(args)
    payload = {
        "provenance": w.provenance,
        "dims": [w.dims.d_a, w.dims.d_b],
        "min_eig": w.min_eig,
        "confirmed_witness": not w.candidate_only,
    }
    if w.phi_value is not None:
        payload["phi_expectation"] = w.phi_value
    if args.state:
        if args.state.startswith("builtin:"):
            state = builtin_state(args.state[len("builtin:"):])
        else:
            state = states.load_state(args.state)
        payload["state"] = state.label
        payload["expectation"] = witness_mod.expectation(w, state)
    if args.out:
        witness_mod.save_witness(w, args.out)
        payload["written"] = str(args.out)
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _path(text: str) -> str:
    """A path option's value. The empty path is rejected: Path("") would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit EXIT_ERROR: argparse's exit code 2 means "entangled" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="loowit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run all separability criteria on a state")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", help="builtin state spec, e.g. horodecki:a=0.5")
    source.add_argument("--file", type=_path, help="state JSON file")
    check.add_argument("--json", action="store_true", help="emit one JSON object")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--budget", type=int, default=criteria.SEARCH_BUDGET, help="correlation search restarts"
    )
    check.add_argument("--no-search", action="store_true", help="skip the randomized search")
    check.set_defaults(func=cmd_check)

    sweep_cmd = sub.add_parser("sweep", help="family phase-diagram sweep to CSV")
    sweep_cmd.add_argument("--d", type=int, default=3)
    sweep_cmd.add_argument("--grid", type=int, default=100, help="grid resolution per axis")
    sweep_cmd.add_argument("--out", type=_path, required=True, help="output CSV path")
    sweep_cmd.set_defaults(func=cmd_sweep)

    wit = sub.add_parser("witness", help="build a witness and optionally evaluate it")
    wit.add_argument("spec", help="horodecki:a=A | perm:d=D,l=L | generic")
    wit.add_argument("--transform", type=_path, help="JSON file {'matrix': [[...]]}, for the generic spec only")
    wit.add_argument("--state", type=_path, help="builtin:SPEC or a state JSON file")
    wit.add_argument("--out", type=_path, help="write the witness matrix JSON here")
    wit.add_argument("--json", action="store_true")
    wit.set_defaults(func=cmd_witness)
    return parser


# built once: parse_args leaves the parser unchanged, and building it costs more than parsing
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # numpy's MemoryError names the allocation it could not make
        prefix = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
