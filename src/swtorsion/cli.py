"""Command line front end.

Presentations are JSON documents::

    {"name": "optional", "genus": 1, "handles": 1, "monodromy": [[...], ...]}

with the monodromy given row-major as the pullback action on H^1 in the
split basis (c_0..c_{N-1}, d_0..d_{N-1}, x_0..x_{2g-1}).  Every command but
``gen`` reads its file through ``load_presentation``, the one place that
decides whether a document is a presentation.  Tables print as
TSV with a header row by default; ``--format json`` mirrors the same fields.
Exit codes: 0 success or verification pass, 1 verification mismatch or a
remainder in a kernel's exact division, 2 malformed input or a ``gen``
fixture whose entries pass Python's cap on integer digits.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .intersection import intersection_number
from .linalg import ExactDivisionError
from .surface import SurfaceModel, random_symplectic
from .torsion import torsion_representative
from .tqft import (Presentation, compute_b1, sw_table,
                   trace_kappa_coefficient, verify_main_identity, zeta_series)


class InputError(Exception):
    """Bad presentation file or arguments; maps to exit code 2."""


SYMPLECTIC_PROBLEM = ("symplectic: matrix does not preserve the "
                      "intersection form (A^T J A = J fails)")


def shape_problems(genus, handles, rows) -> List[str]:
    """Diagnostics for the field types, the 2(g+N) matrix size and
    integrality: every check of ``load_presentation`` on the three fields
    but the symplectic condition, which building the ``MappingClass``
    checks."""
    problems: List[str] = []
    for field, value in (("genus", genus), ("handles", handles)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"{field}: must be a nonnegative integer")
    if problems:
        return problems
    size = 2 * (genus + handles)
    if not isinstance(rows, (list, tuple)) or len(rows) != size or any(
            not isinstance(r, (list, tuple)) or len(r) != size for r in rows):
        problems.append(f"dimension: monodromy must be a {size}x{size} matrix")
        return problems
    # one pass at C level: the exact type int excludes bool, and JSON
    # values have no other subclass of int
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        problems.append("integrality: matrix entries must be integers")
    return problems


def load_presentation(path: str) -> Presentation:
    """The one front door for presentations: read the file, parse the
    JSON, check the fields, their shape and integrality, the symplectic
    condition and the name, in that order; the first check that fails
    raises an ``InputError`` with its diagnostic."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not valid UTF-8: {e.reason} at byte {e.start}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    except RecursionError:
        raise InputError(f"{path}: nesting too deep")
    except ValueError:
        # the only other ValueError is Python's limit on integer digits
        raise InputError(f"{path}: integer literal too long")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    for key in ("genus", "handles", "monodromy"):
        if key not in doc:
            raise InputError(f"{path}: missing field '{key}'")
    problems = shape_problems(doc["genus"], doc["handles"], doc["monodromy"])
    if problems:
        raise InputError(f"{path}: " + "; ".join(problems))
    name = doc.get("name")
    try:
        # the MappingClass constructor is the one symplectic check
        P = Presentation.from_matrix(doc["genus"], doc["handles"],
                                     doc["monodromy"], name)
    except ValueError:
        raise InputError(f"{path}: {SYMPLECTIC_PROBLEM}")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{path}: field 'name' must be a string")
    return P


def write_presentation(P: Presentation, path: str) -> None:
    doc = {} if P.name is None else {"name": P.name}
    doc.update(genus=P.genus, handles=P.handles,
               monodromy=[list(row) for row in P.monodromy.mat])
    try:
        text = json.dumps(doc, indent=2) + "\n"
    except ValueError:  # the digit limit, which load_presentation applies
        raise InputError(f"{path}: an entry passes Python's limit of "
                         f"{sys.get_int_max_str_digits()} digits on integers")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")


def generate_fixture(g: int, handles: int, words: int, seed: int,
                     name: Optional[str] = None) -> Presentation:
    """Deterministic presentation from a transvection word."""
    surface = SurfaceModel(g + handles, (handles, g))
    A = random_symplectic(surface, words, seed)
    return Presentation(g, handles, A, name)


def _emit(rows: List[dict], header: List[str], fmt: str, out,
          preamble: str = "") -> None:
    """Write the rows as JSON, or as a TSV table after ``preamble`` in one
    write."""
    if fmt == "json":
        out.write(json.dumps(rows, indent=2) + "\n")
    else:
        lines = ["\t".join(header)]
        lines += ["\t".join([str(row[h]) for h in header]) for row in rows]
        out.write(preamble + "\n".join(lines) + "\n")


@contextmanager
def _exact_digits():
    """Lift Python's cap on the digits of ``str(int)`` (4,300 since 3.11
    and 3.10.7; 0 means no cap) while a command runs on a presentation it
    has read, and restore it after: torsion coefficients and traces pass
    the cap, while input is read and ``gen`` writes under it."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


# The commands that print a table or a series, in --help order: the integer
# flag each one requires and its help line.
_TABLE_COMMANDS = {
    "sw": ("nmax", "averaged Seiberg-Witten table"),
    "zeta": ("kmax", "zeta function of the monodromy"),
    "torsion": ("kmax", "Morse-complex torsion representative"),
    "verify": ("nmax", "check the trace identity"),
    "intersect": ("n", "graph-diagonal intersection number"),
}


def _build_parser() -> Tuple[argparse.ArgumentParser,
                             Dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the map from each command's name to its
    subparser that the subparsers action keeps."""
    parser = argparse.ArgumentParser(
        prog="swtorsion",
        description="Torsion, zeta, and averaged Seiberg-Witten trace "
                    "invariants of compression-body presentations M(g, N, h).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a presentation file")
    p.add_argument("file")

    for command, (flag, text) in _TABLE_COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("file")
        p.add_argument(f"--{flag}", type=int, required=True)
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = sub.add_parser("b1", help="first Betti number of the presentation")
    p.add_argument("file")

    p = sub.add_parser("gen", help="write a deterministic fixture file")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--handles", type=int, required=True)
    p.add_argument("--words", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name")
    return parser, sub.choices


# Built once at import, not per call: the parser depends on no input, and
# building it costs more than parsing with it.  A plain constant, so clearing
# the library's caches does not rebuild it.
_PARSER, _COMMANDS = _build_parser()


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse argv with its command's subparser, when its first token names
    a command, and with ``_PARSER`` otherwise."""
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one ``swtorsion`` call; returns its exit code.

    A call whose first token names a command is parsed by that command's
    subparser alone, which is all ``_PARSER`` would hand it to.  Its own
    errors and ``-h`` are those ``_PARSER`` prints, since they come from
    the same subparser.  ``_PARSER`` parses everything else, the whole
    argv again: ``--help``, no command, an unknown command, and a call
    whose subparser leaves tokens over, which ``_PARSER`` rejects as
    unrecognized arguments.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args, sys.stdout)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ExactDivisionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args, out) -> int:
    if args.command == "gen":
        for field in ("g", "handles", "words"):
            if getattr(args, field) < 0:
                raise InputError(f"--{field} must be nonnegative")
        P = generate_fixture(args.g, args.handles, args.words, args.seed,
                             args.name)
        write_presentation(P, args.out)
        out.write(f"wrote {args.out}\n")
        return 0

    P = load_presentation(args.file)
    with _exact_digits():
        return _run(args, P, out)


def _run(args, P: Presentation, out) -> int:
    if args.command == "validate":
        out.write("valid\n")
        return 0

    if args.command == "b1":
        out.write(f"{compute_b1(P)}\n")
        return 0

    flag = _TABLE_COMMANDS[args.command][0]
    value = getattr(args, flag)
    if args.command == "torsion" and value < P.handles:
        raise InputError("--kmax must be at least the handle count")
    if value < 0:
        raise InputError(f"--{flag} must be nonnegative")

    if args.command in ("zeta", "torsion"):
        series = (zeta_series if args.command == "zeta"
                  else torsion_representative)(P, value)
        rows = [{"k": k, "coefficient": str(c)}
                for k, c in enumerate(series.coeffs)]
        _emit(rows, ["k", "coefficient"], args.format, out)
        return 0

    if args.command == "sw":
        table = sw_table(P, args.nmax)
        rows = [{"n": r.n, "m": r.m, "value": r.value} for r in table.rows]
        if args.format == "json":
            doc = {"b1": table.b1, "mode": table.mode, "rows": rows,
                   "note": table.note}
            out.write(json.dumps(doc, indent=2) + "\n")
        else:
            _emit(rows, ["n", "m", "value"], "tsv", out,
                  f"# b1={table.b1}\tmode={table.mode}\n")
        return 0

    if args.command == "verify":
        report = verify_main_identity(P, args.nmax)
        rows = [{"n": r.n, "lhs": r.lhs, "rhs": r.rhs,
                 "match": "match" if r.match else "MISMATCH"}
                for r in report.rows]
        _emit(rows, ["n", "lhs", "rhs", "match"], args.format, out)
        return 0 if report.passed else 1

    # intersect, the last command in the table
    value = intersection_number(P, args.n)
    check = trace_kappa_coefficient(P, args.n)
    rows = [{"n": args.n, "intersection": value, "trace": check,
             "match": "match" if value == check else "MISMATCH"}]
    _emit(rows, ["n", "intersection", "trace", "match"], args.format, out)
    return 0 if value == check else 1


if __name__ == "__main__":
    sys.exit(main())
