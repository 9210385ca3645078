import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import swtorsion
from swtorsion import cli, linalg, reference, series, surface, torsion, tqft
from swtorsion.cli import (_TABLE_COMMANDS, SYMPLECTIC_PROBLEM,
                           generate_fixture, load_presentation, main,
                           write_presentation)
from swtorsion.intersection import intersection_number
from swtorsion.linalg import det_int, identity_matrix, mat_mul
from swtorsion.reference import submatrix
from swtorsion.series import TruncSeries
from swtorsion.surface import SurfaceModel, random_symplectic
from swtorsion.tqft import Presentation


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_roundtrip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["gen", "--g", "1", "--handles", "1", "--words", "5", "--seed", "42"]
    assert run_cli(base + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(base + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    P = load_presentation(str(out1))
    Q = generate_fixture(1, 1, 5, 42)
    assert P == Q


def test_roundtrip_preserves_name(tmp_path):
    P = generate_fixture(0, 2, 4, 7, name="fixture-7")
    path = tmp_path / "named.json"
    write_presentation(P, str(path))
    assert load_presentation(str(path)) == P
    assert json.loads(path.read_text())["name"] == "fixture-7"


def test_verify_pass_and_exit_codes(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(["gen", "--g", "1", "--handles", "0", "--words", "0", "--seed", "0",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["verify", str(path), "--nmax", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\tlhs\trhs\tmatch"
    assert lines[1] == "0\t1\t1\tmatch"
    assert lines[2] == "1\t0\t0\tmatch"


def test_verify_corrupted_matrix_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = {"genus": 1, "handles": 0, "monodromy": [[2, 0], [0, 1]]}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", str(path), "--nmax", "2"], capsys)
    assert code == 2
    assert "symplectic" in err


def test_validate_rejects_reflection(tmp_path, capsys):
    # determinant -1 cannot preserve the intersection form
    path = tmp_path / "refl.json"
    doc = {"genus": 1, "handles": 0, "monodromy": [[1, 0], [0, -1]]}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "symplectic" in err


def test_each_load_checks_symplectic_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return wrapped

    good = tmp_path / "good.json"
    write_presentation(generate_fixture(2, 1, 8, 3), str(good))
    # the MappingClass constructor is the one call site of the check
    assert not hasattr(tqft, "is_symplectic")
    monkeypatch.setattr(surface, "is_symplectic",
                        counting(surface.is_symplectic))
    load_presentation(str(good))
    assert len(calls) == 1
    # sw and b1 read b_1 off the loaded matrix, never inverted (compute_b1),
    # so the symplectic check of the load is the only one
    for args in (["sw", str(good), "--nmax", "2"], ["b1", str(good)]):
        calls.clear()
        assert run_cli(args, capsys)[0] == 0
        assert len(calls) == 1, args
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"genus": 1, "handles": 0, "monodromy": [[2, 0], [0, 1]]}))
    calls.clear()
    code, out, err = run_cli(["validate", str(bad)], capsys)
    assert code == 2 and out == ""
    assert "symplectic: matrix does not preserve the intersection form" in err
    assert len(calls) == 1


def test_bool_genus_and_handles_are_input_errors(tmp_path, capsys):
    # JSON true/false are ints to isinstance; they must not pass as g, N
    path = tmp_path / "bools.json"
    doc = {"genus": True, "handles": False, "monodromy": [[1, 0], [0, 1]]}
    path.write_text(json.dumps(doc))
    for command in ("validate", "b1"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 2 and out == ""
        assert "genus:" in err and "handles:" in err


def test_validate_rejects_non_string_name(tmp_path, capsys):
    # validate reads the file the way every other command does
    path = tmp_path / "named.json"
    doc = {"name": 5, "genus": 1, "handles": 0, "monodromy": [[1, 0], [0, 1]]}
    path.write_text(json.dumps(doc))
    for command in ("validate", "b1"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 2 and out == ""
        assert "name" in err


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: (st.lists(inner, max_size=4)
                                 | st.dictionaries(st.text(max_size=6), inner,
                                                   max_size=4)),
    max_leaves=12)
# The expected outcome when only the symplectic condition can fail: exit 0,
# or exit 2 naming that condition.
SHAPED = "shaped"


@st.composite
def symplectic_documents(draw):
    """A valid presentation of g + N <= 3, as a dict, with its matrix as a
    list of row lists: a transvection word, sheared by a huge multiple of
    one partner pair half the time (I + k E[i, p(i)] is symplectic)."""
    N = draw(st.integers(0, 3))
    g = draw(st.integers(0, 3 - N))
    surface = SurfaceModel(g + N, (N, g))
    mat = random_symplectic(surface, draw(st.integers(0, 12)),
                            draw(st.integers(0, 2 ** 32))).mat
    size = len(mat)
    if size and draw(st.booleans()):
        i = draw(st.integers(0, size - 1))
        k = draw(st.sampled_from((-1, 1))) * 10 ** draw(st.integers(20, 1200))
        p = surface.partner(i)
        shear = tuple(tuple(int(r == c) + k * (r == i and c == p)
                            for c in range(size)) for r in range(size))
        mat = mat_mul(mat, shear)
    return {"genus": g, "handles": N, "monodromy": [list(r) for r in mat]}


@st.composite
def contract_documents(draw):
    """(text of a presentation file, expected exit code or SHAPED or None):
    wrong types and nesting, wrong sizes, non-symplectic and
    near-symplectic matrices, and huge integers."""
    doc = draw(symplectic_documents())
    mat = doc["monodromy"]
    size = len(mat)
    kind = draw(st.sampled_from((
        "valid", "any", "field", "missing", "name", "entry", "rows",
        "columns", "huge_shape", "random", "near", "long_literal", "deep")))
    expected = 2
    if kind == "valid":
        expected = 0
    elif kind == "any":
        doc, expected = draw(JSON_VALUES), None
    elif kind == "field":
        # genus or handles of a wrong type, negative or bool
        field = draw(st.sampled_from(("genus", "handles")))
        doc[field] = draw(JSON_VALUES.filter(
            lambda v: not isinstance(v, int) or isinstance(v, bool))
            | st.integers(-2 ** 70, -1))
    elif kind == "missing":
        del doc[draw(st.sampled_from(("genus", "handles", "monodromy")))]
    elif kind == "name":
        # null is no name, as when the field is absent
        doc["name"] = draw(JSON_VALUES.filter(
            lambda v: v is not None and not isinstance(v, str)))
    elif kind == "entry" and size:
        row = mat[draw(st.integers(0, size - 1))]
        row[draw(st.integers(0, size - 1))] = draw(JSON_VALUES.filter(
            lambda v: not isinstance(v, int) or isinstance(v, bool)))
    elif kind == "rows":
        if size and draw(st.booleans()):
            del mat[draw(st.integers(0, size - 1))]
        else:
            mat.append([0] * size)
    elif kind == "columns" and size:
        row = mat[draw(st.integers(0, size - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(1)
    elif kind == "huge_shape":
        field = draw(st.sampled_from(("genus", "handles")))
        doc[field] += 10 ** draw(st.integers(1, 1200))
    elif kind == "random":
        doc["monodromy"] = [[draw(st.integers(-3, 3)) for _ in range(size)]
                            for _ in range(size)]
        expected = SHAPED
    elif kind == "near" and size:
        row = mat[draw(st.integers(0, size - 1))]
        row[draw(st.integers(0, size - 1))] += draw(st.sampled_from((-1, 1)))
        expected = SHAPED
    elif kind == "long_literal" and size:
        # a matrix entry around Python's 4,300-digit cap on int parsing
        mat[0][0] = "LONG"
        text = json.dumps(doc).replace(
            '"LONG"', "9" * draw(st.sampled_from((4300, 4301, 5000))), 1)
        return text, None
    elif kind == "deep":
        depth = draw(st.sampled_from((10, 1000, 100000)))
        return "[" * depth + "]" * depth, 2
    else:
        expected = 0
    return json.dumps(doc), expected


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contract_documents())
@example(('{"genus": 0, "handles": 0, "monodromy": []}', 0))
@example(("[1, 2]", 2))
def test_validate_and_b1_keep_the_input_contract(case):
    # Every document exits 0, or 2 with exactly one "error:" line and empty
    # stdout; a traceback would raise out of main.  Both commands load the
    # file alike, so they agree on the exit code and the diagnostic.
    text, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        (code, out, err), (b1_code, b1_out, b1_err) = (
            run_in_process([command, path]) for command in ("validate", "b1"))
    assert (code, err) == (b1_code, b1_err)
    if code == 0:
        assert err == "" and out == "valid\n"
        assert int(b1_out) >= 0
    else:
        assert code == 2 and out == b1_out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    if expected == SHAPED:
        assert code == 0 or SYMPLECTIC_PROBLEM in err
    elif expected is not None:
        assert code == expected, err


def test_validate_names_each_check(tmp_path, capsys):
    # one file per check of the loader, each with its exact stderr line
    cases = [
        (1, 1, identity_matrix(4), None),
        (1, 0, [[2, 0], [0, 1]], SYMPLECTIC_PROBLEM),
        (1, 1, identity_matrix(2), "dimension: monodromy must be a 4x4 matrix"),
        (0, 1, [[1, 0], [0.5, 1]],
         "integrality: matrix entries must be integers"),
        (-1, 0, [], "genus: must be a nonnegative integer"),
    ]
    for k, (genus, handles, rows, diagnostic) in enumerate(cases):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(
            {"genus": genus, "handles": handles, "monodromy": rows}))
        code, out, err = run_cli(["validate", str(path)], capsys)
        if diagnostic is None:
            assert (code, out, err) == (0, "valid\n", "")
        else:
            assert (code, out, err) == (
                2, "", f"error: {path}: {diagnostic}\n")


def test_validate_accepts_good_file(tmp_path, capsys):
    path = tmp_path / "ok.json"
    run_cli(["gen", "--g", "0", "--handles", "1", "--words", "3", "--seed", "5",
             "--out", str(path)], capsys)
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 0 and out.strip() == "valid"


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"genus": 1,\n  "handles": }')
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


def test_over_deep_and_over_long_json_are_input_errors(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    long = tmp_path / "long.json"
    long.write_text('{"genus": ' + "1" * 5000 + "}")
    for path, reason in ((deep, "nesting too deep"),
                         (long, "integer literal too long")):
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:")
        assert reason in err and "Traceback" not in err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"genus": 0}'.encode("utf-16-le"))
    for command in (["validate"], ["zeta", "--kmax", "2"]):
        code, out, err = run_cli([command[0], str(path)] + command[1:], capsys)
        assert code == 2 and out == ""
        assert str(path) in err and "UTF-8" in err


def test_gen_into_missing_directory_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "p.json"
    code, out, err = run_cli(["gen", "--g", "0", "--handles", "1", "--words",
                              "2", "--seed", "1", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert str(target) in err
    assert not target.exists()


def test_missing_field_diagnostic(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"genus": 1, "handles": 0}))
    code, _, err = run_cli(["zeta", str(path), "--kmax", "2"], capsys)
    assert code == 2
    assert "monodromy" in err


def test_zeta_sphere_coefficients(tmp_path, capsys):
    path = tmp_path / "s2s1.json"
    path.write_text(json.dumps({"genus": 0, "handles": 0, "monodromy": []}))
    code, out, _ = run_cli(["zeta", str(path), "--kmax", "4"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[1] for r in rows] == ["1", "2", "3", "4", "5"]


@pytest.mark.parametrize("command, flag", [("zeta", "--kmax"),
                                           ("verify", "--nmax")])
def test_zeta_cross_check_failure_exits_one(tmp_path, capsys, monkeypatch,
                                            command, flag):
    # zeta's cross-check against the Berkowitz pass runs in verify, not in
    # zeta: zeta runs no Berkowitz pass and prints what it printed before;
    # verify's rhs reads the Berkowitz pass alone, so a wrong coefficient
    # that a row reads (coefficient n + N, n <= nmax) shows as a mismatch,
    # with nothing on stderr
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(1, 1, 12, 5), str(path))
    argv = [command, str(path), flag, "4"]
    _, honest_out, _ = run_cli(argv, capsys)
    honest = tqft._trace_series

    def off_by_one(A, nmax):
        coeffs = list(honest(A, nmax))
        coeffs[2] += 1
        return tuple(coeffs)

    monkeypatch.setattr(tqft, "_trace_series", off_by_one)
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    if command == "zeta":
        assert code == 0
        assert out == honest_out
    else:
        assert code == 1
        assert "MISMATCH" in out


KERNEL_COMMANDS = {"zeta": ["--kmax", "40"], "sw": ["--nmax", "4"],
                   "torsion": ["--kmax", "24"], "verify": ["--nmax", "3"],
                   "intersect": ["--n", "2"]}


@pytest.mark.parametrize("command, shift", [
    pytest.param(command, shift,
                 id=str(shift) if command == "zeta" else f"{command}-{shift}")
    for command in KERNEL_COMMANDS for shift in (1, 2, 3, 5)])
def test_zeta_kernel_failure_exits_one(tmp_path, capsys, monkeypatch, command,
                                       shift):
    # zeta reads det(1 - tA) from newton_pencil at N = 0 (G = 4, kmax = 40),
    # whose one product is T^2 = A^2.  Shifts 1, 3 and 5 of A^2[1][1] leave
    # a remainder in the Newton division.  Shift 2 keeps every division
    # exact, and zeta has no second route to notice; verify at N = 0 reads
    # the same kernel on the same matrix (the (4, 0) and the unsplit genus-4
    # forms coincide) against the Berkowitz pass, and reports mismatched
    # rows.  The other four commands read the Schur pencil of `gen --g 2
    # --handles 2 --words 52 --seed 1` (det A[D, C] != 0), where every shift
    # of a product leaves a remainder in the division by det A[D, C].  A
    # remainder exits 1 with one line on stderr and nothing on stdout.
    fixture = (0, 4, 40, 1) if command == "zeta" else (2, 2, 52, 1)
    P = generate_fixture(*fixture)
    run_as, flags = command, KERNEL_COMMANDS[command]
    if command == "zeta" and shift == 2:
        P = Presentation.from_matrix(4, 0, P.monodromy.mat)
        run_as, flags = "verify", ["--nmax", "40"]
    path = tmp_path / "p.json"
    write_presentation(P, str(path))
    honest = linalg.mat_mul

    def perturbed(a, b):
        rows = [list(r) for r in honest(a, b)]
        rows[1][1] -= shift
        return tuple(map(tuple, rows))

    monkeypatch.setattr(linalg, "mat_mul", perturbed)
    code, out, err = run_cli([run_as, str(path)] + flags, capsys)
    assert code == 1
    if run_as != command:
        assert "MISMATCH" in out
        assert err == ""
    elif command == "zeta":
        assert out == ""
        assert err == "error: Newton's identities are not integral\n"
    else:
        assert out == ""
        assert err == "error: pencil coefficient is not integral\n"


@pytest.mark.parametrize("fixture", [(0, 1, 52, 1), (1, 1, 52, 1),
                                     (2, 1, 2, 1), (2, 1, 52, 1)])
def test_a_wrong_morse_coefficient_shows_by_the_row_bound(tmp_path, capsys,
                                                         monkeypatch, fixture):
    # ROADMAP item 15: at N = 1 the rhs row n is coefficient n + 1 of
    # det(1 - tA) det M, and det(1 - tA) has constant term 1, so one more
    # t^k in the Morse entry, 1 <= k < 2G, first shows at row k - 1, inside
    # verify's rows 0..n* with n* = max(2g, 2N(G - 1)) = 2g
    g = fixture[0]
    nstar = 2 * g
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(*fixture), str(path))
    honest = torsion.morse_differential_matrix
    for k in range(1, 2 * g + 2):
        def perturbed(P, kmax):
            coeffs = list(honest(P, kmax).entries[0][0].coeffs)
            coeffs[k] += 1
            return torsion.MorseMatrix(((TruncSeries(kmax, coeffs),),))

        monkeypatch.setattr(torsion, "morse_differential_matrix", perturbed)
        code, out, err = run_cli(["verify", str(path), "--nmax", str(nstar)],
                                 capsys)
        assert (code, err) == (1, "")
        matches = [line.split("\t")[3] for line in out.splitlines()[1:]]
        assert len(matches) == nstar + 1
        assert matches.index("MISMATCH") == k - 1


@pytest.mark.parametrize("command", KERNEL_COMMANDS)
def test_an_assertion_inside_a_command_propagates(tmp_path, monkeypatch,
                                                  command):
    # exit 1 reports a mismatch or a remainder in an exact division; an
    # AssertionError, from a bug or from a test's guard on a forbidden
    # route, leaves main as it was raised
    fixture = (0, 4, 40, 1) if command == "zeta" else (2, 2, 52, 1)
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(*fixture), str(path))

    def forbidden(a, b):
        raise AssertionError("a command ran a forbidden route")

    monkeypatch.setattr(linalg, "mat_mul", forbidden)
    with pytest.raises(AssertionError, match="forbidden route"):
        main([command, str(path)] + KERNEL_COMMANDS[command])


@pytest.mark.parametrize("argv, bound", [
    (["sw", "--nmax", "-1"], "nonnegative"),
    (["zeta", "--kmax", "-1"], "nonnegative"),
    (["torsion", "--kmax", "-1"], "at least the handle count"),
    (["torsion", "--kmax", "1"], "at least the handle count"),
    (["verify", "--nmax", "-1"], "nonnegative"),
    (["intersect", "--n", "-1"], "nonnegative")],
    ids=["sw", "zeta", "torsion-negative", "torsion-one", "verify",
         "intersect"])
def test_table_commands_reject_an_argument_below_their_bound(tmp_path, capsys,
                                                             argv, bound):
    # torsion needs at least the handle count (here 2), the others a
    # nonnegative value; the file loads first, and nothing is printed
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(1, 2, 8, 1), str(path))
    code, out, err = run_cli([argv[0], str(path)] + argv[1:], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} must be {bound}\n"


def test_torsion_output(tmp_path, capsys):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(
        {"genus": 0, "handles": 1, "monodromy": [[0, -1], [1, 0]]}))
    code, out, _ = run_cli(["torsion", str(path), "--kmax", "4"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [r[1] for r in rows] == ["0", "-1", "0", "1", "0"]


def read_decimal(text):
    """The integer a decimal string spells, read 1,000 digits at a time,
    so that Python's cap on the digits ``int(str)`` reads does not apply."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def large_entry_presentation():
    """g = 2, N = 1 and A = T_0 T_2 T_4 T_1 T_3 T_5 with the transvections
    T_i = 1 + k e_i (J e_i)^T, k = 10^1300.  No entry has more than 2,600
    digits, so the file reads under the cap, while Tr kappa_2 and
    Tr kappa_3 have 6,501 digits each."""
    surface = SurfaceModel(3, (1, 2))
    k = 10 ** 1300
    A = identity_matrix(6)
    for i in (0, 2, 4, 1, 3, 5):
        J = surface.pair_vector([int(j == i) for j in range(6)])
        A = mat_mul(A, tuple(tuple(int(r == c) + k * (r == i) * J[c]
                                   for c in range(6)) for r in range(6)))
    return Presentation.from_matrix(2, 1, A)


def read_table(out, fmt, command):
    """The rows a table command printed, every integer read exactly."""
    if fmt == "json":
        doc = json.loads(out, parse_int=read_decimal)
        return doc["rows"] if command == "sw" else doc
    lines = out.splitlines()[command == "sw":]
    header = lines[0].split("\t")
    return [{h: x if h == "match" else read_decimal(x)
             for h, x in zip(header, line.split("\t"))}
            for line in lines[1:]]


def test_torsion_prints_exact_coefficients_past_the_digit_limit(tmp_path,
                                                                capsys):
    # torsion coefficients grow exponentially in k: at kmax = 2000 the last
    # one here has 4,795 digits, past the 4,300 that str(int) allows by
    # default.  The CLI lifts the cap only while a command runs on a
    # presentation it has read, so the cap is back afterwards and an
    # over-long input literal is still malformed.
    P = generate_fixture(1, 2, 20, 1)
    path = tmp_path / "big.json"
    write_presentation(P, str(path))
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for fmt in ("tsv", "json"):
        code, out, err = run_cli(["torsion", str(path), "--kmax", "2000",
                                  "--format", fmt], capsys)
        assert (code, err) == (0, "")
        if fmt == "json":
            printed = [row["coefficient"] for row in json.loads(out)]
        else:
            lines = out.splitlines()
            assert lines[0] == "k\tcoefficient"
            printed = [line.split("\t")[1] for line in lines[1:]]
        assert max(map(len, printed)) > 4300
        assert ([read_decimal(x) for x in printed]
                == list(torsion.torsion_representative(P, 2000).coeffs))
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    # sw, verify and intersect print traces of 6,501 digits exactly
    P = large_entry_presentation()
    path = tmp_path / "large.json"
    write_presentation(P, str(path))
    table = tqft.sw_table(P, 3)
    value = intersection_number(P, 2)
    assert value == tqft.trace_kappa_coefficient(P, 2)
    expected = {
        ("sw", "--nmax", "3"):
            [{"n": r.n, "m": r.m, "value": r.value} for r in table.rows],
        ("verify", "--nmax", "3"):
            [{"n": r.n, "lhs": r.lhs, "rhs": r.rhs, "match": "match"}
             for r in tqft.verify_main_identity(P, 3).rows],
        ("intersect", "--n", "2"):
            [{"n": 2, "intersection": value, "trace": value,
              "match": "match"}],
    }
    assert abs(value) > 10 ** 4300
    for (command, flag, n), rows in expected.items():
        for fmt in ("tsv", "json"):
            code, out, err = run_cli([command, str(path), flag, n,
                                      "--format", fmt], capsys)
            assert (code, err) == (0, "")
            assert read_table(out, fmt, command) == rows
            assert getattr(sys, "get_int_max_str_digits",
                           lambda: None)() == cap
    long = tmp_path / "long.json"
    long.write_text('{"genus": ' + "1" * 5000 + "}")
    code, _, err = run_cli(["validate", str(long)], capsys)
    assert code == 2 and "integer literal too long" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no cap on integer digits")
def test_gen_refuses_a_fixture_past_the_digit_limit(tmp_path, capsys):
    # at the least cap Python allows, 640 digits, a word of 14,000
    # transvections at (1, 1) has entries of 966 digits: the file could not
    # be read back, so gen writes none and exits 2
    path = tmp_path / "big.json"
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(["gen", "--g", "1", "--handles", "1",
                                  "--words", "14000", "--seed", "1",
                                  "--out", str(path)], capsys)
    finally:
        sys.set_int_max_str_digits(cap)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "640 digits" in err
    assert not path.exists()


def test_series_commands_json_bytes(tmp_path, capsys):
    # series coefficients print as JSON strings, verify rows as JSON numbers
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(
        {"genus": 0, "handles": 1, "monodromy": [[0, -1], [1, 0]]}))
    expected = {
        ("torsion", "--kmax", "2"):
            '[\n  {\n    "k": 0,\n    "coefficient": "0"\n  },\n'
            '  {\n    "k": 1,\n    "coefficient": "-1"\n  },\n'
            '  {\n    "k": 2,\n    "coefficient": "0"\n  }\n]\n',
        ("verify", "--nmax", "1"):
            '[\n  {\n    "n": 0,\n    "lhs": -1,\n    "rhs": -1,\n'
            '    "match": "match"\n  },\n'
            '  {\n    "n": 1,\n    "lhs": -2,\n    "rhs": -2,\n'
            '    "match": "match"\n  }\n]\n',
        ("zeta", "--kmax", "2"):
            '[\n  {\n    "k": 0,\n    "coefficient": "1"\n  },\n'
            '  {\n    "k": 1,\n    "coefficient": "2"\n  },\n'
            '  {\n    "k": 2,\n    "coefficient": "4"\n  }\n]\n',
    }
    for (command, flag, value), text in expected.items():
        code, out, err = run_cli([command, str(path), flag, value,
                                  "--format", "json"], capsys)
        assert (code, out, err) == (0, text, "")


def test_torsion_command_runs_the_pencils_alone(tmp_path, capsys,
                                                monkeypatch):
    P = generate_fixture(1, 4, 40, 3)
    path = tmp_path / "four.json"
    write_presentation(P, str(path))
    expected = [str(c) for c in torsion.morse_torsion(P, 12).coeffs]

    def forbidden(*args):
        raise AssertionError("torsion ran the Morse determinant")

    monkeypatch.setattr(series, "series_det", forbidden)
    monkeypatch.setattr(torsion, "series_det", forbidden)
    monkeypatch.setattr(torsion, "morse_differential_matrix", forbidden)
    code, out, _ = run_cli(["torsion", str(path), "--kmax", "12"], capsys)
    assert code == 0
    assert [line.split("\t")[1] for line in out.splitlines()[1:]] == expected


def test_torsion_without_handles_forms_no_pencil(tmp_path, capsys,
                                                monkeypatch):
    # at N = 0 the numerator and the denominator are both det(1 - tA), so
    # tau = 1 and neither is formed, not even at core genus 30
    def forbidden(*args):
        raise AssertionError("torsion formed a pencil at N = 0")

    monkeypatch.setattr(torsion, "newton_pencil", forbidden)
    monkeypatch.setattr(linalg, "signed_pencil", forbidden)
    for g, words, kmax in ((0, 0, 0), (1, 4, 2), (4, 40, 8), (30, 240, 8)):
        P = generate_fixture(g, 0, words, 1)
        assert torsion.torsion_representative(P, kmax) == \
            torsion.morse_torsion(P, kmax) == TruncSeries(kmax, (1,))
        path = tmp_path / f"g{g}.json"
        write_presentation(P, str(path))
        code, out, err = run_cli(["torsion", str(path), "--kmax", str(kmax)],
                                 capsys)
        assert (code, err) == (0, "")
        assert out == "k\tcoefficient\n0\t1\n" + "".join(
            f"{k}\t0\n" for k in range(1, kmax + 1))


def test_commands_read_the_schur_pencil_without_bareiss(tmp_path, capsys,
                                                      monkeypatch):
    # det A[D, C] = -3762 here, so every pencil of sw, torsion and intersect
    # comes from the Schur complement: no signed_pencil, and at most
    # ceil(w/2) products per newton_pencil call, w = min(top, g)
    P = generate_fixture(3, 2, 52, 1)
    assert det_int(submatrix(P.monodromy.mat, (2, 3), (0, 1))) == -3762
    path = tmp_path / "q.json"
    write_presentation(P, str(path))

    def forbidden(*args):
        raise AssertionError("a command ran the Bareiss pencil")

    assert not {"_bareiss", "mat_mul", "signed_pencil"} & set(vars(torsion))
    for module in (linalg, reference):
        monkeypatch.setattr(module, "signed_pencil", forbidden)
    products = []
    honest_mul = linalg.mat_mul

    def counting_mul(a, b):
        products.append(1)
        return honest_mul(a, b)

    calls = []
    honest = linalg.newton_pencil

    def counted(mat, N, top):
        before = len(products)
        out = honest(mat, N, top)
        calls.append((min(top, len(mat) // 2 - N), len(products) - before))
        return out

    monkeypatch.setattr(linalg, "mat_mul", counting_mul)
    monkeypatch.setattr(torsion, "newton_pencil", counted)
    monkeypatch.setattr(tqft, "newton_pencil", counted)
    for argv, kernel_calls in ((["sw", "--nmax", "4"], 1),
                               (["torsion", "--kmax", "24"], 2),
                               (["intersect", "--n", "3"], 1)):
        calls.clear()
        products.clear()
        code, _, err = run_cli([argv[0], str(path)] + argv[1:], capsys)
        assert (code, err) == (0, "")
        assert len(calls) == kernel_calls
        assert all(count <= (w + 1) // 2 for w, count in calls)
        assert sum(count for _, count in calls) == len(products)


def test_sw_table_tsv_and_json(tmp_path, capsys):
    path = tmp_path / "s2s1.json"
    path.write_text(json.dumps({"genus": 0, "handles": 0, "monodromy": []}))
    code, out, _ = run_cli(["sw", str(path), "--nmax", "2"], capsys)
    assert code == 0
    assert out.startswith("# b1=1\tmode=b1=1\n")
    code, out, _ = run_cli(["sw", str(path), "--nmax", "2", "--format", "json"],
                           capsys)
    doc = json.loads(out)
    assert doc["rows"] == [{"n": 0, "m": 2, "value": 1},
                           {"n": 1, "m": 4, "value": 2},
                           {"n": 2, "m": 6, "value": 3}]


def test_b1_command(tmp_path, capsys):
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(
        {"genus": 1, "handles": 0, "monodromy": [[1, 0], [0, 1]]}))
    code, out, _ = run_cli(["b1", str(path)], capsys)
    assert code == 0 and out.strip() == "3"


def test_intersect_command(tmp_path, capsys):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(
        {"genus": 0, "handles": 1, "monodromy": [[0, -1], [1, 0]]}))
    code, out, _ = run_cli(["intersect", str(path), "--n", "1"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1] == "1\t-2\t-2\tmatch"


def test_intersect_command_bytes(tmp_path, capsys):
    # the whole stdout in both formats, on the rotation fixture and on a
    # two-handle fixture (Sym^4 of genus 3)
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps(
        {"genus": 0, "handles": 1, "monodromy": [[0, -1], [1, 0]]}))
    two = tmp_path / "two.json"
    write_presentation(generate_fixture(1, 2, 24, 1), str(two))
    header = "n\tintersection\ttrace\tmatch\n"
    for path, value in ((rot, "-3"), (two, "-62392")):
        code, out, err = run_cli(["intersect", str(path), "--n", "2"], capsys)
        assert (code, out, err) == (
            0, f"{header}2\t{value}\t{value}\tmatch\n", "")
        code, out, err = run_cli(["intersect", str(path), "--n", "2",
                                  "--format", "json"], capsys)
        assert (code, out, err) == (
            0, '[\n  {\n    "n": 2,\n'
               f'    "intersection": {value},\n    "trace": {value},\n'
               '    "match": "match"\n  }\n]\n', "")


def test_output_bytes_deterministic(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(["gen", "--g", "1", "--handles", "1", "--words", "6", "--seed", "9",
             "--out", str(path)], capsys)
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(["verify", str(path), "--nmax", "2"], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def subprocess_cli(args, **env):
    env = dict(os.environ, **env,
               PYTHONPATH=os.path.dirname(os.path.dirname(swtorsion.__file__)))
    proc = subprocess.run([sys.executable, "-m", "swtorsion.cli", *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def test_commands_in_one_process_print_what_they_print_alone(tmp_path, capsys):
    # one process serves many commands; none may leave state behind
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(2, 2, 20, 3), str(path))
    commands = [["verify", str(path), "--nmax", "3", "--format", "json"],
                ["verify", str(path), "--nmax", "3"],
                ["sw", str(path), "--nmax", "3"]]
    for command, flag, value in (("zeta", "--kmax", "10"),
                                 ("torsion", "--kmax", "8"),
                                 ("intersect", "--n", "2")):
        args = [command, str(path), flag, value]
        commands += [args + ["--format", "json"], args]
    alone = [subprocess_cli(args) for args in commands]
    in_turn = []
    for args in commands:
        code, out, _ = run_cli(args, capsys)
        in_turn.append((code, out.encode()))
    assert in_turn == alone
    assert len({out for _, out in alone}) == len(commands)


# Run in a fresh interpreter: import the CLI, then each command in turn, and
# print after each whether the reference module has been imported.  No
# command may invert a mapping class either.
_FRESH_RUN = """
import contextlib, io, json, sys
from swtorsion.cli import main
loaded = ["swtorsion.reference" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([argv[0], code, "swtorsion.reference" in sys.modules])
print(json.dumps(loaded))
"""


def test_commands_call_no_reference_route(tmp_path):
    # no command reaches a route of swtorsion.reference, and none pays for
    # importing it: after importing the CLI and after each of the eight
    # commands the module is absent from sys.modules; the fixtures have
    # N = 0, det A[D, C] = 0 and det A[D, C] != 0
    commands = []
    for g, N, words in ((3, 0, 40), (2, 1, 2), (2, 2, 52)):
        path = str(tmp_path / f"{g}-{N}-{words}.json")
        commands.append(["gen", "--g", str(g), "--handles", str(N), "--words",
                         str(words), "--seed", "1", "--out", path])
        commands += [["validate", path], ["b1", path]]
        for command, flag, value in (("zeta", "--kmax", "8"),
                                     ("torsion", "--kmax", "8"),
                                     ("sw", "--nmax", "4"),
                                     ("verify", "--nmax", "3"),
                                     ("intersect", "--n", "2")):
            args = [command, path, flag, value]
            commands += [args, args + ["--format", "json"]]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(swtorsion.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN,
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(proc.stdout)
    assert loaded[0] is False
    assert loaded[1:] == [[argv[0], 0, False] for argv in commands]
    assert {argv[0] for argv in commands} == {
        "gen", "validate", "b1", *_TABLE_COMMANDS}


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(1, 1, 8, 2), str(path))
    built = []
    honest = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        honest(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for args in (["sw", str(path), "--nmax", "2"], ["b1", str(path)]):
        assert run_cli(args, capsys)[0] == 0
    assert built == []


def test_usage_error_leaves_the_parser_reusable(tmp_path, capsys):
    # an error of the sw subparser itself, and one that _PARSER raises
    # after the subparser left a token over; the next call parses as the
    # first did, through the subparser
    path = tmp_path / "p.json"
    write_presentation(generate_fixture(2, 1, 12, 5), str(path))
    good = ["sw", str(path), "--nmax", "3"]
    first = run_cli(good, capsys)
    assert first[0] == 0 and first[1]
    for bad, usage, error in (
            (["sw", str(path)], "usage: swtorsion sw", "--nmax"),
            (good + ["extra"], "usage: swtorsion ",
             "swtorsion: error: unrecognized arguments: extra")):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(usage)
        assert error in captured.err
        assert run_cli(good, capsys) == first


def outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of main(argv), usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_cases(path: str, out: str) -> list:
    cases = [["validate", path], ["b1", path],
             ["gen", "--g", "1", "--handles", "1", "--words", "3", "--seed",
              "2", "--out", out]]
    for command, (flag, _) in _TABLE_COMMANDS.items():
        cases += [[command, path, f"--{flag}", "2"],
                  [command, path, f"--{flag}", "2", "--format", "json"]]
    cases += [[command, "-h"] for command in ("validate", "b1", "gen",
                                              *_TABLE_COMMANDS)]
    return cases + [
        ["--help"], ["-h", "sw"], [], ["nosuch"], ["nosuch", path],
        ["sw", path], ["sw", path, "--nmax", "x"], ["sw", "--nmax", "2"],
        ["sw", path, "--nmax", "2", "--format", "xml"], ["gen", "--g", "1"],
        ["sw", path, "--nm", "2"], ["sw", path, "--nmax", "2", "--form",
                                    "json"],
        ["sw", path, "--n", "2"], ["validate", "--", path],
        ["sw", path, "--", "--nmax", "2"], ["sw", "--", path, "--nmax", "2"],
        ["sw", path, "--nmax", "2", "--"], ["sw", path, "--nmax", "2",
                                           "extra"],
        ["validate", path, "extra"], ["b1", path, "--nmax", "2"],
        ["sw", path, "--nmax", "2", "--nmax", "3"],
        ["sw", path, "--nmax", "2", "-h"], ["sw", "--help", path]]


def test_every_call_parses_as_the_top_level_parser_parses_it(
        tmp_path, capsys, monkeypatch):
    # main hands a call that names a command to that command's subparser
    # alone; the reference forces every call through _PARSER.parse_args,
    # on this interpreter, and both must print the same bytes to stdout
    # and stderr and exit with the same code
    monkeypatch.setenv("COLUMNS", "80")
    path = str(tmp_path / "p.json")
    write_presentation(generate_fixture(2, 1, 12, 5), path)
    cases = parser_cases(path, str(tmp_path / "out.json"))
    honest = cli._PARSER.parse_args
    reached = []
    monkeypatch.setattr(cli._PARSER, "parse_args",
                        lambda argv: reached.append(argv) or honest(argv))
    fast = [outcome(argv, capsys) for argv in cases]
    monkeypatch.setattr(cli, "_parse", honest)
    assert [outcome(argv, capsys) for argv in cases] == fast
    valid = 3 + 2 * len(_TABLE_COMMANDS)
    assert [code for code, _, _ in fast[:valid]] == [0] * valid
    assert {code for code, _, _ in fast} == {0, 2}
    # the valid calls never reached _PARSER; the unknown and extra ones did
    assert not any(argv in reached for argv in cases[:valid])
    assert ["nosuch"] in reached and ["validate", path, "extra"] in reached


def test_help_in_process_prints_what_it_prints_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: swtorsion")
    assert (0, out.encode()) == subprocess_cli(["--help"], COLUMNS="80")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "swtorsion.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "swtorsion" in proc.stdout


DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_prints_its_expected_output(demo):
    # the CI "Demos" step, byte for byte
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(swtorsion.__file__)))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, cwd=DEMOS.parent)
    assert proc.returncode == 0, proc.stderr.decode()
    expected = DEMOS / "expected" / f"{demo.stem}.txt"
    assert proc.stdout == expected.read_bytes()


def test_the_readme_library_example_runs():
    # the fenced python block under "## Library example", whose own
    # `assert report.passed` pins the documented API; it prints n, m and
    # Tr kappa_n of S^2 x S^1 (the label m is ROADMAP item 1's)
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    rows = [line.split() for line in out.getvalue().splitlines()]
    assert [(n, value) for n, _, value in rows] == [
        ("0", "-1"), ("1", "-2"), ("2", "-3"), ("3", "-4")]
