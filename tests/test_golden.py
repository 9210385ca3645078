"""Golden corpus: the bytes every command prints on a fixed set of fixtures.

For each `swtorsion gen` fixture with g + N <= 4 the corpus holds one
sha256 digest per call of (exit code, stdout, stderr): the `gen` call with
the bytes of the file it writes, then `validate`, `b1` and each table
command in TSV and JSON.  The short words give det A[D, C] = 0 and
p~(1) = 0, so both branches of `sw`'s b1 (``tqft.sw_table``) and of
``linalg.newton_pencil`` print here.  No call reaches argparse's own
text, whose wording differs between Python versions.

A change that alters output on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and names every digest it changed.
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

from swtorsion.cli import generate_fixture, main
from swtorsion.linalg import det_int, newton_pencil

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "corpus.json"

# (g, N, words, seed): every shape with g + N <= 4 at a short and a long
# word, and the five shapes with g + N = 4 again on a second seed
FIXTURES = ([(g, N, words, 1) for words in (2, 24)
             for g in range(5) for N in range(5 - g)]
            + [(g, 4 - g, words, 2) for words in (3, 40) for g in range(5)])


def fixture_id(fixture) -> str:
    return "g{}-N{}-w{}-s{}".format(*fixture)


def commands(g: int, N: int) -> list:
    """The calls made on each fixture file f.json: `sw` at nmax 1, below
    g once g >= 2, and at 2g + 2, past the whole pencil; `torsion` at
    kmax N, order 0 after the t^N shift; and `zeta` at 2G + 2 and
    `torsion` at 2G + N + 2, whose rows pass every pencil's degree, so
    that ``linalg.newton_pencil`` runs its full w = g."""
    G = g + N
    calls = [["validate", "f.json"], ["b1", "f.json"]]
    for command, flag, value in (("sw", "--nmax", 1),
                                 ("sw", "--nmax", 2 * g + 2),
                                 ("zeta", "--kmax", 8),
                                 ("torsion", "--kmax", 8),
                                 ("verify", "--nmax", 4),
                                 ("intersect", "--n", 2),
                                 ("torsion", "--kmax", N),
                                 ("zeta", "--kmax", 2 * G + 2),
                                 ("torsion", "--kmax", 2 * G + N + 2)):
        args = [command, "f.json", flag, str(value)]
        calls += [args, args + ["--format", "json"]]
    return calls


def digest(code, out: str, err: str, *extra: bytes) -> str:
    h = hashlib.sha256(json.dumps([code, out, err]).encode())
    for blob in extra:
        h.update(blob)
    return h.hexdigest()


def call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus_entry(fixture, workdir: pathlib.Path) -> dict:
    """Digest of every call on one fixture, made in ``workdir``, keyed by
    the call's arguments."""
    g, N, words, seed = fixture
    here = os.getcwd()
    os.chdir(workdir)
    try:
        gen = ["gen", "--g", str(g), "--handles", str(N), "--words",
               str(words), "--seed", str(seed), "--out", "f.json"]
        entry = {" ".join(gen): digest(*call(gen),
                                       pathlib.Path("f.json").read_bytes())}
        for argv in commands(g, N):
            entry[" ".join(argv)] = digest(*call(argv))
    finally:
        os.chdir(here)
    return entry


@pytest.mark.parametrize("fixture", FIXTURES, ids=fixture_id)
def test_every_command_prints_its_golden_bytes(fixture, tmp_path):
    expected = json.loads(CORPUS.read_text())[fixture_id(fixture)]
    assert corpus_entry(fixture, tmp_path) == expected


def test_the_corpus_covers_both_branches_of_the_pencil_and_of_b1():
    # det A[D, C] = 0 sends newton_pencil to its Bareiss fallback, and
    # p~(1) = 0 sends sw_table to compute_b1 at every nmax
    singular = vanishing = 0
    for g, N, words, seed in FIXTURES:
        mat = generate_fixture(g, N, words, seed).monodromy.mat
        top = newton_pencil(mat, N, 2 * g)
        vanishing += sum(top) == 0
        block = [row[:N] for row in mat[N:2 * N]]
        singular += N > 0 and det_int(block) == 0
    assert len(FIXTURES) == 40 and singular and 0 < vanishing < 40


if __name__ == "__main__":
    import tempfile

    corpus = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in FIXTURES:
            corpus[fixture_id(fixture)] = corpus_entry(fixture,
                                                       pathlib.Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(corpus)} fixtures to {CORPUS}\n")
