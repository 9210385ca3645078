"""Workloads of the swtorsion benchmark: operation lists, fixtures, checks.

An operation is one CLI invocation (``verify``, ``sw``, ``intersect``,
``torsion`` or ``zeta``) on one presentation file written by
``swtorsion.cli.generate_fixture``.  A workload turns its seed into a fixed
list of operations; the seed picks the transvection words, the workload
fixes the shapes (g, N, argument), so two seeds give different matrices at
the same cost profile.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

FLAGS = {"verify": "--nmax", "sw": "--nmax", "intersect": "--n",
         "torsion": "--kmax", "zeta": "--kmax"}

# Word lengths of the cold workloads' fixtures.  All are long enough for
# dense monodromy matrices, so an operation's cost follows its shape rather
# than the seed, and five lengths give each shape five fixtures per seed.
WORD_LADDER = (36, 44, 52, 60, 68)


@dataclass(frozen=True)
class Op:
    """One CLI invocation on one generated fixture."""

    command: str
    g: int
    handles: int
    words: int
    word_seed: int
    arg: int

    @property
    def fixture_name(self) -> str:
        return (f"g{self.g}-N{self.handles}-w{self.words}"
                f"-s{self.word_seed}.json")

    def argv(self, path: str) -> List[str]:
        return [self.command, path, FLAGS[self.command], str(self.arg)]


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool
    make_ops: Callable[[random.Random], List[Op]]


def _word_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


# Shapes (g, N) with 1 <= g + N <= 3; the g + N = 3 shapes, which do most of
# the work, appear twice.  Thirteen entries put the median and the 90th
# percentile inside a shape's cost band rather than on a band boundary.
_SWEEP_SHAPES = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                 (3, 0), (2, 1), (1, 2), (0, 3),
                 (3, 0), (2, 1), (1, 2), (0, 3)]
# More distinct presentations than a 25 s run gets through (at most about
# 1800 on a 2-vCPU VM), so the warm caches see fresh monodromies throughout.
SWEEP_POOL = 2400


def _verify_sweep(rng: random.Random) -> List[Op]:
    ops = []
    for i in range(SWEEP_POOL):
        g, N = _SWEEP_SHAPES[i % len(_SWEEP_SHAPES)]
        ops.append(Op("verify", g, N, rng.randint(4, 16), _word_seed(rng), 3))
    return ops


def _ladder(rng: random.Random, specs) -> List[Op]:
    """Each (command, g, N, arg) at every word length, in seeded order."""
    ops = [Op(cmd, g, N, words, _word_seed(rng), arg)
           for cmd, g, N, arg in specs for words in WORD_LADDER]
    rng.shuffle(ops)
    return ops


def _sw_genus(rng: random.Random) -> List[Op]:
    return _ladder(rng, [("sw", 3, 0, 3), ("sw", 3, 0, 4), ("sw", 4, 0, 3),
                         ("sw", 3, 1, 3), ("sw", 3, 1, 4), ("sw", 4, 0, 4),
                         ("sw", 5, 0, 3), ("sw", 4, 1, 3), ("sw", 3, 2, 3)])


def _intersect_cold(rng: random.Random) -> List[Op]:
    # Sym dimensions 48, 64, 72, 80, 129 and 140.
    return _ladder(rng, [("intersect", 2, 0, 4), ("intersect", 1, 1, 3),
                         ("intersect", 1, 1, 4), ("intersect", 0, 2, 3),
                         ("intersect", 3, 0, 3), ("intersect", 2, 1, 2),
                         ("intersect", 0, 2, 4), ("intersect", 2, 1, 3),
                         ("intersect", 3, 1, 2)])


def _series_handles(rng: random.Random) -> List[Op]:
    # Fifteen shapes: five copies of each put the median and the 90th
    # percentile mid-way through one shape's operations.  The costliest
    # shape, torsion with five handles, takes the top 1/15 and stays clear
    # of the 90th percentile.
    return _ladder(rng, [("torsion", 0, 4, 24), ("torsion", 1, 4, 24),
                         ("torsion", 1, 4, 28), ("torsion", 2, 4, 32),
                         ("torsion", 0, 5, 24),
                         ("zeta", 0, 4, 24), ("zeta", 0, 4, 28),
                         ("zeta", 0, 4, 32), ("zeta", 0, 4, 36),
                         ("zeta", 0, 4, 40), ("zeta", 1, 4, 24),
                         ("zeta", 1, 4, 32), ("zeta", 0, 5, 24),
                         ("zeta", 0, 5, 32), ("zeta", 1, 5, 24)])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("verify-sweep", False, _verify_sweep),
    Workload("sw-genus", True, _sw_genus),
    Workload("intersect-cold", True, _intersect_cold),
    Workload("series-handles", True, _series_handles),
)}


def make_ops(name: str, seed: int) -> List[Op]:
    return WORKLOADS[name].make_ops(random.Random(f"{name}:{seed}"))


def twin(op: Op) -> Op:
    """Same shape and word length, another transvection word."""
    return Op(op.command, op.g, op.handles, op.words,
              (op.word_seed * 7919 + 1) % 2 ** 31, op.arg)


def _tsv_rows(text: str) -> List[Dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


def check_pairs(lib, op: Op, P, rc: int, out: str) -> List[Tuple[str, str]]:
    """(got, want) pairs for one operation's exit code and stdout.

    The wanted values come from routes independent of the printed one where
    the library has them: ``sw`` rows against zeta x torsion, the low
    ``torsion`` coefficients against the direct composition sum.  ``verify``
    and ``intersect`` print their own cross-check, and ``zeta`` raises when
    its three expansions disagree, which shows as a nonzero exit.
    """
    pairs = [(str(rc), "0")]
    if rc != 0:
        return pairs
    rows = _tsv_rows(out)
    count = {"verify": op.arg + 1, "sw": op.arg + 1, "intersect": 1,
             "torsion": op.arg + 1, "zeta": op.arg + 1}[op.command]
    pairs.append((str(len(rows)), str(count)))
    if op.command in ("verify", "intersect"):
        pairs += [(row["match"], "match") for row in rows]
    elif op.command == "sw":
        rhs = lib.tqft.rhs_series(P, op.arg)
        pairs += [(row["value"], str(rhs[int(row["n"])])) for row in rows]
    elif op.command == "torsion":
        coeffs = {int(row["k"]): row["coefficient"] for row in rows}
        pairs += [(coeffs[k], str(lib.torsion.torsion_coefficient_direct(P, k)))
                  for k in range(min(op.handles + 3, op.arg) + 1)]
    elif op.command == "zeta":
        pairs.append((rows[0]["coefficient"], "1"))
    return pairs


def computed_counts(op: Op, sym_dim: Callable[[int, int], int]) -> Dict[str, int]:
    """Work counts of one operation derived from its shape, not measured.

    ``sym_dim(G, m)`` is the dimension of H*(Sym^m) of a genus-G surface.
    """
    G, N = op.g + op.handles, op.handles
    space_dim = minors = leibniz = inverse_ops = 0
    if op.command in ("verify", "sw"):
        space_dim = sum(sym_dim(G, n + N) for n in range(op.arg + 1))
    if op.command == "intersect":
        space_dim = sym_dim(G, op.arg + N)
        inverse_ops = space_dim ** 3
    zeta_order = {"verify": op.arg + N, "zeta": op.arg}.get(op.command)
    if zeta_order is not None:
        minors = sum(math.comb(2 * G, j)
                     for j in range(min(2 * G, zeta_order) + 1))
    if op.command in ("verify", "torsion"):
        leibniz = math.factorial(N) * N
    return {"sympower.space_dim": space_dim,
            "surface.principal_minors": minors,
            "series.leibniz_products": leibniz,
            "linalg.gram_inverse_ops": inverse_ops}
