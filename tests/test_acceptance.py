"""Acceptance suite: one test per top-level guarantee, exact comparisons only.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them); any failure is an ordinary pytest failure.  All random data is seeded,
so the suite is deterministic.
"""
import json
import random
import time
from fractions import Fraction

import pytest

from swtorsion.cli import main as cli_main
from swtorsion.intersection import intersection_number
from swtorsion.linalg import det_int, identity_matrix, mat_mul
from swtorsion.reference import (Monomial, VolumedComplex, _minor_sums,
                                 c_class, char_series, collapse_perm,
                                 complex_torsion, det_rational, dual_basis,
                                 enumerate_basis, enumerate_relative_perms,
                                 graded_trace, gram_matrix,
                                 induced_endomorphism, kappa_matrix,
                                 perm_parity, torsion_coefficient_direct,
                                 wedge_class)
from swtorsion.series import TruncSeries
from swtorsion.surface import SurfaceModel, random_symplectic
from swtorsion.sympower import SymSpace
from swtorsion.torsion import torsion_representative
from swtorsion.tqft import (Presentation, compute_b1, rhs_series,
                            trace_kappa_coefficient, verify_main_identity,
                            zeta_series)
from conftest import make_presentation, presentation_sample, rational_exp


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_main_identity():
    """Tr kappa_n agrees with the torsion-times-zeta coefficients, both routes."""
    start = time.perf_counter()
    sample = presentation_sample(100, seed=1001, gmax=2, hmax=2, cap=3, words=8)
    for P in sample:
        rhs = rhs_series(P, 3)
        for n in range(4):
            direct = trace_kappa_coefficient(P, n)
            matrix = graded_trace(kappa_matrix(P, n))
            assert direct == matrix == rhs[n], (P.genus, P.handles, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"main identity on 100 presentations, n <= 3 ({elapsed:.1f}s)")


def test_criterion_2_zeta_three_way():
    """exp formula, weighted Lefschetz sum, and det expansion coincide."""
    start = time.perf_counter()
    rng = random.Random(2002)
    kmax = 6
    for trial in range(100):
        G = rng.randint(0, 4)
        A = random_symplectic(SurfaceModel(G), rng.randint(0, 8),
                              rng.randint(0, 10 ** 9))
        # exp route
        traces = []
        power = A.mat
        for k in range(1, kmax + 1):
            traces.append(sum(power[i][i] for i in range(len(power))))
            power = mat_mul(power, A.mat)
        via_exp = rational_exp([0] + [Fraction(2 - traces[k - 1], k)
                                      for k in range(1, kmax + 1)])
        # weighted exterior trace route: at N = 0 the minor sums are
        # (-1)^j tr Lambda^j A, each over the principal j x j minors
        signed = _minor_sums(Presentation(G, 0, A), 2 * G)
        via_sum = TruncSeries(kmax, [
            sum((k - j + 1) * signed[j] for j in range(min(k, 2 * G) + 1))
            for k in range(kmax + 1)])
        # rational function route, over 1/(1 - t)^2 = sum (m + 1) t^m
        via_det = char_series(A, kmax) * TruncSeries(kmax, range(1, kmax + 2))
        assert via_exp == via_sum.coeffs == via_det.coeffs
        assert all(type(c) is int for c in via_det.coeffs)
        assert zeta_series(Presentation(G, 0, A), kmax) == via_det
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"zeta three-way agreement on 100 matrices, G <= 4, k <= 6 "
               f"({elapsed:.2f}s)")


def test_criterion_3_mapping_torus_reduction():
    """Without handles the trace is the symmetric-power Lefschetz number."""
    rng = random.Random(3003)
    for trial in range(12):
        G = rng.randint(0, 2)
        P = make_presentation(G, 0, rng.randint(0, 8), rng.randint(0, 10 ** 9))
        for n in range(5):
            assert trace_kappa_coefficient(P, n) == graded_trace(
                induced_endomorphism(P.monodromy, n))
    for G in (1, 2):
        P = make_presentation(G, 0, 0, 0)
        poly = TruncSeries(4, (1,))
        for _ in range(2 * G - 2):
            poly = poly * TruncSeries(4, [1, -1])
        values = [trace_kappa_coefficient(P, n) for n in range(5)]
        assert values == [poly[n] for n in range(5)]
    assert values == [1, -2, 1, 0, 0]  # the genus-2 identity case
    _report(3, "mapping torus reduction, n <= 4, identity values (1,-2,1,0,0)")


def test_criterion_4_torsion_cross_path():
    """Composition-sum coefficients equal the determinant expansion."""
    for P in presentation_sample(25, seed=4004):
        rep = torsion_representative(P, 6)
        for k in range(7):
            assert torsion_coefficient_direct(P, k) == rep[k]
    for N in (1, 2):
        P = make_presentation(1, N, 0, 0)
        rep = torsion_representative(P, 6)
        for k in range(7):
            assert rep[k] == 0 == torsion_coefficient_direct(P, k)
    _report(4, "torsion determinant vs direct coefficients, k <= 6")


def test_criterion_5_complex_torsion():
    """Basis-choice independence, two-term determinants, non-acyclic zero."""
    from test_torsion import _random_acyclic_three_term, _random_invertible

    rng = random.Random(5005)
    for trial in range(5):
        C = _random_acyclic_three_term(rng, rng.randint(1, 3), rng.randint(1, 3))
        base = complex_torsion(C)
        for rerun in range(20):
            assert complex_torsion(C, random.Random(rerun)) == base
    for i in (1, 2, 3):
        d = _random_invertible(rng, 2)
        ranks = (2, 2) + (0,) * (i - 1)
        diffs = (d,) + ((),) * (i - 1)
        C = VolumedComplex(ranks, diffs)
        det = det_rational(d)
        expected = det if i % 2 == 0 else 1 / det
        assert complex_torsion(C) == expected
    assert complex_torsion(VolumedComplex((1, 1), [((0,),)])) == 0
    assert complex_torsion(VolumedComplex((1, 2, 1),
                                          [((1,), (0,)), ((0, 0),)])) == 0
    _report(5, "acyclic complex torsion: 20 pivot reruns, placements, zeros")


def test_criterion_6_sign_lemma():
    """sgn(rho) = sgn(collapsed rho) + s - N mod 2, exhaustively to s = 7.

    The offset is the number of points outside the returning set; the
    collapse consumes one transposition parity per such point.
    """
    start = time.perf_counter()
    total = 0
    for s in range(0, 8):
        for N in range(0, s + 1):
            for rho in enumerate_relative_perms(s, N):
                tilde, times = collapse_perm(rho)
                if N:
                    assert sum(times) == s
                assert rho.parity == (perm_parity(tilde) + s - N) % 2
                total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(6, f"sign lemma over all {total} relative permutations, s <= 7 "
               f"({elapsed:.1f}s)")


def test_criterion_7_intersection_reformulation():
    """Graph-diagonal intersection equals the trace; duality is unimodular."""
    for P in presentation_sample(25, seed=7007, gmax=2, hmax=2, cap=2):
        for n in range(3):
            assert intersection_number(P, n) == trace_kappa_coefficient(P, n)
    for G in (0, 1, 2):
        for N in range(0, min(G, 2) + 1):
            surface = SurfaceModel(G, (N, G - N))
            for m in range(0, 5 - G):
                assert abs(det_int(gram_matrix(SymSpace(surface, m)))) == 1
    _report(7, "intersection number vs trace on 25 presentations; "
               "unimodular duality")


def test_criterion_7_dual_conversion_in_valid_range():
    """The handle dual-conversion identity, where it is structurally true."""
    for (g, N) in ((0, 1), (1, 1), (0, 2), (2, 0), (1, 0)):
        P = make_presentation(g, N, 0, 0)
        surface = P.surface
        for n in range(0, 2 if N else 3):
            duals_small = dual_basis(SymSpace(surface, n))
            duals_big = dual_basis(SymSpace(surface, n + N))
            for beta in enumerate_basis(SymSpace(SurfaceModel(g), n)):
                shifted = Monomial(tuple(i + 2 * N for i in beta.indices), beta.q)
                left = duals_small[shifted]
                for i in reversed(range(N)):
                    left = wedge_class(c_class(surface, i), left)
                d_mono = Monomial(tuple(range(N, 2 * N)) + shifted.indices, beta.q)
                e4 = (N * beta.degree + N * (N - 1) // 2) % 2
                right = duals_big[d_mono].scale(-1 if e4 else 1)
                assert left == right, (g, N, n, beta)
    _report(7, "dual conversion identity holds on its structural range")


@pytest.mark.xfail(strict=True, reason=(
    "dual conversion beyond symmetric power one with handles present: the "
    "low-power dual of a y power is a handle monomial whose c-wedge dies by "
    "a repeated factor while the high-power dual of the d-wedge is nonzero; "
    "the stated identity cannot hold there under any sign convention"))
def test_criterion_7_dual_conversion_full_stated_range():
    for (g, N) in ((0, 1), (1, 1), (0, 2)):
        P = make_presentation(g, N, 0, 0)
        surface = P.surface
        for n in range(0, 3):
            duals_small = dual_basis(SymSpace(surface, n))
            duals_big = dual_basis(SymSpace(surface, n + N))
            for beta in enumerate_basis(SymSpace(SurfaceModel(g), n)):
                shifted = Monomial(tuple(i + 2 * N for i in beta.indices), beta.q)
                left = duals_small[shifted]
                for i in reversed(range(N)):
                    left = wedge_class(c_class(surface, i), left)
                d_mono = Monomial(tuple(range(N, 2 * N)) + shifted.indices, beta.q)
                e4 = (N * beta.degree + N * (N - 1) // 2) % 2
                right = duals_big[d_mono].scale(-1 if e4 else 1)
                assert left == right, (g, N, n, beta)


def test_criterion_8_degenerate_sanity():
    """The product of a sphere or torus with the circle comes out exactly."""
    sphere = Presentation.from_matrix(0, 0, [], "S2xS1")
    assert compute_b1(sphere) == 1
    geom = TruncSeries(4, range(1, 6))  # 1/(1 - t)^2
    for n in range(5):
        assert trace_kappa_coefficient(sphere, n) == n + 1 == geom[n]
    t3 = Presentation.from_matrix(1, 0, identity_matrix(2), "T3")
    assert compute_b1(t3) == 3
    values = [trace_kappa_coefficient(t3, n) for n in range(4)]
    assert values == [1, 0, 0, 0]
    assert verify_main_identity(t3, 3).passed
    _report(8, "S2xS1: b1 = 1, traces n + 1; T3: b1 = 3, traces (1,0,0,0)")


def test_criterion_9_cli_contract(tmp_path, capsys):
    """Fixture determinism and verify exit codes through the console flow."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["gen", "--g", "1", "--handles", "1", "--words", "7", "--seed", "13"]
    assert cli_main(base + ["--out", str(a)]) == 0
    assert cli_main(base + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    assert cli_main(["verify", str(a), "--nmax", "3"]) == 0
    out = capsys.readouterr().out
    assert all(line.endswith("match") for line in out.strip().split("\n")[1:])

    bad = tmp_path / "bad.json"
    doc = json.loads(a.read_text())
    doc["monodromy"][0][0] += 1  # break the symplectic relation
    bad.write_text(json.dumps(doc))
    assert cli_main(["verify", str(bad), "--nmax", "3"]) == 2
    err = capsys.readouterr().err
    assert "symplectic" in err
    _report(9, "CLI round-trip byte determinism and verify exit codes")
