"""Compression-body presentations M(g, N, h) and their trace invariants.

A presentation is a pair of mirrored compression bodies over a genus g + N
surface glued by a monodromy h, recorded by its pullback matrix on H^1 in
the split basis (c_0..c_{N-1}, d_0..d_{N-1}, x_0..x_{2g-1}).  The endomorphism
kappa_n of H^*(Sym^{n+N}) composes a contraction by the handle curves, the
wedge back in, and the monodromy action; its graded trace is the averaged
Seiberg-Witten invariant in the matching spin-c degree.  The same numbers
come out of the zeta function of the monodromy times the Morse-complex
torsion, and verifying that identity is the library's purpose.

``trace_kappa_series`` reads the trace from one integer determinant
pencil, whose low coefficients ``torsion.newton_pencil`` takes from the
traces of powers of a 2g x 2g Schur complement.  The diagonal of kappa_n
is one restricted minor of the monodromy per subset of the core classes,
and their signed sums by subset size are the coefficients of the Bareiss
pencil ``linalg.signed_pencil`` (g + 1 determinants), which
``verify_main_identity`` reads as its second trace column.
``zeta_series`` reads det(1 - tA) from the same kernel at N = 0 and
nothing else.  The rhs of ``verify`` reads det(1 - tA) from one Berkowitz
pass ``linalg.det_one_minus_t`` and the Morse determinant from the same
recursion over series, ``series.series_det``, so it shares no code with
either pencil; at N = 0 ``verify`` is therefore where the kernel that
``zeta`` prints is checked against the Berkowitz pass.
The assembled kappa_n and the subset-by-subset sum of its diagonal
(``kappa_matrix``, ``descend_map``, ``ascend_map``, ``kappa_trace``,
``_minor_sums``) are reference routes in ``swtorsion.reference``, run by
the tests and the benchmark's traced replay.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple

from .linalg import det_one_minus_t, rank_int, signed_pencil
from .series import TruncSeries
from .surface import MappingClass, SurfaceModel
from .torsion import morse_torsion, newton_pencil


@dataclass(frozen=True)
class Presentation:
    """The data (g, N, monodromy) of a standardized 3-manifold M(g, N, h)."""

    genus: int
    handles: int
    monodromy: MappingClass
    name: Optional[str] = None

    def __post_init__(self):
        if self.genus < 0 or self.handles < 0:
            raise ValueError("genus and handle count must be nonnegative")
        expected = SurfaceModel(self.genus + self.handles,
                                (self.handles, self.genus))
        if self.monodromy.surface != expected:
            raise ValueError("monodromy must act on the split surface "
                             f"of genus {self.genus + self.handles}")

    @property
    def surface(self) -> SurfaceModel:
        return self.monodromy.surface

    @classmethod
    def from_matrix(cls, genus: int, handles: int, rows,
                    name: Optional[str] = None) -> "Presentation":
        surface = SurfaceModel(genus + handles, (handles, genus))
        return cls(genus, handles, MappingClass(surface, rows), name)


SYMPLECTIC_PROBLEM = ("symplectic: matrix does not preserve the "
                      "intersection form (A^T J A = J fails)")


def shape_problems(genus, handles, rows) -> List[str]:
    """Diagnostics for the field types, the 2(g+N) matrix size and
    integrality; everything ``validate_presentation`` checks except the
    symplectic condition, which building the ``MappingClass`` checks."""
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
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                problems.append("integrality: matrix entries must be integers")
                return problems
    return problems


def validate_presentation(genus, handles, rows) -> List[str]:
    """Diagnostics for raw presentation data; an empty list means valid.

    Checks the field types, the 2(g+N) matrix size, integrality, and the
    symplectic condition, by building the ``MappingClass`` as the loader
    does.  Returns named violations instead of raising so callers can
    report all of them.
    """
    problems = shape_problems(genus, handles, rows)
    if not problems:
        try:
            MappingClass(SurfaceModel(genus + handles, (handles, genus)), rows)
        except ValueError:
            problems.append(SYMPLECTIC_PROBLEM)
    return problems


def _over_square(signed: Tuple[int, ...], nmax: int) -> Tuple[int, ...]:
    """Coefficients n = 0..nmax of signed(t) / (1 - t)^2: dividing by
    1 - t is a running sum, so two running sums."""
    low = list(signed[:nmax + 1])
    return tuple(accumulate(accumulate(low + [0] * (nmax + 1 - len(low)))))


def _trace_series(A: MappingClass, nmax: int) -> Tuple[int, ...]:
    """Coefficients n = 0..nmax of det(1 - tA) / (1 - t)^2, with the
    numerator from one Berkowitz pass ``linalg.det_one_minus_t``, stopped
    at t^nmax.  It forms no matrix product and no Bareiss determinant, so
    it shares no code with ``newton_pencil``.  ``rhs_series`` reads the
    zeta function from it, so ``verify`` at N = 0 checks the kernel that
    ``zeta_series`` prints against it; no command runs it otherwise.
    """
    return _over_square(det_one_minus_t(A.mat, nmax), nmax)


def trace_kappa_series(P: Presentation, nmax: int) -> Tuple[int, ...]:
    """Graded traces Tr kappa_n for n = 0..nmax, from one determinant pencil.

    Tr kappa_n sums (-1)^{|I| + N} det A[D u I, C u I] over the monomials
    x_I y^q of Sym^n of the core surface; q takes n - |I| + 1 values, so
    sum_n Tr kappa_n t^n = (-1)^N p(-t) / (1 - t)^2 with p as in
    ``linalg.signed_pencil``.  Only p_0 .. p_nmax enter, and
    ``torsion.newton_pencil`` reads them from the traces of at most
    T^ceil(nmax/2) for a 2g x 2g Schur complement T.  At N = 0 this is
    the zeta function.
    """
    if nmax < 0:
        raise ValueError("n must be nonnegative")
    return _over_square(newton_pencil(P.monodromy.mat, P.handles, nmax), nmax)


def trace_kappa_coefficient(P: Presentation, n: int) -> int:
    """Graded trace of kappa_n; see ``trace_kappa_series``."""
    return trace_kappa_series(P, n)[n]


def zeta_series(P: Presentation, kmax: int) -> TruncSeries:
    """Zeta function of P's monodromy; wrap a bare A as Presentation(G, 0, A).

    det(1 - tA) / (1 - t)^2, with det(1 - tA) from the power-sum kernel
    ``newton_pencil`` at N = 0, where delta = 1 and T = A: at most
    ceil(min(kmax, G) / 2) - 1 products of size 2G.  A remainder in the
    kernel's Newton division raises ``ExactDivisionError``.  No second
    route runs here: ``verify`` at N = 0 compares this kernel with
    ``_trace_series``, one Berkowitz pass over A that shares no code with
    it, and so does ``test_zeta_routes_agree``.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    numerator = newton_pencil(P.monodromy.mat, 0, kmax)
    return TruncSeries(kmax, _over_square(numerator, kmax))


def rhs_series(P: Presentation, nmax: int) -> TruncSeries:
    """Torsion-times-zeta side of the trace identity, indexed by n.

    The torsion is ``morse_torsion``, the determinant of the Morse matrix,
    not the pencil ratio of ``torsion_representative``, and the zeta
    function is ``_trace_series``, det(1 - tA) from one Berkowitz pass over
    (1 - t)^2, not ``zeta_series``: the trace, that ratio and
    ``zeta_series`` all read ``newton_pencil``, so only these routes keep
    this side independent of the trace.  A wrong zeta function changes
    the rows, and ``verify`` reports them as mismatches; at N = 0 the
    torsion is 1, so this side checks what ``zeta`` prints.  The Morse
    matrix carries one factor of t per handle, so the product zeta * det
    starts at t^N; coefficient n of the trace identity is coefficient
    n + N of that product.  The shift is exact: the low coefficients
    vanish identically.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    N = P.handles
    order = nmax + N
    product = (TruncSeries(order, _trace_series(P.monodromy, order))
               * morse_torsion(P, order))
    return product.shift_down(N)


@dataclass(frozen=True)
class VerificationRow:
    n: int
    lhs: int
    lhs_diagonal: int
    rhs: int

    @property
    def match(self) -> bool:
        return self.lhs == self.lhs_diagonal == self.rhs


@dataclass(frozen=True)
class VerificationReport:
    rows: Tuple[VerificationRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.match for r in self.rows)


def verify_main_identity(P: Presentation, nmax: int) -> VerificationReport:
    """Compare both trace routes against the torsion-times-zeta series.

    For each n up to nmax the coefficient of the determinant pencil
    (``trace_kappa_series``, through ``newton_pencil``), the graded trace
    read from the diagonal of kappa_n and the series coefficient must
    agree exactly; mismatches are recorded, not raised.
    The diagonal of kappa_n is one restricted minor det A[D u K, C u K]
    per subset K of the core classes (``reference.kappa_trace`` sums them
    subset by subset), and their signed sums by subset size are the
    coefficients of (-1)^N p(-t), so the diagonal column reads
    ``linalg.signed_pencil`` over (1 - t)^2: g + 1 Bareiss determinants
    where the subsets number 2^(2g).  When delta = det A[D, C] != 0 the
    lhs reads the Schur power sums of ``newton_pencil``, a different
    algorithm on the same Bareiss kernel.  When delta = 0,
    ``newton_pencil`` returns ``signed_pencil`` itself, and the two trace
    columns are one computation; the tests compare the minor sums with
    that fallback.  The series side, ``rhs_series``, runs the Morse
    determinant and one Berkowitz pass ``linalg.det_one_minus_t`` for the
    zeta function, so it shares no code with either trace column: it
    reads neither ``newton_pencil`` and its Bareiss fallback nor
    ``det_int``.  Every row keeps that independent witness.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    rhs = rhs_series(P, nmax)
    direct = trace_kappa_series(P, nmax)
    diagonal = _over_square(signed_pencil(P.monodromy.mat, P.handles), nmax)
    return VerificationReport(tuple(
        VerificationRow(n, direct[n], diagonal[n], rhs[n])
        for n in range(nmax + 1)))


def compute_b1(P: Presentation) -> int:
    """First Betti number of M(g, N, h), as printed today; it undercounts.

    This returns 1 + (2G - N) - rank(Q (A - 1)), where Q deletes the c
    rows: all 2G columns enter the rank, and A is never inverted.

    *The derivation, and the defect (ROADMAP item 9).*  Cut M along the
    genus-G level.  What is left is a cobordism W from the surface to
    itself, the two compression bodies glued along the core surface, and
    M is W with its ends identified by h.  Each compression body kills the
    c classes and keeps the d classes, so
    H_1(W) = H_1(Sigma_g) + Z^N (top d's) + Z^N (bottom d's).
    Mayer-Vietoris for the gluing gives H_1(M) = Z + coker(i_top -
    i_bot h_*) with h_* = A^{-1} the homology pushforward of the stored
    pullback.  On the rows of the top d classes, i_top - i_bot h_* is the
    identity on the D columns and zero elsewhere, so those N rows
    eliminate the D columns.  What is left is the square block
    (1 - h_*)[D u X, C u X], and

        b_1 = 1 + (2G - N) - rank B,   B = (1 - A)[D u X, C u X],

    since A^{-1} = -J A^T J and the partner map swaps C u X with D u X:
    (1 - A^{-1})[D u X, C u X] is B transposed with its rows and columns
    signed, of the same rank.  By ``linalg.signed_pencil``,
    t^N p~(t) = det (1 - tA)[D u X, C u X] with p~(t) = (-1)^N p(-t) the
    numerator of ``trace_kappa_series``, so det B = p~(1).  Hence b_1 = 1
    exactly when p~(1) != 0, and then |Tors H_1| = |p~(1)|.  p~ is
    palindromic of degree 2g, so Tr kappa_n = p~(1) (n - g + 1) for every
    n >= 2g - 1, and b_1 > 1 forces Tr kappa_n = 0 there.

    The rank taken here also reads the D columns, so it can exceed rank B
    and b_1 comes out too small: on c -> -c, d -> 3c - d (g = 0, N = 1,
    (S^2 x S^1) # (S^2 x S^1)) B = 0 and b_1 = 2, but the entry
    (A - 1)[d][d] = -2 makes this return 1.  A strict xfail pins that case;
    ``b1`` and ``sw`` print this value until ROADMAP item 9 step 2, which
    changes stdout, reads rank B instead.
    """
    G = P.genus + P.handles
    N = P.handles
    A = P.monodromy.mat
    dropped = tuple(tuple(A[i][j] - (1 if i == j else 0) for j in range(2 * G))
                    for i in range(N, 2 * G))
    return 1 + (2 * G - N) - rank_int(dropped)


@dataclass(frozen=True)
class SWRow:
    n: int
    m: int
    value: int


@dataclass(frozen=True)
class SWTable:
    """Averaged Seiberg-Witten invariants indexed by spin-c degree.

    ``mode`` records which degree map applied, with g(S) = g + N the genus
    of the splitting surface: for b_1 = 1 the printed degree is
    m = 2(n - g(S) + 1), and for b_1 > 1 it is m = 2(g(S) - 1 - n), which
    is negative for every n > g(S) - 1 (the ``note`` still speaks of
    |m|).  Both labels are open: ROADMAP item 1 step 2 derives the degree
    from the paper, where counting on Sym^{n+N} suggests 2(n - g + 1) with
    the core genus g.  Negative symmetric power degrees carry vanishing
    invariants and are omitted.
    """

    b1: int
    mode: str
    rows: Tuple[SWRow, ...]
    note: str


def sw_table(P: Presentation, nmax: int) -> SWTable:
    """Tabulate Tr kappa_n with its spin-c degree label for n = 0..nmax."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    b1 = compute_b1(P)
    gS = P.genus + P.handles
    values = trace_kappa_series(P, nmax)
    rows = []
    for n, value in enumerate(values):
        if b1 == 1:
            m = 2 * (n - gS + 1)
        else:
            m = 2 * (gS - 1 - n)
        rows.append(SWRow(n, m, value))
    mode = "b1=1" if b1 == 1 else "b1>1"
    note = ("negative symmetric power degrees have vanishing invariant sums; "
            "for b1>1 the degree column lists |m| and the invariant is "
            "symmetric under m -> -m only as far as the degree map states")
    return SWTable(b1, mode, tuple(rows), note)
