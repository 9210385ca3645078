"""Compression-body presentations M(g, N, h) and their trace invariants.

A presentation is a pair of mirrored compression bodies over a genus g + N
surface glued by a monodromy h, recorded by its pullback matrix on H^1 in
the split basis (c_0..c_{N-1}, d_0..d_{N-1}, x_0..x_{2g-1}).  The endomorphism
kappa_n of H^*(Sym^{n+N}) composes a contraction by the handle curves, the
wedge back in, and the monodromy action; its graded trace is the averaged
Seiberg-Witten invariant in the matching spin-c degree.  The same numbers
come out of the zeta function of the monodromy times the Morse-complex
torsion, and verifying that identity is the library's purpose.

The trace has two routes.  ``trace_kappa_series`` reads it from one integer
determinant pencil, whose low coefficients ``torsion.newton_pencil`` takes
from the traces of powers of a 2g x 2g Schur complement; ``kappa_trace``
reads the diagonal of kappa_n, one restricted minor of the monodromy per
subset of the core classes, from the closed form of ascend after descend
(a fixed partial permutation of the handle-wedge monomials).
``verify_main_identity`` runs both.  ``zeta_series`` reads det(1 - tA)
from the same kernel at N = 0 and checks it, on every call, against one
Berkowitz pass ``linalg.det_one_minus_t``.  The rhs of ``verify`` reads
det(1 - tA) from that Berkowitz pass alone, so it shares no code with the
kernel that the lhs reads.
``kappa_matrix`` assembles every column through ``descend_map``,
``ascend_map`` and the full Lambda(A) image and is the reference route for
the diagonal, run by the tests and the benchmark's traced replay.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import List, Optional, Tuple

from .linalg import det_int, det_one_minus_t, rank_int, submatrix
from .series import TruncSeries
from .surface import MappingClass, SurfaceModel, is_symplectic
from .sympower import (Monomial, SymClass, SymEndo, SymSpace, apply_induced,
                       contract_class, wedge_class)
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

    @property
    def small_surface(self) -> SurfaceModel:
        """The middle slice: unsplit surface of the core genus."""
        return SurfaceModel(self.genus)

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
    symplectic condition for the split intersection form.  Returns named
    violations instead of raising so callers can report all of them.
    """
    problems = shape_problems(genus, handles, rows)
    if not problems and not is_symplectic(
            rows, SurfaceModel(genus + handles, (handles, genus))):
        problems.append(SYMPLECTIC_PROBLEM)
    return problems


def descend_map(P: Presentation, n: int, alpha: SymClass) -> SymClass:
    """First compression body: contract by c_0, then c_1, .. then c_{N-1},
    kill monomials still meeting the handle classes, and read the result in
    the basis of the middle surface."""
    big = SymSpace(P.surface, n + P.handles)
    if alpha.space != big:
        raise ValueError("class is not in the expected symmetric power")
    N = P.handles
    cur = alpha
    for i in range(N):
        cur = contract_class(P.surface.c_class(i), cur)
    small = SymSpace(P.small_surface, n)
    out = {}
    for m, c in cur.terms.items():
        if any(i < 2 * N for i in m.indices):
            continue
        key = Monomial(tuple(i - 2 * N for i in m.indices), m.q)
        out[key] = c
    return SymClass(small, out)


def ascend_map(P: Presentation, n: int, beta: SymClass) -> SymClass:
    """Second compression body: include into the split basis and wedge the
    handle classes so the result reads c_0 ^ .. ^ c_{N-1} ^ beta."""
    small = SymSpace(P.small_surface, n)
    if beta.space != small:
        raise ValueError("class is not in the expected symmetric power")
    N = P.handles
    mid = SymSpace(P.surface, n)
    lifted = SymClass(mid, {Monomial(tuple(i + 2 * N for i in m.indices), m.q): c
                            for m, c in beta.terms.items()})
    cur = lifted
    for i in reversed(range(N)):
        cur = wedge_class(P.surface.c_class(i), cur)
    return cur


def kappa_matrix(P: Presentation, n: int) -> SymEndo:
    """The TQFT endomorphism of H^*(Sym^{n+N}): monodromy after wedge after
    contraction, assembled column by column over the monomial basis."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    big = SymSpace(P.surface, n + P.handles)
    A = P.monodromy

    def column(m: Monomial) -> SymClass:
        down = descend_map(P, n, SymClass.monomial(big, m))
        if down.is_zero():
            return SymClass.zero(big)
        up = ascend_map(P, n, down)
        return apply_induced(A, up)

    return SymEndo.from_function(big, column)


def kappa_trace(P: Presentation, n: int) -> int:
    """Graded trace of kappa_n read from its diagonal alone.

    kappa_n is Lambda(A) after ascend after descend.  Ascend after descend
    sends d_0..d_{N-1} x_K y^q to +c_0..c_{N-1} x_K y^q for each subset K
    of the core classes X and kills every other monomial, and Lambda(A)
    sends x_J to the sum over I of det A[I, J] x_I.  So the diagonal is
    det A[D u K, C u K] at each of the n - |K| + 1 monomials x_{D u K} y^q,
    and the trace sums (-1)^{N + |K|} (n - |K| + 1) det A[D u K, C u K]
    over |K| <= n (``_minor_sums`` over (1 - t)^2): one restricted minor
    per subset, with no symmetric power, no pencil of
    ``trace_kappa_series`` and no column of ``kappa_matrix`` formed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _over_square(_minor_sums(P, n), n)[n]


def _minor_sums(P: Presentation, nmax: int) -> Tuple[int, ...]:
    """(-1)^{N + k} sum over |K| = k of det A[D u K, C u K] for
    k <= min(nmax, 2g), each minor computed once: the coefficients of
    ``linalg.signed_pencil``, summed subset by subset."""
    N = P.handles
    mat = P.monodromy.mat
    C, D = tuple(range(N)), tuple(range(N, 2 * N))
    return tuple((-1) ** (N + k)
                 * sum(det_int(submatrix(mat, D + K, C + K))
                       for K in combinations(range(2 * N, len(mat)), k))
                 for k in range(min(nmax, 2 * P.genus) + 1))


def _over_square(signed: Tuple[int, ...], nmax: int) -> Tuple[int, ...]:
    """Coefficients n = 0..nmax of signed(t) / (1 - t)^2: dividing by
    1 - t is a running sum, so two running sums."""
    low = list(signed[:nmax + 1])
    return tuple(accumulate(accumulate(low + [0] * (nmax + 1 - len(low)))))


def _trace_series(A: MappingClass, nmax: int) -> Tuple[int, ...]:
    """Coefficients n = 0..nmax of det(1 - tA) / (1 - t)^2, with the
    numerator from one Berkowitz pass ``linalg.det_one_minus_t``, stopped
    at t^nmax.  It forms no matrix product and no Bareiss determinant, so
    it shares no code with ``newton_pencil``: ``zeta_series`` checks the
    kernel against it, and ``rhs_series`` reads the zeta function from it.
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


class CrossCheckError(RuntimeError):
    """Two independent routes to one invariant disagreed; the CLI reports it
    on stderr and exits 1."""


def zeta_series(P, kmax: int) -> TruncSeries:
    """Zeta function of a presentation's monodromy (or a bare mapping class).

    det(1 - tA) / (1 - t)^2, with det(1 - tA) from the power-sum kernel
    ``newton_pencil`` at N = 0, where delta = 1 and T = A: the route the
    ``zeta`` command prints, at most ceil(min(kmax, G) / 2) - 1 products
    of size 2G.  Every call checks it against ``_trace_series``, one
    Berkowitz pass over A, which shares no code with the kernel.  A
    remainder in the kernel's Newton division or a disagreement raises
    ``CrossCheckError``.  ``rhs_series``, the side of ``verify`` that must
    not read the kernel, reads the Berkowitz pass alone.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    A = P.monodromy if isinstance(P, Presentation) else P
    try:
        coeffs = _over_square(newton_pencil(A.mat, 0, kmax), kmax)
    except AssertionError as e:
        raise CrossCheckError(f"zeta cross-check failed: {e} in the "
                              "power-sum kernel of det(1 - tA)") from None
    if coeffs != _trace_series(A, kmax):
        raise CrossCheckError("zeta cross-check failed: the power-sum kernel "
                              "and the Berkowitz pass disagree on "
                              "det(1 - tA)")
    return TruncSeries(kmax, coeffs)


def rhs_series(P: Presentation, nmax: int) -> TruncSeries:
    """Torsion-times-zeta side of the trace identity, indexed by n.

    The torsion is ``morse_torsion``, the determinant of the Morse matrix,
    not the pencil ratio of ``torsion_representative``, and the zeta
    function is ``_trace_series``, det(1 - tA) from one Berkowitz pass over
    (1 - t)^2, not ``zeta_series``: the trace, that ratio and
    ``zeta_series`` all read ``newton_pencil``, so only these routes keep
    this side independent of the trace.  A wrong zeta function changes
    the rows, and ``verify`` reports them as mismatches.  The Morse matrix
    carries one factor of t per handle, so the product zeta * det starts
    at t^N; coefficient n of the trace identity is coefficient n + N of
    that product.  The shift is exact: the low coefficients vanish
    identically.
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
    presentation: Presentation
    rows: Tuple[VerificationRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.match for r in self.rows)


def verify_main_identity(P: Presentation, nmax: int) -> VerificationReport:
    """Compare both trace routes against the torsion-times-zeta series.

    For each n up to nmax the coefficient of the determinant pencil
    (``trace_kappa_series``, through ``newton_pencil``), the graded trace
    read from the diagonal of kappa_n (``kappa_trace``) and the series
    coefficient must agree exactly; mismatches are recorded, not raised.
    The diagonal route sums each restricted minor once, by subset size
    and signed (``_minor_sums``), and reads every row from those sums
    over (1 - t)^2.  The series side, ``rhs_series``, runs the Morse
    determinant and one Berkowitz pass ``linalg.det_one_minus_t`` for the
    zeta function, so it shares no code with either trace route: it reads
    neither ``newton_pencil`` and its Bareiss fallback nor ``det_int``.
    The assembled ``kappa_matrix`` is the reference route for the diagonal
    and is not run.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    rhs = rhs_series(P, nmax)
    direct = trace_kappa_series(P, nmax)
    diagonal = _over_square(_minor_sums(P, nmax), nmax)
    return VerificationReport(P, tuple(
        VerificationRow(n, direct[n], diagonal[n], rhs[n])
        for n in range(nmax + 1)))


def compute_b1(P: Presentation) -> int:
    """First Betti number of M(g, N, h).

    Mayer-Vietoris for the two compression bodies gives
    b_1 = 1 + (2G - N) - rank(Q (1 - A^{-1})) where Q deletes the c rows
    and A^{-1} is the homology pushforward of the stored pullback.  Since
    (A - 1) A^{-1} = 1 - A^{-1} and A^{-1} is invertible, that rank is
    rank(Q (A - 1)), so A is never inverted.
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

    presentation: Presentation
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
    return SWTable(P, b1, mode, tuple(rows), note)
