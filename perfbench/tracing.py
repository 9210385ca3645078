"""Traced replay of an operation, and the per-layer report built from it.

The replay calls the public functions of each layer in the order the CLI
calls them, with one span around each call, so the spans of an operation
partition it.  The library itself carries no instrumentation: every span is
opened here.  A span named ``<layer>.<call>`` belongs to that layer.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

# The spans a replay can open; each becomes the metric ``<name>_ms``.
SPANS = ["cli.load",
         "tqft.trace_kappa", "tqft.kappa_matrix", "tqft.rhs_series",
         "tqft.zeta_series", "tqft.b1",
         "sympower.gram_matrix", "sympower.dual_basis",
         "surface.char_series",
         "torsion.morse_matrix", "torsion.representative",
         "series.det", "series.mul",
         "intersection.diagonal_class", "intersection.graph_class",
         "intersection.product_evaluate"]
# Layers whose spans report a self time; the cli layer's self time is the
# part of the untraced operation that no span covers.
SELF_LAYERS = ["tqft", "sympower", "torsion", "series", "intersection"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    # A probe re-runs work already done elsewhere in the operation; it is
    # reported on its own and left out of every self time and of coverage.
    probe: bool


class Tracer:
    """Spans kept in memory, each with its parent and operation id."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, probe: bool = False):
        assert name in SPANS, name
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.op, probe)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> List[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [dict(asdict(s), start=s.start - t0, end=s.end - t0)
                for s in self.spans]


def _verify(lib, tr: Tracer, P, nmax: int) -> Dict[str, int]:
    N = P.handles
    order = nmax + N
    with tr.span("tqft.rhs_series"):
        with tr.span("tqft.zeta_series"):
            zeta = lib.tqft.zeta_series(P, order)
        with tr.span("torsion.representative"):
            with tr.span("torsion.morse_matrix"):
                M = lib.torsion.morse_differential_matrix(P, order)
            with tr.span("series.det"):
                torsion = lib.series.series_det(M.entries, order)
        with tr.span("series.mul"):
            (zeta * torsion).shift_down(N)
    for n in range(nmax + 1):
        with tr.span("tqft.trace_kappa"):
            lib.tqft.trace_kappa_coefficient(P, n)
        with tr.span("tqft.kappa_matrix"):
            lib.sympower.graded_trace(lib.tqft.kappa_matrix(P, n))
    with tr.span("surface.char_series", probe=True):
        lib.surface.char_series(P.monodromy, order)
    return {}


def _sw(lib, tr: Tracer, P, nmax: int) -> Dict[str, int]:
    with tr.span("tqft.b1"):
        lib.tqft.compute_b1(P)
    for n in range(nmax + 1):
        with tr.span("tqft.trace_kappa"):
            lib.tqft.trace_kappa_coefficient(P, n)
    return {}


def _intersect(lib, tr: Tracer, P, n: int) -> Dict[str, int]:
    space = lib.sympower.SymSpace(P.surface, n + P.handles)
    with tr.span("sympower.gram_matrix"):
        lib.sympower.gram_matrix(space)
    with tr.span("sympower.dual_basis"):
        lib.sympower.dual_basis(space)
    with tr.span("intersection.diagonal_class"):
        diagonal = lib.intersection.diagonal_class(P, n)
    with tr.span("intersection.graph_class"):
        graph = lib.intersection.graph_class(P, n)
    with tr.span("intersection.product_evaluate"):
        lib.intersection.product_evaluate(diagonal, graph)
    with tr.span("tqft.trace_kappa"):
        lib.tqft.trace_kappa_coefficient(P, n)
    return {"intersection.graph_terms": len(graph)}


def _torsion(lib, tr: Tracer, P, kmax: int) -> Dict[str, int]:
    with tr.span("torsion.representative"):
        with tr.span("torsion.morse_matrix"):
            M = lib.torsion.morse_differential_matrix(P, kmax)
        with tr.span("series.det"):
            lib.series.series_det(M.entries, kmax)
    return {}


def _zeta(lib, tr: Tracer, P, kmax: int) -> Dict[str, int]:
    with tr.span("tqft.zeta_series"):
        lib.tqft.zeta_series(P, kmax)
    with tr.span("surface.char_series", probe=True):
        lib.surface.char_series(P.monodromy, kmax)
    return {}


_REPLAYS = {"verify": _verify, "sw": _sw, "intersect": _intersect,
            "torsion": _torsion, "zeta": _zeta}


def replay(lib, tr: Tracer, command: str, path: str, arg: int) -> Dict[str, int]:
    """Run one operation as layer calls; returns the counts it measured."""
    with tr.span("cli.load"):
        P = lib.cli.load_presentation(path)
    return _REPLAYS[command](lib, tr, P, arg)


def span_times(tr: Tracer) -> Dict[int, Dict[str, float]]:
    """Per operation: each span's total duration, each layer's self time
    and the time covered by top-level spans, all in seconds."""
    child_time: Dict[int, float] = {}
    for s in tr.spans:
        if s.parent is not None and not s.probe:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    out: Dict[int, Dict[str, float]] = {}
    for i, s in enumerate(tr.spans):
        acc = out.setdefault(s.op, {})
        dur = s.end - s.start
        acc[s.name] = acc.get(s.name, 0.0) + dur
        if s.probe:
            continue
        layer = s.name.split(".")[0] + ".self"
        acc[layer] = acc.get(layer, 0.0) + dur - child_time.get(i, 0.0)
        if s.parent is None:
            acc["covered"] = acc.get("covered", 0.0) + dur
    return out
