"""Discrete part of the local height pairing on a semi-stable curve.

Inputs are graph-level: a degree-zero divisor is a list of points, each with
a multiplicity and the special-fiber component (vertex) it reduces to, plus
user-supplied horizontal intersection numbers for pairs of points sharing a
component. The vertical correction makes the extended divisor meet every
component trivially: with the intersection matrix equal to minus the graph
Laplacian, the correction multiples solve laplacian(a) = (v -> degree of D
on v), anchored. The pairing is then

    height(D, E) = horizontal(D, E) + sum_v a(v) * deg_{U_v}(E),

an exact rational, independent of the anchor because E has degree zero.
The anchor (the first vertex unless one is named) and the connectivity of
the graph are decided in `graphs`; `intersection_matrix`, which solves
nothing, checks connectivity itself.
The normalization is coefficient 1 on the intersection product; no global
trace or character weighting is applied here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .graphs import DualGraph, VertexFn, solve_poisson
from .jsonutil import frac_from_json, id_from_json, int_from_json, items, member, to_fraction
from .record import Record, setfield


class DivisorPoint(Record):
    __slots__ = _fields = ("label", "multiplicity", "component")


class DivisorPlacement(Record):
    """Degree-zero divisor with per-point component assignments.

    horizontal_pairings maps (own point label, other divisor's point label)
    to the intersection number of the two horizontal sections; omitted pairs
    are zero (distinct residue discs).
    """

    __slots__ = _fields = ("points", "horizontal_pairings")

    def __init__(self, points: tuple, horizontal_pairings: dict | None = None):
        setfield(self, "points", points)
        labels = [pt.label for pt in points]
        if len(set(labels)) != len(labels):
            raise PreconditionError("duplicate point labels in a divisor")
        if sum(pt.multiplicity for pt in points) != 0:
            raise PreconditionError("divisor must have degree zero")
        pairings = {k: to_fraction(v) for k, v in (horizontal_pairings or {}).items()}
        setfield(self, "horizontal_pairings", pairings)

    def point(self, label: str) -> DivisorPoint:
        for pt in self.points:
            if pt.label == label:
                return pt
        raise PreconditionError(f"no point labelled {label!r}")

    def component_degrees(self, graph: DualGraph) -> VertexFn:
        """deg_{U_v}: total multiplicity reducing to each component."""
        out = {v: Fraction(0) for v in graph.vertices}
        for pt in self.points:
            if pt.component not in out:
                raise PreconditionError(
                    f"point {pt.label!r} placed on unknown component {pt.component!r}"
                )
            out[pt.component] += pt.multiplicity
        return VertexFn(graph, out)


def divisor(points, horizontal_pairings=None) -> DivisorPlacement:
    return DivisorPlacement(
        tuple(DivisorPoint(l, int_from_json(m), c) for l, m, c in points),
        dict(horizontal_pairings or {}),
    )


def intersection_matrix(graph: DualGraph):
    """Component intersection numbers: 1 off-diagonal per edge, minus the
    degree on the diagonal. Rows sum to zero; the matrix is minus the graph
    Laplacian."""
    graph.require_connected()
    return [[Fraction(-x) for x in row] for row in graph.laplacian_matrix()]


def vertical_correction(graph: DualGraph, D: DivisorPlacement, anchor=None) -> VertexFn:
    """Multiples of the components making D + sum a_v T_v meet every
    component trivially: the anchored Poisson solution for the component
    degrees of D."""
    return solve_poisson(D.component_degrees(graph), anchor)


def _horizontal_total(graph, D: DivisorPlacement, E: DivisorPlacement) -> Fraction:
    total = Fraction(0)
    for (dl, el), value in D.horizontal_pairings.items():
        dp, ep = D.point(dl), E.point(el)
        if dp.component != ep.component:
            raise PreconditionError(
                f"horizontal pairing {dl!r}/{el!r} requested across distinct components"
            )
        total += Fraction(dp.multiplicity) * Fraction(ep.multiplicity) * value
    return total


def discrete_height(
    graph: DualGraph, D: DivisorPlacement, E: DivisorPlacement, anchor=None
) -> Fraction:
    """Intersection pairing of the vertically corrected extension of D with E."""
    return local_height_report(graph, D, E, anchor)["value"]


def local_height_report(
    graph: DualGraph, D: DivisorPlacement, E: DivisorPlacement, anchor=None
) -> dict:
    """Height with its horizontal/vertical breakdown, for inspection and the CLI."""
    anchor = graph.resolve_anchor(anchor)
    horizontal = _horizontal_total(graph, D, E)
    a = vertical_correction(graph, D, anchor)
    deg_e = E.component_degrees(graph)
    vertical = Fraction(0)
    for v in graph.vertices:
        vertical += a.values[v] * deg_e.values[v]
    return {
        "value": horizontal + vertical,
        "horizontal": horizontal,
        "vertical": vertical,
        "anchor": anchor,
        "normalization": "intersection-product coefficient 1",
    }


# -- JSON --------------------------------------------------------------------


def _point_from_json(obj) -> tuple:
    return (
        member(obj, "label", id_from_json),
        member(obj, "multiplicity", int_from_json),
        member(obj, "component", id_from_json),
    )


def _pairing_from_json(obj) -> tuple:
    labels = (member(obj, "own", id_from_json), member(obj, "other", id_from_json))
    return labels, member(obj, "value", frac_from_json)


def divisor_from_json(obj) -> DivisorPlacement:
    points = member(obj, "points", items, _point_from_json)
    pairings = {}
    listed = member(obj, "horizontal_pairings", items, _pairing_from_json, default=[])
    for index, (labels, value) in enumerate(listed):
        if labels in pairings:
            raise PreconditionError(
                f"horizontal pairing {labels[0]!r}/{labels[1]!r} is listed twice",
                ("horizontal_pairings", index),
            )
        pairings[labels] = value
    return divisor(points, pairings)
