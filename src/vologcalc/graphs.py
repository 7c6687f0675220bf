"""Exact cohomology of finite graphs over a configurable coefficient field.

The dual graph of a semi-stable model is simple (no loops, no multi-edges)
and connected; both are enforced. Each graph builds its incidence index once,
in edge order, and `degree`, `incident` and the connectivity check read it.
`DualGraph.laplacian_matrix` is the one integer Laplacian: the height pairing
negates it, and the Poisson solver factors it with the anchor's row and
column deleted. That fraction-free factorization is computed once per anchor
and held by the graph (`reduced_laplacian_factor`). Graphs are immutable
`Record`s, so a cached factor never goes stale, and every later solve on the
same (graph, anchor) only replays it; the caches (the incidence index and
the factors) are slots outside the compared fields.
`DualGraph.resolve_anchor` is the one anchor rule (the first vertex unless
one is named) and `solve_poisson` the one connectivity and zero-sum check,
for every caller. `VertexFn` and `Cochain` share one value-map type.
Cochains are antisymmetric edge functions: a value is stored on the chosen
orientation and the accessor negates on the reversed one.
Coefficients are duck-typed: rational data is solved by integer-only work
with exact Fraction results, and anything else with exact +, -, int
multiples, exact division by int and `== 0` true only for zero (p-adic
numbers, branch-parameter polynomials) replays the same elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .jsonutil import id_from_json, items, member, members, to_fraction
from .linalg import bareiss_factor, bareiss_solve
from .record import Record, setfield


class Edge(Record):
    __slots__ = _fields = ("id", "tail", "head")


class DualGraph(Record):
    _fields = ("vertices", "edges", "connected")
    __slots__ = _fields + ("_incidence", "_factors")

    def __init__(self, vertices: tuple, edges: tuple):
        setfield(self, "vertices", vertices)
        setfield(self, "edges", edges)
        if not vertices:
            raise PreconditionError("graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise PreconditionError("duplicate vertex ids")
        seen_ids = set()
        seen_pairs = set()
        incidence = {v: [] for v in vertices}
        for e in edges:
            if e.id in seen_ids:
                raise PreconditionError(f"duplicate edge id {e.id!r}")
            seen_ids.add(e.id)
            if e.tail not in incidence or e.head not in incidence:
                raise PreconditionError(f"edge {e.id!r} references unknown vertex")
            if e.tail == e.head:
                raise PreconditionError(f"self-loop at {e.tail!r} rejected")
            pair = frozenset((e.tail, e.head))
            if pair in seen_pairs:
                raise PreconditionError(
                    f"multiple edges between {e.tail!r} and {e.head!r} rejected"
                )
            seen_pairs.add(pair)
            incidence[e.tail].append((e, 1))
            incidence[e.head].append((e, -1))
        setfield(self, "_incidence", {v: tuple(out) for v, out in incidence.items()})
        setfield(self, "connected", self._is_connected())
        setfield(self, "_factors", {})

    def _is_connected(self) -> bool:
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for e, sign in self.incident(stack.pop()):
                w = e.head if sign == 1 else e.tail
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def degree(self, v) -> int:
        return len(self._incidence[v])

    def incident(self, v):
        """Oriented edges with tail v as (edge, sign on the stored orientation),
        in edge order."""
        return self._incidence[v]

    def laplacian_matrix(self):
        """Integer Laplacian in vertex order: degrees on the diagonal, -1 for
        each pair of adjacent vertices."""
        index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for v in self.vertices:
            mat[index[v]][index[v]] = self.degree(v)
        for e in self.edges:
            mat[index[e.tail]][index[e.head]] = -1
            mat[index[e.head]][index[e.tail]] = -1
        return mat

    def reduced_laplacian_factor(self, anchor):
        """Bareiss factor of the Laplacian with the anchor's row and column
        deleted, computed on first use and kept for the graph's lifetime."""
        factor = self._factors.get(anchor)
        if factor is None:
            k = self.vertices.index(anchor)
            lap = self.laplacian_matrix()
            factor = bareiss_factor(
                [row[:k] + row[k + 1 :] for i, row in enumerate(lap) if i != k]
            )
            self._factors[anchor] = factor
        return factor

    def resolve_anchor(self, anchor=None):
        """The vertex that pins an anchored solve: the first vertex for None,
        else `anchor` itself, which must be a vertex."""
        if anchor is None:
            return self.vertices[0]
        if anchor not in self.vertices:
            raise PreconditionError(f"anchor {anchor!r} is not a vertex")
        return anchor

    def require_connected(self):
        if not self.connected:
            raise PreconditionError("graph is not connected")


def graph(vertices, edges) -> DualGraph:
    """Build a DualGraph from vertex ids and (id, tail, head) triples."""
    return DualGraph(tuple(vertices), tuple(Edge(i, t, h) for i, t, h in edges))


def cycle_graph(n: int) -> DualGraph:
    """Oriented n-cycle on vertices 0..n-1 with edges i -> i+1 mod n."""
    if n < 3:
        raise PreconditionError("a simple cycle needs at least 3 vertices")
    return graph(range(n), [(f"e{i}", i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> DualGraph:
    return graph(range(n), [(f"e{i}", i, i + 1) for i in range(n - 1)])


class _ValueMap(Record):
    """Coefficient-valued map on a graph's vertices or edge ids. A subclass
    names its key set (`_keys`, in graph order) and its two error messages;
    arithmetic and equality are shared."""

    __slots__ = _fields = ("graph", "values")

    def __init__(self, graph: DualGraph, values: dict):
        setfield(self, "graph", graph)
        setfield(self, "values", values)
        if set(values) != set(self._keys()):
            raise PreconditionError(self._support_error)

    def _same_graph(self, other):
        if self.graph is not other.graph and self.graph != other.graph:
            raise PreconditionError(self._graph_error)

    def __add__(self, other):
        self._same_graph(other)
        return type(self)(self.graph, {k: self.values[k] + other.values[k] for k in self.values})

    def __sub__(self, other):
        self._same_graph(other)
        return type(self)(self.graph, {k: self.values[k] - other.values[k] for k in self.values})

    def __mul__(self, scalar):
        return type(self)(self.graph, {k: self.values[k] * scalar for k in self.values})

    def map_values(self, fn):
        return type(self)(self.graph, {k: fn(x) for k, x in self.values.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and all(
            self.values[k] == other.values[k] for k in self._keys()
        )

    __hash__ = None


class VertexFn(_ValueMap):
    """Coefficient-valued function on all vertices."""

    __slots__ = ()

    _support_error = "vertex function must be supported on all of V"
    _graph_error = "vertex functions live on different graphs"

    def _keys(self):
        return self.graph.vertices

    def __call__(self, v):
        return self.values[v]


class Cochain(_ValueMap):
    """Antisymmetric edge function; stored on the graph's chosen orientations."""

    __slots__ = ()

    _support_error = "cochain must be supported on all of E"
    _graph_error = "cochains live on different graphs"

    def _keys(self):
        return [e.id for e in self.graph.edges]

    def value(self, edge_id, sign=1):
        v = self.values[edge_id]
        return v if sign == 1 else -v


def d(f: VertexFn) -> Cochain:
    """Coboundary: df(e) = f(tail) - f(head)."""
    g = f.graph
    return Cochain(g, {e.id: f.values[e.tail] - f.values[e.head] for e in g.edges})


def d_star(c: Cochain) -> VertexFn:
    """Adjoint coboundary: sum of c over oriented edges with tail v."""
    g = c.graph
    out = {}
    for v in g.vertices:
        acc = 0
        for e, sign in g.incident(v):
            acc = acc + c.value(e.id, sign)
        out[v] = acc
    return VertexFn(g, out)


def laplacian(f: VertexFn) -> VertexFn:
    """deg(v) f(v) - sum of f over neighbours; equals d_star(d(f))."""
    g = f.graph
    out = {}
    for v in g.vertices:
        acc = g.degree(v) * f.values[v]
        for e, sign in g.incident(v):
            acc = acc - f.values[e.head if sign == 1 else e.tail]
        out[v] = acc
    return VertexFn(g, out)


def solve_poisson(g_fn: VertexFn, anchor=None) -> VertexFn:
    """Unique f with laplacian(f) = g and f(anchor) = 0.

    Requires a connected graph and total sum zero (the image of the Laplacian
    is the mean-zero hyperplane); this is the one place that solvability is
    checked. Solved against the graph's cached fraction-free factor of the
    integer Laplacian with the anchor row and column deleted; int and
    Fraction data give Fraction values.
    """
    g = g_fn.graph
    g.require_connected()
    anchor = g.resolve_anchor(anchor)
    total = 0
    for v in g.vertices:
        total = total + g_fn.values[v]
    if total != 0:
        raise PreconditionError("Poisson data does not sum to zero over V")
    zero = g_fn.values[anchor] - g_fn.values[anchor]
    if type(zero) is int:
        zero = Fraction(0)
    if len(g.vertices) == 1:
        return VertexFn(g, {anchor: zero})
    others = [v for v in g.vertices if v != anchor]
    sol = bareiss_solve(
        g.reduced_laplacian_factor(anchor), [g_fn.values[v] for v in others]
    )
    out = {anchor: zero}
    out.update(zip(others, sol))
    return VertexFn(g, out)


def harmonic_project(c: Cochain, anchor=None):
    """Split c = harmonic + d(gamma) with d_star(harmonic) = 0.

    gamma solves the Poisson problem for d_star(c); the split is the
    orthogonal decomposition of the edge space, computed exactly.
    """
    gamma = solve_poisson(d_star(c), anchor)
    harmonic = c - d(gamma)
    return harmonic, gamma


def edge_inner(c1: Cochain, c2: Cochain):
    """Sum over unoriented edges of the product (orientation-independent)."""
    acc = 0
    for e in c1.graph.edges:
        acc = acc + c1.values[e.id] * c2.values[e.id]
    return acc


def vertex_inner(f1: VertexFn, f2: VertexFn):
    acc = 0
    for v in f1.graph.vertices:
        acc = acc + f1.values[v] * f2.values[v]
    return acc


def rational_vertex_fn(g: DualGraph, values: dict) -> VertexFn:
    return VertexFn(g, {v: to_fraction(values[v]) for v in g.vertices})


def rational_cochain(g: DualGraph, values: dict) -> Cochain:
    return Cochain(g, {e.id: to_fraction(values[e.id]) for e in g.edges})


# -- JSON ------------------------------------------------------------------


def _edge_from_json(obj) -> tuple:
    return members(obj, ("id", "tail", "head"), id_from_json)


def graph_from_json(obj) -> DualGraph:
    g = graph(
        member(obj, "vertices", items, id_from_json),
        member(obj, "edges", items, _edge_from_json),
    )
    for ids in (g.vertices, [e.id for e in g.edges]):
        if len({str(i) for i in ids}) != len(ids):
            raise PreconditionError('vertex or edge ids collide as JSON keys (such as 1 and "1")')
    return g
