"""Assembly of universal-branch integrals from per-vertex local data, and
their derivatives with respect to the branch parameter.

The input per oriented edge is either a raw difference value (head-side
primitive minus tail-side primitive on the annulus) or an annulus expansion
together with the two constants of integration. In the second case the raw
value is

    c(e) = C_head - C_tail - a_0(e) * L,

the cross-annulus jump computed in the head-side coordinate (the flip of the
stored one). Splitting c into a harmonic part plus d(gamma) produces the
per-vertex corrections gamma; the harmonic part is the cochain attached to
the integral, and the L-derivative of gamma solves the Poisson problem
laplacian(gamma') = -d_star(residue cochain).

All solves are anchored: the additive constant that a primitive is only
defined up to is fixed by making the correction vanish at the anchor vertex.
The anchor (the first vertex unless one is named) and the connectivity of
the graph are decided in `graphs`, by `DualGraph.resolve_anchor` and
`solve_poisson`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .graphs import Cochain, DualGraph, VertexFn, harmonic_project, solve_poisson
from .loglaurent import cross_annulus_jump, flip_coordinate
from .padic import PadicContext, UniversalScalar
from .record import Record

_HALF = Fraction(1, 2)


class EdgeLocalData(Record):
    """Per-edge input: exactly one of a raw difference value or an annulus
    expansion with its two one-sided constants of integration."""

    __slots__ = _fields = ("edge_id", "raw_c", "form", "c_tail", "c_head")

    def __init__(self, edge_id: str, raw_c=None, form=None, c_tail=None, c_head=None):
        super().__init__(edge_id, raw_c, form, c_tail, c_head)
        if (raw_c is None) == (form is None):
            raise PreconditionError(
                f"edge {edge_id!r}: supply either raw_c or an annulus form, not both"
            )
        if form is not None and (c_tail is None or c_head is None):
            raise PreconditionError(
                f"edge {edge_id!r}: annulus data needs both constants of integration"
            )

    def raw_value(self) -> UniversalScalar:
        if self.raw_c is not None:
            return self.raw_c
        return cross_annulus_jump(flip_coordinate(self.form), self.c_head, self.c_tail)

    def residue_value(self) -> UniversalScalar:
        """a_0 on the stored orientation; for raw data this is minus the
        branch coefficient of the raw difference."""
        if self.form is not None:
            return self.form.residue
        lead = self.raw_c.derive_at_zero()
        return UniversalScalar.of([-lead])


class LocalColemanData(Record):
    __slots__ = _fields = ("graph", "ctx", "edges", "anchor")

    def __init__(self, graph: DualGraph, ctx: PadicContext, edges: tuple, anchor=None):
        super().__init__(graph, ctx, edges, anchor)
        ids = set()
        for e in edges:
            if e.edge_id in ids:
                raise PreconditionError(f"edge data lists edge {e.edge_id!r} twice")
            ids.add(e.edge_id)
        expected = {e.id for e in self.graph.edges}
        if ids != expected:
            raise PreconditionError(
                f"edge data covers {sorted(map(str, ids))}, graph has {sorted(map(str, expected))}"
            )
        for e in self.edges:
            for s in (e.raw_c, e.c_tail, e.c_head):
                if s is not None and s.p != self.ctx.p:
                    raise PreconditionError(
                        f"edge {e.edge_id!r} carries prime {s.p}, context expects {self.ctx.p}"
                    )

    def raw_cochain(self) -> Cochain:
        return Cochain(self.graph, {e.edge_id: e.raw_value() for e in self.edges})

    def residue_cochain(self) -> Cochain:
        return Cochain(self.graph, {e.edge_id: e.residue_value() for e in self.edges})


class AssembledIntegral(Record):
    """Per-vertex corrections gamma and the harmonic difference cochain;
    the corrected vertex primitives are the chosen ones plus gamma."""

    __slots__ = _fields = ("gamma", "harmonic_cochain", "anchor")


def assemble(data: LocalColemanData) -> AssembledIntegral:
    """Split the raw difference cochain as harmonic + d(gamma), anchored.

    The harmonic part is the branch-polynomial cochain attached to the
    integral; gamma corrects the arbitrary per-vertex constants of
    integration.
    """
    anchor = data.graph.resolve_anchor(data.anchor)
    c = data.raw_cochain()
    harmonic, gamma = harmonic_project(c, anchor)
    return AssembledIntegral(gamma, harmonic, anchor)


def branch_shift(c_at_branch: Cochain, delta, n_omega: Cochain) -> Cochain:
    """Difference cochain after moving the branch by delta: c + delta * N.

    If the residue cochain is harmonic the shift stays inside the harmonic
    subspace, so the per-vertex constants do not move.
    """
    return c_at_branch + n_omega * delta


def derivative_vertex_function(residues: VertexFn, anchor=None) -> VertexFn:
    """Per-vertex branch derivative of an assembled primitive, given the
    vertex residue profile: the anchored solution of laplacian(u) = residues.

    The profile must sum to zero (residue theorem); the anchor pins down the
    additive constant the derivative is otherwise only defined up to.
    """
    return solve_poisson(residues, anchor)


def deriter_rhs(
    c_omega: Cochain,
    c_eta: Cochain,
    res_omega: Cochain,
    res_eta: Cochain,
    indices: Cochain,
) -> VertexFn:
    """Vertex data of the iterated-integral derivative:

        RHS(v) = (1/2) sum_{e+ = v} [c_eta(e) res_omega(e) - c_omega(e) res_eta(e)]
                 - sum_{e+ = v} indices(e)

    with all cochains evaluated antisymmetrically on the oriented edges out
    of v.
    """
    g = c_omega.graph
    out = {}
    for v in g.vertices:
        acc = 0
        for e, sign in g.incident(v):
            pair = (
                c_eta.value(e.id, sign) * res_omega.value(e.id, sign)
                - c_omega.value(e.id, sign) * res_eta.value(e.id, sign)
            )
            acc = acc + pair * _HALF - indices.value(e.id, sign)
        out[v] = acc
    return VertexFn(g, out)


def iterated_derivative(
    c_omega: Cochain,
    c_eta: Cochain,
    res_omega: Cochain,
    res_eta: Cochain,
    indices: Cochain,
    anchor=None,
) -> VertexFn:
    """Anchored per-vertex branch derivative of a double integral.

    Callers supply the two harmonic difference cochains, the two antisymmetric
    annulus-residue cochains, and the per-edge index values. The vertex data
    must sum to zero over V; that solvability is the theorem's internal
    consistency and is enforced by the Poisson solve, everything else is the
    caller's contract.
    """
    rhs = deriter_rhs(c_omega, c_eta, res_omega, res_eta, indices)
    return solve_poisson(rhs, anchor)


class CurvatureTerm(Record):
    """One omega (x) eta summand of a curvature form, in graph-level data."""

    __slots__ = _fields = ("c_omega", "c_eta", "res_omega", "res_eta", "indices")


def bundle_valuation(
    curvature_terms, gamma_form_residues: VertexFn, anchor=None
) -> VertexFn:
    """Per-component valuation of a section: the sum of the iterated-integral
    derivatives over the curvature terms plus the derivative coming from the
    residue-bearing form, all anchored at the same vertex.

    Holomorphic ambiguity in the choice of the underlying log function has
    zero branch derivative, so the result depends only on the supplied data.
    """
    out = derivative_vertex_function(gamma_form_residues, anchor)
    for term in curvature_terms:
        out = out + iterated_derivative(
            term.c_omega,
            term.c_eta,
            term.res_omega,
            term.res_eta,
            term.indices,
            anchor,
        )
    return out
