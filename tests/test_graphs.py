import json
import random
from fractions import Fraction

import pytest

from vologcalc.errors import ParseError, PreconditionError
from vologcalc.graphs import (
    Cochain,
    VertexFn,
    cycle_graph,
    d,
    d_star,
    edge_inner,
    graph,
    graph_from_json,
    harmonic_project,
    laplacian,
    path_graph,
    rational_cochain,
    rational_vertex_fn,
    solve_poisson,
    vertex_inner,
)
from vologcalc.heights import divisor, intersection_matrix, local_height_report
from vologcalc.padic import PadicContext, UniversalScalar, make_padic, scalar_to_json
from vologcalc.volog import EdgeLocalData, LocalColemanData, assemble

from .oracles import (
    bareiss_reference,
    d_star_matrix,
    laplacian_matrix,
    poisson_oracle,
    random_connected_graph,
    rank_oracle,
)


def F(*args):
    return Fraction(*args)


def test_graph_validation():
    with pytest.raises(PreconditionError):
        graph([0, 1], [("e0", 0, 0)])  # self-loop
    with pytest.raises(PreconditionError):
        graph([0, 1], [("a", 0, 1), ("b", 1, 0)])  # multi-edge
    with pytest.raises(PreconditionError):
        graph([0, 1], [("a", 0, 2)])  # unknown endpoint
    g = graph([0, 1, 2], [("a", 0, 1)])
    assert not g.connected
    with pytest.raises(PreconditionError):
        solve_poisson(rational_vertex_fn(g, {0: 0, 1: 0, 2: 0}))


def test_d_examples():
    g3 = cycle_graph(3)
    const = rational_vertex_fn(g3, {0: 5, 1: 5, 2: 5})
    assert all(v == 0 for v in d(const).values.values())

    p2 = path_graph(2)
    f = rational_vertex_fn(p2, {0: 1, 1: 0})
    assert d(f).values == {"e0": F(1)}

    f3 = rational_vertex_fn(g3, {0: 1, 1: 0, 2: 0})
    assert d(f3).values == {"e0": F(1), "e1": F(0), "e2": F(-1)}


def test_d_star_examples():
    g3 = cycle_graph(3)
    c = rational_cochain(g3, {"e0": 1, "e1": 1, "e2": 1})
    assert all(v == 0 for v in d_star(c).values.values())

    p2 = path_graph(2)
    c1 = rational_cochain(p2, {"e0": 1})
    assert d_star(c1).values == {0: F(1), 1: F(-1)}

    z = rational_cochain(g3, {"e0": 0, "e1": 0, "e2": 0})
    assert all(v == 0 for v in d_star(z).values.values())


def test_laplacian_examples():
    g3 = cycle_graph(3)
    f = rational_vertex_fn(g3, {0: 1, 1: 0, 2: 0})
    assert laplacian(f).values == {0: F(2), 1: F(-1), 2: F(-1)}

    const = rational_vertex_fn(g3, {0: 3, 1: 3, 2: 3})
    assert all(v == 0 for v in laplacian(const).values.values())

    p2 = path_graph(2)
    fp = rational_vertex_fn(p2, {0: 1, 1: 0})
    assert laplacian(fp).values == {0: F(1), 1: F(-1)}


def test_solve_poisson_examples():
    g3 = cycle_graph(3)
    got = solve_poisson(rational_vertex_fn(g3, {0: 1, 1: -1, 2: 0}), anchor=2)
    assert got.values == {0: F(1, 3), 1: F(-1, 3), 2: F(0)}
    # oracle: dense solve of the reduced 2x2 system
    assert got.values == poisson_oracle(g3, {0: 1, 1: -1, 2: 0}, 2)

    zero = solve_poisson(rational_vertex_fn(g3, {0: 0, 1: 0, 2: 0}), anchor=0)
    assert all(v == 0 for v in zero.values.values())

    g4 = cycle_graph(4)
    got4 = solve_poisson(rational_vertex_fn(g4, {0: -1, 1: 1, 2: 0, 3: 0}), anchor=0)
    assert got4.values == {0: F(0), 1: F(3, 4), 2: F(1, 2), 3: F(1, 4)}
    assert got4.values == poisson_oracle(g4, {0: -1, 1: 1, 2: 0, 3: 0}, 0)


def test_solve_poisson_int_data_gives_fractions():
    got = solve_poisson(VertexFn(cycle_graph(5), {0: 1, 1: -1, 2: 0, 3: 0, 4: 0}))
    assert got.values == {0: 0, 1: F(-4, 5), 2: F(-3, 5), 3: F(-2, 5), 4: F(-1, 5)}
    assert all(type(x) is Fraction for x in got.values.values())


def test_solve_poisson_rational_data_and_anchor_cache_random():
    rng = random.Random(1968)
    for _ in range(8):
        g = random_connected_graph(rng, 25, graph)
        first = rng.sample(list(g.vertices), min(3, len(g.vertices)))
        anchors = first + [rng.choice(first) for _ in range(2)]
        factors = {}
        for anchor in anchors:
            for values in (
                {v: rng.randint(-9, 9) for v in g.vertices},
                {v: F(rng.randint(-9, 9), rng.randint(1, 6)) for v in g.vertices},
            ):
                values[g.vertices[-1]] -= sum(values.values())
                data = VertexFn(g, values)
                got = solve_poisson(data, anchor)
                assert all(type(x) is Fraction for x in got.values.values())
                assert got.values == poisson_oracle(g, values, anchor)
                assert laplacian(got) == data
            factor = g.reduced_laplacian_factor(anchor)
            assert factors.setdefault(anchor, factor) is factor
        # the factors are a cache: equality, hash and repr do not see them
        fresh = graph(g.vertices, [(e.id, e.tail, e.head) for e in g.edges])
        assert g._factors and not fresh._factors
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def _grid(rows, cols):
    at = lambda r, c: r * cols + c  # noqa: E731
    edges = [(f"h{r}_{c}", at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(f"v{r}_{c}", at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return graph(range(rows * cols), edges)


def _random_scalar(rng, p):
    coeffs = [
        make_padic(
            p,
            rng.randint(-(p**6), p**6) * p ** rng.randint(0, 2),
            rng.choice([1, 2, p]),
            rng.randint(4, 12),
        )
        for _ in range(rng.randint(1, 3))
    ]
    return UniversalScalar.of(coeffs)


def test_solve_poisson_padic_data_matches_one_shot_bareiss():
    rng = random.Random(5)
    graphs = [_grid(3, 3), _grid(2, 5), _grid(4, 4), cycle_graph(7)]
    graphs += [random_connected_graph(rng, 12, graph) for _ in range(16)]
    divisible_pivots = 0
    for g in graphs:
        for p in (3, 5, 7):
            anchor = rng.choice(g.vertices)
            values = {v: _random_scalar(rng, p) for v in g.vertices[:-1]}
            total = 0
            for v in g.vertices[:-1]:
                total = total + values[v]
            values[g.vertices[-1]] = -total
            got = solve_poisson(VertexFn(g, values), anchor)
            k = g.vertices.index(anchor)
            mat = [
                [int(x) for j, x in enumerate(row) if j != k]
                for i, row in enumerate(laplacian_matrix(g))
                if i != k
            ]
            others = [v for v in g.vertices if v != anchor]
            want = bareiss_reference(mat, [values[v] for v in others])
            for v, x in zip(others, want):
                assert json.dumps(scalar_to_json(got.values[v])) == json.dumps(scalar_to_json(x))
            pivots = [step[1] for step in g.reduced_laplacian_factor(anchor).steps]
            divisible_pivots += any(pivot % p == 0 for pivot in pivots)
    assert divisible_pivots >= 20


def test_one_anchor_rule_for_every_anchored_solve():
    g3 = cycle_graph(3)
    assert g3.resolve_anchor() == 0 and g3.resolve_anchor(2) == 2
    ctx = PadicContext(5, 12)
    edges = tuple(EdgeLocalData(e.id, raw_c=ctx.scalar(1)) for e in g3.edges)
    D = divisor([("P", 1, 1), ("O", -1, 0)])
    routes = (
        lambda: g3.resolve_anchor("zz"),
        lambda: solve_poisson(rational_vertex_fn(g3, {0: 1, 1: -1, 2: 0}), "zz"),
        lambda: local_height_report(g3, D, D, "zz"),
        lambda: assemble(LocalColemanData(g3, ctx, edges, "zz")),
    )
    for route in routes:
        with pytest.raises(PreconditionError) as info:
            route()
        assert str(info.value) == "anchor 'zz' is not a vertex"


def test_solve_poisson_rejects_nonzero_sum():
    g3 = cycle_graph(3)
    with pytest.raises(PreconditionError):
        solve_poisson(rational_vertex_fn(g3, {0: 1, 1: 0, 2: 0}))


def test_harmonic_project_examples():
    # tree: harmonic part is zero and gamma recovers c
    t = path_graph(4)
    c = rational_cochain(t, {"e0": 2, "e1": -1, "e2": 5})
    harmonic, gamma = harmonic_project(c)
    assert all(v == 0 for v in harmonic.values.values())
    assert c == d(gamma) + harmonic

    g3 = cycle_graph(3)
    already = rational_cochain(g3, {"e0": 1, "e1": 1, "e2": 1})
    h, gam = harmonic_project(already)
    assert h == already
    assert all(v == 0 for v in gam.values.values())

    c3 = rational_cochain(g3, {"e0": 1, "e1": 0, "e2": 0})
    h3, gam3 = harmonic_project(c3, anchor=2)
    assert h3.values == {"e0": F(1, 3), "e1": F(1, 3), "e2": F(1, 3)}
    assert d(gam3).values == {"e0": F(2, 3), "e1": F(-1, 3), "e2": F(-1, 3)}


def test_adjointness_and_decomposition_random():
    rng = random.Random(20260808)
    for _ in range(40):
        g = random_connected_graph(rng, 12, graph)
        f = rational_vertex_fn(g, {v: rng.randint(-9, 9) for v in g.vertices})
        c = rational_cochain(g, {e.id: rng.randint(-9, 9) for e in g.edges})
        # <df, c>_E = <f, d*c>_V
        assert edge_inner(d(f), c) == vertex_inner(f, d_star(c))
        # laplacian agrees with the two-step route
        assert laplacian(f) == d_star(d(f))
        harmonic, gamma = harmonic_project(c)
        assert c == harmonic + d(gamma)
        assert all(v == 0 for v in d_star(harmonic).values.values())
        # anchored Poisson round trip
        anchored = f - rational_vertex_fn(
            g, {v: f.values[g.vertices[0]] for v in g.vertices}
        )
        assert solve_poisson(laplacian(anchored)) == anchored


def test_incidence_index_and_laplacian_matrix_random():
    rng = random.Random(2502)
    for _ in range(40):
        # vertex order shuffled so that it differs from the edge order
        g = random_connected_graph(
            rng, 12, lambda vs, es: graph(rng.sample(list(vs), len(vs)), es)
        )
        for v in g.vertices:
            scan = [(e, 1 if e.tail == v else -1) for e in g.edges if v in (e.tail, e.head)]
            assert list(g.incident(v)) == scan
            assert g.degree(v) == len(scan)
        lap = g.laplacian_matrix()
        assert all(type(x) is int for row in lap for x in row)
        assert lap == laplacian_matrix(g)
        assert intersection_matrix(g) == [[-x for x in row] for row in laplacian_matrix(g)]


def test_harmonic_dimension_formula():
    rng = random.Random(99)
    for _ in range(30):
        g = random_connected_graph(rng, 10, graph)
        rank = rank_oracle(d_star_matrix(g))
        dim_h = len(g.edges) - rank
        assert dim_h == len(g.edges) - len(g.vertices) + 1


def test_universal_scalar_coefficients():
    ctx = PadicContext(5, 12)
    g3 = cycle_graph(3)
    c = Cochain(
        g3,
        {
            "e0": ctx.scalar(1, 2),
            "e1": ctx.scalar(0, 1),
            "e2": ctx.scalar(3),
        },
    )
    harmonic, gamma = harmonic_project(c, anchor=0)
    assert c == harmonic + d(gamma)
    assert all(v.is_zero for v in d_star(harmonic).values.values())
    assert gamma.values[0].is_zero


def test_graph_from_json_decodes_literal_json():
    obj = {
        "vertices": ["v0", 1, "v2"],
        "edges": [
            {"id": "e0", "tail": "v0", "head": 1},
            {"id": 7, "tail": 1, "head": "v2"},
        ],
    }
    assert graph_from_json(obj) == graph(["v0", 1, "v2"], [("e0", "v0", 1), (7, 1, "v2")])
    for bad, where in (
        ({"vertices": "ab", "edges": []}, "field 'vertices': expected a list"),
        ({"vertices": ["a", 1.0], "edges": []}, "vertices[1]: expected an identifier"),
        ({"vertices": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": True}]},
         "field 'head' of edges[0]: expected an identifier"),
        ({"vertices": ["a"]}, "field 'edges': missing"),
    ):
        with pytest.raises(ParseError) as info:
            graph_from_json(bad)
        assert str(info.value).startswith(where), str(info.value)
    with pytest.raises(PreconditionError):
        graph_from_json({"vertices": [1, "1"], "edges": []})


def test_antisymmetric_accessor():
    g3 = cycle_graph(3)
    c = rational_cochain(g3, {"e0": 4, "e1": 0, "e2": -1})
    assert c.value("e0") == 4
    assert c.value("e0", -1) == -4
