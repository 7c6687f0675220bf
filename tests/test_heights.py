import json
import random
from fractions import Fraction

import pytest

from vologcalc.errors import ParseError, PreconditionError
from vologcalc.graphs import cycle_graph, graph, laplacian, path_graph, rational_vertex_fn
from vologcalc.heights import (
    discrete_height,
    divisor,
    divisor_from_json,
    intersection_matrix,
    local_height_report,
    vertical_correction,
)

from .oracles import poisson_oracle, random_connected_graph


def F(*args):
    return Fraction(*args)


def test_intersection_matrix_examples():
    p2 = path_graph(2)
    assert intersection_matrix(p2) == [[F(-1), F(1)], [F(1), F(-1)]]

    g3 = cycle_graph(3)
    assert intersection_matrix(g3) == [
        [F(-2), F(1), F(1)],
        [F(1), F(-2), F(1)],
        [F(1), F(1), F(-2)],
    ]

    single = graph([0], [])
    assert intersection_matrix(single) == [[F(0)]]


def test_intersection_matrix_is_minus_laplacian():
    rng = random.Random(1)
    for _ in range(10):
        g = random_connected_graph(rng, 8, graph)
        m = intersection_matrix(g)
        assert all(sum(row) == 0 for row in m)
        for j, v in enumerate(g.vertices):
            delta = rational_vertex_fn(g, {w: 1 if w == v else 0 for w in g.vertices})
            col = laplacian(delta)
            for i, w in enumerate(g.vertices):
                assert m[i][j] == -col.values[w]


def test_vertical_correction_examples():
    g3 = cycle_graph(3)
    # divisor on a single component has zero degree everywhere
    d0 = divisor([("P", 1, 0), ("Q", -1, 0)])
    a0 = vertical_correction(g3, d0)
    assert all(v == 0 for v in a0.values.values())

    g4 = cycle_graph(4)
    d = divisor([("P", 1, 1), ("O", -1, 0)])
    a = vertical_correction(g4, d, anchor=0)
    assert a.values == {0: F(0), 1: F(3, 4), 2: F(1, 2), 3: F(1, 4)}

    d3 = divisor([("P", 1, 0), ("O", -1, 1)])
    a3 = vertical_correction(g3, d3, anchor=2)
    assert a3.values == {0: F(1, 3), 1: F(-1, 3), 2: F(0)}
    assert a3.values == poisson_oracle(g3, {0: 1, 1: -1, 2: 0}, 2)


def test_vertical_correction_kills_component_intersections():
    # for all w: deg_{U_w} D + sum_{(v,w)} a_v - deg(w) a_w = 0
    rng = random.Random(9)
    for _ in range(15):
        g = random_connected_graph(rng, 8, graph)
        vs = list(g.vertices)
        comp = [rng.choice(vs) for _ in range(3)] + [rng.choice(vs)]
        D = divisor(
            [("P", 1, comp[0]), ("Q", 2, comp[1]), ("R", -1, comp[2]), ("S", -2, comp[3])]
        )
        a = vertical_correction(g, D)
        degs = D.component_degrees(g)
        lap_a = laplacian(a)
        for w in g.vertices:
            assert degs.values[w] - lap_a.values[w] == 0


def test_degree_zero_enforced():
    with pytest.raises(PreconditionError):
        divisor([("P", 1, 0)])
    with pytest.raises(PreconditionError):
        divisor([("P", 1, 0), ("P", -1, 1)])  # duplicate labels


def test_discrete_height_four_cycle():
    g4 = cycle_graph(4)
    D = divisor([("P", 1, 1), ("O", -1, 0)])
    E = divisor([("Q", 1, 2), ("Oprime", -1, 0)])
    assert discrete_height(g4, D, E) == F(1, 2)
    report = local_height_report(g4, D, E)
    assert report["horizontal"] == 0 and report["vertical"] == F(1, 2)

    # symmetry witness with swapped arguments
    assert discrete_height(g4, E, D) == F(1, 2)


def test_discrete_height_single_component_is_horizontal_sum():
    g = cycle_graph(3)
    D = divisor([("P", 1, 1), ("Q", -1, 1)], {("P", "R"): F(2), ("Q", "S"): F(1, 3)})
    E = divisor([("R", 1, 1), ("S", -1, 1)])
    # vertical term vanishes; multiplicities weight the horizontal values
    assert discrete_height(g, D, E) == F(1) * F(1) * 2 + F(-1) * F(-1) * F(1, 3)


def test_horizontal_pairing_across_components_rejected():
    g = cycle_graph(3)
    D = divisor([("P", 1, 0), ("Q", -1, 1)], {("P", "R"): F(1)})
    E = divisor([("R", 1, 2), ("S", -1, 0)])
    with pytest.raises(PreconditionError):
        discrete_height(g, D, E)


def test_height_bilinear_in_multiplicities():
    g = cycle_graph(5)
    D = divisor([("P", 1, 2), ("O", -1, 0)])
    D2 = divisor([("P", 2, 2), ("O", -2, 0)])
    E = divisor([("Q", 1, 3), ("O2", -1, 0)])
    assert discrete_height(g, D2, E) == 2 * discrete_height(g, D, E)


def test_height_symmetry_and_anchor_independence_random():
    rng = random.Random(77)
    for _ in range(25):
        g = random_connected_graph(rng, 8, graph)
        vs = list(g.vertices)
        D = divisor([("P", 1, rng.choice(vs)), ("O", -1, rng.choice(vs))])
        E = divisor([("Q", 1, rng.choice(vs)), ("R", -1, rng.choice(vs))])
        base = discrete_height(g, D, E)
        assert discrete_height(g, E, D) == base
        for anchor in vs:
            assert discrete_height(g, D, E, anchor) == base


def test_cycle_green_function_closed_form():
    # value on C_n with D = P_i - P_0, E = P_j - P_0 equals i(n-j)/n
    for n in range(3, 9):
        g = cycle_graph(n)
        for i in range(1, n):
            for j in range(i, n):
                D = divisor([("Pi", 1, i), ("P0", -1, 0)])
                E = divisor([("Pj", 1, j), ("P0b", -1, 0)])
                assert discrete_height(g, D, E) == F(i * (n - j), n)


def test_divisor_from_json_decodes_literal_json():
    obj = {
        "points": [
            {"label": "P", "multiplicity": 1, "component": 0},
            {"label": "Q", "multiplicity": "-1", "component": "v1"},
        ],
        "horizontal_pairings": [
            {"own": "P", "other": "R", "value": "5/3"},
            {"own": "Q", "other": 2, "value": -2},
        ],
    }
    D = divisor([("P", 1, 0), ("Q", -1, "v1")], {("P", "R"): F(5, 3), ("Q", 2): F(-2)})
    assert divisor_from_json(obj) == D
    assert divisor_from_json({"points": obj["points"]}) == divisor([("P", 1, 0), ("Q", -1, "v1")])
    for path, value in ((("points", 1, "multiplicity"), -1.5),
                        (("horizontal_pairings", 0, "value"), 1.5)):
        bad = json.loads(json.dumps(obj))
        bad[path[0]][path[1]][path[2]] = value
        with pytest.raises(ParseError) as info:
            divisor_from_json(bad)
        assert info.value.path == path
