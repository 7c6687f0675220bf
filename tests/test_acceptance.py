"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either computed by an independent oracle inside the
test (dense textbook Gauss elimination, brute-force sums, closed forms) or is
an exact structural identity. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from vologcalc.fpnmod import (
    kummer_class_from_value,
    kummer_extension,
    ext_to_triple,
    normalize_class,
    synderi_check,
)
from vologcalc.graphs import (
    Cochain,
    cycle_graph,
    d,
    d_star,
    graph,
    harmonic_project,
    laplacian,
    rational_cochain,
)
from vologcalc.heights import discrete_height, divisor, vertical_correction
from vologcalc.loglaurent import (
    AnnulusForm,
    LogLaurentFunction,
    differential,
    extended_residue,
    local_index,
)
from vologcalc.padic import PadicContext, derive_at_zero, iwasawa_log, make_padic
from vologcalc.volog import (
    EdgeLocalData,
    LocalColemanData,
    assemble,
    deriter_rhs,
    derivative_vertex_function,
    iterated_derivative,
)

from .oracles import poisson_oracle, random_connected_graph
from .test_fpnmod import random_case1_module, random_case2_module, random_cocycle

ROOT = pathlib.Path(__file__).resolve().parent.parent


@contextmanager
def criterion(num, label, limit=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None:
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s budget"
    except BaseException:
        print(f"criterion {num:02d} FAIL  {label}")
        raise
    print(f"criterion {num:02d} PASS  {label} ({elapsed:.2f}s)")


def _vp(n, p):
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_criterion_1_branch_derivative_of_log():
    rng = random.Random(101)
    with criterion(1, "branch derivative of the logarithm equals the valuation", limit=1.0):
        for _ in range(1000):
            p = rng.choice([2, 3, 5, 7])
            num = rng.randint(-10**6, 10**6) or 1
            den = rng.randint(1, 10**4)
            z = make_padic(p, num, den, 20)
            nu = _vp(num, p) - _vp(den, p)
            got = derive_at_zero(iwasawa_log(z))
            assert got == make_padic(p, nu, 1, 20)
            if nu != 0:
                assert got.prec == 20  # integer identity, no digits lost


def test_criterion_2_harmonic_decomposition():
    rng = random.Random(202)
    with criterion(2, "harmonic decomposition exact over Q with the dimension formula", limit=10.0):
        for _ in range(200):
            g = random_connected_graph(rng, 30, graph)
            c = rational_cochain(g, {e.id: rng.randint(-20, 20) for e in g.edges})
            harmonic, gamma = harmonic_project(c)
            assert c == harmonic + d(gamma)
            assert all(v == 0 for v in d_star(harmonic).values.values())
            # dimension of the harmonic space by integer row reduction of d*
            vi = {v: i for i, v in enumerate(g.vertices)}
            rows = [[0] * len(g.edges) for _ in g.vertices]
            for j, e in enumerate(g.edges):
                rows[vi[e.tail]][j] += 1
                rows[vi[e.head]][j] -= 1
            rank = 0
            cols = len(g.edges)
            for col in range(cols):
                piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for r in range(len(rows)):
                    if r != rank and rows[r][col]:
                        f0, f1 = rows[rank][col], rows[r][col]
                        rows[r] = [f0 * a - f1 * b for a, b in zip(rows[r], rows[rank])]
                rank += 1
            assert len(g.edges) - rank == len(g.edges) - len(g.vertices) + 1


def test_criterion_3_assembly_branch_covariance():
    ctx = PadicContext(5, 14)
    rng = random.Random(303)
    with criterion(3, "assembly with branch-shift covariance on cycle fixtures"):
        for n in (3, 4, 6):
            g = cycle_graph(n)
            values = {
                e.id: ctx.scalar(rng.randint(-9, 9), rng.randint(-4, 4)) for e in g.edges
            }
            data = LocalColemanData(
                g, ctx, tuple(EdgeLocalData(e.id, raw_c=values[e.id]) for e in g.edges)
            )
            n_omega = Cochain(g, {e.id: ctx.scalar(1) for e in g.edges})
            assert all(v.is_zero for v in d_star(n_omega).values.values())
            delta = ctx.scalar(rng.randint(1, 7))
            shifted = LocalColemanData(
                g,
                ctx,
                tuple(
                    EdgeLocalData(e.id, raw_c=values[e.id] + n_omega.values[e.id] * delta)
                    for e in g.edges
                ),
            )
            base, moved = assemble(data), assemble(shifted)
            assert base.gamma == moved.gamma
            assert moved.harmonic_cochain == base.harmonic_cochain + n_omega * delta


def test_criterion_4_gamma_derivative_is_minus_dstar_residues():
    ctx = PadicContext(5, 14)
    rng = random.Random(404)
    with criterion(4, "branch derivative of gamma solves the residue Poisson problem"):
        for n in (3, 4, 6):
            g = cycle_graph(n)
            residues = {e.id: rng.randint(-3, 3) for e in g.edges}
            if all(v == 0 for v in residues.values()):
                residues[g.edges[0].id] = 1
            edges = tuple(
                EdgeLocalData(
                    e.id,
                    form=AnnulusForm(ctx, {0: ctx.scalar(residues[e.id])}),
                    c_tail=ctx.scalar(rng.randint(-9, 9)),
                    c_head=ctx.scalar(rng.randint(-9, 9)),
                )
                for e in g.edges
            )
            anchor = g.vertices[-1]
            out = assemble(LocalColemanData(g, ctx, edges, anchor))
            du = out.gamma.map_values(lambda s: s.derive_at_zero())
            n_omega = rational_cochain(g, residues)
            want = d_star(n_omega).map_values(lambda x: -x)
            assert laplacian(du) == want
            # cross-check against the dedicated vertex-derivative solver
            u = derivative_vertex_function(want, anchor)
            for v in g.vertices:
                assert du.values[v] == u.values[v]


def test_criterion_5_tate_ngon_heights():
    # n starts at 3: the 2-gon has a doubled edge, outside the simple-graph
    # domain this package works in
    with criterion(5, "local heights on cycle models match the closed form and a dense oracle", limit=5.0):
        for n in range(3, 21):
            g = cycle_graph(n)
            for i in range(1, n):
                D = divisor([("Pi", 1, i), ("P0", -1, 0)])
                a = vertical_correction(g, D, anchor=0)
                oracle = poisson_oracle(g, {v: (1 if v == i else 0) - (1 if v == 0 else 0) for v in g.vertices}, 0)
                assert a.values == oracle
                for j in range(i, n):
                    E = divisor([("Pj", 1, j), ("P0b", -1, 0)])
                    value = discrete_height(g, D, E, anchor=0)
                    assert value == Fraction(i * (n - j), n)
                    assert value == oracle[j] - oracle[0]


def test_criterion_6_height_symmetry_anchor_independence():
    rng = random.Random(606)
    with criterion(6, "height symmetry and anchor independence on random placements"):
        done = 0
        while done < 100:
            g = random_connected_graph(rng, 15, graph)
            vs = list(g.vertices)
            pts_d = [("P", 1, rng.choice(vs)), ("Q", 1, rng.choice(vs)), ("O", -2, rng.choice(vs))]
            pts_e = [("R", 1, rng.choice(vs)), ("S", -1, rng.choice(vs))]
            pair_d, pair_e = {}, {}
            comp = {label: c for label, _, c in pts_d}
            comp_e = {label: c for label, _, c in pts_e}
            for dl in comp:
                for el in comp_e:
                    if comp[dl] == comp_e[el] and rng.random() < 0.5:
                        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        pair_d[(dl, el)] = q
                        pair_e[(el, dl)] = q
            D = divisor(pts_d, pair_d)
            E = divisor(pts_e, pair_e)
            base = discrete_height(g, D, E)
            assert discrete_height(g, E, D) == base
            for anchor in vs:
                assert discrete_height(g, D, E, anchor) == base
            done += 1


def test_criterion_7_synderi():
    rng = random.Random(707)
    with criterion(7, "splitting derivative identity on the unit model and random modules", limit=5.0):
        ext, A, B = kummer_extension(5, beta=Fraction(7, 3), nu=2)
        t = ext_to_triple(ext, A, B)
        witness = synderi_check(ext.base, t)
        assert witness.ok
        assert witness.derivative == (-2,)

        for _ in range(100):
            M = random_case1_module(rng)
            cocycle = random_cocycle(rng, M)
            assert synderi_check(M, cocycle).ok

        for _ in range(25):
            M = random_case2_module(rng)
            cocycle = random_cocycle(rng, M)
            w = synderi_check(M, cocycle)
            assert w.ok
            assert all(v == 0 for v in w.minus_iso_rho)
            # filtration component is branch independent in case 2
            assert all(all(v == 0 for v in c) for c in w.beta_poly[1:])


def test_criterion_8_regulator_shape():
    rng = random.Random(808)
    with criterion(8, "unit-model split reproduces (log, valuation) for actual values"):
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7])
            num = rng.randint(-10**4, 10**4) or 3
            den = rng.randint(1, 500)
            M, t = kummer_class_from_value(p, num, den, 16)
            nf = normalize_class(M, t)
            value = make_padic(p, num, den, 16)
            log_value = iwasawa_log(value)
            assert nf.beta[0] == log_value.constant_term()
            assert nf.rho == (Fraction(_vp(num, p) - _vp(den, p)),)
            assert synderi_check(M, t).ok


def _index_pair(rng, ctx):
    """Random function in the window-12, log-degree <= 2 domain on which the
    index identities are exact: Laurent tails at |k| <= 6, log terms at
    |k| >= 7 or (0, 2), nothing at (0, 1)."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[(rng.randint(-6, 6), 0)] = ctx.scalar(rng.randint(-9, 9))
    for _ in range(rng.randint(0, 3)):
        k = rng.choice([k for k in range(-12, 13) if abs(k) >= 7])
        terms[(k, rng.randint(1, 2))] = ctx.scalar(rng.randint(-9, 9))
    if rng.random() < 0.4:
        terms[(0, 2)] = ctx.scalar(rng.randint(-9, 9))
    return LogLaurentFunction(ctx, terms, 12)


def test_criterion_9_local_index_antisymmetry():
    ctx = PadicContext(5, 10)
    rng = random.Random(909)
    with criterion(9, "index antisymmetry and residue-of-exact vanishing on random pairs"):
        for _ in range(500):
            F, G = _index_pair(rng, ctx), _index_pair(rng, ctx)
            total = local_index(F, G) + local_index(G, F)
            assert total.is_zero
            assert extended_residue(differential(F)).is_zero
            assert extended_residue(differential(G)).is_zero


def test_criterion_10_index_branch_derivative():
    ctx = PadicContext(5, 10)
    rng = random.Random(1010)
    with criterion(10, "branch derivative of the index reads the log coefficient"):
        for _ in range(200):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            terms_f = {
                (k, 0): ctx.scalar(rng.randint(-6, 6))
                for k in rng.sample([k for k in range(-6, 7) if k], rng.randint(1, 4))
            }
            terms_f[(0, 0)] = ctx.lam()
            terms_f[(0, 1)] = ctx.scalar(a)
            terms_g = {
                (k, 0): ctx.scalar(rng.randint(-6, 6))
                for k in rng.sample([k for k in range(-6, 7) if k], rng.randint(1, 4))
            }
            terms_g[(0, 1)] = ctx.scalar(b)
            F = LogLaurentFunction(ctx, terms_f, 12)
            G = LogLaurentFunction(ctx, terms_g, 12)
            assert derive_at_zero(local_index(F, G)) == b


def test_criterion_11_iterated_solvability_and_golden():
    rng = random.Random(1111)
    with criterion(11, "iterated-derivative solvability on consistent data plus golden regression"):
        done = 0
        while done < 60:
            g = random_connected_graph(rng, 10, graph)
            if len(g.edges) < len(g.vertices):
                continue  # need a cycle for nonzero harmonic cochains
            raw1 = rational_cochain(g, {e.id: rng.randint(-6, 6) for e in g.edges})
            raw2 = rational_cochain(g, {e.id: rng.randint(-6, 6) for e in g.edges})
            c_omega, _ = harmonic_project(raw1)
            c_eta, _ = harmonic_project(raw2)
            if all(v == 0 for v in c_eta.values.values()):
                continue
            res_eta = rational_cochain(g, {e.id: rng.randint(-4, 4) for e in g.edges})
            draft = rational_cochain(g, {e.id: rng.randint(-4, 4) for e in g.edges})
            # balance the orientation-symmetric part so the vertex sums cancel
            want = sum(c_omega.values[e.id] * res_eta.values[e.id] for e in g.edges)
            have = sum(c_eta.values[e.id] * draft.values[e.id] for e in g.edges)
            norm = sum(c_eta.values[e.id] ** 2 for e in g.edges)
            res_omega = draft + c_eta * Fraction(want - have, norm)
            indices = rational_cochain(g, {e.id: rng.randint(-4, 4) for e in g.edges})

            rhs = deriter_rhs(c_omega, c_eta, res_omega, res_eta, indices)
            assert sum(rhs.values.values()) == 0
            u = iterated_derivative(c_omega, c_eta, res_omega, res_eta, indices)
            assert laplacian(u) == rhs
            done += 1

        # golden-file regression on the balanced 3-cycle example
        job = json.loads((ROOT / "fixtures" / "job_iterated_3cycle.json").read_text())
        golden = json.loads(
            (ROOT / "fixtures" / "golden" / "iterated_3cycle.json").read_text()
        )
        from vologcalc.graphs import graph_from_json

        g = graph_from_json(job["graph"])
        cochains = {
            name: Cochain(
                g, {k: Fraction(v) for k, v in job[name]["values"].items()}
            )
            for name in ("c_omega", "c_eta", "res_omega", "res_eta", "indices")
        }
        anchor = [v for v in g.vertices if str(v) == job["anchor"]][0]
        u = iterated_derivative(
            cochains["c_omega"],
            cochains["c_eta"],
            cochains["res_omega"],
            cochains["res_eta"],
            cochains["indices"],
            anchor,
        )
        assert {str(v): str(x) for v, x in u.values.items()} == golden["derivative"]
