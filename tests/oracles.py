"""Test-side oracles, independent of the library's solver paths.

The exact linear algebra comes from the benchmark's `perfbench.oracle`, so a
fix to an oracle reaches the benchmark and these tests at once: Poisson
solves and `rational_solve` use its integer solve, ranks and echelon forms
its `rref`. What stays here pins former implementations or builds inputs:
`bareiss_reference` is the one-shot fraction-free loop that the library's
factor-once solver replaced; it pins the p-adic results (digits and
precision) of that solver to the original order of operations.
`validate_reference` is the Frobenius-monodromy module check as first
written: it tests nilpotency by powers of N and invertibility of the whole
Frobenius matrix, which the library infers from the weight checks.
`dense_mul` and `dense_mat_vec` are the Fraction products that the module
layer replaced by integer products. `reduce_mod_span_reference` is the
row-by-row reduction modulo an echelonized span, which the library keeps for
vectors with p-adic entries (`oracle.canonical_mod_span` makes every entry a
Fraction). `iwasawa_log_reference` is the logarithm as first written: it
divides the unit by its Teichmueller root of unity, a p^(prec-1) power mod
p^prec, and bounds the Fraction series with a float logarithm.
`random_connected_graph` also draws the 2-vertex graphs that
`perfbench.gen.random_dual` cannot.
"""

import math
from fractions import Fraction

from perfbench import oracle
from vologcalc.errors import PreconditionError
from vologcalc.padic import (
    PadicNumber,
    UniversalScalar,
    _vp,
    from_fraction_abs,
    make_padic,
)


def laplacian_matrix(g):
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    m = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        m[idx[e.tail]][idx[e.tail]] += 1
        m[idx[e.head]][idx[e.head]] += 1
        m[idx[e.tail]][idx[e.head]] -= 1
        m[idx[e.head]][idx[e.tail]] -= 1
    return m


def bareiss_reference(matrix, rhs):
    """Solve A x = b for square nonsingular integer A and generic b, carrying
    b through every step of fraction-free elimination, then back
    substitution."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    b = list(rhs)
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        assert piv is not None, "singular reference system"
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col]
            for c in range(col, n):
                a[r][c] = (pivot * a[r][c] - factor * a[col][c]) // prev
            b[r] = (b[r] * pivot - b[col] * factor) / prev
        prev = pivot
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc = acc - x[j] * a[i][j]
        x[i] = acc / a[i][i]
    return x


def rational_solve(matrix, rhs):
    """x with M x = rhs, for a nonsingular integer M and a rational rhs: the
    denominators are cleared once, one integer solve, one division per entry."""
    den = math.lcm(*(Fraction(x).denominator for x in rhs))
    (sol,), _ = oracle.integer_solve(matrix, [[int(Fraction(x) * den) for x in rhs]])
    return [x / den for x in sol]


def poisson_oracle(g, values, anchor):
    """Anchored Poisson solve on the benchmark's reduced Laplacian."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    pairs = [(idx[e.tail], idx[e.head]) for e in g.edges]
    others, m = oracle.reduced_laplacian(len(idx), pairs, idx[anchor])
    sol = rational_solve(m, [values[g.vertices[i]] for i in others])
    return {anchor: Fraction(0), **{g.vertices[i]: x for i, x in zip(others, sol)}}


def d_star_matrix(g):
    """|V| x |E| matrix of the adjoint coboundary in the stored orientations."""
    vi = {v: i for i, v in enumerate(g.vertices)}
    m = [[Fraction(0)] * len(g.edges) for _ in g.vertices]
    for j, e in enumerate(g.edges):
        m[vi[e.tail]][j] += 1
        m[vi[e.head]][j] -= 1
    return m


def random_connected_graph(rng, max_vertices, graph_builder):
    """Spanning tree plus random extra edges; always connected and simple."""
    n = rng.randint(2, max_vertices)
    edges = []
    pairs = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((f"e{len(edges)}", u, v))
        pairs.add(frozenset((u, v)))
    extra = rng.randint(0, max(0, n))
    attempts = 0
    while extra > 0 and attempts < 10 * n:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or frozenset((u, v)) in pairs:
            continue
        edges.append((f"e{len(edges)}", u, v))
        pairs.add(frozenset((u, v)))
        extra -= 1
    return graph_builder(range(n), edges)


def dense_mul(a, b):
    """a b over Fraction, every product taken."""
    k, m = len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(len(a))
    ]


def dense_mat_vec(matrix, vec):
    """matrix vec over Fraction, every product taken."""
    return [sum((a * v for a, v in zip(row, vec)), Fraction(0)) for row in matrix]


def reduce_mod_span_reference(vec, rows):
    """vec less, row by row, its pivot coordinate times each reduced echelon
    row of `rows`; a coefficient that is an exact rational zero is skipped,
    so p-adic entries see the operations that the library's loop makes."""
    echelon, pivots = oracle.rref(rows)
    out = list(vec)
    for row, col in zip(echelon, pivots):
        coeff = out[col]
        if isinstance(coeff, (int, Fraction)) and coeff == 0:
            continue
        out = [x - coeff * y for x, y in zip(out, row)]
    return out


def validate_reference(M):
    """None if the module's identities hold, else the first violation, in
    the library's order and wording."""
    n = M.dim
    p = M.p
    if n == 0:
        return None
    nphi = dense_mul(M.N, M.phi)
    pphin = [[p * v for v in row] for row in dense_mul(M.phi, M.N)]
    for i in range(n):
        for j in range(n):
            if nphi[i][j] != pphin[i][j]:
                return (
                    f"monodromy-Frobenius relation fails at entry ({i}, {j}): "
                    f"(N phi) = {nphi[i][j]}, p (phi N) = {pphin[i][j]}"
                )
    for j in range(n):
        for i in range(n):
            if M.N[i][j] != 0 and M.weights[i] != M.weights[j] - 2:
                return (
                    f"monodromy does not lower weight by 2 at entry ({i}, {j}): "
                    f"maps weight {M.weights[j]} into weight {M.weights[i]}"
                )
    for j in range(n):
        for i in range(n):
            if M.phi[i][j] != 0 and M.weights[i] != M.weights[j]:
                return f"Frobenius does not preserve the weight grading at ({i}, {j})"
    for k in sorted(set(M.weights)):
        if k == 0:
            continue
        idx = [i for i, w in enumerate(M.weights) if w == k]
        block = [[M.phi[i][j] - (1 if i == j else 0) for j in idx] for i in idx]
        if len(oracle.rref(block)[1]) != len(idx):
            return f"phi - 1 is singular on the weight {k} summand"
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = dense_mul(M.N, power)
    if any(any(v != 0 for v in row) for row in power):
        return "monodromy operator is not nilpotent"
    if len(oracle.rref(M.phi)[1]) != n:
        return "Frobenius is singular"
    if len(oracle.rref(M.iso)[1]) != n:
        return "comparison map is singular"
    return None


def _teichmuller(p: int, unit: int, prec: int) -> int:
    """The (p-1)-st root of unity congruent to `unit` mod p, mod p^prec."""
    if p == 2:
        return 1
    return pow(unit, p ** (prec - 1), p**prec)


def _one_unit_log(p: int, one_unit: int, abs_prec: int) -> PadicNumber:
    """log of a 1-unit via the alternating series, exact mod p^abs_prec.

    Truncation: the k-th term x^k/k has valuation >= k*v(x) - v_p(k); since
    v_p(k) <= log_p(k) the tail past the chosen k_stop sits above abs_prec.
    Representative error in x (known mod p^abs_prec) perturbs term k by
    valuation >= abs_prec + (k-1)*v(x) - v_p(k) >= abs_prec, so summing exact
    fractions of the representative is sound.
    """
    x = (one_unit - 1) % p**abs_prec
    if x == 0:
        return PadicNumber.zero(p, abs_prec)
    vx = _vp(x, p)
    k_stop = 1
    while k_stop * vx - math.log(k_stop + 1, p) < abs_prec + 1:
        k_stop += 1
    total = Fraction(0)
    power = 1
    for k in range(1, k_stop + 1):
        power *= x
        term = Fraction(power, k)
        total += term if k % 2 == 1 else -term
    return from_fraction_abs(p, total, abs_prec)


def iwasawa_log_reference(z: PadicNumber) -> UniversalScalar:
    """Universal-branch logarithm: log(<u>) + v(z) * L for z = p^v(z) u.

    The Teichmueller root of unity is split off (its log is 0), the 1-unit
    series is summed to the working precision, and the branch dependence sits
    entirely in the exact degree-1 coefficient v(z).
    """
    if z.is_zero:
        raise PreconditionError("logarithm of zero")
    constant = _one_unit_log(
        z.p, z.unit * pow(_teichmuller(z.p, z.unit, z.prec), -1, z.p**z.prec) % z.p**z.prec, z.prec
    )
    return UniversalScalar.of([constant, make_padic(z.p, z.val, 1, z.prec)])
