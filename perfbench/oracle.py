"""Exact verification of every benchmark output.

Everything here is the benchmark's own exact arithmetic over int and
Fraction; nothing calls the library's solvers. A check returns a Verdict:
whether the job passed, and the p-adic digits its outputs kept out of those
the inputs make achievable (both 0 for exact-rational outputs).

Precision model used for p-adic outputs: a JSON coefficient
{"p", "val", "unit", "prec"} claims its lift unit * p^val modulo
p^(val + prec); unit 0 claims an exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Verdict:
    ok: bool
    kept: int = 0
    achievable: int = 0


# -- exact linear algebra --------------------------------------------------------


def det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    n, sign, out = len(a), 1, Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return sign * out


def inverse(m):
    """Inverse by Gauss-Jordan over Fraction; the caller ensures det != 0."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def reduced_laplacian(n: int, pairs, anchor: int):
    """Integer Laplacian with the anchor's row and column deleted."""
    others = [v for v in range(n) if v != anchor]
    idx = {v: i for i, v in enumerate(others)}
    m = [[0] * len(others) for _ in others]
    for t, h in pairs:
        for a, b in ((t, h), (h, t)):
            if a in idx:
                m[idx[a]][idx[a]] += 1
                if b in idx:
                    m[idx[a]][idx[b]] -= 1
    return others, m


def integer_solve(m, cols):
    """Solve M X = B for nonsingular integer M and integer columns B.

    Fraction-free forward elimination on the augmented integer matrix keeps
    every entry an integer (each division below is exact); back substitution
    is over Fraction. Returns (solution columns, det M).
    """
    n, k = len(m), len(cols)
    a = [list(m[i]) + [col[i] for col in cols] for i in range(n)]
    prev, sign = 1, 1
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        pc = a[c]
        pv = pc[c]
        for r in range(c + 1, n):
            row = a[r]
            f = row[c]
            if f:
                for j in range(c + 1, n + k):
                    row[j] = (pv * row[j] - f * pc[j]) // prev
            else:
                for j in range(c + 1, n + k):
                    row[j] = (pv * row[j]) // prev
            row[c] = 0
        prev = pv
    sols = []
    for s in range(k):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(a[i][n + s])
            for j in range(i + 1, n):
                if a[i][j]:
                    acc -= a[i][j] * x[j]
            x[i] = acc / a[i][i]
        sols.append(x)
    return sols, sign * prev


def vp(q, p: int):
    """p-adic valuation of a rational; +inf for 0."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


class DetCache:
    """v_p(det) of reduced Laplacians, keyed by graph structure. The
    determinant is the spanning-tree count, so it does not depend on the
    anchor or the orientation."""

    def __init__(self):
        self._dets = {}

    def vp_det(self, n: int, pairs, p: int) -> int:
        key = (n, frozenset(frozenset(e) for e in pairs))
        if key not in self._dets:
            _, m = reduced_laplacian(n, pairs, 0)
            self._dets[key] = integer_solve(m, [])[1] if m else 1
        return vp(self._dets[key], p)


# -- p-adic outputs --------------------------------------------------------------


def parse_coeff(obj: dict):
    """(lift, claimed absolute precision) of one JSON p-adic number."""
    unit, val, prec = int(obj["unit"]), int(obj["val"]), int(obj["prec"])
    if unit == 0:
        return Fraction(0), math.inf
    return Fraction(unit) * Fraction(obj["p"]) ** val, val + prec


def parse_scalar(obj: dict):
    return [parse_coeff(c) for c in obj["coeffs"]]


def _coeff(poly, i):
    return poly[i] if i < len(poly) else (Fraction(0), math.inf)


def _holds(value: Fraction, p: int, prec) -> bool:
    """value == 0 modulo p^prec (exactly, when prec is infinite)."""
    return value == 0 if prec == math.inf else vp(value, p) >= prec


def _kept(claims, achievable: int):
    kept = sum(min(max(c, 0), achievable) for c in claims)
    return kept, achievable * len(claims)


# -- assemble_grid ---------------------------------------------------------------


def check_assemble(out: dict, expect: dict, dets: DetCache) -> Verdict:
    """Exact-residual checks of an assembled integral on the input lifts.

    For each L-coefficient i, with Gamma and H the output lifts and c the
    exact raw cochain:
      Laplacian(Gamma_i) - d*(c_i) vanishes at v modulo the least precision
      claimed for Gamma at v and its neighbours;
      H_i + d(Gamma_i) - c_i vanishes on e modulo the precisions claimed at e;
      d*(H_i) vanishes at v modulo the precisions claimed on its edges;
      Gamma(anchor) = 0 to its claimed precision.
    """
    p, n, pairs, c = expect["p"], expect["n"], expect["pairs"], expect["c"]
    gamma = [parse_scalar(out["gamma"][f"v{v}"]) for v in range(n)]
    harm = [parse_scalar(out["harmonic"][f"e{k}"]) for k in range(len(pairs))]
    anchor = int(out["anchor"][1:])
    degree = max(len(x) for x in gamma + harm + c)
    ok = True
    for i in range(degree):
        g = [_coeff(x, i) for x in gamma]
        h = [_coeff(x, i) for x in harm]
        ci = [x[i] if i < len(x) else Fraction(0) for x in c]
        residual = [Fraction(0)] * n
        prec_v = [g[v][1] for v in range(n)]
        hsum = [Fraction(0)] * n
        hprec = [math.inf] * n
        for k, (t, hd) in enumerate(pairs):
            diff = g[t][0] - g[hd][0]
            residual[t] += diff - ci[k]
            residual[hd] -= diff - ci[k]
            prec_v[t] = min(prec_v[t], g[hd][1])
            prec_v[hd] = min(prec_v[hd], g[t][1])
            ok &= _holds(h[k][0] + diff - ci[k], p, min(h[k][1], g[t][1], g[hd][1]))
            hsum[t] += h[k][0]
            hsum[hd] -= h[k][0]
            hprec[t] = min(hprec[t], h[k][1])
            hprec[hd] = min(hprec[hd], h[k][1])
        for v in range(n):
            ok &= _holds(residual[v], p, prec_v[v]) and _holds(hsum[v], p, hprec[v])
        ok &= _holds(g[anchor][0], p, g[anchor][1])
    achievable = max(0, expect["in_prec"] - dets.vp_det(n, pairs, p))
    claims = [prec for x in gamma + harm for _, prec in x]
    return Verdict(ok, *_kept(claims, achievable))


# -- height_table ----------------------------------------------------------------


def _degrees(n: int, points):
    out = [0] * n
    for _, mult, comp in points:
        out[comp] += mult
    return out


def _green_columns(n, pairs, anchor, profiles):
    """Anchored exact Poisson solutions for integer vertex profiles."""
    others, m = reduced_laplacian(n, pairs, anchor)
    cols = [[prof[v] for v in others] for prof in profiles]
    sols, _ = integer_solve(m, cols) if others else ([[] for _ in cols], 1)
    out = []
    for sol in sols:
        full = [Fraction(0)] * n
        for v, x in zip(others, sol):
            full[v] = x
        out.append(full)
    return out


def check_heights(table, expect: dict) -> Verdict:
    """Each pairing against a dense exact oracle; on cycles also against the
    closed form min(i, j) (n - max(i, j)) / n for D = (i) - (0), E = (j) - (0)."""
    n, pairs, anchor = expect["n"], expect["pairs"], expect["anchor"]
    ds, es = expect["D"], expect["E"]
    if len(table) != len(ds) or any(len(row) != len(es) for row in table):
        return Verdict(False)
    corr = _green_columns(n, pairs, anchor, [_degrees(n, d) for d in ds])
    ok = True
    for i, d in enumerate(ds):
        comp_d = {label: (mult, comp) for label, mult, comp in d}
        for j, e in enumerate(es):
            comp_e = {label: (mult, comp) for label, mult, comp in e}
            horiz = sum(
                comp_d[dl][0] * comp_e[el][0] * val
                for (dl, el), val in expect["horizontal"][i][j].items()
            )
            deg_e = _degrees(n, e)
            want = horiz + sum(corr[i][v] * deg_e[v] for v in range(n))
            if expect["family"] == "cycle":
                a, b = sorted((d[0][2], e[0][2]))
                ok &= want == Fraction(a * (n - b), n)
            ok &= table[i][j] == want
    return Verdict(bool(ok))


def _laplacian(n, pairs, f):
    out = [Fraction(0)] * n
    for t, h in pairs:
        out[t] += f[t] - f[h]
        out[h] += f[h] - f[t]
    return out


def iterated_rhs(n, pairs, row):
    """(1/2) sum_{e+ = v} [c_eta res_omega - c_omega res_eta] - sum_{e+ = v} indices
    over oriented edges out of v (cochains negate on reversed edges)."""
    out = [Fraction(0)] * n
    for k, (t, h) in enumerate(pairs):
        pair = row["c_eta"][k] * row["res_omega"][k] - row["c_omega"][k] * row["res_eta"][k]
        out[t] += pair / 2 - row["indices"][k]
        out[h] += pair / 2 + row["indices"][k]
    return out


def check_derivative_row(results, expect: dict, kind: str) -> Verdict:
    """Each u must solve Laplacian(u) = data exactly with u(anchor) = 0."""
    n, pairs, anchor = expect["n"], expect["pairs"], expect["anchor"]
    ok = len(results) == len(expect["rows"])
    for u, row in zip(results, expect["rows"]):
        data = row if kind == "ddlog-row" else iterated_rhs(n, pairs, row)
        ok &= u[anchor] == 0 and _laplacian(n, pairs, u) == data
    return Verdict(bool(ok))


# -- log_split -------------------------------------------------------------------


def check_log(out: dict, expect: dict) -> Verdict:
    """Valuation fields and the L-coefficient equal v_p(z) exactly; the
    digits kept are the constant term's claimed precision against the
    input's relative precision (the log of a unit known to prec digits)."""
    p, prec = expect["p"], expect["prec"]
    v = vp(expect["value"], p)
    coeffs = parse_scalar(out["log"])
    lam, lam_prec = _coeff(coeffs, 1)
    ok = out["p"] == p and out["val"] == v and out["lambda_coeff"] == v and len(coeffs) <= 2
    ok = ok and _holds(lam - v, p, lam_prec)
    return Verdict(bool(ok), *_kept([coeffs[0][1]], prec))


def check_log_triple(outs) -> bool:
    """log(ab) = log(a) + log(b) modulo the least claimed precision."""
    (la, pa), (lb, pb), (lab, pab) = (parse_scalar(o["log"])[0] for o in outs)
    return _holds(lab - la - lb, outs[0]["p"], min(pa, pb, pab))


def rref(rows):
    """Reduced row echelon form over Fraction: (nonzero rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    width = len(a[0]) if a else 0
    for c in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def canonical_mod_span(vec, rows):
    """The unique representative of vec + span(rows) vanishing on the pivot
    columns of the span's reduced echelon form."""
    basis, pivots = rref(rows) if rows else ([], [])
    out = [Fraction(x) for x in vec]
    for row, c in zip(basis, pivots):
        f = out[c]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return out


def check_fpn(out: dict, expect: dict) -> Verdict:
    """beta is z0 modulo F^0 and rho the weight -2 part of y0 (0 in case 2),
    the normal form the class was generated from; synderi must hold."""
    dim = len(expect["weights"])
    beta_want = canonical_mod_span(expect["z0"], expect["f0"])
    if expect["case"] == 1:
        rho_want = [y if w == -2 else Fraction(0) for y, w in zip(expect["y0"], expect["weights"])]
    else:
        rho_want = [Fraction(0)] * dim
    ok = (
        [Fraction(x) for x in out["beta"]] == beta_want
        and [Fraction(x) for x in out["rho"]] == rho_want
        and out["synderi"] is True
    )
    return Verdict(bool(ok))
