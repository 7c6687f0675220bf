"""Seeded job generators for the three benchmark workloads.

Every round of a workload is a fixed multiset of job templates (family, size,
prime, precision) in a seed-shuffled order; the seed also draws every value,
orientation, random graph and divisor. Round r of a workload depends only on
(workload, seed, r), so the traced run replays exactly the first rounds of
the timed run, and the mix of job sizes in a run does not depend on the seed.

Generators know the exact rational data behind every input they emit and
attach it to the job as `expect`; the checks in `oracle.py` use nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .oracle import det, inverse

# Relative p-adic precision of the timed assemble inputs. The library's
# precision model is unsound (an inexact zero becomes exact, ROADMAP items 2
# and 3) and its Bareiss solve spends up to about 47 digits on a 10x10 grid at
# p = 3, so with 20-digit inputs about 17% of the jobs claim wrong digits.
# With 100 digits no timed job runs out of digits; the 20-digit jobs the
# workload was specified with are run untimed as an audit (AUDIT_PRECISION).
PRECISION = 100
AUDIT_PRECISION = 20


@dataclass
class Job:
    """One closed-loop request: a CLI argv (with its input files) or a
    library call, plus the exact data its output is checked against."""

    kind: str
    argv: list | None = None
    files: dict = field(default_factory=dict)
    call: object = None
    expect: dict = field(default_factory=dict)
    group: tuple | None = None


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


# -- graph families ------------------------------------------------------------
# A graph is (vertex count, [(tail, head)]) on vertices 0..n-1, simple and
# connected; orientations are drawn from the round's generator.


def grid(n: int):
    pairs = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                pairs.append((r * n + c, r * n + c + 1))
            if r + 1 < n:
                pairs.append((r * n + c, (r + 1) * n + c))
    return n * n, pairs


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def random_dual(rng, n: int):
    """Random spanning tree plus about n/2 extra edges."""
    pairs, seen = [], set()
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.append((u, v))
        seen.add(frozenset((u, v)))
    extra = n // 2
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in seen:
            pairs.append((u, v))
            seen.add(frozenset((u, v)))
            extra -= 1
    return n, pairs


def necklace(rng, beads: int, bead_len: int):
    """Cycles of bead_len vertices, each joined to an earlier one by a bridge."""
    pairs = []
    for b in range(beads):
        base = b * bead_len
        pairs += [(base + i, base + (i + 1) % bead_len) for i in range(bead_len)]
        if b:
            other = rng.randrange(b) * bead_len + rng.randrange(bead_len)
            pairs.append((other, base + rng.randrange(bead_len)))
    return beads * bead_len, pairs


def build_family(rng, family: str, size):
    if family == "grid":
        return grid(size)
    if family == "cycle":
        return cycle(size)
    if family == "random":
        return random_dual(rng, size)
    if family == "necklace":
        return necklace(rng, *size)
    raise ValueError(family)


def orient(rng, pairs):
    return [(h, t) if rng.random() < 0.5 else (t, h) for t, h in pairs]


def graph_json(n: int, pairs) -> dict:
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [{"id": f"e{k}", "tail": f"v{t}", "head": f"v{h}"} for k, (t, h) in enumerate(pairs)],
    }


# -- p-adic inputs -------------------------------------------------------------


def padic_input(rng, p: int, prec: int):
    """A random p-adic input to `prec` relative digits, with its exact
    rational value (the lift) and its absolute precision."""
    val = rng.choice((0, 0, 0, 1, 2, -1))
    mod = p**prec
    unit = rng.randrange(1, mod)
    while unit % p == 0:
        unit = rng.randrange(1, mod)
    obj = {"p": p, "val": val, "unit": str(unit), "prec": prec}
    return obj, Fraction(unit) * Fraction(p) ** val, val + prec


def scalar_input(rng, p: int, degree: int, prec: int):
    """Branch polynomial with degree+1 random coefficients; returns the JSON
    object, the exact lifted coefficients and the minimum absolute precision."""
    objs, lifts, precs = [], [], []
    for _ in range(degree + 1):
        obj, lift, abs_prec = padic_input(rng, p, prec)
        objs.append(obj)
        lifts.append(lift)
        precs.append(abs_prec)
    return {"coeffs": objs}, lifts, min(precs)


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# -- assemble_grid ---------------------------------------------------------------

ASSEMBLE_TEMPLATES = (
    # Three cost tiers: 9 small jobs, 7 mid-size jobs that hold job_ms_p50,
    # and 9 large ones whose top four (16% of a round) hold job_ms_p90, so
    # neither percentile sits on a boundary between job sizes.
    ("grid", 4, 3), ("grid", 4, 5), ("grid", 4, 7), ("grid", 5, 3), ("grid", 5, 7),
    ("random", 12, 5), ("random", 20, 3), ("random", 20, 7), ("necklace", (4, 5), 5),
    ("grid", 6, 3), ("grid", 6, 5), ("grid", 6, 7), ("necklace", (6, 6), 3), ("necklace", (6, 6), 7),
    ("random", 30, 5), ("random", 30, 7),
    ("random", 45, 3), ("grid", 7, 5), ("necklace", (8, 7), 7), ("grid", 8, 3), ("grid", 9, 7),
    ("grid", 10, 3), ("grid", 10, 5), ("grid", 10, 7), ("random", 100, 5),
)


def relabel(rng, n: int, pairs):
    """Random vertex numbering: each job's graph is a new labelled graph
    with a random elimination order, even where the shape repeats."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[t], perm[h]) for t, h in pairs]


def assemble_job(rng, family: str, size, p: int, workdir, name: str, prec: int = PRECISION) -> Job:
    n, pairs = build_family(rng, family, size)
    pairs = relabel(rng, n, orient(rng, pairs))
    edges_json, c_exact, precs = [], [], []
    for k, _ in enumerate(pairs):
        window = rng.choice((6, 12))
        a0, a0_lift, a0_prec = scalar_input(rng, p, rng.randint(0, 1), prec)
        coeffs = {"0": a0}
        for kk in rng.sample([i for i in range(-window, window + 1) if i], rng.randint(1, 3)):
            coeffs[str(kk)] = scalar_input(rng, p, rng.randint(0, 1), prec)[0]
        c_tail, tail_lift, tail_prec = scalar_input(rng, p, rng.randint(1, 2), prec)
        c_head, head_lift, head_prec = scalar_input(rng, p, rng.randint(1, 2), prec)
        edges_json.append({
            "id": f"e{k}",
            "form": {"window": window, "coeffs": coeffs},
            "C_tail": c_tail,
            "C_head": c_head,
        })
        # raw difference value c = C_head - C_tail - a_0 L, coefficient-wise
        c_exact.append(poly_sub(poly_sub(head_lift, tail_lift), [Fraction(0)] + a0_lift))
        precs += [a0_prec, tail_prec, head_prec]
    job = {"p": p, "prec": prec, "graph": graph_json(n, pairs), "edges": edges_json}
    path = f"{workdir}/{name}.json"
    return Job(
        "volog-assemble",
        argv=["volog-assemble", "--job", path],
        files={path: job},
        expect={"p": p, "n": n, "pairs": pairs, "c": c_exact, "in_prec": min(precs)},
    )


def assemble_round(seed: int, r: int, workdir: str, prec: int = PRECISION) -> list:
    rng = round_rng("assemble_grid", seed, r)
    order = list(ASSEMBLE_TEMPLATES)
    rng.shuffle(order)
    return [assemble_job(rng, fam, size, p, workdir, f"a{i}", prec) for i, (fam, size, p) in enumerate(order)]


# -- height_table ------------------------------------------------------------------
# (family, size, k divisors D, m divisors E); rows are derivative jobs.

HEIGHT_TEMPLATES = (
    # Three cost tiers: 5 small jobs, 4 tables of 16 pairings on about 25
    # vertices that hold job_ms_p50, and 5 large ones whose two 60-vertex
    # tables (14% of a round) hold job_ms_p90.
    ("cycle", 3, 2, 2), ("cycle", 8, 3, 3), ("random", 12, 4, 4),
    ("ddlog-row", 25, 4, 0), ("iterated-row", 25, 3, 0),
    ("cycle", 24, 4, 4), ("cycle", 26, 4, 4), ("random", 25, 4, 4), ("necklace", (5, 5), 4, 4),
    ("necklace", (6, 6), 3, 4), ("cycle", 40, 4, 3), ("random", 40, 4, 3),
    ("random", 60, 3, 3), ("random", 60, 3, 3),
)


def random_divisor(rng, n: int, prefix: str):
    """Degree-zero divisor with 2-4 points on random components."""
    k = rng.randint(2, 4)
    mults = [rng.choice((1, 1, 2, -1)) for _ in range(k - 1)]
    mults.append(-sum(mults))
    if mults[-1] == 0:
        mults[-1], mults[0] = -mults[0], 2 * mults[0]
    return [(f"{prefix}{i}", m, rng.randrange(n)) for i, m in enumerate(mults)]


def horizontal(rng, d_points, e_points):
    """Random horizontal intersection numbers for points sharing a component."""
    out = {}
    for dl, _, dc in d_points:
        for el, _, ec in e_points:
            if dc == ec and rng.random() < 0.5:
                out[(dl, el)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return out


def height_job(rng, family: str, size, k: int, m: int) -> Job:
    n, pairs = build_family(rng, family, size)
    pairs = orient(rng, pairs)
    anchor = rng.randrange(n)
    if family == "cycle":
        # D_i = (a_i) - (0), E_j = (b_j) - (0): the closed form applies
        pts = rng.sample(range(1, n), min(n - 1, k + m))
        d_pts = [[(f"D{i}", 1, a), (f"O{i}", -1, 0)] for i, a in enumerate(pts[:k])]
        e_pts = [[(f"E{j}", 1, b), (f"Q{j}", -1, 0)] for j, b in enumerate(pts[k:k + m] or pts[:m])]
        pairings = [[{} for _ in e_pts] for _ in d_pts]
    else:
        d_pts = [random_divisor(rng, n, f"D{i}_") for i in range(k)]
        e_pts = [random_divisor(rng, n, f"E{j}_") for j in range(m)]
        pairings = [[horizontal(rng, d, e) for e in e_pts] for d in d_pts]
    return Job(
        "height-table",
        expect={
            "n": n, "pairs": pairs, "anchor": anchor, "family": family,
            "D": d_pts, "E": e_pts, "horizontal": pairings,
        },
    )


def derivative_row_job(rng, kind: str, size: int, rows: int) -> Job:
    n, pairs = random_dual(rng, size)
    pairs = orient(rng, pairs)
    anchor = rng.randrange(n)
    data = []
    for _ in range(rows):
        if kind == "ddlog-row":
            res = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
            res.append(-sum(res))
            data.append(res)
        else:
            data.append(iterated_data(rng, len(pairs)))
    return Job(kind, expect={"n": n, "pairs": pairs, "anchor": anchor, "rows": data})


def iterated_data(rng, n_edges: int) -> dict:
    """Five edge cochains whose iterated-derivative vertex data sum to zero:
    the orientation-even term sum_e (c_eta res_omega - c_omega res_eta)
    must vanish, which fixes res_eta on one edge."""

    def rand():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_edges)]

    c_omega, c_eta, res_omega, res_eta, indices = rand(), rand(), rand(), rand(), rand()
    c_omega[0] = Fraction(rng.randint(1, 4))
    rest = sum(c_eta[e] * res_omega[e] - c_omega[e] * res_eta[e] for e in range(1, n_edges))
    res_eta[0] = (c_eta[0] * res_omega[0] + rest) / c_omega[0]
    return {"c_omega": c_omega, "c_eta": c_eta, "res_omega": res_omega,
            "res_eta": res_eta, "indices": indices}


def height_round(seed: int, r: int, workdir: str) -> list:
    rng = round_rng("height_table", seed, r)
    order = list(HEIGHT_TEMPLATES)
    rng.shuffle(order)
    jobs = []
    for fam, size, k, m in order:
        if fam.endswith("-row"):
            jobs.append(derivative_row_job(rng, fam, size, k))
        else:
            jobs.append(height_job(rng, fam, size, k, m))
    return jobs


# -- log_split ----------------------------------------------------------------------
# padic-log triples (p, prec) and fpn-split pairs (case, dimension).

LOG_TEMPLATES = (
    # 101/300 and the two 101/200 triples are 15% of a round's jobs, so
    # job_ms_p90 falls inside the 101/200 tier
    (2, 300), (3, 200), (5, 120), (101, 60), (101, 200), (101, 200), (101, 300),
    (10007, 20), (10007, 100),
)
FPN_TEMPLATES = (
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
    (2, 2), (2, 4), (2, 6), (2, 8), (1, 3), (1, 5), (2, 4), (1, 6),
)


def random_rational(rng, p: int):
    """Nonzero rational with a random p-adic valuation in [-2, 3]."""
    num = rng.randint(1, 10**6) * rng.choice((1, -1))
    den = rng.randint(1, 10**4)
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    v = rng.randint(-2, 3)
    return (num * p**v, den) if v >= 0 else (num, den * p**-v)


def log_triple(rng, p: int, prec: int, group: int) -> list:
    (an, ad), (bn, bd) = random_rational(rng, p), random_rational(rng, p)
    jobs = []
    for role, (num, den) in (("a", (an, ad)), ("b", (bn, bd)), ("ab", (an * bn, ad * bd))):
        jobs.append(Job(
            "padic-log",
            argv=["padic-log", "--p", str(p), "--num", str(num), "--den", str(den), "--prec", str(prec)],
            expect={"p": p, "prec": prec, "value": Fraction(num, den), "role": role},
            group=("log", group),
        ))
    return jobs


def _rand_invertible(rng, n: int, avoid=()):
    """Small-entry integer matrix that is invertible over Q and has no
    eigenvalue in `avoid` (checked by exact determinants)."""
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] += rng.choice((2, 3, -2))
        if det(m) == 0:
            continue
        if all(det([[m[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]) != 0 for lam in avoid):
            return m


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out


def fpn_module(rng, case: int, dim: int, p: int):
    """A valid Frobenius-monodromy module with a normal-form class (x = 0).

    Built in a weight-adapted basis, then conjugated by a random weight-
    preserving change of basis S. Case 1: a weight -2 block with phi = 1/p
    (which holds the class's y) plus weight 2 / -4 blocks chained by N.
    Case 2: weights 0 and -2 of equal size with N an isomorphism between them.
    Returns the module data and the normal-form triple (y0, z0).
    """
    q = Fraction(1, p)
    if case == 1:
        d2 = rng.randint(1, max(1, dim - 2)) if dim > 1 else 1
        rest = dim - d2
        d4 = rng.randint(0, min(d2, rest)) if rest else 0
        dpos = rest - d4
        blocks, weights = [], []
        phi2 = [[q if i == j else Fraction(0) for j in range(d2)] for i in range(d2)]
        blocks.append(phi2)
        weights += [-2] * d2
        if d4:
            # N maps the first d4 coordinates of weight -2 onto weight -4
            blocks.append([[q * q if i == j else Fraction(0) for j in range(d4)] for i in range(d4)])
            weights += [-4] * d4
        if dpos:
            blocks.append(_rand_invertible(rng, dpos, avoid=(1, q)))
            weights += [2] * dpos
        phi = _block_diag(blocks)
        N = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(d4):
            N[d2 + i][i] = Fraction(1)
        y0 = [Fraction(rng.randint(-4, 4)) for _ in range(d2)] + [Fraction(0)] * (dim - d2)
    else:
        d = dim // 2
        while True:
            phi0 = _rand_invertible(rng, d, avoid=(1, q, Fraction(p)))
            nblk = _rand_invertible(rng, d)
            phi2 = [[v * q for v in row] for row in _matmul(_matmul(nblk, phi0), inverse(nblk))]
            if det([[phi2[i][j] - (1 if i == j else 0) for j in range(d)] for i in range(d)]) != 0:
                break
        phi = _block_diag([phi0, phi2])
        N = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(d):
            for j in range(d):
                N[d + i][j] = nblk[i][j]
        weights = [0] * d + [-2] * d
        y0 = [Fraction(0)] * dim
    # weight-preserving change of basis: phi' = S phi S^-1, N' = S N S^-1
    sizes = []
    for w in weights:
        if sizes and sizes[-1][0] == w:
            sizes[-1][1] += 1
        else:
            sizes.append([w, 1])
    S = _block_diag([_rand_invertible(rng, s) for _, s in sizes])
    S_inv = inverse(S)
    phi = _matmul(_matmul(S, phi), S_inv)
    N = _matmul(_matmul(S, N), S_inv)
    y0 = [sum(S[i][j] * y0[j] for j in range(dim)) for i in range(dim)]
    iso = _rand_invertible(rng, dim)
    f0 = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(rng.randint(0, max(0, dim - 1)))]
    f0 = [v for v in f0 if any(v)]
    z0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim)]
    return {"p": p, "weights": weights, "phi": phi, "N": N, "iso": iso, "f0": f0}, y0, z0


def coboundary_shift(rng, mod: dict, t):
    """t + ((phi - 1) w, N w, -I w) for a random w: the same class."""
    dim = len(mod["weights"])
    w = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
    x, y, z = t

    def apply(m, v):
        return [sum(m[i][j] * v[j] for j in range(dim)) for i in range(dim)]

    phiw, nw, iw = apply(mod["phi"], w), apply(mod["N"], w), apply(mod["iso"], w)
    return (
        [x[i] + phiw[i] - w[i] for i in range(dim)],
        [y[i] + nw[i] for i in range(dim)],
        [z[i] - iw[i] for i in range(dim)],
    )


def _strs(v):
    return [str(x) for x in v]


def fpn_pair(rng, case: int, dim: int, workdir: str, name: str, group: int) -> list:
    p = rng.choice((3, 5, 7))
    mod, y0, z0 = fpn_module(rng, case, dim, p)
    mod_json = {
        "p": p, "weights": mod["weights"],
        "phi": [_strs(r) for r in mod["phi"]], "N": [_strs(r) for r in mod["N"]],
        "iso": [_strs(r) for r in mod["iso"]], "f0": [_strs(r) for r in mod["f0"]],
    }
    mpath = f"{workdir}/{name}_module.json"
    first = coboundary_shift(rng, mod, ([Fraction(0)] * dim, y0, z0))
    second = coboundary_shift(rng, mod, first)
    jobs = []
    for i, (x, y, z) in enumerate((first, second)):
        cpath = f"{workdir}/{name}_class{i}.json"
        files = {cpath: {"x": _strs(x), "y": _strs(y), "z": _strs(z)}}
        if i == 0:
            files[mpath] = mod_json
        jobs.append(Job(
            "fpn-split",
            argv=["fpn-split", "--module", mpath, "--class", cpath],
            files=files,
            expect={"case": case, "y0": y0, "z0": z0, "f0": mod["f0"], "weights": mod["weights"]},
            group=("fpn", group),
        ))
    return jobs


def log_split_round(seed: int, r: int, workdir: str) -> list:
    rng = round_rng("log_split", seed, r)
    units = [("log", t) for t in LOG_TEMPLATES] + [("fpn", t) for t in FPN_TEMPLATES]
    rng.shuffle(units)
    jobs = []
    for g, (what, t) in enumerate(units):
        if what == "log":
            jobs += log_triple(rng, t[0], t[1], g)
        else:
            jobs += fpn_pair(rng, t[0], t[1], workdir, f"f{g}", g)
    return jobs


ROUNDS = {
    "assemble_grid": assemble_round,
    "height_table": height_round,
    "log_split": log_split_round,
}
