#!/usr/bin/env python3
"""Walk through the branch-derivative pipeline on a residue-bearing 3-cycle.

Builds annulus data with a single nonzero residue, assembles the integral
over the branch-polynomial ring, differentiates the correction gamma in the
branch parameter, and confirms it solves the Poisson problem for minus the
flux of the residue cochain. Finishes with the one-dimensional unit model:
the class of a number splits into (log, valuation) and the derivative
identity relates the two.
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from vologcalc.fpnmod import kummer_class_from_value, synderi_check
from vologcalc.graphs import cycle_graph, d_star, laplacian, rational_cochain
from vologcalc.loglaurent import AnnulusForm
from vologcalc.padic import PadicContext
from vologcalc.volog import EdgeLocalData, LocalColemanData, assemble


def main() -> None:
    ctx = PadicContext(5, 12)
    g = cycle_graph(3)
    residues = {"e0": 1, "e1": 0, "e2": 0}
    data = LocalColemanData(
        g,
        ctx,
        tuple(
            EdgeLocalData(
                e.id,
                form=AnnulusForm(ctx, {0: ctx.scalar(residues[e.id])}),
                c_tail=ctx.zero_scalar(),
                c_head=ctx.zero_scalar(),
            )
            for e in g.edges
        ),
        anchor=2,
    )
    out = assemble(data)
    print("assembled gamma over the branch ring:")
    for v in g.vertices:
        print(f"  gamma({v}) = {out.gamma.values[v]!r}")
    du = out.gamma.map_values(lambda s: s.derive_at_zero())
    print("branch derivative of gamma at the reference branch:")
    for v in g.vertices:
        print(f"  d gamma({v}) = {du.values[v]!r}")
    flux = d_star(rational_cochain(g, residues))
    lap = laplacian(du)
    print("laplacian of the derivative vs minus the residue flux:")
    for v in g.vertices:
        print(f"  {lap.values[v]!r}  =?=  {-flux.values[v]}")

    print()
    num, den = 50, 7
    M, t = kummer_class_from_value(5, num, den, 14)
    witness = synderi_check(M, t)
    nf = witness.normal_form
    print(f"unit model for {num}/{den} over Q_5:")
    print(f"  filtration component (log at the reference branch) = {nf.beta[0]!r}")
    print(f"  discrete component (valuation) = {nf.rho[0]}")
    print(f"  derivative identity holds: {witness.ok}")
    assert nf.rho == (Fraction(2),)


if __name__ == "__main__":
    main()
