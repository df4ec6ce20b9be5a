"""Query-complexity scaling: subset finding and the clique cost models.

The total oracle budget m + 2 t1 t2 should grow like n^{l/(l+1)}; a
log-log fit over three decades recovers the exponent.  The clique
section prints the exact exponent table and confirms each column with
the numeric optimizer.
"""
import numpy as np

from johnson_walk import (
    ReducedBasis, choose_parameters, optimize_m, oracle_queries, run_reduced,
    table1,
)

for l in (1, 2, 3):
    ns = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    rows = []
    for n in ns:
        p = choose_parameters(n, l)
        rep = run_reduced(ReducedBasis(n, p.m, l), p.t1, p.t2)
        rows.append((n, oracle_queries(p.m, p.t1, p.t2), rep.overlap_w))
    slope = np.polyfit(np.log([r[0] for r in rows]),
                       np.log([r[1] for r in rows]), 1)[0]
    print(f"l={l}: target exponent {l/(l+1):.4f}, fitted {slope:.4f}")
    for n, q, ov in rows:
        print(f"    n={n:>8d}  queries={q:>7d}  overlap={ov:.4f}")

print("\nclique-finding exponents (exact rationals, optimizer confirmation):")
print(f"{'l':>2} {'simple':>8} {'recursive':>10} {'mss':>6}   fitted (s/r/m)")
for row in table1():
    fits = [optimize_m(10 ** 6, row.l, v).fitted_exponent
            for v in ("simple", "recursive", "mss")]
    print(f"{row.l:>2} {str(row.simple_exponent):>8} "
          f"{str(row.recursive_exponent):>10} {str(row.mss_exponent):>6}   "
          f"{fits[0]:.4f} / {fits[1]:.4f} / {fits[2]:.4f}   best={row.best}")
