"""Exact-expansion subspace run on the waveguide problem, checked
against the dense reference decomposition.

The loop grows a basis one vector per iteration, solving the projected
problem each time.  At exact mode's default restart size of 20 vectors
it thick-restarts: the basis is compressed to its 10 best coordinate
vectors and keeps growing, so the ``dim`` column drops from 20 to 11.
The table shows the leading Ritz value locking onto the true eigenvalue
while the residual drops; the footer compares every converged pair
against the dense solution of the same problem.
"""

import numpy as np

from qri import SolverConfig, full_eig, outer_loop, wave2d

SIGMA = 0.1234 + 0.4321j


def main():
    p = wave2d(6)
    print(f"waveguide problem, n = {p.n}, shift = {SIGMA}")

    cfg = SolverConfig(sigma=SIGMA, nev=3, tol_outer=1e-10, mode="exact", seed=0)
    res = outer_loop(p, cfg)

    print(f"{'iter':>4} {'dim':>4} {'leading ritz value':>28} {'relres':>12}")
    for rec in res.history:
        lead = rec.ritz_values[0]
        print(f"{rec.outer_iter:>4} {rec.subspace_dim:>4} "
              f"{f'{lead.real:+.12f} {lead.imag:+.12f}i':>28} "
              f"{rec.relres[0]:>12.3e}")
    print(f"stop = {res.stop_reason} after {len(res.history)} iterations\n")

    d = full_eig(p, SIGMA)
    print("converged pairs against the dense decomposition:")
    for pair, lam_true in zip(res.eigenpairs, d.lams):
        gap = abs(pair.lam - lam_true)
        print(f"  lam = {pair.lam:+.12f}   |difference| = {gap:.3e}")


if __name__ == "__main__":
    main()
