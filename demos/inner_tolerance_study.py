"""How loose can the inner solves be?

Replacing the exact expansion solve with an iterative one turns every
outer iteration into an inner-outer pair, and the inner tolerance
becomes the main cost dial.  This study runs the same six-eigenvalue
problem at three inner tolerances and compares outer iteration counts
against cumulative inner iterations: the outer count does not move.
The waveguide's M, C and K are symmetric, so its inner solves run
COCR, whose steps are cheap and whose work grows with every digit
requested (1916, 2673 and 3391 steps at 1e-3, 1e-4 and 1e-5, all at
99 outer steps).  A nonsymmetric problem's inner solves run recycled
GMRES instead, where tight solves can cost fewer steps than loose ones:
only a solve that outlasts one GMRES cycle builds the recycled
deflation space that makes later solves cheaper.
"""

from qri import SolverConfig, outer_loop, wave2d

SIGMA = -0.5 + 4.0j


def main():
    p = wave2d(20)
    print(f"waveguide problem, n = {p.n}, shift = {SIGMA}, nev = 6\n")
    print(f"{'tol_inner':>10} {'converged':>10} {'outer':>6} "
          f"{'inner total':>12} {'inner/outer':>12}")
    for tol_inner in (1e-3, 1e-4, 1e-5):
        cfg = SolverConfig(
            sigma=SIGMA, nev=6, tol_outer=1e-8,
            mode="inexact", tol_inner=tol_inner, seed=0,
        )
        res = outer_loop(p, cfg)
        outer = len(res.history)
        inner = res.cumulative_inner_iters
        print(f"{tol_inner:>10g} {str(all(res.converged)):>10} {outer:>6} "
              f"{inner:>12} {inner / outer:>12.1f}")
    print("\nloose inner solves keep the outer trajectory intact; every digit"
          "\nof inner tolerance costs COCR steps")


if __name__ == "__main__":
    main()
