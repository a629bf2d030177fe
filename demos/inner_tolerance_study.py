"""How loose can the inner solves be?

Replacing the exact expansion solve with restarted GMRES turns every
outer iteration into an inner-outer pair, and the inner tolerance
becomes the main cost dial.  This study runs the same six-eigenvalue
problem at three inner tolerances and compares outer iteration counts
against cumulative inner iterations: the outer count barely moves.  The
inner work need not grow with every extra digit requested: solves that
outlast one GMRES cycle build the run's recycled deflation space, which
makes the later solves cheaper.
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
    print("\nloose inner solves keep the outer trajectory intact; tight ones"
          "\ncost inner steps unless they build a recycled space that pays back")


if __name__ == "__main__":
    main()
