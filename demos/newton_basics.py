"""Single-pair refinement on the 3x3 reference problem.

Runs the one-vector iteration from two starting guesses and prints the
iterate trail.  The error column shows the quadratic contraction once
the iterate enters the basin: each error is roughly a constant times
the square of the previous one.
"""

import numpy as np

from qri import example1, newton_solve


def run(lam0, x0, target):
    p = example1()
    res = newton_solve(p, lam0, x0, tol=1e-12)
    print(f"start lam0 = {lam0}")
    print(f"{'k':>3} {'lambda_k':>24} {'relres':>12} {'|lam_k - target|':>18}")
    for rec in res.history:
        lam, k = rec.ritz_values[0], rec.outer_iter - 1
        err = abs(lam - target)
        print(f"{k:>3} {lam!s:>24} {rec.relres[0]:>12.3e} {err:>18.3e}")
    status = "converged" if res.converged else "did not converge"
    print(f"{status}: lam = {res.lam}\n")


def main():
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    symmetric = np.ones(3, dtype=complex) / np.sqrt(3.0)

    # a guess aligned with the target eigenvector walks to the
    # eigenvalue nearest the starting point
    run(0.9, e2, target=1.0)

    # a symmetric guess from 0.45 lands on 1/2; watch the error square
    # at every step
    run(0.45, symmetric, target=0.5)


if __name__ == "__main__":
    main()
