"""Evaluate the exit-index generating function and check it against sampling.

The fluctuation machinery produces E[xi^nu], where nu is the first
observation epoch at which attackers hold a strict majority. Below the
majority the observed attacker count is an absorbing Markov chain, so the
PGF and the exact E[nu] come from one 1-D rational generating function:
there is no Monte Carlo noise on the analytic side, and the sampled
column is there for contrast.
"""

import math

from swarmgame import SwarmParams, exit_index_pgf, expected_exit_index
from swarmgame.sim import sample_exit_indices


def main():
    params = SwarmParams(
        M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0
    )
    nu, censored = sample_exit_indices(params, episodes=100_000, seed=11)
    assert censored == 0

    print("xi      analytic E[xi^nu]   sampled")
    for xi in (0.2, 0.5, 0.8, 0.9, 0.99, 1.0):
        sampled = (xi ** nu.astype(float)).mean()
        print(f"{xi:4.2f}       {exit_index_pgf(xi, params):.6f}       {sampled:.6f}")

    print(f"\nanalytic E[nu] = {expected_exit_index(params):.4f}")
    print(f"sampled  E[nu] = {nu.mean():.4f}")

    # the honest-drone rate cancels out of the attacker marginal
    noisy = SwarmParams(
        M=20, drone_value=1500.0, lambda_a=1.0, lambda_h=10.0, delta0=1.0, delta=1.0
    )
    same = math.isclose(
        exit_index_pgf(0.5, params), exit_index_pgf(0.5, noisy), rel_tol=1e-9
    )
    print(f"\npgf unchanged by honest traffic (lambda_h = 10): {same}")


if __name__ == "__main__":
    main()
