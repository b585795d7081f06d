"""Compare the closed-form burst probabilities with the episode simulator.

The analytic model summarizes the attack at the exit epoch by a single
Poisson count with mean lambda_a * (delta0 + (E[nu] - 1) * delta). The
simulator instead plays out every observation epoch. This demo runs both
and prints the pieces side by side, so the difference in conventions is
visible rather than hidden: the simulated exit is *defined* by crossing
the majority threshold, while the analytic burst probability asks how
often an unconditioned Poisson count would cross it.  Next to each
simulated rate it prints the exact probability of the simulator's own
event (``pathwise_events``; E[nu] from ``expected_exit_index``), which
the rate estimates.
"""

from swarmgame import (
    SwarmParams,
    burst_prob_regular,
    burst_prob_safety,
    estimate,
    expected_exit_index,
    pathwise_events,
    prior_safe_prob,
)


def main():
    params = SwarmParams(
        M=20, drone_value=1500.0, lambda_a=1.0, delta0=1.0, delta=1.0
    )
    episodes = 200_000

    # One pass gives both strategies' burst rates: Regular is Safety with
    # no allies, facing the same attack.
    sim = estimate(params, episodes=episodes, seed=7, rho=0.5)
    exact = pathwise_events(params, 0.5)
    print(f"{episodes} episodes, M = {params.M}, lambda_a = {params.lambda_a:g}")
    print("                                simulated   exact pathwise")
    print(
        f"mean exit epoch               : {sim.mean_nu:9.3f}"
        f"   {expected_exit_index(params):9.3f}"
    )
    print(
        f"mean exit count               : {sim.mean_a_exit:9.3f}"
        f"   {exact.mean_exit_count:9.3f}"
    )
    print(
        f"burst rate, Regular           : {sim.burst_regular:9.4f}"
        f"   {exact.burst_regular:9.4f}"
    )
    print(
        f"burst rate, Safety            : {sim.burst_safety:9.4f}"
        f"   {exact.burst_safety:9.4f}"
    )
    print(
        f"prior-safe rate               : {sim.prior_safe_rate:9.4f}"
        f"   {exact.prior_safe:9.4f}"
    )

    calibrated = SwarmParams(
        M=params.M,
        drone_value=params.drone_value,
        lambda_a=params.lambda_a,
        delta0=params.delta0,
        delta=params.delta,
        expected_nu=sim.mean_nu,
    )
    print(f"\nanalytic q0 at that exit mean : {burst_prob_regular(calibrated):.4f}")
    print(f"analytic q1(rho = 0.5)        : {burst_prob_safety(calibrated, 0.5):.4f}")
    print(f"analytic prior-safe p         : {prior_safe_prob(calibrated):.4f}")


if __name__ == "__main__":
    main()
