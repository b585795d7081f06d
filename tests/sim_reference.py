"""Reference sampler for the simulator's tests: the epoch loop, one epoch at a time.

``reference_chunk`` has the arguments and outputs of ``sim._chunk``, plus
a ``horizon`` after which it censors the episodes still live, but steps
the epochs one by one, drawing each epoch's counts for the episodes
still live: the epoch total y is geometric, P{y = k} = (1 - r) r^k with
r = m / (1 + m), m = (lambda_a + lambda_h) d, d = delta0 at epoch 1 and
delta after (a Poisson count over an exponential interval of mean d),
drawn by inversion, and it splits as x ~ Binomial(y, lambda_a /
(lambda_a + lambda_h)) attacker and y - x honest (Poisson thinning).
It costs one round of numpy calls per epoch, so it serves only as an
independent oracle for the path-level sampler: the two share the stream
keys but not the draws, so they agree in law, not episode by episode.

It draws the allies B ~ Binomial(M/2 - 1, rho) from their own stream,
Philox key (seed, 2 chunk + 1), which the sampler leaves unused, and its
Safety is the indicator of a Regular burst with a_exit - B >= thr.  The
sampler's Safety value is that indicator's mean given the path, so the
two agree in mean.
"""

from __future__ import annotations

import math

import numpy as np

from swarmgame.model import SwarmParams, majority_threshold
from swarmgame.sim import _streams


def reference_chunk(
    params: SwarmParams, rho: float, seed: int, index: int, size: int, horizon: int
) -> tuple[np.ndarray, ...]:
    """nu, mu, a_prior, a_exit, burst_regular, burst_safety, censored."""
    rng = _streams(seed, index)
    key = np.array([seed % 2**64, 2 * index + 1], dtype=np.uint64)
    ally_rng = np.random.Generator(np.random.Philox(key=key))
    threshold = majority_threshold(params.M)
    rate = params.lambda_a + params.lambda_h
    share = params.lambda_a / rate if rate > 0 else 0.0

    nu = np.zeros(size, dtype=np.int64)
    mu = np.zeros(size, dtype=np.int64)
    a_prior = np.zeros(size, dtype=np.int64)
    a_exit = np.zeros(size, dtype=np.int64)
    # Rows of the live episodes, and their attacker, honest and mu values.
    live = np.arange(size)
    attacker = np.zeros(size, dtype=np.int64)
    honest = np.zeros(size, dtype=np.int64)
    live_mu = np.zeros(size, dtype=np.int64)

    k = 0
    while live.size and k < horizon:
        k += 1
        m = rate * (params.delta0 if k == 1 else params.delta)
        scale = math.log1p(1.0 / m) if m > 0 else math.inf
        y = (rng.standard_exponential(live.size) / scale).astype(np.int64)
        if params.lambda_h > 0:
            x = rng.binomial(y, share)
            honest += y - x
            live_mu[(live_mu == 0) & (honest >= threshold)] = k
        else:
            x = y
        attacker += x
        crossing = attacker >= threshold
        if crossing.any():
            rows = live[crossing]
            nu[rows] = k
            mu[rows] = live_mu[crossing]
            a_exit[rows] = attacker[crossing]
            a_prior[rows] = a_exit[rows] - x[crossing]
            stay = ~crossing
            live, attacker, honest, live_mu = (
                live[stay], attacker[stay], honest[stay], live_mu[stay]
            )

    censored = np.zeros(size, dtype=bool)
    censored[live] = True
    mu[live] = live_mu
    a_prior[live] = a_exit[live] = attacker
    allies = ally_rng.binomial(params.candidates, rho, size=size)
    regular = ~censored & (mu == 0)
    safety = regular & (a_exit - allies >= threshold)
    return nu, mu, a_prior, a_exit, regular, safety, censored
