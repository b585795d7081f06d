"""Self-time arithmetic and patching of the benchmark's outside-in tracer."""

import swarmgame.model
from swarmgame import SwarmParams, total_cost

from perfbench.tracer import Tracer, patched


def test_self_time_of_synthetic_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 4

    def inner():
        now[0] += 2
        traced_leaf()
        now[0] += 1

    traced_leaf = tracer.wrap("b.leaf", leaf)
    traced_inner = tracer.wrap("b.inner", inner)
    with tracer.span("a.outer"):
        now[0] += 1
        traced_inner()
        now[0] += 1
        traced_inner()
    s = tracer.summary()

    assert s["a.outer.total_s"] == 16 and s["a.outer.self_s"] == 16 - 14
    assert s["b.inner.calls"] == 2 and s["b.inner.total_s"] == 14
    assert s["b.inner.self_s"] == 14 - 8
    assert s["b.leaf.self_s"] == 8
    # b.leaf runs inside b.inner, so layer b is busy 14, not 14 + 8.
    assert s["b.busy_s"] == 14 and s["b.self_s"] == 14
    assert s["a.busy_s"] == 16 and s["a.self_s"] == 2
    assert s["b.leaf@b.inner.calls"] == 2
    # A window that starts inside the outer span treats its spans as roots.
    tail = tracer.summary(first=tracer.mark() - 2)
    assert tail["b.inner.total_s"] == 7 and tail["b.busy_s"] == 7


def test_patched_counts_kernel_terms_and_restores():
    original = swarmgame.model.pois_tail
    params = SwarmParams(M=8, drone_value=1.0, lambda_a=1.0, expected_nu=3.0)
    with patched(Tracer()) as tracer:
        assert swarmgame.model.pois_tail is not original
        total_cost(params, 0.5)
    assert swarmgame.model.pois_tail is original
    # burst_prob_safety: pois_tail(5..8) = 26 terms; burst_prob_regular:
    # pois_tail(5) = 5; prior_safe_prob: pois_cdf(3) = 4.
    assert tracer.counts["kernels.pois_terms"] == 26 + 5 + 4
    s = tracer.summary()
    assert s["kernels.pois_tail.calls"] == 5 and s["kernels.binom_pmf.calls"] == 4
    assert s["kernels.pois_cdf.calls"] == 1
