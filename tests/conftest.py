import pytest

from swarmgame.model import total_cost


@pytest.fixture(scope="session")
def fine_grid_minimum():
    """(rho, total) of the least scalar ``total_cost`` over rho = i / 100 000.

    The 100 001-point scan takes seconds, so each configuration is scanned
    once per session, whichever test asks first.
    """
    scans = {}

    def scan(params):
        if params not in scans:
            n = 100_000
            best = min(range(n + 1), key=lambda i: total_cost(params, i / n).total)
            scans[params] = (best / n, total_cost(params, best / n).total)
        return scans[params]

    return scan
