"""Summary statistics and ratios, each computed from its stated base."""

import statistics
from typing import Sequence, Tuple


def quartiles(xs: Sequence[float]) -> Tuple[float, float]:
    """(q1, q3) as statistics.quantiles(xs, n=4) gives them; one sample is its own."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def share(part: float, base: float) -> float:
    """part / base, and 0 when the base is empty."""
    return part / base if base else 0.0


def shard_imbalance(busy: Sequence[float]) -> float:
    """Busiest shard over the mean shard: 1.0 is perfectly balanced."""
    return share(max(busy), statistics.fmean(busy)) if busy else 0.0


def pool_efficiency(busy_total: float, jobs: int, wall: float) -> float:
    """Busy shard seconds over the seconds the workers had: jobs * wall."""
    return share(busy_total, jobs * wall)


def scaling_eff(wall_one: float, wall_many: float, jobs: int) -> float:
    """Speed-up over jobs=1 as a share of the ideal speed-up, jobs."""
    return share(wall_one, jobs * wall_many)


def overhead_ratio(traced: float, untraced: float) -> float:
    """Extra time tracing adds, as a share of the untraced time."""
    return share(traced, untraced) - 1.0
