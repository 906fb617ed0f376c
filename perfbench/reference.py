"""Closed forms the benchmark checks the program's outputs against.

Everything here is computed from first principles, independently of the
``repro`` package: the Equation 11 period, the exact mean and variance of a
PurePeriodicCkpt makespan under exponential failures, and the scalar
lowering of the storage stacks the workloads use.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple


def eq11_period(checkpoint: float, mtbf: float, downtime: float, recovery: float) -> Optional[float]:
    """``sqrt(2 C (mu - D - R))``, or ``None`` where it has no real value."""
    slack = mtbf - downtime - recovery
    if checkpoint <= 0.0 or slack <= 0.0:
        return None
    return math.sqrt(2.0 * checkpoint * slack)


def _truncated_exp_moments(rate: float, length: float) -> Tuple[float, float, float]:
    """``(q, E[X | X < L], Var[X | X < L])`` for ``X ~ Exp(rate)``, ``q = P(X < L)``."""
    q = -math.expm1(-rate * length)
    p = 1.0 - q
    mean = 1.0 / rate - length * p / q
    second = (
        2.0 / rate**2 - p * (length**2 + 2.0 * length / rate + 2.0 / rate**2)
    ) / q
    return q, mean, second - mean * mean


def _retried_block(rate: float, length: float, before: Tuple[float, float]) -> Tuple[float, float]:
    """Mean and variance of the time to get ``length`` seconds through.

    Every failure strikes after ``X | X < length`` seconds and is followed
    by a restart block whose time has mean/variance ``before``; the attempt
    count is geometric with success probability ``exp(-rate * length)``.
    """
    q, x_mean, x_var = _truncated_exp_moments(rate, length)
    p = 1.0 - q
    retries_mean = q / p
    retries_var = q / (p * p)
    loss_mean = x_mean + before[0]
    loss_var = x_var + before[1]
    mean = length + retries_mean * loss_mean
    var = retries_mean * loss_var + retries_var * loss_mean**2
    return mean, var


def pure_periodic_segments(total: float, checkpoint: float, period: float) -> List[float]:
    """Segment lengths: chunks of ``P - C`` each followed by ``C``; the last
    chunk carries no checkpoint."""
    chunk = period - checkpoint if period > checkpoint else total
    segments = []
    done = 0.0
    while done < total:
        work = min(chunk, total - done)
        done += work
        last = done >= total - 1e-9
        segments.append(work if last else work + checkpoint)
    return segments


def pure_periodic_makespan(
    total: float, checkpoint: float, recovery: float, downtime: float, mtbf: float
) -> Tuple[float, float]:
    """Exact mean and variance of a PurePeriodicCkpt makespan at the Eq. 11
    period, under exponential failures of mean ``mtbf``.

    A failure anywhere (work, checkpoint, downtime or recovery) restarts
    the downtime + recovery block, then the interrupted segment.  The
    mean of one segment ``s`` is ``e^{l(D+R)} (e^{l s} - 1) / l``.
    """
    period = eq11_period(checkpoint, mtbf, downtime, recovery)
    if period is None:
        raise ValueError("the Eq. 11 period is undefined at this point")
    rate = 1.0 / mtbf
    restart_length = downtime + recovery
    restart = _retried_block(rate, restart_length, (0.0, 0.0)) if restart_length > 0 else (0.0, 0.0)
    mean = 0.0
    var = 0.0
    for length in pure_periodic_segments(total, checkpoint, period):
        m, v = _retried_block(rate, length, restart)
        mean += m
        var += v
    return mean, var


# ---------------------------------------------------------------------- #
# Storage lowering: the media the workloads use, from their definitions.
# ---------------------------------------------------------------------- #
def lower_storage(
    tree: Mapping, data_bytes: float, nodes: int, platform_mtbf: float
) -> Tuple[float, float]:
    """Effective ``(C, R)`` of a ``{"kind", "params"}`` storage tree."""
    kind = tree["kind"]
    params: Dict = dict(tree.get("params", {}))
    if data_bytes == 0:
        return 0.0, 0.0
    if kind == "remote-pfs":
        latency = params.get("latency", 0.0)
        write = params["write_bandwidth"]
        read = params.get("read_bandwidth", write)
        return latency + data_bytes / write, latency + data_bytes / read
    if kind == "node-local":
        latency = params.get("latency", 0.0)
        write = params["node_write_bandwidth"]
        read = params.get("node_read_bandwidth", write)
        per_node = data_bytes / nodes
        return latency + per_node / write, latency + per_node / read
    if kind == "multi-level":
        local = lower_storage(params["local"], data_bytes, nodes, platform_mtbf)
        remote = lower_storage(params["remote"], data_bytes, nodes, platform_mtbf)
        f = params.get("remote_fraction", 0.1)
        g = params.get("remote_read_fraction", 0.1)
        return local[0] + f * remote[0], (1.0 - g) * local[1] + g * remote[1]
    if kind == "buddy":
        latency = params.get("latency", 0.0)
        time = latency + data_bytes / nodes / params["link_bandwidth"]
        fallback = params.get("fallback_storage")
        if fallback is None:
            return time, time
        loss = -math.expm1(-time / (platform_mtbf * nodes))
        fallback_read = lower_storage(fallback, data_bytes, nodes, platform_mtbf)[1]
        return time, (1.0 - loss) * time + loss * fallback_read
    raise ValueError(f"no reference lowering for storage kind {kind!r}")


def general_phase_gap(
    checkpoint: float,
    recovery: float,
    downtime: float,
    mtbf: float,
    library_fraction: float,
    general: float,
) -> float:
    """How much cheaper checkpointing the composite's GENERAL phase is
    than running it unprotected, as a share of the unprotected time.

    Periodic: Eq. 10 at the Eq. 11 period, capped at the phase length.
    Unprotected: Eq. 9 over the phase plus its remainder checkpoint
    ``(1 - rho) C``.  Negative when the unprotected regime is cheaper.
    """
    period = eq11_period(checkpoint, mtbf, downtime, recovery)
    if period is None:
        return -math.inf

    def loss(length: float) -> float:
        return 1.0 - (downtime + recovery + length / 2.0) / mtbf

    best = min(period, general)
    efficiency = (1.0 - checkpoint / best) * loss(best)
    periodic = general / efficiency if efficiency > 0.0 else math.inf
    phase = general + (1.0 - library_fraction) * checkpoint
    unprotected = phase / loss(phase) if loss(phase) > 0.0 else math.inf
    if math.isinf(unprotected):
        return math.inf if math.isfinite(periodic) else 0.0
    return (unprotected - periodic) / unprotected


def expected_periods(
    protocol: str,
    *,
    checkpoint: float,
    recovery: float,
    downtime: float,
    mtbf: float,
    library_fraction: float,
    total: float,
    alpha: float,
) -> Dict[str, Tuple[str, float]]:
    """What the optimal period of each tunable keyword must be.

    ``("equal", P)``: the Eq. 11 value ``P``.  PurePeriodicCkpt and
    BiPeriodicCkpt price every phase with Eq. 10, whose minimizer is Eq. 11
    wherever it has a real value (``C_L = rho C`` for the library period).
    The composite's GENERAL phase is priced by Eq. 10 only when it is at
    least one period long, and by Eq. 9 (run unprotected, then a remainder
    checkpoint) otherwise; the optimum is the cheaper regime.  When Eq. 9
    wins, any period longer than the phase is optimal: ``("above", W)``.
    Keywords with no real Eq. 11 value are left out.
    """
    general = (1.0 - alpha) * total
    out: Dict[str, Tuple[str, float]] = {}
    if protocol == "PurePeriodicCkpt":
        period = eq11_period(checkpoint, mtbf, downtime, recovery)
        if period is not None:
            out["period"] = ("equal", period)
    elif protocol == "BiPeriodicCkpt":
        for keyword, cost in (("general_period", checkpoint), ("library_period", library_fraction * checkpoint)):
            period = eq11_period(cost, mtbf, downtime, recovery)
            if period is not None:
                out[keyword] = ("equal", period)
    elif protocol == "ABFT&PeriodicCkpt":
        period = eq11_period(checkpoint, mtbf, downtime, recovery)
        if period is not None and general > 0.0:
            gap = general_phase_gap(checkpoint, recovery, downtime, mtbf, library_fraction, general)
            if gap > 0.0:
                out["general_period"] = ("equal", min(period, general))
            else:
                out["general_period"] = ("above", general)
    return out


def periods_match(
    reported: Mapping[str, Optional[float]],
    expected: Mapping[str, Tuple[str, float]],
    rtol: float,
) -> Optional[str]:
    """``None`` when every reported period meets its expectation."""
    for keyword, (kind, value) in expected.items():
        got = reported.get(keyword)
        if kind == "equal":
            if got is None or abs(got - value) > rtol * value:
                return f"{keyword}={got!r}, expected {value!r} (rtol {rtol})"
        elif got is None or not got > value:
            return f"{keyword}={got!r}, expected a period above the {value!r} s phase"
    return None
