"""Trajectory-level oracle for renewal and two-state semi-Markov quantities.

Every trajectory draws from its own counter-based stream, numpy's
Philox4x64-10 keyed by (seed, trajectory index), so estimates are
bit-identical regardless of batching.  The estimators evaluate those streams
in closed form for a batch of trajectories at a time and sum the
per-trajectory values in trajectory order.  Exponential stages are sampled by
inverse CDF.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .classical_semimarkov import ProbabilityVector, SemiMarkovSpec
from .waiting_time import HypoExpWTD

__all__ = [
    "SimConfig",
    "Estimate",
    "trajectory_rng",
    "sample_jump_count",
    "estimate_generating_function",
    "estimate_jump_probability",
    "simulate_two_state",
    "write_estimates_csv",
]

_CHUNK = 512  # trajectories per batch; bounds the temporaries, not the results


@dataclass(frozen=True)
class SimConfig:
    n_traj: int
    seed: int
    horizon: float

    def __post_init__(self):
        if not (isinstance(self.n_traj, numbers.Integral) and self.n_traj >= 1):
            raise ValueError("n_traj must be an integer >= 1")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n: int

    def covers(self, value: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - value) <= n_sigma * self.std_error


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one trajectory (Philox keyed by seed, index)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    )


_U = np.uint64
_MASK32, _S32 = _U(0xFFFFFFFF), _U(32)
_M0, _M1 = _U(0xD2E7470EE14C6C93), _U(0xCA5A826395121157)  # Philox4x64 multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments


def _mulhi(m: np.uint64, x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m * x, built from 32-bit halves."""
    x_lo, x_hi = x & _MASK32, x >> _S32
    t = ((x_lo * (m & _MASK32)) >> _S32) + x_lo * (m >> _S32)
    u = (t & _MASK32) + x_hi * (m & _MASK32)
    return x_hi * (m >> _S32) + (t >> _S32) + (u >> _S32)


def _philox_random(seed: int, index: np.ndarray, start, count: int) -> np.ndarray:
    """Row r: draws start[r] .. start[r] + count - 1 of the stream (seed, index[r]).

    Double d of a stream is word d % 4 of the Philox4x64-10 block at counter
    d // 4 + 1 under the key (seed, index), shifted right by 11 and scaled by
    2**-53, exactly as numpy's Philox and Generator.random produce it.
    """
    seed, index = int(seed), np.asarray(index, dtype=_U)
    start = np.asarray(start, dtype=_U) + np.zeros_like(index)
    x0 = (start // _U(4) + _U(1))[:, None] + np.arange((count + 6) // 4, dtype=_U)
    x1 = x2 = x3 = np.zeros_like(x0)
    for r in range(10):
        k0, k1 = _U((seed + r * _W0) % 2**64), index[:, None] + _U(r * _W1 % 2**64)
        x0, x1, x2, x3 = (
            _mulhi(_M1, x2) ^ x1 ^ k0, x2 * _M1, _mulhi(_M0, x0) ^ x3 ^ k1, x0 * _M0
        )
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(len(index), -1)
    cols = (start % _U(4)).astype(np.intp)[:, None] + np.arange(count)
    return (np.take_along_axis(words, cols, axis=1) >> _U(11)) * 2.0**-53


def _jump_counts(w: HypoExpWTD, times, horizon: float, draws):
    """Jump counts at `times` for a batch of trajectories, one row each.

    `draws(rows, j, width)` returns the `width` uniforms of waiting-time
    block j for the trajectories `rows`.  A trajectory draws blocks until its
    waiting times sum past the horizon.  Also returns the uniforms each used.
    """
    block = max(int(horizon / w.mean + 8.0 * np.sqrt(horizon / w.mean + 1.0)) + 4, 8)

    def waits(rows, j):
        u = draws(rows, j, block * w.n_stages).reshape(-1, block, w.n_stages)
        return (-np.log1p(-u) / np.asarray(w.rates)).sum(axis=2)

    blocks = [waits(slice(None), 0)]
    totals = blocks[0].sum(axis=1)
    while (more := np.flatnonzero(totals <= horizon)).size:
        blocks.append(np.full_like(blocks[0], np.inf))  # inf: never drawn
        blocks[-1][more] = waits(more, len(blocks) - 1)
        totals[more] += blocks[-1][more].sum(axis=1)
    jumps = np.cumsum(np.hstack(blocks), axis=1)
    counts = np.empty((len(totals), len(times)), dtype=np.intp)
    for k, t in enumerate(times):
        counts[:, k] = np.count_nonzero(jumps <= t, axis=1)
    return counts, np.count_nonzero(np.isfinite(jumps), axis=1) * w.n_stages


def sample_jump_count(w: HypoExpWTD, t: float, rng: np.random.Generator) -> int:
    """Number of completed waiting times up to t for a single trajectory."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return 0
    counts, _ = _jump_counts(w, [t], t, lambda rows, j, width: rng.random((1, width)))
    return int(counts[0, 0])


def _estimate(w: HypoExpWTD, times, cfg: SimConfig, values, offset: int = 0):
    """Mean and standard error of `values(counts, used, index)` over trajectories.

    For a batch of trajectory indices, `counts` and `used` are what
    `_jump_counts` returns for their streams past the first `offset` draws.
    The sums run through `np.add.accumulate`, which adds one trajectory at a
    time in index order, so the batch size never changes a bit.
    """
    acc = np.zeros((2, len(times)))
    for start in range(0, cfg.n_traj, _CHUNK):
        index = np.arange(start, min(start + _CHUNK, cfg.n_traj), dtype=_U)

        def draws(rows, j, width):
            return _philox_random(cfg.seed, index[rows], offset + j * width, width)

        vals = values(*_jump_counts(w, times, cfg.horizon, draws), index)
        rows = np.concatenate([acc[None], np.stack([vals, vals * vals], axis=1)])
        acc = np.add.accumulate(rows, axis=0)[-1]
    n_traj = cfg.n_traj
    mean = acc[0] / n_traj
    if n_traj > 1:
        var = np.maximum(acc[1] - n_traj * mean * mean, 0.0) / (n_traj - 1)
    else:
        var = np.zeros(len(times))
    return [
        Estimate(float(m), float(np.sqrt(v / n_traj)), n_traj)
        for m, v in zip(mean, var)
    ]


def _check_times(times: Sequence[float], cfg: SimConfig) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size and not float(times.min()) >= 0.0:
        raise ValueError("time must be nonnegative")
    if times.size and float(times.max()) > cfg.horizon:
        raise ValueError("observation times must not exceed the horizon")
    return times


def estimate_generating_function(
    w: HypoExpWTD, mu: float, times: Sequence[float], cfg: SimConfig
) -> list[Estimate]:
    """Sample mean of mu^{N(t)} at each observation time."""
    if not -1.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [-1, 1]")
    times = _check_times(times, cfg)
    return _estimate(w, times, cfg, lambda counts, *_: np.power(float(mu), counts))


def estimate_jump_probability(
    w: HypoExpWTD, n: int, times: Sequence[float], cfg: SimConfig
) -> list[Estimate]:
    """Empirical frequency of exactly n jumps up to each observation time."""
    if n < 0:
        raise ValueError("jump count must be >= 0")
    times = _check_times(times, cfg)
    return _estimate(w, times, cfg, lambda counts, *_: (counts == n).astype(float))


def simulate_two_state(
    spec: SemiMarkovSpec,
    p0: ProbabilityVector,
    times: Sequence[float],
    cfg: SimConfig,
) -> list[Estimate]:
    """Empirical occupation probability of the first state at each time.

    The first draw of each stream picks the initial state.  The state after
    each jump follows the embedded chain: from state j the walker moves to
    the first state with the probability in column j of the jump matrix,
    using the draws that follow the waiting times.
    """
    times = _check_times(times, cfg)
    to_first = np.array([spec.pi, spec.sigma])  # P(next state = first | current)

    def values(counts, used, index):
        steps = int(counts.max()) if counts.size else 0
        u = _philox_random(cfg.seed, index, 1 + used, steps)
        states = np.empty((len(index), steps + 1), dtype=np.int8)
        states[:, 0] = _philox_random(cfg.seed, index, 0, 1)[:, 0] >= p0.p[0]
        for k in range(steps):
            states[:, k + 1] = u[:, k] >= to_first[states[:, k]]
        return (np.take_along_axis(states, counts, axis=1) == 0).astype(float)

    return _estimate(spec.wtd, times, cfg, values, offset=1)


def write_estimates_csv(
    stream: IO[str],
    quantity: str,
    times: Sequence[float],
    estimates: Sequence[Estimate],
    cfg: SimConfig,
) -> None:
    """CSV emission with the schema t, quantity, mean, std_error, n_traj, seed."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["t", "quantity", "mean", "std_error", "n_traj", "seed"])
    for t, est in zip(times, estimates):
        writer.writerow(
            [
                format(float(t), ".12g"),
                quantity,
                format(est.mean, ".12g"),
                format(est.std_error, ".12g"),
                est.n,
                cfg.seed,
            ]
        )
