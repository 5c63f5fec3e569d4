"""Trajectory-level oracle for renewal and two-state semi-Markov quantities.

Every trajectory draws from its own counter-based stream, numpy's
Philox4x64-10 keyed by (seed, trajectory index).  The estimators evaluate those
streams in closed form for a batch of trajectories at a time, only up to the
first jump past the horizon, but account the draws in whole blocks and sum the
per-trajectory values in trajectory order, so the estimates are bit-identical
to a loop over one trajectory at a time, whatever the batch size.  Exponential
stages are sampled by inverse CDF.  Estimators on the same waiting time,
observation times, configuration and draw offset reduce one kept set of jump
counts.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

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
]

_CHUNK = 2048  # trajectories per batch; bounds the temporaries, not the results
_KEEP = 2**22  # most counts (n_traj x times) a kept ensemble holds; bounds memory
_last: tuple = (None, ())  # key and batches of the ensemble kept


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
    """High words of the 128-bit products m * x, built in place on 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> _S32
    lo, hi = x & _MASK32, x >> _S32
    t = lo * m_lo
    t >>= _S32
    t += np.multiply(lo, m_hi, out=lo)  # x_lo * m_hi plus a carry: below 2**64
    u = np.bitwise_and(t, _MASK32, out=lo)
    u += hi * m_lo
    hi *= m_hi
    hi += np.right_shift(t, _S32, out=t)
    hi += np.right_shift(u, _S32, out=u)
    return hi


def _philox_random(seed: int, index: np.ndarray, start, count: int) -> np.ndarray:
    """Row r: draws start[r] .. start[r] + count - 1 of the stream (seed, index[r]).

    Double d of a stream is word d % 4 of the Philox4x64-10 block at counter
    d // 4 + 1 under the key (seed, index), shifted right by 11 and scaled by
    2**-53, exactly as numpy's Philox and Generator.random produce it.
    """
    seed, index = int(seed), np.asarray(index, dtype=_U)
    start = np.asarray(start, dtype=_U) + np.zeros_like(index)
    skip = (start % _U(4)).astype(np.intp)  # words of the first block before start
    skip_min, skip_max = int(skip.min(initial=3)), int(skip.max(initial=0))  # 0..3
    width = (skip_max + count + 3) // 4  # blocks the widest row spans
    ctr = (start // _U(4) + _U(1))[:, None] + np.arange(width, dtype=_U)
    key = np.repeat(index, width).reshape(ctr.shape)  # second key word, per block
    # Rounds 1 and 2 in closed form.  The block enters as (ctr, 0, 0, 0), so
    # round 1 leaves (seed, 0, y, ctr * M0) with y = mulhi(M0, ctr) ^ key, and
    # in round 2 M0 meets only the seed: a scalar product.
    y = _mulhi(_M0, ctr) ^ key
    seed_hi, seed_lo = divmod(seed * int(_M0), 2**64)
    key += _U(_W1)
    x0, x1 = _mulhi(_M1, y) ^ _U((seed + _W0) % 2**64), y * _M1
    x2, x3 = ctr * _M0 ^ key ^ _U(seed_hi), _U(seed_lo)
    for r in range(2, 10):
        key += _U(_W1)
        x0, x1, x2, x3 = (
            _mulhi(_M1, x2) ^ x1 ^ _U((seed + r * _W0) % 2**64), x2 * _M1,
            _mulhi(_M0, x0) ^ x3 ^ key, x0 * _M0,
        )
    words = np.stack([x0, x1, x2, x3], axis=-1).reshape(len(index), 4 * width)
    if skip_min == skip_max:  # every row starts at the same word
        words = words[:, skip_min : skip_min + count]
    else:
        words = np.take_along_axis(words, skip[:, None] + np.arange(count), axis=1)
    return (words >> _U(11)) * 2.0**-53


def _jump_counts(w: HypoExpWTD, times, horizon: float, draws):
    """Jump counts at `times` for a batch of trajectories, one row each.

    `draws(rows, first, width)` returns uniforms first .. first + width - 1 of
    the streams `rows`.  Also returns the uniforms in the blocks of waits a row
    uses until they sum past the horizon.  A row draws a block's head, then its
    rest unless its last jump has passed the horizon by more than any sum of
    all its waits can round: counts and blocks equal drawing whole blocks.
    """
    x, s = horizon / w.mean, w.n_stages
    block = max(int(x + 8.0 * np.sqrt(x + 1.0)) + 4, 8)
    head = int(x + 2.0 * np.sqrt(x + 1.0)) + 2
    times, neg_rates = np.asarray(times, dtype=float)[:, None], -np.asarray(w.rates)

    def waits(rows, first, width):  # log1p(-u) / -rate: the bits of -log1p(-u) / rate
        u = -draws(rows, first * s, width * s).reshape(-1, width, s)
        u = np.divide(np.log1p(u, out=u), neg_rates, out=u)
        if s >= 8:  # numpy's order: pairwise from 8 stages, one after another below
            return u.sum(axis=2)
        return functools.reduce(np.add, np.moveaxis(u, 2, 0))

    def extend(rows, new):  # from the last jump on, so sums stay bitwise sequential
        jumps = np.cumsum(np.hstack([last[rows, None], new]), axis=1)[:, 1:]
        counts[rows] += (jumps[:, None, :] <= times).sum(axis=2)
        last[rows] = jumps[:, -1]

    new = waits(slice(None), 0, head)
    rows, last, totals = np.arange(len(new)), np.zeros(len(new)), np.zeros(len(new))
    counts, used = np.zeros((len(new), len(times)), dtype=np.intp), np.zeros_like(rows)
    for j in itertools.count(1):
        used[rows] += block * s
        extend(rows, new)
        keep = last[rows] <= horizon * (1.0 + 2.0 * np.finfo(float).eps * j * block)
        rows, new = rows[keep], new[keep]
        if rows.size:
            rest = waits(rows, (j - 1) * block + head, block - head)
            extend(rows, rest)
            totals[rows] += np.hstack([new, rest]).sum(axis=1)
            rows = rows[totals[rows] <= horizon]
        if not rows.size:
            return counts, used
        new = waits(rows, j * block, head)


def sample_jump_count(w: HypoExpWTD, t: float, rng: np.random.Generator) -> int:
    """Completed waiting times up to t; leaves `rng` past the blocks used."""
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    end = [0]  # the draws of one row follow each other

    def draws(rows, first, width):
        end[0] = first + width
        return rng.random((1, width))

    counts, used = _jump_counts(w, [t], t, draws)
    rng.random(int(used[0]) - end[0])  # the rest of the last block
    return int(counts[0, 0])


def _ensemble(w: HypoExpWTD, times: np.ndarray, cfg: SimConfig, offset: int):
    """Batches (start, counts, used, lead) of `_jump_counts` over all trajectories.

    A batch holds what `_jump_counts` returns for the streams of trajectories
    start, start + 1, ... past their first `offset` draws, and an owned copy
    `lead` of those draws from its head call, which starts at draw 0; all
    read-only, the counts in the narrowest unsigned dtype that holds them.
    The most recent ensemble of at most `_KEEP` counts is kept, so estimators
    on the same (w, times, cfg, offset) compute its streams once; a larger one
    is computed batch by batch as it is reduced, so its memory stays one batch.
    """
    global _last
    key = (w, tuple(times.tolist()), cfg, offset)
    kept_key, kept = _last  # one read: another thread may replace the slot
    if kept_key == key:
        return kept
    _last = (None, ())  # drop the old ensemble before computing the new one

    def batches():
        for start in range(0, cfg.n_traj, _CHUNK):
            index = np.arange(start, min(start + _CHUNK, cfg.n_traj), dtype=_U)
            lead = []

            def draws(rows, first, width):
                if first:
                    return _philox_random(cfg.seed, index[rows], offset + first, width)
                u = _philox_random(cfg.seed, index[rows], 0, offset + width)
                lead.append(u[:, :offset].copy())
                return u[:, offset:]

            arrays = _jump_counts(w, times, cfg.horizon, draws)
            arrays = [a.astype(np.min_scalar_type(a.max(initial=0))) for a in arrays]
            for a in (*arrays, *lead):
                a.setflags(write=False)
            yield start, *arrays, *lead

    if cfg.n_traj * len(times) > _KEEP:
        return batches()
    kept = tuple(batches())
    _last = (key, kept)
    return kept


def _estimate(w: HypoExpWTD, times, cfg: SimConfig, values, offset: int = 0):
    """Means and standard errors of `values(counts, used, lead, index)`.

    `values` runs on the batches of `_ensemble`.  The sums run through
    `np.add.accumulate`, which adds one trajectory at a time in index order,
    so the batch size never changes a bit.
    """
    acc = np.zeros((2, len(times)))
    for start, counts, used, lead in _ensemble(w, times, cfg, offset):
        vals = values(counts, used, lead, np.arange(start, start + len(used), dtype=_U))
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
    if times.ndim != 1:
        raise ValueError("observation times must be a 1-D sequence")
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

    def values(counts, *_):  # mu^N from a table of mu^0 .. mu^max N
        return np.power(float(mu), np.arange(int(counts.max(initial=0)) + 1.0))[counts]

    return _estimate(w, times, cfg, values)


def estimate_jump_probability(
    w: HypoExpWTD, n: int, times: Sequence[float], cfg: SimConfig
) -> list[Estimate]:
    """Empirical frequency of exactly n jumps up to each observation time."""
    if not isinstance(n, numbers.Integral):
        raise ValueError("jump count must be an integer")
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

    def values(counts, used, lead, index):
        steps = int(counts.max()) if counts.size else 0
        u = _philox_random(cfg.seed, index, used.astype(_U) + _U(1), steps)
        states = np.empty((len(index), steps + 1), dtype=np.int8)
        states[:, 0] = lead[:, 0] >= p0.p[0]
        for k in range(steps):
            states[:, k + 1] = u[:, k] >= to_first[states[:, k]]
        return (np.take_along_axis(states, counts, axis=1) == 0).astype(float)

    return _estimate(spec.wtd, times, cfg, values, offset=1)

