"""Hypoexponential waiting-time distributions and their memory kernel.

A waiting time here is a sum of independent exponential stages with rates
``lambda_1..lambda_m`` (repeats allowed; m equal rates give the Erlang-m
case).  The Laplace transform of the density is the rational function

    fhat(u) = prod_i lambda_i / (u + lambda_i),

which keeps the density, the survival probability, the kernel defined by
f = k * g, and every renewal quantity built on them exactly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .poly_laplace import (
    ExpPolyFunction,
    Polynomial,
    RationalLaplace,
    _cluster,
    invert_laplace,
)

__all__ = ["HypoExpWTD", "MemoryKernel"]


@dataclass(frozen=True)
class HypoExpWTD:
    """Waiting-time distribution given by an ordered list of stage rates."""

    rates: tuple[float, ...]

    def __init__(self, rates: Iterable[float]):
        rates = tuple(float(r) for r in rates)
        if not rates:
            raise ValueError("at least one stage rate is required")
        if any(r <= 0 for r in rates):
            raise ValueError("stage rates must be positive")
        object.__setattr__(self, "rates", rates)

    @staticmethod
    def exponential(rate: float) -> "HypoExpWTD":
        return HypoExpWTD([rate])

    @staticmethod
    def erlang(m: int, rate: float) -> "HypoExpWTD":
        if m < 1:
            raise ValueError("Erlang order must be >= 1")
        return HypoExpWTD([rate] * m)

    @property
    def n_stages(self) -> int:
        return len(self.rates)

    @property
    def mean(self) -> float:
        return sum(1.0 / r for r in self.rates)

    @property
    def rate_scale(self) -> float:
        """Rate used to express times as the dimensionless product rate*t."""
        return self.rates[0]

    def laplace_pdf(self) -> RationalLaplace:
        """fhat(u), with the denominator roots known exactly from the rates."""
        num = 1.0
        den = Polynomial([1.0])
        for r in self.rates:
            num = num * r
            den = den * Polynomial([r, 1.0])
        return RationalLaplace(Polynomial([num]), den, den_roots=self._stage_poles())

    def _stage_poles(self) -> tuple[tuple[complex, int], ...]:
        """Poles -r in ascending order of the rates r, a root cluster as one."""
        return tuple((complex(-r, 0.0), m) for r, m in _cluster(list(self.rates)))

    def one_minus_laplace_over_u(self) -> Polynomial:
        """Numerator polynomial of (1 - fhat(u))/u over the denominator of fhat.

        den_f(u) - num_f has an exactly zero constant term because both
        constants accumulate the same product of rates in the same order, so
        the division by u is a coefficient shift with no rounding.
        """
        f = self.laplace_pdf()
        diff = f.den - Polynomial([f.num.coeffs[0]])
        const = diff.coeffs[0]
        if abs(const) > 1e-12 * abs(f.den.coeffs[0] if f.den.degree else 1.0):
            raise AssertionError("constant term of den - num did not cancel")
        return Polynomial(diff.coeffs[1:])

    def pdf(self) -> ExpPolyFunction:
        return _pdf(self)

    def survival(self) -> ExpPolyFunction:
        return _survival(self)

    def kernel(self) -> "MemoryKernel":
        return _kernel(self)


@dataclass(frozen=True)
class MemoryKernel:
    """Kernel k of the generalized master equation, split as
    delta_weight * delta(t) + regular_part(t).  A delta component appears
    exactly for the single-stage (memoryless) distribution."""

    delta_weight: float
    regular_part: ExpPolyFunction


@lru_cache(maxsize=256)
def _pdf(w: HypoExpWTD) -> ExpPolyFunction:
    return invert_laplace(w.laplace_pdf())


@lru_cache(maxsize=256)
def _survival(w: HypoExpWTD) -> ExpPolyFunction:
    f = w.laplace_pdf()
    num_g = w.one_minus_laplace_over_u()
    return invert_laplace(RationalLaplace(num_g, f.den, den_roots=f.den_roots))


@lru_cache(maxsize=256)
def _kernel(w: HypoExpWTD) -> MemoryKernel:
    # khat(u) = u fhat/(1 - fhat) = num_f / ((den_f - num_f)/u), after the
    # exact cancellation of the factor u.  The degrees match for one stage
    # only, where khat is the rate itself.
    if w.n_stages == 1:
        return MemoryKernel(w.rates[0], ExpPolyFunction.zero())
    return MemoryKernel(0.0, invert_laplace(RationalLaplace(w.laplace_pdf().num,
                                                            w.one_minus_laplace_over_u())))
