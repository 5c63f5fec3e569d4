"""Exact arithmetic on rational Laplace transforms.

Everything downstream (waiting times, renewal quantities, qubit map
eigenvalues) is a strictly proper rational function of the Laplace variable
``u``.  This module provides the polynomial plumbing, root finding with
multiplicity detection, partial fractions, and inversion to a closed
time-domain form

    f(t) = sum_j sum_k c_{jk} t^k exp(p_j t)

represented by :class:`ExpPolyFunction`, together with analytic derivatives
and rigorous tail envelopes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "RationalLaplace",
    "ExpPolyFunction",
    "ImproperRationalError",
    "RootConvergenceError",
    "AccuracyError",
    "poly_roots",
    "invert_laplace",
    "evaluate",
    "evaluate_all",
    "differentiate",
]


class ImproperRationalError(ValueError):
    """Raised when deg(num) >= deg(den); the transform contains a delta part."""


class RootConvergenceError(RuntimeError):
    """Raised when Newton polishing of a polynomial root fails to converge."""


class AccuracyError(RuntimeError):
    """Raised when an evaluation keeps an imaginary part above IMAG_PART_CAP."""


#: Relative radius within which two roots or poles are one: |a - b| is at
#: most ROOT_CLUSTER_RADIUS*(1 + |b|).
ROOT_CLUSTER_RADIUS = 1e-7
#: Largest imaginary part an evaluation may carry, relative to 1 + |real part|.
IMAG_PART_CAP = 1e-9
#: Newton polishing of roots: iteration budget and backward-error target.
NEWTON_MAX_ITER = 60
NEWTON_TOL = 1e-13


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    cs = list(coeffs) or [0.0]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(complex(c) for c in cs)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with ascending-degree complex coefficients."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, u):
        # Horner on ascending coefficients, vectorized over u.
        acc = np.zeros_like(np.asarray(u, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * u + c
        if np.isscalar(u) or np.asarray(u).ndim == 0:
            return complex(acc)
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        lead = self.coeffs[-1]
        if lead == 0:
            raise ValueError("zero polynomial has no monic form")
        return Polynomial([c / lead for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0.0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0.0] * (n - len(other.coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1.0) * other

    def deflate(self, root: complex) -> tuple["Polynomial", complex]:
        """Synthetic division by (u - root); returns (quotient, remainder)."""
        out: list[complex] = []
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        rem = out.pop()
        return Polynomial(list(reversed(out))), rem

    def taylor_at(self, point: complex, order: int) -> list[complex]:
        """First ``order + 1`` Taylor coefficients about ``point``."""
        coeffs = []
        p = self
        for _ in range(order + 1):
            p, rem = p.deflate(point)
            coeffs.append(rem)
            if p.degree == 0 and p.coeffs[0] == 0:
                coeffs.extend([0.0] * (order + 1 - len(coeffs)))
                break
        return coeffs[: order + 1]


def poly_roots(p: Polynomial) -> list[tuple[complex, int]]:
    """Roots of ``p`` with multiplicities, via companion-matrix eigenvalues.

    Simple roots are polished by Newton iteration; clusters within
    ``ROOT_CLUSTER_RADIUS*(1+|root|)`` are merged into one multiple root and
    polished with the multiplicity-corrected Newton step.
    """
    if p.degree < 1:
        raise ValueError("polynomial of degree 0 has no roots")
    raw = np.roots(np.asarray(p.coeffs[::-1], dtype=complex))
    clusters = _cluster(list(raw))
    dp = p.derivative()
    out = []
    for center, mult in clusters:
        out.append((_polish(p, dp, center, mult), mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _cluster(points: list[complex]) -> list[tuple[complex, int]]:
    points = sorted(points, key=lambda z: (z.real, z.imag))
    groups: list[list[complex]] = []
    for z in points:
        for g in groups:
            c = sum(g) / len(g)
            if abs(z - c) <= ROOT_CLUSTER_RADIUS * (1.0 + abs(c)):
                g.append(z)
                break
        else:
            groups.append([z])
    return [(sum(g) / len(g), len(g)) for g in groups]


def _backward_scale(p: Polynomial, x: complex) -> float:
    # Backward-error scale: |p(x)| <= eps * sum |c_i||x|^i means x is an exact
    # root of a coefficient-wise nearby polynomial.
    ax = abs(x)
    return sum(abs(c) * ax**i for i, c in enumerate(p.coeffs)) or 1.0


def _polish(p: Polynomial, dp: Polynomial, x: complex, mult: int) -> complex:
    for _ in range(NEWTON_MAX_ITER):
        fx = p(x)
        if abs(fx) <= NEWTON_TOL * _backward_scale(p, x):
            return _realify(x)
        dfx = dp(x)
        if dfx == 0:
            break
        step = mult * fx / dfx
        x = x - step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            return _realify(x)
    # Multiple roots sit at the cluster mean with error far below the cluster
    # radius; accept them even when the simple-root residual test is tight.
    if mult > 1 or abs(p(x)) <= 1e-8 * _backward_scale(p, x):
        return _realify(x)
    raise RootConvergenceError(f"Newton polishing stalled at {x!r}")


def _realify(z: complex) -> complex:
    if abs(z.imag) <= ROOT_CLUSTER_RADIUS * (1.0 + abs(z)):
        return complex(z.real, 0.0)
    return z


@dataclass(frozen=True)
class RationalLaplace:
    """Strictly proper rational function num/den of the Laplace variable.

    ``den_roots`` may carry the denominator roots when they are known exactly
    from the construction (e.g. waiting-time stage rates); inversion then
    skips numerical root finding, which matters for repeated poles.
    """

    num: Polynomial
    den: Polynomial
    den_roots: tuple[tuple[complex, int], ...] | None = None

    def __post_init__(self):
        lead = self.den.coeffs[-1]
        object.__setattr__(self, "num", Polynomial([c / lead for c in self.num.coeffs]))
        object.__setattr__(self, "den", self.den.monic())

    def __call__(self, u):
        return self.num(u) / self.den(u)

    @property
    def strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree or all(
            c == 0 for c in self.num.coeffs
        )


@dataclass(frozen=True)
class ExpPolyFunction:
    """Finite sum of terms c_k t^k exp(p t) with complex poles/coefficients.

    The canonical form (poles merged, sorted, zero terms dropped) makes
    coefficient-level comparison meaningful.  Real inputs keep the pole set
    closed under conjugation, so evaluation at real t is real up to rounding.
    """

    terms: tuple[tuple[complex, tuple[complex, ...]], ...]

    def __init__(self, terms: Iterable[tuple[complex, Sequence[complex]]]):
        object.__setattr__(self, "terms", _canonical(terms))

    @staticmethod
    def zero() -> "ExpPolyFunction":
        return ExpPolyFunction([])

    @staticmethod
    def constant(value: float) -> "ExpPolyFunction":
        return ExpPolyFunction([(0.0, [value])])

    def __call__(self, t):
        return evaluate(self, t)

    def differentiate(self) -> "ExpPolyFunction":
        return differentiate(self)

    def __add__(self, other: "ExpPolyFunction") -> "ExpPolyFunction":
        return ExpPolyFunction(list(self.terms) + list(other.terms))

    def __sub__(self, other: "ExpPolyFunction") -> "ExpPolyFunction":
        return self + (-1.0) * other

    def __mul__(self, other) -> "ExpPolyFunction":
        """Product with a scalar, or with another ExpPolyFunction: poles add
        and the t-power coefficients convolve."""
        if isinstance(other, ExpPolyFunction):
            return ExpPolyFunction(
                [(p + q, np.convolve(a, b))
                 for p, a in self.terms for q, b in other.terms]
            )
        return ExpPolyFunction(
            [(p, [c * other for c in cs]) for p, cs in self.terms]
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ExpPolyFunction":
        return (-1.0) * self

    @property
    def poles(self) -> tuple[complex, ...]:
        return tuple(p for p, _ in self.terms)

    def is_zero(self) -> bool:
        return all(c == 0 for _, cs in self.terms for c in cs)

    def envelope(self, t):
        """Coefficient-absolute bound sum |c_k| t^k e^{Re p t} at time(s) t."""
        poles, coeffs = _stacked_terms((self,))
        acc = _term_sums(poles.real, np.abs(coeffs), _checked_times(t))[0]
        return float(acc) if np.ndim(t) == 0 else acc

    def tail_envelope_integral(self, start: float) -> float:
        """Upper bound for ``integral_start^inf |f(t)| dt``.

        Uses the coefficient-absolute envelope sum |c_k| t^k e^{Re p t}; each
        piece integrates in closed form via the incomplete-gamma identity.
        Requires every contributing pole to decay (Re p < 0).
        """
        total = 0.0
        for pole, coeffs in self.terms:
            a = -pole.real
            for k, c in enumerate(coeffs):
                mag = abs(c)
                if mag == 0.0:
                    continue
                if a <= 0.0:
                    return math.inf
                s = sum((a * start) ** j / math.factorial(j) for j in range(k + 1))
                total += (
                    mag * math.factorial(k) / a ** (k + 1) * math.exp(-a * start) * s
                )
        return total


def _canonical(
    terms: Iterable[tuple[complex, Sequence[complex]]],
) -> tuple[tuple[complex, tuple[complex, ...]], ...]:
    merged: list[tuple[complex, list[complex]]] = []
    for pole, coeffs in terms:
        pole = complex(pole)
        cs = [complex(c) for c in coeffs]
        for i, (p, existing) in enumerate(merged):
            if abs(pole - p) <= ROOT_CLUSTER_RADIUS * (1.0 + abs(p)):
                n = max(len(existing), len(cs))
                existing.extend([0.0] * (n - len(existing)))
                for k, c in enumerate(cs):
                    existing[k] += c
                break
        else:
            merged.append((pole, cs))
    out = []
    for pole, cs in merged:
        # Trailing trim must be exact: coefficients of one term legitimately
        # span many orders of magnitude (1/k! factors), and a high power of t
        # with a tiny coefficient still dominates at large times.
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs or max(abs(c) for c in cs) == 0.0:
            continue
        out.append((_realify(pole), tuple(cs)))
    out.sort(key=lambda pc: (pc[0].real, pc[0].imag))
    return tuple(out)


def invert_laplace(r: RationalLaplace) -> ExpPolyFunction:
    """Partial-fraction inversion of a strictly proper rational transform.

    Each pole p of multiplicity m contributes coefficients for t^0..t^{m-1};
    the residue chain is computed by Taylor-series division of num by the
    deflated denominator about p, which is stable for the repeated poles of
    Erlang-type denominators.
    """
    if not r.strictly_proper:
        raise ImproperRationalError(
            "transform is not strictly proper; split off the delta component first"
        )
    if all(c == 0 for c in r.num.coeffs):
        return ExpPolyFunction.zero()
    roots = list(r.den_roots) if r.den_roots is not None else poly_roots(r.den)
    terms = []
    for pole, mult in roots:
        others = [(p, m) for p, m in roots if p is not pole and p != pole]
        # Taylor series of 1/h at the pole, h = prod (u - p_l)^{m_l} over the
        # other poles, via the log-derivative recurrence: it never forms the
        # monomial coefficients of h, whose binomial growth would otherwise
        # destroy the residues of high-multiplicity poles.
        psi = [complex(1.0)]
        for p_l, m_l in others:
            psi[0] /= (pole - p_l) ** m_l
        if mult > 1:
            logd = [
                sum(
                    m_l * (-1.0) ** k / (pole - p_l) ** (k + 1)
                    for p_l, m_l in others
                )
                for k in range(mult - 1)
            ]
            for k in range(mult - 1):
                acc = sum(logd[j] * psi[k - j] for j in range(k + 1))
                psi.append(-acc / (k + 1))
        a = r.num.taylor_at(pole, mult - 1)
        phi = [
            sum(a[j] * psi[i - j] for j in range(i + 1)) for i in range(mult)
        ]
        # phi[i] multiplies 1/(u-p)^(m-i) -> phi[i] t^(m-i-1) e^{pt}/(m-i-1)!
        coeffs = [0.0 + 0.0j] * mult
        for i in range(mult):
            k = mult - i - 1
            coeffs[k] = phi[i] / math.factorial(k)
        terms.append((pole, coeffs))
    return ExpPolyFunction(terms)


def evaluate(f: ExpPolyFunction, t):
    """Real value of ``f`` at finite time(s) t >= 0, else ValueError.

    Raises AccuracyError if the imaginary part exceeds IMAG_PART_CAP*(1+|Re|):
    that indicates a pole set not closed under conjugation.  A scalar t takes
    a plain-Python term loop, which avoids numpy's per-call overhead.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:
        return evaluate_all((f,), t)[0]
    x = float(t)
    if not 0.0 <= x < math.inf:
        raise ValueError("time must be nonnegative and finite")
    val = 0j
    for pole, coeffs in f.terms:
        poly = 0j
        for c in reversed(coeffs):
            poly = poly * x + c
        val += poly * cmath.exp(pole * x)
    if abs(val.imag) > IMAG_PART_CAP * (1.0 + abs(val.real)):
        raise AccuracyError(
            f"evaluation is not real within tolerance (|imag| up to {abs(val.imag):g})"
        )
    return val.real


#: Elements per temporary array in the vectorised evaluation paths.
_CHUNK = 2**12


def _checked_times(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if ts.size and not (ts.min() >= 0.0 and ts.max() < math.inf):
        raise ValueError("time must be nonnegative and finite")
    return ts


def evaluate_all(fs: Sequence[ExpPolyFunction], t):
    """Real values of several functions at times t, in one elementwise pass.

    Returns shape (len(fs),) + shape(t); the checks are those of evaluate.  A
    time's values have the same bits whatever other times are evaluated with it.
    """
    ts = _checked_times(t)
    if len(fs) == 0:
        return np.empty((0,) + ts.shape)
    return _term_sums(*_stacked_terms(tuple(fs)), ts)


def _term_sums(poles, coeffs, ts: np.ndarray):
    # Real part of sum_j (sum_k coeffs[f, j, k] t^k) exp(poles[f, j] t) for
    # each f, by Horner from the leading coefficient (+ 0.0 makes a -0 part +0,
    # as 0*t + c does), adding the terms in order (numpy's sum adds a lone time's
    # pairwise).  Complex sums pass evaluate's realness check per chunk, element
    # by element only if the largest |imag| (or a NaN) is not within the cap.
    x = ts.ravel()
    out = np.empty((len(poles), x.size))
    chunk = max(1, _CHUNK // poles.size)  # bounds the (F, M, n) temporaries
    for lo in range(0, x.size, chunk):
        xc = x[lo : lo + chunk]
        poly = coeffs[:, :, -1, None] + 0.0
        for k in range(coeffs.shape[-1] - 2, -1, -1):
            poly = poly * xc + coeffs[:, :, k, None]
        terms = poly * np.exp(poles[:, :, None] * xc)
        val = terms[:, 0]
        for j in range(1, terms.shape[1]):
            val = val + terms[:, j]
        if np.iscomplexobj(val):
            worst = np.abs(val.imag).max()
            if not worst <= IMAG_PART_CAP and np.any(
                    np.abs(val.imag) > IMAG_PART_CAP * (1.0 + np.abs(val.real))):
                raise AccuracyError(
                    f"evaluation is not real within tolerance (|imag| up to {worst:g})"
                )
        out[:, lo : lo + chunk] = val.real
    return out.reshape((len(poles),) + ts.shape)


@lru_cache(maxsize=256)
def _stacked_terms(fs: tuple[ExpPolyFunction, ...]) -> tuple[np.ndarray, np.ndarray]:
    # Poles (F, M) and ascending coefficients (F, M, K), zero-padded: padded
    # terms and leading zero coefficients add exact zeros, so the sums match
    # a term-by-term loop bit for bit.
    n_terms = max([len(f.terms) for f in fs] + [1])
    n_coeffs = max([len(cs) for f in fs for _, cs in f.terms] + [1])
    poles = np.zeros((len(fs), n_terms), dtype=complex)
    coeffs = np.zeros((len(fs), n_terms, n_coeffs), dtype=complex)
    for i, f in enumerate(fs):
        for j, (pole, cs) in enumerate(f.terms):
            poles[i, j], coeffs[i, j, : len(cs)] = pole, cs
    poles.setflags(write=False)  # cached: shared by every caller
    coeffs.setflags(write=False)
    return poles, coeffs


def differentiate(f: ExpPolyFunction) -> ExpPolyFunction:
    """Term-wise analytic derivative: d/dt [c t^k e^{pt}]."""
    terms = []
    for pole, coeffs in f.terms:
        out = [0.0 + 0.0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            out[k] += pole * c
            if k >= 1:
                out[k - 1] += k * c
        terms.append((pole, out))
    return ExpPolyFunction(terms)
