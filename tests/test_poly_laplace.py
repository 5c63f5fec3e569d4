import math

import numpy as np
import pytest

from smqdyn.poly_laplace import (
    IMAG_PART_CAP,
    AccuracyError,
    ExpPolyFunction,
    ImproperRationalError,
    Polynomial,
    RationalLaplace,
    differentiate,
    evaluate,
    evaluate_all,
    invert_laplace,
    poly_roots,
)

from oracles import central_difference, talbot_inverse, to_rational


def rational(num, den, **kw):
    return RationalLaplace(Polynomial(num), Polynomial(den), **kw)


def _term_loop(terms, ts):
    """Reference: one pass per term, the loop that array evaluation stacks."""
    acc = np.zeros(ts.shape, dtype=complex)
    for pole, coeffs in terms:
        poly = np.zeros(ts.shape, dtype=complex)
        for c in reversed(coeffs):
            poly = poly * ts + c
        acc = acc + poly * np.exp(pole * ts)
    return acc


EVAL_CASES = {
    "decay": invert_laplace(rational([1.0], [2.0, 1.0])),
    "damped-oscillation": invert_laplace(rational([2.0, 1.0], [2.0, 2.0, 1.0])),
    "triple-pole": invert_laplace(
        rational([1.0], [1.0, 3.0, 3.0, 1.0], den_roots=((-1.0, 3),))
    ),
    "mixed-multiplicity": invert_laplace(
        rational([1.0, 0.5], [0.5, 2.0, 2.5, 1.0], den_roots=((-1.0, 2), (-0.5, 1)))
    ),
    "zero": ExpPolyFunction.zero(),
    "constant": ExpPolyFunction.constant(0.25),
}


class TestPolyRoots:
    def test_factored_quadratic(self):
        roots = poly_roots(Polynomial([2.0, 3.0, 1.0]))
        assert len(roots) == 2
        (r1, m1), (r2, m2) = roots
        assert m1 == m2 == 1
        assert abs(r1 + 2.0) < 1e-12 and abs(r2 + 1.0) < 1e-12

    def test_repeated_root(self):
        roots = poly_roots(Polynomial([1.0, 2.0, 1.0]))
        assert len(roots) == 1
        root, mult = roots[0]
        assert mult == 2
        assert abs(root + 1.0) < 1e-7

    def test_conjugate_pair(self):
        roots = poly_roots(Polynomial([2.0, 2.0, 1.0]))
        assert len(roots) == 2
        vals = sorted((r for r, _ in roots), key=lambda z: z.imag)
        assert abs(vals[0] - (-1 - 1j)) < 1e-12
        assert abs(vals[1] - (-1 + 1j)) < 1e-12

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Polynomial([3.0]))

    def test_roots_reproduce_polynomial(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            true = rng.uniform(-3, -0.2, size=rng.integers(1, 7))
            p = Polynomial([1.0])
            for r in true:
                p = p * Polynomial([-r, 1.0])
            found = sorted(
                r.real for r, m in poly_roots(p) for _ in range(m)
            )
            assert np.allclose(found, sorted(true), atol=1e-8)


class TestInvertLaplace:
    def test_single_pole(self):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        assert f.terms == (((-2 + 0j), ((1 + 0j),)),)

    def test_two_poles_matches_contour_oracle(self):
        r = rational([1.0], [2.0, 3.0, 1.0])
        f = invert_laplace(r)
        for t in (0.2, 0.7, 1.5, 3.0, 8.0):
            assert f(t) == pytest.approx(talbot_inverse(r, t), abs=1e-8)
            assert f(t) == pytest.approx(math.exp(-t) - math.exp(-2 * t), abs=1e-12)

    def test_conjugate_pair_matches_contour_oracle(self):
        r = rational([1.0, 1.0], [2.0, 2.0, 1.0])
        f = invert_laplace(r)
        for t in (0.1, 1.0, 2.5, 6.0):
            assert f(t) == pytest.approx(talbot_inverse(r, t), abs=1e-8)
            assert f(t) == pytest.approx(math.exp(-t) * math.cos(t), abs=1e-12)

    def test_repeated_pole(self):
        # 1/(u+1)^2 -> t e^{-t}
        f = invert_laplace(rational([1.0], [1.0, 2.0, 1.0]))
        for t in (0.3, 1.0, 4.0):
            assert f(t) == pytest.approx(t * math.exp(-t), rel=1e-12)

    def test_improper_rejected(self):
        with pytest.raises(ImproperRationalError):
            invert_laplace(rational([1.0, 1.0], [1.0, 1.0]))

    def test_known_roots_are_honored(self):
        r = rational(
            [1.0], [1.0, 3.0, 3.0, 1.0], den_roots=(((-1 + 0j), 3),)
        )
        f = invert_laplace(r)  # t^2 e^{-t} / 2
        assert f(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)


class TestEvaluate:
    def test_at_zero(self):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        assert evaluate(f, 0.0) == pytest.approx(1.0)

    def test_damped_oscillation_value(self):
        # e^{-t}(cos t + sin t) has transform (u+2)/(u^2+2u+2)
        f = invert_laplace(rational([2.0, 1.0], [2.0, 2.0, 1.0]))
        assert f(math.pi) == pytest.approx(-math.exp(-math.pi), abs=1e-12)

    def test_difference_of_exponentials(self):
        f = invert_laplace(rational([1.0], [2.0, 3.0, 1.0]))
        assert f(math.log(2.0)) == pytest.approx(0.25, abs=1e-13)

    def test_negative_time_rejected(self):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        with pytest.raises(ValueError):
            evaluate(f, -0.5)

    def test_unpaired_complex_pole_rejected(self):
        f = ExpPolyFunction([((-1.0 + 1.0j), [1.0])])
        with pytest.raises(AccuracyError, match="not real"):
            evaluate(f, 1.0)

    def test_vectorized(self):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        ts = np.linspace(0, 5, 11)
        assert np.allclose(f(ts), np.exp(-2 * ts))

    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_scalar_path_matches_array_path(self, name):
        f = EVAL_CASES[name]
        ts = np.linspace(0.0, 25.0, 251)
        scalar = [evaluate(f, float(t)) for t in ts]
        assert all(type(v) is float for v in scalar)
        bound = 4.0 * np.finfo(float).eps * f.envelope(ts)
        assert np.all(np.abs(np.array(scalar) - evaluate(f, ts)) <= bound)

    @pytest.mark.parametrize(
        "t",
        [-0.5, np.array([0.0, -0.5])]
        + [x for bad in (math.nan, math.inf, -math.inf) for x in (bad, np.array([0.0, bad]))],
    )
    def test_negative_time_rejected_on_both_paths(self, t):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        with pytest.raises(ValueError, match="time must be nonnegative and finite"):
            evaluate(f, t)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("array", [False, True])
    def test_envelope_rejects_bad_times_on_both_paths(self, bad, array):
        # e^{-t}(1 + 2t): its term sum at t = -1 is -2.718, no bound at all
        f = ExpPolyFunction([(-1.0, [1.0, 2.0])])
        with pytest.raises(ValueError, match="time must be nonnegative and finite"):
            f.envelope(np.array([0.0, bad]) if array else bad)

    @pytest.mark.parametrize("t", [2.0, np.linspace(0.0, 1.0, 6).reshape(2, 3)])
    def test_no_functions_give_an_empty_stack(self, t):
        assert evaluate_all([], t).shape == (0,) + np.shape(t)

    @pytest.mark.parametrize("t", [1.0, np.array([0.0, 1.0])])
    def test_unpaired_pole_rejected_on_both_paths(self, t):
        f = ExpPolyFunction([((-1.0 + 1.0j), [1.0])])
        with pytest.raises(AccuracyError, match="not real within tolerance"):
            evaluate(f, t)

    def test_stacked_evaluation_matches_term_loop_exactly(self):
        fs = [EVAL_CASES[name] for name in sorted(EVAL_CASES)]
        ts = np.linspace(0.0, 25.0, 9000).reshape(3, -1)  # several chunks
        got = evaluate_all(fs, ts)
        assert got.shape == (len(fs),) + ts.shape
        for f, row in zip(fs, got):
            assert np.array_equal(row, _term_loop(f.terms, ts).real)
            abs_terms = [(p.real, [abs(c) for c in cs]) for p, cs in f.terms]
            assert np.array_equal(f.envelope(ts), _term_loop(abs_terms, ts))

    @pytest.mark.parametrize("order", [1, 2])
    def test_negative_zero_parts_match_term_loop_at_time_zero(self, order):
        # -exp(-t) sin(t) (order 1, plus 0.5 t times it for order 2) with
        # coefficients whose real parts are -0.  Horner from a zero array turns
        # them into +0; a start that kept them would return -0 at t = 0.
        cs = [complex(-0.0, 0.5), complex(-0.0, 0.25)][:order]
        f = ExpPolyFunction(
            [((-1.0 + 1.0j), cs), ((-1.0 - 1.0j), [c.conjugate() for c in cs])]
        )
        ts = np.zeros(3)
        assert evaluate_all([f], ts)[0].tobytes() == _term_loop(f.terms, ts).real.tobytes()

    def test_imaginary_part_is_judged_against_its_own_real_part(self):
        # The row of 100 + b i carries |imag| = b > IMAG_PART_CAP, so the chunk
        # takes the elementwise test: b up to IMAG_PART_CAP (1 + 100) passes.
        bound = IMAG_PART_CAP * (1.0 + 100.0)
        ts = np.linspace(0.0, 3.0, 7)
        within = ExpPolyFunction.constant(complex(100.0, bound))
        got = evaluate_all([EVAL_CASES["decay"], within], ts)
        assert np.array_equal(got[1], np.full(7, 100.0))
        past = ExpPolyFunction.constant(complex(100.0, np.nextafter(bound, 1.0)))
        with pytest.raises(AccuracyError, match="not real within tolerance"):
            evaluate_all([EVAL_CASES["decay"], past], ts)

    def test_a_time_alone_has_the_bits_of_its_grid_sample(self):
        # Six terms: numpy's sum would add a lone time's terms pairwise, and
        # the root refinement reuses grid samples as bracket end values.
        f = ExpPolyFunction([
            (-0.5, [1.0]), (-1.3, [0.3, 0.2]),
            (-0.7 + 2.0j, [0.4 - 0.1j]), (-0.7 - 2.0j, [0.4 + 0.1j]),
            (-2.0 + 0.5j, [0.1 + 0.3j, 0.05j]), (-2.0 - 0.5j, [0.1 - 0.3j, -0.05j]),
        ])
        assert len(f.terms) == 6
        grid = np.linspace(0.0, 8.0, 801)
        for g in (f, f.differentiate(), f.envelope):
            alone = np.concatenate([g(grid[k : k + 1]) for k in range(0, 801, 20)])
            assert alone.tobytes() == g(grid)[::20].tobytes()


class TestDifferentiate:
    def test_single_exponential(self):
        f = invert_laplace(rational([1.0], [2.0, 1.0]))
        df = differentiate(f)
        assert df.terms == (((-2 + 0j), ((-2 + 0j),)),)

    def test_damped_oscillation(self):
        f = invert_laplace(rational([2.0, 1.0], [2.0, 2.0, 1.0]))
        df = differentiate(f)
        for t in np.linspace(0.1, 6.0, 25):
            assert df(t) == pytest.approx(-2 * math.exp(-t) * math.sin(t), abs=1e-12)
            assert df(t) == pytest.approx(
                central_difference(f, t), rel=1e-6, abs=1e-9
            )

    def test_constant_derivative_vanishes(self):
        one = ExpPolyFunction.constant(1.0)
        assert differentiate(one).is_zero()
        assert differentiate(one)(3.0) == 0.0

    def test_matches_finite_differences_on_suite(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            f = _random_exppoly(rng)
            df = differentiate(f)
            for t in np.linspace(0.05, 10.0, 100):
                num = central_difference(f, float(t))
                assert df(float(t)) == pytest.approx(
                    num, rel=1e-6, abs=1e-8 * (1 + abs(num))
                )


def _random_exppoly(rng, max_terms: int = 3) -> ExpPolyFunction:
    """Random real function: mixture of real poles and conjugate pairs.

    Poles are kept apart (and multiplicities explicit) so the case probes the
    algorithm, not the conditioning cliff of near-coincident poles.
    """
    terms = []
    degree = 0
    taken: list[complex] = []

    def fresh_pole(imag: float) -> complex:
        for _ in range(100):
            p = complex(rng.uniform(-3.0, -0.3), imag)
            if all(abs(p - q) > 0.4 and abs(p - q.conjugate()) > 0.4 for q in taken):
                taken.append(p)
                return p
        raise RuntimeError("could not place a separated pole")

    for _ in range(rng.integers(1, max_terms + 1)):
        mult = int(rng.integers(1, 3))
        coeffs = rng.normal(size=mult)
        if rng.random() < 0.5 or degree + 2 * mult > 8:
            if degree + mult > 8:
                break
            terms.append((fresh_pole(0.0), list(coeffs)))
            degree += mult
        else:
            pole = fresh_pole(rng.uniform(0.4, 3.0))
            ccoeffs = coeffs + 1j * rng.normal(size=mult)
            terms.append((pole, list(ccoeffs)))
            terms.append((pole.conjugate(), list(np.conj(ccoeffs))))
            degree += 2 * mult
    return ExpPolyFunction(terms)


class TestRoundTrip:
    def test_transform_then_invert_is_identity(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            f = _random_exppoly(rng)
            back = invert_laplace(to_rational(f))
            assert _coefficient_distance(f, back) < 1e-10

    def test_real_rationals_evaluate_real_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            den = Polynomial([1.0])
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.5:
                    den = den * Polynomial([rng.uniform(0.2, 3.0), 1.0])
                else:
                    a, b = rng.uniform(0.2, 2.0), rng.uniform(0.3, 3.0)
                    den = den * Polynomial([a * a + b * b, 2 * a, 1.0])
            num = Polynomial(list(rng.normal(size=den.degree)))
            f = invert_laplace(RationalLaplace(num, den))
            poles = np.array(f.poles)
            conj_sorted = sorted(
                (round(p.real, 9), round(p.imag, 9)) for p in poles
            )
            conj_of = sorted(
                (round(p.real, 9), round(-p.imag, 9)) for p in poles
            )
            assert conj_sorted == conj_of
            f(np.linspace(0.0, 50.0, 120))  # raises if not real


def _coefficient_distance(f: ExpPolyFunction, g: ExpPolyFunction) -> float:
    fa = dict(f.terms)
    ga = dict(g.terms)

    def lookup(table, pole):
        for p, cs in table.items():
            if abs(p - pole) < 1e-7 * (1 + abs(pole)):
                return cs
        return ()

    worst = 0.0
    for pole in set(fa) | set(ga):
        a = lookup(fa, pole)
        b = lookup(ga, pole)
        n = max(len(a), len(b))
        a = list(a) + [0.0] * (n - len(a))
        b = list(b) + [0.0] * (n - len(b))
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return worst


class TestTailEnvelope:
    def test_bounds_numeric_tail(self):
        f = invert_laplace(rational([2.0, 1.0], [2.0, 2.0, 1.0]))
        ts = np.linspace(4.0, 200.0, 20000)
        actual = np.trapezoid(np.abs(f(ts)), ts)
        bound = f.tail_envelope_integral(4.0)
        assert bound >= actual
        assert bound < 50 * actual  # not wildly loose

    def test_nondecaying_term_gives_infinity(self):
        assert ExpPolyFunction.constant(1.0).tail_envelope_integral(1.0) == math.inf
