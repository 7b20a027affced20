import random
import time
from fractions import Fraction
from math import lcm

import pytest

import laurent_reference as reference
from ribboncheck import laurent
from ribboncheck.laurent import (DimensionError, LaurentPoly, canonical,
                                 divides, exact_divide, gcd, parse_poly,
                                 poly_to_str)

from conftest import random_poly
from helpers import is_canonical

T = LaurentPoly.variable(0, 1)
ONE = LaurentPoly.one(1)


def P(text, nvars=1):
    return parse_poly(text, nvars)


# The messages of the two rules the reference scanner lacked: a space
# inside a number, and a term after the first without a sign.
SCANNER_LACKED = ("a space splits a number", "no sign before the term")


def parse_outcome(parse, text, nvars):
    """parse(text, nvars)'s terms, or its exception's type and message."""
    try:
        return parse(text, nvars).terms
    except Exception as exc:
        return type(exc), str(exc)


def lift(poly, symbols):
    """A polynomial with nonnegative exponents as a sympy expression."""
    import sympy
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Integer(coeff)
        for s, a in zip(symbols, exps):
            term *= s ** a
        expr += term
    return expr


def lower(expr, symbols):
    """The inverse of lift, in len(symbols) variables."""
    import sympy
    poly = sympy.Poly(expr, *symbols)
    terms = {tuple(int(a) for a in mono): int(c) for mono, c in poly.terms()}
    return LaurentPoly(len(symbols), terms)


def assert_clean(p):
    """What the unchecked constructor trusts its callers for."""
    assert type(p.terms) is dict
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == p.nvars, (p, e)
        assert all(type(a) is int for a in e), (p, e)
        assert type(c) is int and c != 0, (p, e, c)


class TestRingOps:
    def test_difference_of_squares(self):
        assert (T - ONE) * (T + ONE) == P("t^2 - 1")

    def test_additive_inverse(self):
        p = P("3*t^2 - t + 7")
        assert (p + (-p)).is_zero()

    def test_two_variable_distributivity(self):
        t1, t2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        one = LaurentPoly.one(2)
        assert (t1 - one) * (t2 - one) == P("t1*t2 - t1 - t2 + 1", 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            T + LaurentPoly.one(2)
        with pytest.raises(DimensionError):
            T * LaurentPoly.one(2)

    def test_ring_axioms_random(self):
        rng = random.Random(20240801)
        trials_per_m = 170
        for m in (1, 2, 3):
            for _ in range(trials_per_m):
                p = random_poly(rng, m)
                q = random_poly(rng, m)
                r = random_poly(rng, m)
                assert p + q == q + p
                assert p * q == q * p
                assert (p + q) + r == p + (q + r)
                assert (p * q) * r == p * (q * r)
                assert p * (q + r) == p * q + p * r
                assert (p - p).is_zero()
                assert p * LaurentPoly.one(m) == p
                assert (p * LaurentPoly.zero(m)).is_zero()


class TestEvaluate:
    def test_zero_under_no_negative_exponent(self):
        # the value 0 meets only t2, whose exponents are not negative
        assert P("t1^-1 + t2", 2).evaluate((1, 0)) == 1
        assert P("t1^-2*t2 + 3", 2).evaluate((1, 0)) == 3

    def test_negative_exponent_at_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            P("t1^-1", 2).evaluate((0, 1))
        # also after a factor at zero has made the term 0
        with pytest.raises(ZeroDivisionError):
            P("t1*t2^-1", 2).evaluate((0, 0))


class TestExactDivide:
    def test_factorization(self):
        assert exact_divide(P("t^2 - 1"), P("t - 1")) == P("t + 1")

    def test_constructed_product(self):
        num = P("t1*t2 - t1 - t2 + 1", 2)
        assert exact_divide(num, P("t1 - 1", 2)) == P("t2 - 1", 2)

    def test_not_divisible(self):
        assert exact_divide(P("t^2 + 1"), P("t - 1")) is None

    def test_integer_content_blocks_division(self):
        assert exact_divide(T, LaurentPoly.constant(2, 1)) is None

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(T, LaurentPoly.zero(1))

    def test_laurent_inputs_get_laurent_quotient(self):
        # 1 - t^-1 = t^-1 (t - 1), so the quotient is the unit t^-1
        p = LaurentPoly(1, {(0,): 1, (-1,): -1})
        q = exact_divide(p, P("t - 1"))
        assert q == LaurentPoly(1, {(-1,): 1})
        assert q * P("t - 1") == p

    def test_random_products_divide_exactly(self):
        rng = random.Random(77)
        done = 0
        while done < 120:
            m = rng.choice((1, 2, 3))
            p = random_poly(rng, m)
            q = random_poly(rng, m)
            if p.is_zero() or q.is_zero():
                continue
            done += 1
            prod = p * q
            assert divides(p, prod)
            assert exact_divide(prod, p) == q


def variables(m):
    return [LaurentPoly.variable(i, m) for i in range(m)]


class TestPackedAgainstReference:
    """
    At two or more variables the product and exact division run on packed
    exponent keys; laurent_reference keeps the tuple-keyed code they
    replaced.  Random operands in 2, 3 and 4 variables, with negative
    exponents and integer content, including monomials and constants.
    """

    @staticmethod
    def operand(rng, m):
        kind = rng.randrange(10)
        if kind == 0:
            exps = tuple(rng.randint(-3, 3) for _ in range(m))
            return LaurentPoly.monomial(rng.choice((1, -1, 2, -3)), exps)
        if kind == 1:
            return LaurentPoly.constant(rng.choice((1, -1, 2, -6)), m)
        p = random_poly(rng, m, max_terms=rng.choice((3, 6, 10)), max_exp=3)
        return p * rng.choice((1, 1, 2, -3))  # integer content

    def cases(self, rng, m, count):
        """(p, d) pairs: divisible, off by one term, off by an integer factor."""
        for k in range(count):
            d = self.operand(rng, m)
            while d.is_zero():
                d = self.operand(rng, m)
            a = self.operand(rng, m)
            if k % 4 == 0:
                yield a, d  # mostly not divisible
            elif k % 4 == 1:
                yield a * d, d
            elif k % 4 == 2:
                yield a * d + random_poly(rng, m, max_terms=1, max_exp=3), d
            else:
                yield a * d, d * rng.choice((2, -3, 5))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_product_and_division(self, m):
        rng = random.Random(7000 + m)
        packed_quotients = 0
        for p, d in self.cases(rng, m, 300):
            for x, y in ((p, d), (d, p)):
                prod = x * y
                assert_clean(prod)
                assert prod == reference.multiply(x, y), (x, y)
            q = exact_divide(p, d)
            assert q == reference.exact_divide(p, d), (p, d)
            assert q == reference.box_exact_divide(p, d), (p, d)
            if q is not None:
                assert_clean(q)
                assert d * q == p
                if len(d.terms) > 1 and q:
                    packed_quotients += 1
        # the packed path, not only the shortcuts, ran
        assert packed_quotients >= 40

    @staticmethod
    def wide(rng, m, terms):
        """A polynomial of up to terms terms, exponents up to 1,000 in
        absolute value, each variable's around its own random centre."""
        centre = [rng.randint(-600, 600) for _ in range(m)]
        width = [rng.choice((1, 5, 40, 400)) for _ in range(m)]
        out = {}
        for _ in range(rng.randint(1, terms)):
            exps = tuple(c + rng.randint(-w, w) for c, w in zip(centre, width))
            out[exps] = rng.choice((1, -1, 2, -3, 7))
        return LaurentPoly(m, out)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_wide_exponents(self, m):
        # against both replaced divisions, the graded-lex one and the
        # mixed-radix one, on divisible, nearly divisible and unrelated
        # operands, and (m >= 2) the carry divisors of TestPackedBox
        rng = random.Random(7100 + m)
        quotients = 0
        for k in range(120):
            d, a = self.wide(rng, m, 4), self.wide(rng, m, 5)
            if k % 4 == 0:
                p = a
            elif k % 4 == 1:
                p = a * d
            elif k % 4 == 2:
                p = a * d + self.wide(rng, m, 1)
            elif m >= 2:
                p, d = carry_pair(rng, m)
            else:
                p, d = a * d, d * rng.choice((2, -3))
            q = exact_divide(p, d)
            assert q == reference.exact_divide(p, d), (p, d)
            assert q == reference.box_exact_divide(p, d), (p, d)
            if q is not None:
                assert_clean(q)
                assert d * q == p
                quotients += len(d.terms) > 1
        assert quotients >= 20

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("x0:%d" % m)
        rng = random.Random(8000 + m)

        def ordinary(p):
            return p.shifted(tuple(-a for a in p.min_exponents()))

        for p, d in self.cases(rng, m, 40):
            expected = lower(sympy.expand(lift(ordinary(p), symbols)
                                          * lift(ordinary(d), symbols)),
                             symbols)
            shift = tuple(a + b for a, b in zip(p.min_exponents(),
                                                d.min_exponents()))
            assert p * d == expected.shifted(shift)
            if p.is_zero():
                continue
            quot, rem = sympy.div(sympy.Poly(lift(ordinary(p), symbols),
                                             *symbols, domain="QQ"),
                                  sympy.Poly(lift(ordinary(d), symbols),
                                             *symbols, domain="QQ"))
            divisible = rem.is_zero and all(c.is_integer
                                            for c in quot.coeffs())
            q = exact_divide(p, d)
            if not divisible:
                assert q is None, (p, d)
                continue
            shift = tuple(a - b for a, b in zip(p.min_exponents(),
                                                d.min_exponents()))
            assert q == lower(quot.as_expr(), symbols).shifted(shift), (p, d)


def carry_pair(rng, m):
    """
    A dividend p = t_i^s + t_(i+1) and divisor d = t_i + 1, each times a
    random monomial, s even, i below m - 1: d divides no such p, but at
    the radius 2s that exact_divide packs them at, with T the key of
    t_i, p's keys are those of T^s + T^(4s+1), which 1 + T divides.
    """
    i = rng.randrange(m - 1)
    s = 2 * rng.randint(1, 500)
    p = (LaurentPoly.monomial(1, [s * (j == i) for j in range(m)])
         + LaurentPoly.variable(i + 1, m))
    d = LaurentPoly.variable(i, m) + 1
    return tuple(x.shifted(tuple(rng.randint(-300, 300) for _ in range(m)))
                 for x in (p, d))


class TestPackedBox:
    def test_carry_false_positives(self):
        # at radius 4 (h = 2, radix 9) t1^2 + t2 packs to T^2 + T^9 and
        # t1 + 1 to T + 1, a divisor of it: the digit check refuses
        t1, t2 = variables(2)
        assert exact_divide(t1**2 + t2, t1 + 1) is None
        # the quotient's first term t1 passes the digit check at h = 1;
        # the next, t2 / t3, falls below min(p) - min(d) in key order
        t1, t2, t3 = variables(3)
        assert exact_divide(t1 * t3 + t2, t1 + t3) is None
        assert exact_divide((t1 * t3 + t2) * (t1 + t3), t1 + t3) \
            == t1 * t3 + t2

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_carry_divisors_need_the_digit_check(self, m, monkeypatch):
        rng = random.Random(7200 + m)
        pairs = [carry_pair(rng, m) for _ in range(20)]
        for p, d in pairs:
            assert exact_divide(p, d) is None
            assert reference.exact_divide(p, d) is None
        # without the check each division finds a quotient that is wrong
        monkeypatch.setattr(laurent.KeyCodec, "within",
                            lambda self, key, bound: True)
        for p, d in pairs:
            q = exact_divide(p, d)
            assert q is not None and d * q != p, (p, d)

    def test_negative_quotient_span(self):
        t1, t2 = variables(2)
        # the divisor spans 2 in t2, the dividend 1
        assert exact_divide(t1**3 + t2, t2**2 + t1) is None
        assert exact_divide(t1 * t2 + 1, t2**2 - 1) is None

    def test_eight_variables_stay_sparse(self):
        # spans of 6: a dense array over the box would have 7^8 cells
        ts = variables(8)
        one = LaurentPoly.one(8)
        d = one + sum((t**3 for t in ts), LaurentPoly.zero(8))
        q = 2 * one - sum(((k + 1) * t**3 for k, t in enumerate(ts)),
                          LaurentPoly.zero(8))
        p = d * q
        assert [max(col) - min(col) for col in zip(*p.terms)] == [6] * 8
        start = time.process_time()
        assert exact_divide(p, d) == q
        assert exact_divide(p + ts[0], d) is None
        assert exact_divide(p, d + ts[7]) is None
        assert time.process_time() - start < 0.5


class TestMulAdd:
    """
    LaurentPoly.__mul__, one product on exponent tuples (one variable: on
    the exponents), and the sums of products a - f*g and a*b - c*d built
    from it, against laurent_reference's mul_add, the fused kernel that
    made every product and sum of products until it was replaced, and
    the unfused sums of laurent_reference's tuple-keyed product.
    """

    @staticmethod
    def operand(rng, m, far):
        """Zero, one term, a few terms or at least five terms (where
        mul_add packed its keys), shifted by far in every variable (a box
        away from the others)."""
        kind = rng.randrange(6)
        if kind == 0:
            p = LaurentPoly.zero(m)
        elif kind == 1:
            p = LaurentPoly.monomial(rng.choice((1, -1, 3, -7)),
                                     [rng.randint(-3, 3) for _ in range(m)])
        elif kind == 2 or m == 0:
            p = random_poly(rng, m, max_terms=4, max_exp=3)
        else:
            terms = {}
            while len(terms) < reference._PACK_MIN_TERMS + rng.randrange(8):
                exps = tuple(rng.randint(-3, 3) for _ in range(m))
                terms[exps] = rng.choice((1, -1, 2, -5, 9))
            p = LaurentPoly(m, terms)
        return p.shifted((far,) * m) if far else p

    @staticmethod
    def unfused(products, base, m):
        """base + the sum of s * f * g, from the package's own operations."""
        out = base or LaurentPoly.zero(m)
        for f, g, s in products:
            out = out + f * g * s
        return out

    def expected(self, products, base):
        out = base
        for f, g, s in products:
            prod = reference.multiply(f, g)
            out = out + (prod if s == 1 else -prod)
        return out

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_against_unfused(self, m):
        rng = random.Random(9100 + m)
        packed = 0
        for k in range(400):
            far = [0, 0, 0, 0]
            if k % 3 == 1:  # each operand's box apart from the others
                far = [10 * rng.randint(-3, 3) for _ in range(4)]
            a, f, g, h = (self.operand(rng, m, x) for x in far)
            b = self.operand(rng, m, far[0])
            for products, base in (
                    (((f, g, -1),), a),  # a - f*g
                    (((a, b, 1), (f, g, -1)), None),  # a*b - f*g
                    (((f, g, 1), (g, h, 1), (h, f, -1)), a),
                    (((f, g, 1),), None)):  # the product
                got = self.unfused(products, base, m)
                assert_clean(got)
                assert got == reference.mul_add(products, base) == \
                    self.expected(products, base or LaurentPoly.zero(m)), (
                        products, base)
                if any(min(len(x.terms), len(y.terms)) >=
                       reference._PACK_MIN_TERMS for x, y, _ in products):
                    packed += 1
        # products that mul_add would have packed
        assert packed >= (100 if m >= 2 else 0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_cancellation_to_zero(self, m):
        rng = random.Random(9200 + m)
        for _ in range(60):
            f, g = (self.operand(rng, m, 0) for _ in range(2))
            fg = reference.multiply(f, g)
            for products, base in ((((f, g, -1),), fg),
                                   (((f, g, 1), (g, f, -1)), None),
                                   (((f, g, 1), (f, -g, 1)), None),
                                   (((f, g, 1), (f, g, 1)), -2 * fg)):
                got = self.unfused(products, base, m)
                assert got.terms == {} and type(got.terms) is dict

    def test_zero_and_one_term_operands(self):
        for m in (0, 1, 2, 3):
            zero, one = LaurentPoly.zero(m), LaurentPoly.one(m)
            p = random_poly(random.Random(m), m, max_terms=9) + one
            unit = LaurentPoly.monomial(-1, (2,) * m)
            for got in (zero * p, p * zero, zero * zero):
                assert got == zero and type(got.terms) is dict
            assert one * p == p
            assert p * unit == p.shifted((2,) * m) * -1
            assert unit * one == unit

    def test_mixed_variable_counts_raise(self):
        one0, one1, one2 = (LaurentPoly.one(m) for m in (0, 1, 2))
        with pytest.raises(DimensionError):
            one1 * one2
        with pytest.raises(DimensionError):
            one2 * one1
        with pytest.raises(DimensionError):
            one1 * one0


class TestPublicConstructor:
    def test_wrong_length_raises(self):
        with pytest.raises(DimensionError):
            LaurentPoly(2, {(1,): 1})
        with pytest.raises(DimensionError):
            LaurentPoly(2, {(0, 0): 1, (1, 2, 3): 4})

    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(2, {(0, 0): 0, (1, -1): 3, (0, 1): 0})
        assert p.terms == {(1, -1): 3}
        assert_clean(p)
        assert LaurentPoly(3, {(1, 2, 3): 0}).is_zero()
        assert parse_poly("t1 - t1 + t2", 2).terms == {(0, 1): 1}

    def test_only_integral_terms(self):
        # a half once stored a zero coefficient that printed as -0*t,
        # 1.5 was truncated to 1, and an exponent 1.5 printed as t^1
        for terms in ({(1,): Fraction(1, 2)}, {(1,): 1.5}, {(1.5,): 1}):
            with pytest.raises(ValueError, match="non-integral term"):
                LaurentPoly(1, terms)
        two = Fraction(4, 2)
        p = LaurentPoly(1, {(two,): two, (True,): True})
        assert p.terms == {(2,): 2, (1,): 1}
        assert all(type(x) is int
                   for e, c in p.terms.items() for x in e + (c,))


class TestDivides:
    def test_square(self):
        p = P("t^2 - t + 1")
        assert divides(p, p * p)

    def test_coprime_squares(self):
        assert not divides(P("t^2 - 3*t + 1"), P("t^2 - t + 1") ** 2)

    def test_unit_multiple_of_divisor(self):
        shifted = LaurentPoly(1, {(-1,): 1, (0,): -1, (1,): 1})  # t^-1 - 1 + t
        assert divides(shifted, P("t^2 - t + 1"))

    def test_zero_conventions(self):
        zero = LaurentPoly.zero(1)
        assert divides(T, zero)
        assert divides(zero, zero)
        assert not divides(zero, T)


class TestGcd:
    def test_coprime(self):
        assert gcd(P("t^2 - t + 1"), P("t^2 - 3*t + 1")) == ONE

    def test_gcd_with_zero(self):
        assert gcd(P("-2*t^3 + 2*t"), LaurentPoly.zero(1)) == P("t^2 - 1") * \
            LaurentPoly.constant(2, 1)

    def test_subresultant_example(self):
        # content gcd(2, 1) = 1 times primitive gcd t - 1
        assert gcd(P("2*t - 2"), P("t^2 - 1")) == P("t - 1")
        assert gcd(LaurentPoly.constant(6, 0), LaurentPoly.constant(-4, 0)) \
            == LaurentPoly.constant(2, 0)

    def test_gcd_divides_both_random(self):
        rng = random.Random(4242)
        done = 0
        while done < 60:
            m = rng.choice((1, 2))
            p = random_poly(rng, m, max_terms=4, max_exp=2, max_coeff=4)
            q = random_poly(rng, m, max_terms=4, max_exp=2, max_coeff=4)
            if p.is_zero() and q.is_zero():
                continue
            done += 1
            g = gcd(p, q)
            assert divides(g, p)
            assert divides(g, q)

    def test_common_factor_scaling(self):
        rng = random.Random(555)
        done = 0
        while done < 40:
            m = rng.choice((1, 2))
            p = random_poly(rng, m, max_terms=3, max_exp=2, max_coeff=3)
            q = random_poly(rng, m, max_terms=3, max_exp=2, max_coeff=3)
            r = random_poly(rng, m, max_terms=3, max_exp=2, max_coeff=3)
            if p.is_zero() or q.is_zero() or r.is_zero():
                continue
            done += 1
            lhs = gcd(p * r, q * r)
            rhs = canonical(canonical(r) * gcd(p, q))
            assert lhs == rhs

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_against_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        symbols = sympy.symbols("x0 x1 x2")

        def draw(m, **size):
            return random_poly(rng, m, laurent=False, **size)

        def factor(m, **size):
            # a planted factor with at least two terms, so not a unit
            while True:
                f = draw(m, **size)
                if len(f.terms) > 1:
                    return f

        cases = []
        while len(cases) < 25:
            m = rng.choice((1, 2))
            p = draw(m, max_terms=4, max_exp=2, max_coeff=4)
            q = draw(m, max_terms=4, max_exp=2, max_coeff=4)
            if not (p.is_zero() or q.is_zero()):
                cases.append((m, p, q))
        # integer content: gcd(2t - 2, 4t^2 - 4) = 2t - 2
        cases.append((1, P("2*t - 2"), P("4*t^2 - 4")))
        for m in (1, 1, 2, 2, 3):
            # a planted common factor, and integer content on top
            f = factor(m, max_terms=3, max_exp=2, max_coeff=3)
            p = draw(m, max_terms=3, max_exp=2, max_coeff=3) * f
            q = draw(m, max_terms=3, max_exp=2, max_coeff=3) * f
            k = rng.randint(1, 4)
            cases.append((m, p * (k * rng.randint(1, 3)), q * k))
        for _ in range(5):
            # one variable up to degree 10, with a planted factor
            f = factor(1, max_terms=4, max_exp=4, max_coeff=5)
            cases.append((1, draw(1, max_terms=6, max_exp=6, max_coeff=5) * f,
                          draw(1, max_terms=6, max_exp=6, max_coeff=5) * f))
        for _ in range(4):
            # three variables: the recursion passes through two into one
            f = factor(3, max_terms=3, max_exp=1, max_coeff=3)
            cases.append((3, draw(3, max_terms=3, max_exp=2, max_coeff=4) * f,
                          draw(3, max_terms=3, max_exp=2, max_coeff=4) * f))

        for m, p, q in cases:
            if p.is_zero() or q.is_zero():
                continue
            expected = lower(sympy.gcd(lift(p, symbols), lift(q, symbols)),
                             symbols[:m])
            # Laurent gcds agree with polynomial gcds only up to monomial
            # units, so compare canonical forms
            assert gcd(p, q) == canonical(expected), (p, q)


def dense_poly(rng, nvars, terms, max_exp, max_coeff=9):
    """Exactly `terms` terms with exponents in [0, max_exp]."""
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out[exps] = rng.choice((-1, 1)) * rng.randint(1, max_coeff)
    return LaurentPoly(nvars, out)


def sympy_gcd(p, q):
    """canonical(sympy.gcd) of two polynomials with nonnegative exponents."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x0:%d" % p.nvars)
    return canonical(lower(sympy.gcd(lift(p, symbols), lift(q, symbols)),
                           symbols))


def euclid_gcd(p, q):
    """
    The gcd of nonzero one-variable p and q by the primitive Euclid on
    coefficient lists that laurent.gcd once ended on (laurent_reference).
    """
    return reference._from_dense(0, reference._gcd_dense(
        reference._to_dense(p)[1], reference._to_dense(q)[1]))


def lcm_pair(f, u):
    """
    f u, f (u + L) and the _HEU_TRIES points tried on them, L the lcm of
    (f u)(xi) over the points from 2 |f u| + 29 (|.| the largest
    coefficient), the pair's own while |f u| <= |f (u + L)|.  At each of
    them G = (f u)(xi), whose primitive part f u does not divide
    f (u + L): every point fails.
    """
    a = f * u
    xi, points = 2 * max(map(abs, a.terms.values())) + 29, []
    for _ in range(laurent._HEU_TRIES):
        points.append(xi)
        xi = laurent._next_xi(xi)
    return a, f * (u + lcm(*(a.evaluate([x]) for x in points))), points


class TestHeuristicGcd:
    """
    GCDHEU (laurent._gcd_poly, one loop at every variable count) against
    sympy.gcd, on the sizes at which the subresultant recursion it
    replaced ran for seconds, at a point that fails, and with its
    retries used up: one variable takes a last point where acceptance
    is certain, two or more raise ComputationError.
    """

    # per variable count: (terms of the cofactors, of the planted factor,
    # largest exponent of the cofactors, of the factor)
    SIZES = {1: (6, 4, 8, 5), 2: (5, 3, 3, 2), 3: (4, 3, 2, 1)}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_sympy(self, m):
        rng = random.Random(9000 + m)
        terms, fterms, exp, fexp = self.SIZES[m]
        for k in range(100):
            p = random_poly(rng, m, terms, exp, 7, laurent=False)
            q = random_poly(rng, m, terms, exp, 7, laurent=False)
            if k % 4:
                # a planted common factor of one to fterms terms
                f = random_poly(rng, m, fterms, fexp, 5, laurent=False)
                p, q = p * f, q * f
            if k % 3 == 0:
                # integer contents, with a common part
                c = rng.choice((2, 3, 6))
                p, q = p * (c * rng.randint(1, 4)), q * (c * rng.randint(1, 4))
            if p.is_zero() or q.is_zero():
                continue
            expected = sympy_gcd(p, q)
            # Laurent shifts change neither gcd
            shift = [tuple(rng.randint(-5, 5) for _ in range(m)) for _ in "pq"]
            assert gcd(p.shifted(shift[0]), q.shifted(shift[1])) == expected, \
                (p, q)
            assert gcd(q, p) == expected, (p, q)

    def test_coprime_pairs_of_21_and_42_terms(self):
        # two variables, exponents below 30: the subresultant recursion did
        # not finish within 20 s on such pairs
        rng = random.Random(21)
        for _ in range(3):
            p, q = dense_poly(rng, 2, 21, 29), dense_poly(rng, 2, 42, 29)
            start = time.perf_counter()
            g = gcd(p, q)
            assert time.perf_counter() - start < 1.0
            assert g == LaurentPoly.one(2) == sympy_gcd(p, q)

    def test_pairs_sharing_a_four_term_factor(self):
        # 8 and 12 terms times a common 4-term factor: 2.8-4.7 s each by
        # the subresultant recursion
        rng = random.Random(4)
        for _ in range(3):
            f = dense_poly(rng, 2, 4, 6)
            p = dense_poly(rng, 2, 8, 12) * f
            q = dense_poly(rng, 2, 12, 12) * f
            start = time.perf_counter()
            g = gcd(p, q)
            assert time.perf_counter() - start < 1.0
            assert exact_divide(g, f) is not None
            assert g == sympy_gcd(p, q)

    def test_a_failed_point_is_retried(self, monkeypatch):
        points = []
        original = laurent._next_xi

        def recorded(xi):
            points.append(xi)
            return original(xi)

        def refuse(a, b):
            raise AssertionError("took the last point")

        monkeypatch.setattr(laurent, "_next_xi", recorded)
        monkeypatch.setattr(laurent, "_last_xi", refuse)
        # at xi = 31, 3t + 2 and t^2 - t + 1 take the values 95 and 931,
        # both multiples of 19: G = t - 12, which divides neither
        p, q = P("-3*t - 2"), P("-3*t^2 + 3*t - 3")
        assert gcd(p, q) == ONE == euclid_gcd(p, q)
        assert points == [31]
        # at xi = 2 * 7 + 29 = 43, t1^2 - t2 + 7 takes the value
        # (t1 - 6)(t1 + 6), and (t1 - 6)(t2 + 20) the value 63 (t1 - 6):
        # G = t1 - 6, which does not divide t1^2 - t2 + 7
        a = P("t1^2 - t2 + 7", 2)
        b = P("t1*t2 + 20*t1 - 6*t2 - 120", 2)
        del points[:]
        assert gcd(a, b) == LaurentPoly.one(2)
        assert points == [43]
        assert gcd(a * 6, b.shifted((-2, 5)) * 4) == \
            LaurentPoly.constant(2, 2)

    def test_one_variable_fallback_gives_the_same_gcd(self, monkeypatch):
        rng = random.Random(33)
        cases = []
        for k in range(60):
            f = dense_poly(rng, 1, 3, 4, 5) if k % 2 else ONE
            p, q = (dense_poly(rng, 1, rng.randint(2, 6), 8, 6) * f
                    * rng.randint(1, 6) for _ in "pq")
            cases.append((p.shifted((rng.randint(-3, 3),)), q, gcd(p, q)))
        last = []
        original = laurent._last_xi

        def counted(a, b):
            last.append(1)
            return original(a, b)

        monkeypatch.setattr(laurent, "_last_xi", counted)
        for p, q, g in cases:
            assert gcd(p, q) == g == euclid_gcd(p, q)
        assert not last  # the first _HEU_TRIES points found every one
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        for p, q, g in cases:
            assert gcd(p, q) == g
        assert len(last) == len(cases)

    def test_multivariable_exhaustion_is_a_computation_error(
            self, monkeypatch):
        p, q = P("t1*t2 + 1", 2), P("t1^2*t2^2 + t1*t2 + 1", 2)
        assert gcd(p, q) == LaurentPoly.one(2)
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        with pytest.raises(laurent.ComputationError, match="gcd of two "
                           "polynomials in 2 variables"):
            gcd(p, q)
        # one variable takes its last point instead
        assert gcd(P("t^2 - 1"), P("2*t + 2")) == P("t + 1")

    @pytest.mark.parametrize("f", ["1", "2*t^3 - 3*t + 5"])
    def test_the_last_point_completes_a_failed_loop(self, f, monkeypatch):
        # both pairs fail every one of the _HEU_TRIES points
        a, b, points = lcm_pair(P(f), P("t^2 + t + 1"))
        tried = []
        original = laurent._evaluate_last

        def recorded(p, xi):
            tried.append(xi)
            return original(p, xi)

        monkeypatch.setattr(laurent, "_evaluate_last", recorded)
        assert gcd(a, b) == P(f) == euclid_gcd(a, b)
        # each point evaluates a, then b: _HEU_TRIES + 1 points
        assert tried[::2] == tried[1::2] == points + [laurent._last_xi(a, b)]
        assert len(tried) == 2 * (laurent._HEU_TRIES + 1)

    def test_a_refused_last_point_is_an_inconsistency(self, monkeypatch):
        a, b, points = lcm_pair(ONE, P("t^2 + t + 1"))
        monkeypatch.setattr(laurent, "_last_xi", lambda a, b: points[0])
        with pytest.raises(laurent.ComputationError,
                           match="^GCDHEU failed at its last one-variable "
                                 "point, where acceptance is certain$"):
            gcd(a, b)


def embed(p):
    """p in Z[t2^±1] inside Z[t1^±1, t2^±1]: the two-variable code runs."""
    return LaurentPoly(2, {(0, e): c for (e,), c in p.terms.items()})


class TestOneVariableAgainstTwo:
    """
    Division, gcd and product take one route at every variable count:
    the same operands embedded in two variables, in the last one, run
    the packed-key division with its digit check (checked against the
    tuple-keyed reference in TestPackedAgainstReference) and GCDHEU one
    level up, which evaluates t2 and so ends on the one-variable loop.
    """

    def check(self, p, d):
        assert embed(p * d) == embed(p) * embed(d)
        assert embed(gcd(p, d)) == gcd(embed(p), embed(d)), (p, d)
        if d.is_zero():
            return
        q = exact_divide(p, d)
        expected = exact_divide(embed(p), embed(d))
        if expected is None:
            assert q is None, (p, d)
        else:
            assert q is not None and embed(q) == expected, (p, d)

    def test_random_pairs(self):
        rng = random.Random(606)
        for k in range(400):
            d = random_poly(rng, 1, max_terms=5, max_exp=4, max_coeff=5)
            p = random_poly(rng, 1, max_terms=5, max_exp=4, max_coeff=5)
            if k % 2:
                # divisible, or off by a term or an integer factor
                p = p * d
                if k % 3 == 0:
                    p = p + random_poly(rng, 1, max_terms=1, max_exp=4)
                elif k % 5 == 0:
                    d = d * rng.choice((2, -3))
            self.check(p, d)

    def test_special_operands(self):
        zero, two = LaurentPoly.zero(1), LaurentPoly.constant(2, 1)
        unit = LaurentPoly.monomial(-1, (-3,))
        cases = [
            (T, two),  # 2 does not divide t
            (P("4*t^2 - 4"), P("2*t - 2")),  # quotient 2t + 2
            (P("2*t - 2"), P("4*t^2 - 4")),  # divisor longer than dividend
            (P("6*t^2 - 11*t - 10"), P("3*t + 2")),  # non-monic divisor
            (P("6*t^2 - 11*t - 9"), P("3*t + 2")),
            (P("t^2 + 1"), P("2*t + 1")),
            (LaurentPoly(1, {(-2,): 3, (-1,): -5, (4,): 1}), P("t - 1")),
            (LaurentPoly(1, {(-4,): 2, (-3,): -2}), P("t - 1")),  # shifts
            (zero, P("t^2 - t + 1")), (zero, unit), (zero, two),
            (P("t^2 - t + 1"), unit), (unit, unit), (P("t^3 - 3"), ONE),
            (P("6*t^3 - 3"), LaurentPoly.constant(-3, 1)),
            (P("6*t^3 - 2"), LaurentPoly.constant(3, 1)),
            (two, LaurentPoly.constant(-6, 1)), (ONE, T),
            (P("t^2 - t + 1"), zero),
        ]
        for p, d in cases:
            self.check(p, d)
        assert exact_divide(P("4*t^2 - 4"), P("2*t - 2")) == P("2*t + 2")
        assert exact_divide(P("2*t - 2"), P("4*t^2 - 4")) is None
        assert gcd(P("2*t - 2"), P("4*t^2 - 4")) == P("2*t - 2")
        assert exact_divide(T, two) is None

    def test_operands_and_their_lists_are_left_alone(self):
        rng = random.Random(7)
        for _ in range(40):
            d = random_poly(rng, 1, max_terms=4, max_exp=3, max_coeff=5)
            p = random_poly(rng, 1, max_terms=4, max_exp=3, max_coeff=5) * d
            if d.is_zero():
                continue
            before = {id(x): dict(x.terms) for x in (p, d) if x}
            for result in (exact_divide(p, d), exact_divide(d, d),
                           exact_divide(p, ONE), gcd(p, d), gcd(d, d),
                           p * d, d * d):
                if result:
                    # whatever the caller does to a result's terms does
                    # not reach an operand's
                    result.terms[next(iter(result.terms))] += 1
            for x in (p, d):
                if x:
                    assert x.terms == before[id(x)]


def dense_reference_gcd(p, q):
    """laurent.gcd at one variable as it was, on the dense lists."""
    if p.is_zero() or q.is_zero():
        return canonical(p or q)
    return reference._from_dense(0, reference._gcd_heu_dense(
        reference._to_dense(p)[1], reference._to_dense(q)[1]))


class TestOneVariableAgainstDenseReference:
    """
    One-variable exact_divide and gcd, which run the keyed division and
    the one GCDHEU loop, against the dense form they replaced
    (tests/laurent_reference.py): box_exact_divide's one-variable branch,
    long division on coefficient lists, and GCDHEU on those lists.
    """

    @staticmethod
    def wide(rng, max_terms, max_exp):
        """
        1 to max_terms terms at exponents in [-max_exp, max_exp], with
        coefficients up to 2, 2^8 or 2^64: small ones let a division
        that fails run down to its lowest quotient term.
        """
        bits = rng.choice((1, 8, 64))
        return LaurentPoly(1, {
            (rng.randint(-max_exp, max_exp),):
                rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
            for _ in range(rng.randint(1, max_terms))})

    def pairs(self, rng, count, max_exp):
        """(dividend, divisor) pairs, exponents within +-max_exp."""
        half = max_exp // 2
        for k in range(count):
            d = self.wide(rng, 4, half)
            p = self.wide(rng, 4, half) * d
            if k % 6 == 1:
                p = p + self.wide(rng, 1, max_exp)  # off by a term
            elif k % 6 == 2:
                d = d * rng.choice((2, -3, 2 ** 64 + 1))  # content too large
            elif k % 6 == 3:
                p, d = d, p  # the divisor longer than the dividend
            elif k % 6 == 4:
                # a monomial divisor, dividing or not
                c = rng.choice((1, -1, 7, 2 ** 64))
                d = LaurentPoly.monomial(c, (rng.randint(-max_exp, max_exp),))
            yield p, d

    def test_division_against_long_division(self):
        rng = random.Random(2801)
        divided = 0
        for p, d in self.pairs(rng, 300, 1000):
            q = exact_divide(p, d)
            assert q == reference.box_exact_divide(p, d), (p, d)
            divided += q is not None
        assert 100 < divided < 250

    def test_gcd_against_dense_gcdheu(self):
        rng = random.Random(2802)
        for k in range(60):
            f = self.wide(rng, 3, 250) if k % 3 else ONE
            p, q = (self.wide(rng, 4, 250) * f * rng.choice((1, 2, 6))
                    for _ in "pq")
            expected = dense_reference_gcd(p, q)
            assert gcd(p, q) == expected == gcd(q, p), (p, q)
            assert exact_divide(expected, canonical(f)) is not None

    def test_euclid_completion_gives_the_reference_gcd(self, monkeypatch):
        # _HEU_TRIES = 0: every case takes the last point, which grows
        # with the primitive parts' degrees, their spans: small spans at
        # shifts up to +-1000
        rng = random.Random(2803)
        cases = []
        for k in range(60):
            f = self.wide(rng, 3, 6) if k % 3 else ONE
            p, q = (self.wide(rng, 4, 8) * f * rng.choice((1, 2, 6))
                    for _ in "pq")
            shift = rng.randint(-1000, 1000)
            cases.append((p.shifted((shift,)), q.shifted((-shift,))))
        cases += [(ONE, P("t - 1")), (P("2*t - 2"), P("4*t^2 - 4")),
                  (LaurentPoly.monomial(6, (-999,)), P("4*t^3 + 2")),
                  (P("t^2 - 1"), P("t^2 - 1"))]
        expected = [dense_reference_gcd(p, q) for p, q in cases]
        completions = []
        original = laurent._last_xi

        def counted(a, b):
            completions.append(1)
            return original(a, b)

        monkeypatch.setattr(laurent, "_last_xi", counted)
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        for (p, q), g in zip(cases, expected):
            assert gcd(p, q) == g == euclid_gcd(p, q), (p, q)
        assert len(completions) == len(cases)


class TestCanonical:
    def test_unit_factor_removed(self):
        p = LaurentPoly(1, {(4,): -1, (3,): -1, (2,): 1})  # -t^2 (t^2 + t - 1)
        assert canonical(p) == P("t^2 + t - 1")

    def test_zero(self):
        assert canonical(LaurentPoly.zero(3)).is_zero()

    def test_multivariable_unit_shift(self):
        p = LaurentPoly(2, {(-1, 1): 1, (-1, 0): -1})  # t1^-1 t2 - t1^-1
        assert canonical(p) == P("t2 - 1", 2)

    def test_idempotent_and_unit_invariant(self):
        rng = random.Random(909)
        for _ in range(150):
            m = rng.choice((1, 2, 3))
            p = random_poly(rng, m)
            c = canonical(p)
            assert canonical(c) == c
            assert is_canonical(c)
            unit_exps = tuple(rng.randint(-2, 2) for _ in range(m))
            unit_sign = rng.choice((1, -1))
            q = p.shifted(unit_exps) * unit_sign
            assert canonical(q) == c


class TestTextFormat:
    def test_examples(self):
        assert poly_to_str(P("t^2 - t + 1")) == "t^2 - t + 1"
        assert poly_to_str(P("t1*t2 - t1 - t2 + 1", 2)) == "t1*t2 - t1 - t2 + 1"
        assert poly_to_str(LaurentPoly.zero(2)) == "0"
        assert poly_to_str(P("2*t^2 - 3*t + 2")) == "2*t^2 - 3*t + 2"

    def test_descending_graded_lex(self):
        p = P("t1 + t2 + t1*t2 + 1", 2)
        assert poly_to_str(p) == "t1*t2 + t1 + t2 + 1"

    def test_roundtrip_random(self):
        rng = random.Random(31337)
        for _ in range(200):
            m = rng.choice((1, 2, 3, 10, 12))
            p = random_poly(rng, m)
            assert parse_poly(poly_to_str(p), m) == p

    def test_canonical_never_emits_negative_exponents(self):
        rng = random.Random(2718)
        for _ in range(100):
            p = canonical(random_poly(rng, rng.choice((1, 2))))
            assert "^-" not in poly_to_str(p)

    def test_same_as_the_reference_scanner(self):
        # Seeded strings over the format's alphabet, read by parse_poly
        # and by the scanner it replaced: the same terms, or the same
        # exception type and message, except where parse_poly rejects
        # by one of the two rules the scanner lacked.
        rng = random.Random(37)
        for _ in range(30000):
            text = "".join(rng.choice("t0123456789^*+- ")
                           for _ in range(rng.randint(0, 12)))
            for m in (1, 2, 3):
                new = parse_outcome(parse_poly, text, m)
                old = parse_outcome(reference.parse_poly, text, m)
                assert new == old or (
                    type(new) is tuple and new[0] is ValueError
                    and new[1].startswith(SCANNER_LACKED)), (text, m, new, old)

    def test_rejects_what_the_scanner_misread(self):
        # An unsigned term after the first was added as a new term, and
        # digits on both sides of a space were joined.
        for text, m, misread, rule in (
                ("t^2*3", 1, "t^2 + 3", 1), ("t*2", 1, "t + 2", 1),
                ("2**t", 1, "t + 2", 1), ("t^2 3", 1, "t^23", 0),
                ("2 3", 1, "23", 0), ("t1 2", 12, "t12", 0)):
            assert reference.parse_poly(text, m) == P(misread, m)
            with pytest.raises(ValueError) as info:
                parse_poly(text, m)
            assert str(info.value).startswith(SCANNER_LACKED[rule])
            assert repr(text) in str(info.value)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_poly("", 1)
        with pytest.raises(ValueError):
            parse_poly("t3 + 1", 2)
        with pytest.raises(ValueError):
            parse_poly("t^", 1)
