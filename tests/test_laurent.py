import random

import pytest

from ribboncheck import laurent
from ribboncheck.laurent import (DimensionError, LaurentPoly, canonical,
                                 divides, exact_divide, gcd, is_canonical,
                                 parse_poly, poly_to_str)

from conftest import random_poly

T = LaurentPoly.variable(0, 1)
ONE = LaurentPoly.one(1)


def P(text, nvars=1):
    return parse_poly(text, nvars)


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

        def lift(poly):
            expr = sympy.Integer(0)
            for exps, coeff in poly.terms.items():
                term = sympy.Integer(coeff)
                for s, a in zip(symbols, exps):
                    term *= s ** a
                expr += term
            return expr

        def lower(expr, m):
            poly = sympy.Poly(expr, *symbols[:m])
            terms = {tuple(int(a) for a in mono): int(c)
                     for mono, c in poly.terms()}
            return LaurentPoly(m, terms)

        for m, p, q in cases:
            if p.is_zero() or q.is_zero():
                continue
            expected = lower(sympy.gcd(lift(p), lift(q)), m)
            # Laurent gcds agree with polynomial gcds only up to monomial
            # units, so compare canonical forms
            assert gcd(p, q) == canonical(expected), (p, q)


def embed(p):
    """p in Z[t2^±1] inside Z[t1^±1, t2^±1]: the two-variable code runs."""
    return LaurentPoly(2, {(0, e): c for (e,), c in p.terms.items()})


class TestOneVariableAgainstTwo:
    """
    One-variable division, gcd and product run on dense coefficient lists;
    the same operands embedded in two variables, in the last one, run the
    sparse graded-lex division and the subresultant gcd over Z[t1].
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
            assert q.is_zero() or laurent._dense(q) == laurent._to_dense(q)

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
            before = {id(x): (dict(x.terms), laurent._to_dense(x))
                      for x in (p, d) if x}
            for result in (exact_divide(p, d), exact_divide(d, d),
                           exact_divide(p, ONE), gcd(p, d), gcd(d, d),
                           p * d, d * d):
                if result:
                    # whatever the caller does to a result's list does
                    # not reach an operand's
                    _, coeffs = laurent._dense(result)
                    coeffs[0] += 1
            for x in (p, d):
                if x:
                    assert (x.terms, laurent._dense(x)) == before[id(x)]


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
            m = rng.choice((1, 2, 3))
            p = random_poly(rng, m)
            assert parse_poly(poly_to_str(p), m) == p

    def test_canonical_never_emits_negative_exponents(self):
        rng = random.Random(2718)
        for _ in range(100):
            p = canonical(random_poly(rng, rng.choice((1, 2))))
            assert "^-" not in poly_to_str(p)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_poly("", 1)
        with pytest.raises(ValueError):
            parse_poly("t3 + 1", 2)
        with pytest.raises(ValueError):
            parse_poly("t^", 1)
