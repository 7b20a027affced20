import random
from itertools import permutations

import pytest

from ribboncheck.alexander import module_rank, torsion_order
from ribboncheck.foxcalc import AlexanderPresentation, jacobian
from ribboncheck.laurent import DimensionError, LaurentPoly, parse_poly
from ribboncheck.linkcodec import parse_link_spec
from ribboncheck.wirtinger import (AbelianizationMap, GroupPresentation,
                                   apply_phi, free_reduce,
                                   wirtinger_presentation)

from conftest import random_free_word
from helpers import (GroupRingElement, decoded, fox_derivative,
                     word_multiply)
import pipeline_reference as reference


def recursive_fox(word, gen):
    """Independent reference implementation straight from the axioms."""
    if not word:
        return GroupRingElement()
    if len(word) == 1:
        g, e = word[0]
        out = GroupRingElement()
        if g == gen:
            if e == 1:
                out.add((), 1)
            else:
                out.add(((g, -1),), -1)
        return out
    head, tail = word[:1], word[1:]
    return fox_sum(recursive_fox(head, gen),
                   recursive_fox(tail, gen).left_multiply(head))


def fox_sum(a, b):
    return a + b


def phi_image(element, phi, nvars):
    out = LaurentPoly.zero(nvars)
    for word, coeff in element.items():
        exps = apply_phi(word, phi)
        out = out + LaurentPoly.monomial(coeff, exps)
    return out


class TestFoxAxioms:
    def test_generator(self):
        assert dict(fox_derivative(((0, 1),), 0)) == {(): 1}
        assert dict(fox_derivative(((1, 1),), 0)) == {}

    def test_inverse_rule(self):
        assert dict(fox_derivative(((0, -1),), 0)) == {((0, -1),): -1}

    def test_commutator(self):
        w = ((0, 1), (1, 1), (0, -1), (1, -1))
        d = fox_derivative(w, 0)
        assert dict(d) == {(): 1, ((0, 1), (1, 1), (0, -1)): -1}

    def test_missing_generator_gives_zero(self):
        rng = random.Random(17)
        for _ in range(50):
            w = free_reduce(random_free_word(rng, 3, 20))
            assert dict(fox_derivative(w, 3)) == {}

    def test_matches_recursive_oracle(self):
        rng = random.Random(4321)
        for _ in range(150):
            w = free_reduce(random_free_word(rng, 4, 24))
            for gen in range(4):
                assert dict(fox_derivative(w, gen)) == \
                    dict(recursive_fox(w, gen))

    def test_product_rule(self):
        rng = random.Random(86)
        for _ in range(100):
            u = free_reduce(random_free_word(rng, 3, 12))
            v = free_reduce(random_free_word(rng, 3, 12))
            uv = word_multiply(u, v)
            for gen in range(3):
                lhs = fox_derivative(uv, gen)
                rhs = fox_derivative(u, gen) + \
                    fox_derivative(v, gen).left_multiply(u)
                assert dict(lhs) == dict(rhs)


class TestFundamentalIdentity:
    def check(self, word, phi):
        m = phi.num_components
        total = LaurentPoly.zero(m)
        for gen in range(len(phi.component_of)):
            d = phi_image(fox_derivative(word, gen), phi, m)
            basis = LaurentPoly.monomial(
                1, tuple(1 if i == phi.component_of[gen] else 0
                         for i in range(m)))
            total = total + d * (basis - LaurentPoly.one(m))
        image = LaurentPoly.monomial(1, apply_phi(word, phi))
        assert total == image - LaurentPoly.one(m)

    def test_random_words(self):
        rng = random.Random(1999)
        for _ in range(200):
            gens = rng.randint(1, 6)
            m = rng.randint(1, min(3, gens))
            phi = AbelianizationMap(
                tuple(rng.randrange(m) for _ in range(gens)), m)
            self.check(free_reduce(random_free_word(rng, gens, 40)), phi)

    def test_wirtinger_relators(self, bundled_knots, bundled_links):
        for name, diagram in bundled_knots + bundled_links:
            pres, phi = wirtinger_presentation(diagram)
            for rel in pres.relators:
                self.check(rel, phi)


class TestJacobian:
    def test_trefoil_two_generator_presentation(self):
        # <a, b | a b a b^-1 a^-1 b^-1>
        rel = ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
        pres = GroupPresentation(2, (rel,))
        phi = AbelianizationMap((0, 0), 1)
        (row,) = decoded(jacobian(pres, phi))
        assert row[0] == parse_poly("t^2 - t + 1", 1)
        assert row[1] == -parse_poly("t^2 - t + 1", 1)

    def test_hopf_commutator(self):
        rel = ((0, 1), (1, 1), (0, -1), (1, -1))
        pres = GroupPresentation(2, (rel,))
        phi = AbelianizationMap((0, 1), 2)
        (row,) = decoded(jacobian(pres, phi))
        assert row[0] == parse_poly("1 - t2", 2)
        assert row[1] == parse_poly("t1 - 1", 2)

    def test_unknot_empty_matrix(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=1:"))
        A = jacobian(pres, phi)
        assert decoded(A) == ()
        assert A.num_generators == 1

    def test_of_rejects_malformed_rows(self):
        # a row wider than the generators once made torsion_order raise
        # KeyError, and an entry in two variables was packed as one, so
        # that t1 + t2 read as t^8 + 1
        t1, t2 = (LaurentPoly.variable(i, 2) for i in (0, 1))
        with pytest.raises(ValueError, match="3 entries for 2 generators"):
            AlexanderPresentation.of([[t1 - 1, t2, t2]], 2, (0, 1))
        with pytest.raises(DimensionError, match="not in 1 variables"):
            AlexanderPresentation.of([[t1 + t2]], 1, (0,))

    def test_sparse_rows_share_one_zero(self, bundled_knots, bundled_links):
        shared = 0
        for name, diagram in bundled_knots + bundled_links:
            pres, phi = wirtinger_presentation(diagram)
            A = jacobian(pres, phi)
            assert A.matrix.bound == 2 * sum(map(len, pres.relators))
            rows = decoded(A)
            assert len(rows) == A.num_relators == len(pres.relators)
            for row in rows:
                assert len(row) == A.num_generators == pres.num_generators
                assert all(type(e) is LaurentPoly and
                           e.nvars == phi.num_components for e in row)
            # perfbench's foxcalc.jacobian_terms count
            dense = reference.jacobian(pres, phi)
            assert (sum(len(e.terms) for row in rows for e in row) ==
                    sum(len(e.terms) for row in dense.matrix for e in row))
            zeros = [e for row in rows for e in row if not e.terms]
            assert len({id(e) for e in zeros}) <= 1, name
            shared += len(zeros)
            module_rank(A)
            torsion_order(A)
        assert shared > 1000
        # a touched cell whose terms cancel is the shared zero too: under
        # one variable, d(x_g x_a x_b^-1 x_g^-1)/dx_g = 1 - 1
        for g, a, b in permutations(range(3)):
            (row,) = decoded(jacobian(
                GroupPresentation(4, (((g, 1), (a, 1), (b, -1), (g, -1)),)),
                AbelianizationMap((0, 0, 0, 0), 1)))
            assert row[g] is row[3] and not row[3].terms

    def test_eager_phi_matches_group_ring_route(self, bundled_knots):
        for name, diagram in bundled_knots[:6]:
            pres, phi = wirtinger_presentation(diagram)
            rows = decoded(jacobian(pres, phi))
            for i, rel in enumerate(pres.relators):
                for j in range(pres.num_generators):
                    slow = phi_image(fox_derivative(rel, j), phi,
                                     phi.num_components)
                    assert rows[i][j] == slow, name
