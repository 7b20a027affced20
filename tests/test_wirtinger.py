import random

from ribboncheck.linkcodec import parse_link_spec
from ribboncheck.oracles import smith_normal_form
from ribboncheck.wirtinger import (AbelianizationMap, apply_phi,
                                   free_reduce, wirtinger_presentation)

from conftest import random_free_word
from helpers import (presentation_to_str, word_inverse, word_multiply,
                     word_to_str)


def exponent_matrix(pres, phi):
    rows = []
    for rel in pres.relators:
        row = [0] * pres.num_generators
        for g, e in rel:
            row[g] += e
        rows.append(row)
    return rows


class TestFreeWords:
    def test_reduce(self):
        assert free_reduce(((0, 1), (0, -1), (1, 1))) == ((1, 1),)

    def test_inverse(self):
        w = ((0, 1), (1, -1))
        assert word_multiply(w, word_inverse(w)) == ()

    def test_random_reduction_is_involutive(self):
        rng = random.Random(5)
        for _ in range(100):
            w = free_reduce(random_free_word(rng, 4, 20))
            assert free_reduce(w) == w
            assert word_multiply(w, word_inverse(w)) == ()


class TestWirtinger:
    def test_trefoil(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
        assert pres.num_generators == 3
        assert len(pres.relators) == 3
        assert phi.component_of == (0, 0, 0)
        for rel in pres.relators:
            assert apply_phi(rel, phi) == (0,)

    def test_unknot_no_crossings(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=1:"))
        assert pres.num_generators == 1
        assert pres.relators == ()
        assert phi.component_of == (0,)

    def test_hopf(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1"))
        # each component is broken by its single under-pass: one arc each
        assert pres.num_generators == 2
        assert len(pres.relators) == 2
        assert sorted(phi.component_of) == [0, 1]

    def test_relators_die_under_phi(self, bundled_knots, bundled_links):
        for name, diagram in bundled_knots + bundled_links:
            pres, phi = wirtinger_presentation(diagram)
            zero = (0,) * phi.num_components
            for rel in pres.relators:
                assert apply_phi(rel, phi) == zero, name

    def test_abelianization_is_free_of_rank_m(self, bundled_knots,
                                              bundled_links):
        # exponent matrix has rank g - m and unit invariant factors
        for name, diagram in bundled_knots + bundled_links:
            pres, phi = wirtinger_presentation(diagram)
            rows = exponent_matrix(pres, phi)
            diag = smith_normal_form(rows) if rows else []
            assert len(diag) == pres.num_generators - phi.num_components, name
            assert all(d == 1 for d in diag), name


class TestApplyPhi:
    def test_conjugation_collapses(self):
        phi = AbelianizationMap((0, 1), 2)
        w = ((0, 1), (1, 1), (0, -1))
        assert apply_phi(w, phi) == (0, 1)

    def test_empty_word(self):
        phi = AbelianizationMap((0, 0), 1)
        assert apply_phi((), phi) == (0,)


class TestDumpFormat:
    def test_word(self):
        assert word_to_str(((2, 1), (0, 1), (1, -1), (0, -1))) == \
            "x3 x1 x2^-1 x1^-1"
        assert word_to_str(()) == "1"

    def test_presentation(self):
        pres, _ = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
        text = presentation_to_str(pres)
        assert text.startswith("<x1 x2 x3 |")
