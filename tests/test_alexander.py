import random
from itertools import combinations

from ribboncheck.alexander import (alexander_polynomial, determinant,
                                   module_rank, torsion_order)
from ribboncheck.foxcalc import AlexanderPresentation, jacobian
from ribboncheck.laurent import LaurentPoly, canonical, parse_poly
from ribboncheck.linkcodec import braid_closure, connected_sum, parse_braid, \
    parse_link_spec
from ribboncheck.wirtinger import wirtinger_presentation

from conftest import random_braid_knot, random_poly


def presentation_from_rows(rows, nvars, ncols):
    matrix = tuple(tuple(row) for row in rows)
    return AlexanderPresentation(matrix, nvars, (0,) * ncols)


def brute_force_rank(pres):
    """Largest k with a nonvanishing k x k minor, by full enumeration."""
    best = 0
    rows_all = range(pres.num_relators)
    cols_all = range(pres.num_generators)
    for k in range(1, min(pres.num_relators, pres.num_generators) + 1):
        found = False
        for rows in combinations(rows_all, k):
            for cols in combinations(cols_all, k):
                sub = [[pres.matrix[i][j] for j in cols] for i in rows]
                if not determinant(sub).is_zero():
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def delta(spec):
    return alexander_polynomial(parse_link_spec(spec))


class TestDeterminant:
    def test_two_by_two(self):
        t = LaurentPoly.variable(0, 1)
        one = LaurentPoly.one(1)
        d = determinant([[t, one], [one, t]])
        assert d == t * t - one

    def test_matches_cofactor_expansion_random(self):
        rng = random.Random(321)

        def cofactor(mat):
            n = len(mat)
            if n == 1:
                return mat[0][0]
            total = LaurentPoly.zero(mat[0][0].nvars)
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for row in mat[1:]]
                term = mat[0][j] * cofactor(minor)
                total = total + term if j % 2 == 0 else total - term
            return total

        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.choice((1, 2))
            mat = [[random_poly(rng, m, max_terms=2, max_exp=1, max_coeff=3)
                    for _ in range(n)] for _ in range(n)]
            assert determinant(mat) == cofactor(mat)


class TestModuleRank:
    def test_trefoil_row(self):
        p = parse_poly("t^2 - t + 1", 1)
        pres = presentation_from_rows([[p, -p]], 1, 2)
        cert = module_rank(pres)
        assert cert.rank == 1
        assert not cert.minor.is_zero()

    def test_empty_matrix(self):
        pres = presentation_from_rows([], 2, 2)
        assert module_rank(pres).rank == 0

    def test_hopf_row(self):
        row = [parse_poly("1 - t2", 2), parse_poly("t1 - 1", 2)]
        assert module_rank(presentation_from_rows([row], 2, 2)).rank == 1

    def test_certificate_minor_is_nonzero_witness(self):
        rng = random.Random(777)
        for _ in range(40):
            nr, nc = rng.randint(0, 4), rng.randint(1, 4)
            m = rng.choice((1, 2))
            rows = [[random_poly(rng, m, max_terms=2, max_exp=1, max_coeff=2)
                     for _ in range(nc)] for _ in range(nr)]
            pres = presentation_from_rows(rows, m, nc)
            cert = module_rank(pres)
            assert cert.rank == brute_force_rank(pres)
            if cert.rank:
                sub = [[pres.matrix[i][j] for j in cert.pivot_columns]
                       for i in cert.pivot_rows]
                assert not determinant(sub).is_zero()
                assert canonical(cert.minor) == canonical(determinant(sub))


class TestTorsionOrder:
    def test_trefoil_presentation(self):
        p = parse_poly("t^2 - t + 1", 1)
        pres = presentation_from_rows([[p, -p]], 1, 2)
        assert torsion_order(pres).value == p

    def test_unknot_empty(self):
        pres = presentation_from_rows([], 1, 1)
        assert torsion_order(pres).value == LaurentPoly.one(1)

    def test_hopf(self):
        row = [parse_poly("1 - t2", 2), parse_poly("t1 - 1", 2)]
        pres = presentation_from_rows([row], 2, 2)
        assert torsion_order(pres).value == LaurentPoly.one(2)


class TestPipeline:
    def test_trefoil(self):
        assert str(delta("braid:n=2:1 1 1")) == "t^2 - t + 1"

    def test_figure_eight(self):
        assert str(delta("braid:n=3:1 -2 1 -2")) == "t^2 - 3*t + 1"

    def test_unlink_and_unknot(self):
        assert str(delta("braid:n=2:")) == "1"
        assert str(delta("braid:n=1:")) == "1"

    def test_split_two_component(self):
        d = parse_link_spec("braid:n=3:1")
        pres, phi = wirtinger_presentation(d)
        cert = module_rank(jacobian(pres, phi))
        assert cert.rank + 2 == pres.num_generators
        assert str(alexander_polynomial(d)) == "1"

    def test_provenance(self):
        a = delta("braid:n=2:1 1 1")
        assert a.source["generators"] == 3
        assert a.source["relators"] == 3
        assert len(a.source["diagram"]) == 12

    def test_determinism(self):
        a = delta("pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        b = delta("pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        assert a.value == b.value and a.source == b.source


class TestInvariance:
    def test_row_deletion_robustness(self, bundled_knots, bundled_links):
        for name, diagram in bundled_knots + bundled_links:
            if diagram.num_crossings == 0:
                continue
            pres, phi = wirtinger_presentation(diagram)
            A = jacobian(pres, phi)
            expected_rank = module_rank(A).rank
            expected_delta = torsion_order(A).value
            rng = random.Random(hash(name) & 0xFFFF)
            rows = rng.sample(range(A.num_relators), min(3, A.num_relators))
            for drop in rows:
                rows_kept = tuple(A.matrix[i] for i in range(A.num_relators)
                                  if i != drop)
                sub = AlexanderPresentation(rows_kept, A.nvars,
                                            A.generator_component)
                assert module_rank(sub).rank == expected_rank, name
                assert torsion_order(sub).value == expected_delta, name

    def test_knot_normalization_at_one(self, bundled_knots):
        for name, diagram in bundled_knots:
            value = alexander_polynomial(diagram).value
            assert value.evaluate([1]) in (1, -1), name

    def test_knot_symmetry(self, bundled_knots):
        for name, diagram in bundled_knots:
            value = alexander_polynomial(diagram).value
            assert canonical(value.inverted_variables()) == value, name

    def test_link_symmetry(self, bundled_links):
        for name, diagram in bundled_links:
            value = alexander_polynomial(diagram).value
            assert canonical(value.inverted_variables()) == value, name

    def test_mirror_inverts_variable(self):
        rng = random.Random(2024)
        for _ in range(12):
            word = random_braid_knot(rng)
            d = alexander_polynomial(braid_closure(word)).value
            dm = alexander_polynomial(braid_closure(word.mirror())).value
            assert canonical(d.inverted_variables()) == dm

    def test_mirror_inverts_variables_for_links(self):
        for spec in ("braid:n=2:1 1 1 1", "braid:n=2:1 1 1 1 1 1",
                     "braid:n=3:1 1 1 2 2"):
            word = parse_braid(spec[6:])
            d = alexander_polynomial(braid_closure(word)).value
            dm = alexander_polynomial(braid_closure(word.mirror())).value
            assert canonical(d.inverted_variables()) == dm

    def test_inverse_preserves_delta(self):
        rng = random.Random(4096)
        for _ in range(8):
            word = random_braid_knot(rng)
            d = alexander_polynomial(braid_closure(word)).value
            di = alexander_polynomial(braid_closure(word.inverse())).value
            assert d == di

    def test_connected_sum_multiplicativity(self):
        rng = random.Random(31415)
        for _ in range(10):
            w1 = random_braid_knot(rng, max_letters=6)
            w2 = random_braid_knot(rng, max_letters=6)
            d1 = alexander_polynomial(braid_closure(w1)).value
            d2 = alexander_polynomial(braid_closure(w2)).value
            ds = alexander_polynomial(braid_closure(connected_sum(w1, w2))).value
            assert ds == canonical(d1 * d2)

    def test_square_knot(self):
        w = parse_braid("n=2:1 1 1")
        d = alexander_polynomial(
            braid_closure(connected_sum(w, w.inverse()))).value
        assert d == parse_poly("t^4 - 2*t^3 + 3*t^2 - 2*t + 1", 1)
