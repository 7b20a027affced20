import random
import time
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix, Poly, resultant, symbols
from sympy.matrices.normalforms import invariant_factors

from ribboncheck import oracles
from ribboncheck.alexander import alexander_polynomial
from ribboncheck.laurent import LaurentPoly, parse_poly
from ribboncheck.linkcodec import DiagramError, parse_link_spec
from ribboncheck.oracles import (abelian_invariants,
                                 cover_torsion_from_polynomial,
                                 cyclic_cover_check, reidemeister_schreier,
                                 smith_normal_form, torres_check)
from ribboncheck.wirtinger import wirtinger_presentation

import pipeline_reference
from helpers import (fox_derivative, full_reidemeister_schreier,
                     gcdex_dense_diagonal, per_degree_reidemeister_schreier,
                     rewriting_sizes, sylvester_cover_order)
from pipeline_reference import two_phase_smith_normal_form


class TestSmithNormalForm:
    def test_small(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_divisibility_chain_random(self):
        rng = random.Random(606)
        for _ in range(60):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            diag = smith_normal_form(mat)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_only_integral_entries(self):
        with pytest.raises(ValueError, match="non-integral entry in row 0"):
            smith_normal_form([[1.5, 0], [0, 2.9]])
        with pytest.raises(ValueError, match="non-integral entry in row 1"):
            smith_normal_form([{0: 2}, {3: 4, 5: Fraction(1, 2)}])
        diag = smith_normal_form([[True, 0], [0, Fraction(4, 2)], [0, 6.0]])
        assert diag == [1, 2] and all(type(d) is int for d in diag)

    def test_determinant_preserved(self):
        rng = random.Random(607)
        for _ in range(40):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det = _int_determinant(mat)
            diag = smith_normal_form(mat)
            if det == 0:
                assert len(diag) < n
            else:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det)

    def test_dense_against_sympy(self):
        rng = random.Random(608)
        for _ in range(150):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            mat = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            assert smith_normal_form(mat) == _sympy_diagonal(mat), mat

    def test_sparse_units_against_sympy(self):
        # mostly +-1 entries, the shape of the rewritten cover matrices,
        # with zero rows and columns mixed in
        rng = random.Random(609)
        entries = [0] * 12 + [1, -1] * 3 + [2, -2, 3]
        for _ in range(300):
            nr, nc = rng.randint(1, 12), rng.randint(1, 12)
            mat = [[rng.choice(entries) for _ in range(nc)] for _ in range(nr)]
            for row in rng.sample(range(nr), rng.randint(0, nr // 3)):
                mat[row] = [0] * nc
            for col in rng.sample(range(nc), rng.randint(0, nc // 3)):
                for row in mat:
                    row[col] = 0
            assert smith_normal_form(mat) == _sympy_diagonal(mat), mat

    def test_unit_made_by_elimination(self):
        # row 1 holds no unit until the pivot of row 0 clears its first
        # column, and then row 2 none until that unit clears the second
        mat = [[1, 1, 0], [2, 3, 0], [0, 2, 3], [0, 0, 0]]
        assert smith_normal_form(mat) == [1, 1, 3] == _sympy_diagonal(mat) \
            == two_phase_smith_normal_form(mat)

    def test_cover_matrices_against_sympy(self, monkeypatch):
        # the orbit route's dict rows and the full rewriting's dense rows,
        # as the Smith form receives them; densified for sympy
        from conftest import random_braid_knot
        from ribboncheck.linkcodec import braid_closure
        matrices = []
        original = oracles.abelian_invariants

        def record(matrix, num_generators):
            matrices.append((matrix, num_generators))
            return original(matrix, num_generators)

        monkeypatch.setattr(oracles, "abelian_invariants", record)
        rng = random.Random(610)
        for _ in range(15):
            word = random_braid_knot(rng, max_strands=4, max_letters=9)
            pres, phi = wirtinger_presentation(braid_closure(word))
            for k in range(2, 8):
                reidemeister_schreier(pres, phi, k)
                full_reidemeister_schreier(pres, phi, k)
        assert len(matrices) == 2 * 15 * 6
        for mat, columns in matrices:
            assert smith_normal_form(mat) == \
                _sympy_diagonal(_dense(mat, columns))

    def test_dict_rows(self):
        assert smith_normal_form([{3: 2, 0: 4}, {0: 8, 3: 6}]) == \
            smith_normal_form([[4, 0, 0, 2], [8, 0, 0, 6]]) == [2, 4]
        row = {0: 1, 2: 0, 1: 2}
        assert smith_normal_form([row, {1: 3}]) == [1, 3]
        assert row == {0: 1, 2: 0, 1: 2}  # the caller's rows are not consumed

    def test_bundled_smith_inputs_against_two_phase(self, bundled_knots,
                                                    monkeypatch):
        # oracle-check's default degrees on every bundled knot
        inputs = _record_smith_inputs(monkeypatch)
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in (2, 3, 5):
                reidemeister_schreier(pres, phi, k)
        assert len(inputs) == 3 * len(bundled_knots)
        for mat in inputs:
            assert smith_normal_form(mat) == two_phase_smith_normal_form(mat)

    def test_dense_against_gcdex_reference(self):
        # half of the matrices are products through 1-7 inner columns,
        # so that most of them are rank-deficient
        rng = random.Random(612)
        for n in range(3000):
            nr, nc = rng.randint(1, 7), rng.randint(1, 7)
            if n % 2:
                s = rng.randint(1, 7)
                a = [[rng.randint(-9, 9) for _ in range(s)] for _ in range(nr)]
                b = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(s)]
                mat = [[sum(x * y for x, y in zip(row, col))
                        for col in zip(*b)] for row in a]
            else:
                mat = [[rng.randint(-9, 9) for _ in range(nc)]
                       for _ in range(nr)]
            diag = smith_normal_form(mat)
            assert diag == gcdex_dense_diagonal([list(row) for row in mat]) \
                == two_phase_smith_normal_form(mat), mat
            if n % 10 == 0:
                assert diag == _sympy_diagonal(mat), mat

    def test_cover_cores_against_gcdex_reference(self, bundled_knots,
                                                 monkeypatch):
        # the two phases, and the two phases with the extended-gcd loop on
        # the core the sparse one leaves; at k = 60 that loop takes
        # minutes on some cores, so there only the two phases
        inputs = _record_smith_inputs(monkeypatch)
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in list(range(2, 13)) + [20, 30, 45, 60]:
                reidemeister_schreier(pres, phi, k)
        assert len(inputs) == 15 * len(bundled_knots)
        diagonals = [two_phase_smith_normal_form(mat) for mat in inputs]
        monkeypatch.setattr(pipeline_reference, "_dense_diagonal",
                            gcdex_dense_diagonal)
        for n, (mat, diag) in enumerate(zip(inputs, diagonals)):
            assert smith_normal_form(mat) == diag, mat
            if n % 15 < 14:
                assert two_phase_smith_normal_form(mat) == diag, mat

    @pytest.mark.parametrize("k", [100, 150])
    def test_large_degrees_against_two_phase(self, bundled_knots, monkeypatch,
                                             k):
        # the knots whose Smith form was slowest in one phase or the other
        inputs = _record_smith_inputs(monkeypatch)
        for name in ("8_4", "9_6", "9_35"):
            pres, phi = wirtinger_presentation(dict(bundled_knots)[name])
            reidemeister_schreier(pres, phi, k)
        started = time.process_time()
        diagonals = [smith_normal_form(mat) for mat in inputs]
        assert time.process_time() - started < 5
        assert diagonals == [two_phase_smith_normal_form(mat)
                             for mat in inputs]

    def test_abelian_invariants(self):
        inv = abelian_invariants([[2, 0], [0, 0]], 3)
        assert inv.free_rank == 2
        assert inv.torsion_factors == (2,)
        assert inv.torsion_order() == 2


def _dense(matrix, num_columns):
    return [[r.get(j, 0) for j in range(num_columns)]
            if isinstance(r, dict) else list(r) for r in matrix]


def _sympy_diagonal(mat):
    """The nonzero invariant factors by sympy, an independent route."""
    factors = invariant_factors(Matrix(mat), domain=ZZ)
    return [abs(int(d)) for d in factors if d]


def _record_smith_inputs(monkeypatch):
    """Record every matrix the cover oracle gives the Smith form."""
    inputs = []
    original = oracles.abelian_invariants

    def record(matrix, num_generators):
        inputs.append(matrix)
        return original(matrix, num_generators)

    monkeypatch.setattr(oracles, "abelian_invariants", record)
    return inputs


def _int_determinant(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _int_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestReidemeisterSchreier:
    def cover(self, spec, k):
        pres, phi = wirtinger_presentation(parse_link_spec(spec))
        return reidemeister_schreier(pres, phi, k)

    def test_trefoil_double_cover(self):
        inv = self.cover("braid:n=2:1 1 1", 2)
        assert inv.free_rank == 1
        assert inv.torsion_factors == (3,)

    def test_figure_eight_double_cover(self):
        inv = self.cover("braid:n=3:1 -2 1 -2", 2)
        assert inv.free_rank == 1
        assert inv.torsion_factors == (5,)

    def test_unknot_covers(self):
        for k in (2, 3, 5):
            inv = self.cover("braid:n=1:", k)
            assert inv.free_rank == 1
            assert inv.torsion_factors == ()

    def test_rejects_links(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1"))
        with pytest.raises(DiagramError):
            reidemeister_schreier(pres, phi, 2)

    def test_rejects_degree_one(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
        with pytest.raises(ValueError):
            reidemeister_schreier(pres, phi, 1)

    def test_against_full_rewriting_bundled(self, bundled_knots):
        # the orbit elimination against the k * g-column rewriting it
        # replaces, through k = 6 and 12, where the trefoil's resultant
        # vanishes
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in range(2, 13):
                assert reidemeister_schreier(pres, phi, k) == \
                    full_reidemeister_schreier(pres, phi, k), (name, k)

    def test_against_full_rewriting_random(self):
        from conftest import random_braid_knot
        from ribboncheck.linkcodec import braid_closure
        rng = random.Random(611)
        for _ in range(200):
            word = random_braid_knot(rng, max_strands=5, max_letters=12)
            pres, phi = wirtinger_presentation(braid_closure(word))
            for k in range(2, 13):
                assert reidemeister_schreier(pres, phi, k) == \
                    full_reidemeister_schreier(pres, phi, k), (word, k)

    def test_composite_degrees_against_full_rewriting(self):
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
        for k in (6, 12):
            inv = reidemeister_schreier(pres, phi, k)
            assert inv == full_reidemeister_schreier(pres, phi, k)
            assert inv == oracles.AbelianGroupInvariants(3, ())

    def test_smith_input_shrinks(self, bundled_knots, monkeypatch):
        # at the parent of the orbit elimination the largest input was
        # 49 x 45, all k * g columns
        shapes = []
        original = oracles.abelian_invariants

        def record(matrix, num_generators):
            shapes.append((len(matrix), num_generators))
            return original(matrix, num_generators)

        monkeypatch.setattr(oracles, "abelian_invariants", record)
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in (2, 3, 5):
                reidemeister_schreier(pres, phi, k)
                assert shapes[-1][1] < k * pres.num_generators, (name, k)
        assert max(r for r, _ in shapes) <= 19
        assert max(c for _, c in shapes) <= 15

    def test_large_degree(self, bundled_knots):
        # k = 45 took minutes with all k * g columns
        braid = "braid:n=3:" + " ".join(["1 -2"] * 7)
        start = time.perf_counter()
        inv = self.cover(braid, 45)
        assert time.perf_counter() - start < 1
        assert inv == oracles.AbelianGroupInvariants(
            1, (2,) * 8 + (125587574,) * 4)
        diagram = dict(bundled_knots)["8_8"]
        pres, phi = wirtinger_presentation(diagram)
        start = time.perf_counter()
        inv = reidemeister_schreier(pres, phi, 45)
        assert time.perf_counter() - start < 1
        assert cyclic_cover_check(alexander_polynomial(diagram), 45, inv)

    def test_rewriting_bookkeeping(self, bundled_knots):
        # raw Schreier rewriting multiplies the deficiency by the index
        for name, diagram in bundled_knots[:8]:
            pres, _ = wirtinger_presentation(diagram)
            for k in (2, 3):
                gens, rels = rewriting_sizes(pres, k)
                assert gens - rels == k * (pres.num_generators -
                                           len(pres.relators)), name


def _random_knots(seed, count):
    """`count` random braid knots on 3 or 4 strands, as presentations."""
    from conftest import random_braid_knot
    from ribboncheck.linkcodec import braid_closure
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        word = random_braid_knot(rng, max_strands=4, max_letters=12)
        if word.strands >= 3:
            knots.append((word, wirtinger_presentation(braid_closure(word))))
    return knots


def _unfolded_orbit(rel):
    """Generator -> {coset: coefficient} of a relator rewritten from
    coset 0 with integer cosets, every generator x1 included."""
    orbit, coset = {}, 0
    for gen, e in rel:
        if e == -1:
            coset -= 1
        entry = orbit.setdefault(gen, {})
        entry[coset] = entry.get(coset, 0) + e
        if e == 1:
            coset += 1
    return orbit


class TestRelatorModule:
    """The relator module over Z[t^+-1], built once per presentation and
    folded per degree, against the per-degree orbit route it replaced
    and the full rewriting."""

    DEGREES = list(range(2, 13)) + [20, 30, 45]

    def test_bundled_against_per_degree_and_full(self, bundled_knots):
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in self.DEGREES:
                inv = reidemeister_schreier(pres, phi, k)
                assert inv == per_degree_reidemeister_schreier(pres, phi, k) \
                    == full_reidemeister_schreier(pres, phi, k), (name, k)

    def test_random_against_per_degree_and_full(self):
        for word, (pres, phi) in _random_knots(1601, 200):
            for k in range(2, 9):
                inv = reidemeister_schreier(pres, phi, k)
                assert inv == per_degree_reidemeister_schreier(pres, phi, k) \
                    == full_reidemeister_schreier(pres, phi, k), (word, k)

    def test_fox_identity(self, bundled_knots):
        """
        Fox's fundamental formula, sum_j (dr/dx_j)(x_j - 1) = r - 1, with
        every x_j sent to t and r a relator: sum_j dr/dx_j = 0 in
        Z[t^+-1].  The unfolded orbit's entry at x_j is dr/dx_j, so the
        entries summed over all generators vanish at every coset; this
        is what makes x1's column redundant.
        """
        presentations = [wirtinger_presentation(diagram)
                         for _, diagram in bundled_knots]
        presentations += [pres for _, pres in _random_knots(1602, 200)]
        for pres, phi in presentations:
            for rel in pres.relators:
                orbit = _unfolded_orbit(rel)
                total = {}
                for gen, entry in orbit.items():
                    fox = {}
                    for word, c in fox_derivative(rel, gen).items():
                        e = sum(x for _, x in word)
                        fox[e] = fox.get(e, 0) + c
                    assert {c: v for c, v in entry.items() if v} == \
                        {e: c for e, c in fox.items() if c}, (rel, gen)
                    for c, v in entry.items():
                        total[c] = total.get(c, 0) + v
                assert not any(total.values()), rel

    def test_repeated_orbits(self):
        # a relator appended again, inverted or conjugated by x1 is +-t^a
        # times one already there: same module, same invariants
        pres, phi = wirtinger_presentation(parse_link_spec("braid:n=2:1 1 1"))
        plain = oracles._relator_module(pres, phi)
        rel = pres.relators[0]
        inverse = tuple((gen, -e) for gen, e in reversed(rel))
        conjugate = ((0, 1),) + rel + ((0, -1),)
        for extra in (rel, inverse, conjugate):
            more = type(pres)(pres.num_generators, pres.relators + (extra,))
            assert oracles._relator_module(more, phi) == plain
            for k in range(2, 13):
                assert reidemeister_schreier(more, phi, k) == \
                    reidemeister_schreier(pres, phi, k) == \
                    per_degree_reidemeister_schreier(more, phi, k), (extra, k)

    def test_one_module_per_request(self, capsys):
        from ribboncheck import cli
        oracles._relator_module.cache_clear()
        assert cli.main(["oracle-check", "braid:n=2:1 1 1",
                         "--covers", "2", "3", "5"]) == 0
        capsys.readouterr()
        info = oracles._relator_module.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_alternating_knots_get_their_own_module(self):
        oracles._relator_module.cache_clear()
        for spec in ("braid:n=2:1 1 1", "braid:n=3:1 -2 1 -2",
                     "braid:n=2:1 1 1"):
            pres, phi = wirtinger_presentation(parse_link_spec(spec))
            for k in (2, 3, 5, 6):
                assert reidemeister_schreier(pres, phi, k) == \
                    per_degree_reidemeister_schreier(pres, phi, k), (spec, k)
        assert oracles._relator_module.cache_info().misses == 3

    def test_no_transversal_rows(self, bundled_knots, monkeypatch):
        # with the k - 1 transversal rows and every orbit the largest
        # Smith input was 19 x 15
        shapes = []
        original = oracles.abelian_invariants

        def record(matrix, num_generators):
            shapes.append((len(matrix), num_generators))
            return original(matrix, num_generators)

        monkeypatch.setattr(oracles, "abelian_invariants", record)
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            for k in (2, 3, 5):
                reidemeister_schreier(pres, phi, k)
        assert len(shapes) == 3 * len(bundled_knots)
        assert max(r for r, _ in shapes) <= 15
        assert max(c for _, c in shapes) <= 11


class TestCoverOrderFormula:
    def test_trefoil_values(self):
        p = parse_poly("t^2 - t + 1", 1)
        assert cover_torsion_from_polynomial(p, 2) == 3
        assert cover_torsion_from_polynomial(p, 3) == 4
        assert cover_torsion_from_polynomial(p, 5) == 1

    def test_figure_eight_values(self):
        p = parse_poly("t^2 - 3*t + 1", 1)
        assert cover_torsion_from_polynomial(p, 2) == 5
        assert cover_torsion_from_polynomial(p, 3) == 16
        assert cover_torsion_from_polynomial(p, 5) == 121

    def test_trivial(self):
        one = parse_poly("1", 1)
        for k in (2, 3, 5):
            assert cover_torsion_from_polynomial(one, k) == 1

    def test_unit_shift_invariance(self):
        p = parse_poly("t^2 - t + 1", 1)
        shifted = p.shifted((-1,)) * -1
        for k in (2, 3, 5):
            assert cover_torsion_from_polynomial(shifted, k) == \
                cover_torsion_from_polynomial(p, k)

    def test_determinant_special_case(self, bundled_knots):
        # the 2-fold formula is |Delta(-1)|
        for name, diagram in bundled_knots:
            value = alexander_polynomial(diagram).value
            assert cover_torsion_from_polynomial(value, 2) == \
                abs(value.evaluate([-1])), name


def _sympy_cover_order(delta, k):
    """|Res(1 + t + ... + t^(k-1), Delta)| by sympy, Delta made a polynomial."""
    t = symbols("t")
    low = min(e for (e,) in delta.terms)
    g = Poly(sum(c * t ** (e - low) for (e,), c in delta.terms.items()), t)
    return abs(int(resultant(Poly(sum(t ** i for i in range(k)), t), g)))


def _random_cover_case(rng):
    """A nonzero one-variable Laurent polynomial and a degree k in 2..30."""
    k = rng.randint(2, 30)
    while True:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = rng.randint(-5, 15)
            terms[(e,)] = terms.get((e,), 0) + rng.randint(-9, 9)
        delta = LaurentPoly(1, terms)
        if not delta.is_zero():
            break
    divisors = [d for d in range(2, k + 1) if k % d == 0]
    if len(divisors) > 1 and rng.random() < 0.2:
        # a factor 1 + t + ... + t^(d-1) with d | k makes the order 0
        delta = delta * LaurentPoly(1, {(i,): 1 for i in
                                        range(rng.choice(divisors))})
    return delta * rng.choice([1, -1, 2, -3, 6]), k


class TestCoverOrderDifferential:
    def test_random_against_sylvester_and_sympy(self):
        rng = random.Random(0x5E5)
        zeros = 0
        for _ in range(3000):
            delta, k = _random_cover_case(rng)
            order = cover_torsion_from_polynomial(delta, k)
            assert order == sylvester_cover_order(delta, k) == \
                _sympy_cover_order(delta, k), (delta, k)
            zeros += order == 0
        assert zeros >= 300

    def test_bundled_knots_against_sylvester_and_sympy(self, bundled_knots):
        for name, diagram in bundled_knots:
            value = alexander_polynomial(diagram).value
            for k in list(range(2, 13)) + [20, 30, 45]:
                order = cover_torsion_from_polynomial(value, k)
                assert order == sylvester_cover_order(value, k) == \
                    _sympy_cover_order(value, k), (name, k)

    def test_errors(self):
        with pytest.raises(ValueError, match="one-variable polynomial"):
            cover_torsion_from_polynomial(parse_poly("t1 - t2", 2), 2)
        with pytest.raises(ValueError, match="zero polynomial"):
            cover_torsion_from_polynomial(LaurentPoly.zero(1), 2)
        with pytest.raises(ValueError, match="at least 2"):
            cover_torsion_from_polynomial(parse_poly("t^2 - t + 1", 1), 1)


class TestCyclicCoverAgreement:
    def test_trefoil_all_listed_degrees(self):
        d = parse_link_spec("braid:n=2:1 1 1")
        pres, phi = wirtinger_presentation(d)
        delta = alexander_polynomial(d)
        for k in (2, 3, 5):
            inv = reidemeister_schreier(pres, phi, k)
            assert cyclic_cover_check(delta, k, inv)

    def test_composite_degrees(self):
        # Phi_6 = Delta(3_1): the resultant vanishes at k = 6 and 12, and
        # the cover has free rank 3 instead of torsion of order 0
        trefoil = parse_link_spec("braid:n=2:1 1 1")
        pres, phi = wirtinger_presentation(trefoil)
        delta = alexander_polynomial(trefoil)
        for k in (6, 12):
            inv = reidemeister_schreier(pres, phi, k)
            assert cover_torsion_from_polynomial(delta.value, k) == 0
            assert inv.free_rank == 3 and inv.torsion_factors == ()
            assert cyclic_cover_check(delta, k, inv)
        fig8 = parse_link_spec("braid:n=3:1 -2 1 -2")
        pres8, phi8 = wirtinger_presentation(fig8)
        delta8 = alexander_polynomial(fig8)
        for k in (4, 6, 10):
            inv = reidemeister_schreier(pres8, phi8, k)
            assert cyclic_cover_check(delta8, k, inv), k
        for k in (2, 3, 5, 6, 12):
            inv = reidemeister_schreier(pres, phi, k)
            assert not cyclic_cover_check(delta8, k, inv), k

    def test_bundled_knots_at_large_degrees(self, bundled_knots):
        started = time.process_time()
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            delta = alexander_polynomial(diagram)
            for k in (20, 30, 45):
                inv = reidemeister_schreier(pres, phi, k)
                assert cyclic_cover_check(delta, k, inv), (name, k)
        assert time.process_time() - started < 5

    @pytest.mark.parametrize("name, k", [("8_4", 80), ("8_8", 100),
                                         ("9_6", 60), ("9_35", 100)])
    def test_former_dense_phase_cliff(self, bundled_knots, name, k):
        # the extended-gcd transforms of the former dense phase took from
        # 1.8 s (9_35) to minutes (8_4, 9_6) on the core that its sparse
        # phase left of these inputs
        diagram = dict(bundled_knots)[name]
        pres, phi = wirtinger_presentation(diagram)
        delta = alexander_polynomial(diagram)
        started = time.process_time()
        assert cyclic_cover_check(delta, k, reidemeister_schreier(pres, phi, k))
        assert time.process_time() - started < 2

    def test_bundled_knots_at_degree_60(self, bundled_knots):
        started = time.process_time()
        for name, diagram in bundled_knots:
            pres, phi = wirtinger_presentation(diagram)
            delta = alexander_polynomial(diagram)
            inv = reidemeister_schreier(pres, phi, 60)
            assert cyclic_cover_check(delta, 60, inv), name
        assert time.process_time() - started < 5

    def test_random_braid_knots(self):
        # the two computation routes share no code, so agreement across
        # random closures pins down every sign and orientation convention
        rng = random.Random(0xC0FE)
        from conftest import random_braid_knot
        from ribboncheck.linkcodec import braid_closure
        for _ in range(15):
            word = random_braid_knot(rng, max_strands=4, max_letters=9)
            d = braid_closure(word)
            pres, phi = wirtinger_presentation(d)
            delta = alexander_polynomial(d)
            for k in (2, 3):
                inv = reidemeister_schreier(pres, phi, k)
                assert cyclic_cover_check(delta, k, inv), word


class TestTorres:
    def test_hopf(self):
        report = torres_check(parse_link_spec("braid:n=2:1 1"))
        assert report.status == "pass"
        assert report.linking == 1

    def test_torus_2_4(self):
        report = torres_check(parse_link_spec("braid:n=2:1 1 1 1"))
        assert report.status == "pass"
        assert report.linking == 2

    def test_unlink_degenerate(self):
        report = torres_check(parse_link_spec("braid:n=2:"))
        assert report.status == "degenerate"
        assert report.linking == 0

    def test_negative_linking(self):
        report = torres_check(parse_link_spec("braid:n=2:-1 -1 -1 -1"))
        assert report.status == "pass"
        assert report.linking == -2

    def test_trefoil_with_meridian(self):
        # trefoil on strands 1-2, meridian-ish circle woven through once
        report = torres_check(parse_link_spec("braid:n=3:1 1 1 2 2"))
        assert report.status == "pass"

    def test_bundled_links(self, bundled_links):
        for name, diagram in bundled_links:
            report = torres_check(diagram)
            lk = report.linking
            assert report.status == ("degenerate" if lk == 0 else "pass"), name

    def test_rejects_knots(self):
        with pytest.raises(DiagramError):
            torres_check(parse_link_spec("braid:n=2:1 1 1"))

    def test_random_two_component_closures(self):
        from conftest import random_closure
        from ribboncheck.linkcodec import braid_closure, linking_number
        rng = random.Random(0x70FF)
        checked = 0
        while checked < 12:
            word = random_closure(rng, (2, 4), (2, 9))
            d = braid_closure(word)
            if d.num_components != 2 or linking_number(d, 0, 1) == 0:
                continue
            checked += 1
            assert torres_check(d).status == "pass", word
