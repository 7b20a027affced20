import importlib.util
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from ribboncheck import alexander, cli
from ribboncheck.alexander import (ComputationError, alexander_polynomial,
                                   determinant, module_rank, torsion_order)
from ribboncheck.foxcalc import AlexanderPresentation, PackedMatrix, \
    jacobian
from ribboncheck.laurent import LaurentPoly, canonical, divide_cells, \
    divides, gcd, parse_poly
from ribboncheck.linkcodec import BraidWord, braid_closure, connected_sum, \
    parse_braid, parse_link_spec, sublink
from ribboncheck.tables import knot_table, link_table
from ribboncheck.wirtinger import wirtinger_presentation

from conftest import random_braid_knot, random_closure, random_poly
from helpers import decoded, inverted_variables, spec as braid_spec
import laurent_reference
import pipeline_reference as reference


def presentation_from_rows(rows, nvars, ncols):
    matrix = tuple(tuple(row) for row in rows)
    return AlexanderPresentation.of(matrix, nvars, (0,) * ncols)


def laurent_form(pres):
    """
    The matrix decoded, the number of variables and the generators'
    components: what these tests compare presentations by, since an
    AlexanderPresentation compares by identity.
    """
    return decoded(pres), pres.nvars, pres.generator_component


def monomials(kernel):
    """
    A kernel of exponent vectors as the LaurentPoly monomials t^e that
    the replaced routes of pipeline_reference read; None stays None.
    """
    return kernel and tuple(LaurentPoly.monomial(1, e) for e in kernel)


def decoded_block(block):
    """
    The block with its matrix decoded and its kernel as monomials, for
    the decoded_* references.
    """
    return block._replace(matrix=decoded(block),
                          kernel=monomials(block.kernel))


def brute_force_rank(pres):
    """Largest k with a nonvanishing k x k minor, by full enumeration."""
    best = 0
    matrix = decoded(pres)
    rows_all = range(pres.num_relators)
    cols_all = range(pres.num_generators)
    for k in range(1, min(pres.num_relators, pres.num_generators) + 1):
        found = False
        for rows in combinations(rows_all, k):
            for cols in combinations(cols_all, k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
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

    def test_rejects_a_non_square_matrix(self):
        # with two-variable entries [[1, 1]] once gave 1 and [[1], [1]] 0
        one = LaurentPoly.one(2)
        for rows in ([[one, one]], [[one], [one]]):
            with pytest.raises(ValueError, match="non-square"):
                determinant(rows)

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
                sub = [[rows[i][j] for j in cert.pivot_columns]
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
                rows_kept = tuple(row for i, row in enumerate(decoded(A))
                                  if i != drop)
                sub = AlexanderPresentation.of(rows_kept, A.nvars,
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
            assert canonical(inverted_variables(value)) == value, name

    def test_link_symmetry(self, bundled_links):
        for name, diagram in bundled_links:
            value = alexander_polynomial(diagram).value
            assert canonical(inverted_variables(value)) == value, name

    def test_mirror_inverts_variable(self):
        rng = random.Random(2024)
        for _ in range(12):
            word = random_braid_knot(rng)
            d = alexander_polynomial(braid_closure(word)).value
            dm = alexander_polynomial(braid_closure(word.mirror())).value
            assert canonical(inverted_variables(d)) == dm

    def test_mirror_inverts_variables_for_links(self):
        for spec in ("braid:n=2:1 1 1 1", "braid:n=2:1 1 1 1 1 1",
                     "braid:n=3:1 1 1 2 2"):
            word = parse_braid(spec[6:])
            d = alexander_polynomial(braid_closure(word)).value
            dm = alexander_polynomial(braid_closure(word.mirror())).value
            assert canonical(inverted_variables(d)) == dm

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


def definition_delta(pres):
    """
    The torsion order by its definition on the matrix as given, with no
    reduction and no blocks: the gcd of all r x r minors, r the rank.
    """
    r = module_rank(pres).rank
    if r == 0:
        return LaurentPoly.one(pres.nvars)
    running, matrix = LaurentPoly.zero(pres.nvars), decoded(pres)
    for rows in combinations(range(pres.num_relators), r):
        for cols in combinations(range(pres.num_generators), r):
            d = determinant([[matrix[i][j] for j in cols] for i in rows])
            if not d.is_zero() and not (running and divides(running, d)):
                running = gcd(running, d)
    return canonical(running)


def fox_matrix(diagram):
    return jacobian(*wirtinger_presentation(diagram))


def split_union(*words):
    """The braid side by side: the closure is the split union of theirs."""
    letters, offset = [], 0
    for w in words:
        letters += [k + offset if k > 0 else k - offset for k in w.letters]
        offset += w.strands
    return BraidWord(offset, tuple(letters))


def random_braid(rng, max_strands, max_letters):
    n = rng.randint(1, max_strands)
    if n == 1:
        return BraidWord(1, ())
    return BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                              for _ in range(rng.randint(0, max_letters))))


class TestReducedAgainstDefinition:
    """Delta after reduction and blocks against the unreduced definition."""

    def check(self, diagram):
        A = fox_matrix(diagram)
        assert torsion_order(A).value == definition_delta(A), diagram
        # without its last relator no row is redundant, so a block that
        # lost a row would lose rank
        if A.num_relators:
            B = AlexanderPresentation.of(decoded(A)[:-1], A.nvars,
                                         A.generator_component)
            assert torsion_order(B).value == definition_delta(B), diagram

    def test_random_closures(self):
        rng = random.Random(8128)
        for _ in range(40):
            self.check(braid_closure(random_braid(rng, 4, 7)))

    def test_split_unions(self):
        rng = random.Random(6174)
        for _ in range(8):
            w1 = random_braid(rng, 3, 4)
            w2 = random_braid(rng, 3, 7 - len(w1.letters))
            self.check(braid_closure(split_union(w1, w2)))

    def test_bundled_pd_codes(self):
        for name, spec in knot_table() + link_table():
            if spec.startswith("pd:"):
                self.check(parse_link_spec(spec))


def random_knot_braid(rng, strands, low, high):
    """A random braid knot; an n-cycle has the parity of n - 1 letters."""
    crossings = rng.choice([c for c in range(low, high + 1)
                            if (c - strands + 1) % 2 == 0])
    while True:
        word = BraidWord(strands, tuple(
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(crossings)))
        if len(word.cycles()) == 1:
            return word


def reduced_burau_delta(word):
    """
    Delta of the closure of a braid knot from the reduced Burau
    representation psi, written with sympy: for a braid on n strands,
    det(I - psi(beta)) * (1 - t) / (1 - t^n) = Delta(t) up to a unit.
    Returns the coefficients of that polynomial, lowest degree first,
    stripped of powers of t and with a positive leading coefficient.

    psi(sigma_i) is the identity but for row i: t, -t, 1 in columns
    i - 1, i, i + 1 (those that exist).  t * psi(sigma_i)^-1 is t times
    the identity but for row i: t, -1, 1.  With m inverse letters,
    psi(beta) = t^-m P for a polynomial matrix P, and
    det(I - psi(beta)) = t^-m(n-1) det(t^m I - P), all over Z[t].
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]
    T = ring.convert(t)
    size = word.strands - 1

    def letter(k):
        diagonal = ring.one if k > 0 else T
        rows = [[diagonal if a == b else ring.zero for b in range(size)]
                for a in range(size)]
        i = abs(k) - 1
        row = (T, -T, ring.one) if k > 0 else (T, -ring.one, ring.one)
        for j, entry in zip((i - 1, i, i + 1), row):
            if 0 <= j < size:
                rows[i][j] = entry
        return DomainMatrix(rows, (size, size), ring)

    product = DomainMatrix.eye(size, ring)
    for k in word.letters:
        product = product * letter(k)
    m = sum(1 for k in word.letters if k < 0)
    det = (DomainMatrix.eye(size, ring) * T ** m - product).det()
    numer = sympy.Poly(ring.to_sympy(det) * (1 - t), t)
    quotient, remainder = sympy.div(numer, sympy.Poly(1 - t ** word.strands, t))
    assert remainder.is_zero
    coeffs = quotient.all_coeffs()[::-1]
    while coeffs[0] == 0:
        coeffs.pop(0)
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return [int(c) for c in coeffs]


def coefficient_list(value):
    """Coefficients of a canonical one-variable polynomial, lowest first."""
    top = max(e for (e,) in value.terms)
    return [value.terms.get((e,), 0) for e in range(top + 1)]


class TestBurauIdentity:
    """Delta of random braid knots against an independent route."""

    def test_burau_trefoil_and_figure_eight(self):
        assert reduced_burau_delta(parse_braid("n=2:1 1 1")) == [1, -1, 1]
        assert reduced_burau_delta(parse_braid("n=3:1 -2 1 -2")) == [1, -3, 1]

    def test_random_braid_knots(self):
        rng = random.Random(1729)
        for _ in range(20):
            word = random_knot_braid(rng, rng.randint(3, 5), 16, 24)
            value = alexander_polynomial(braid_closure(word)).value
            assert coefficient_list(value) == reduced_burau_delta(word), word


def embedded(value, offset, nvars):
    """A polynomial in t_1..t_k as one in t_{offset+1}..t_{offset+k} of nvars."""
    pad = nvars - offset - value.nvars
    return LaurentPoly(nvars, {(0,) * offset + e + (0,) * pad: c
                               for e, c in value.terms.items()})


class TestSplitUnions:
    """Split unions: Delta is the product of the pieces' Delta, per block."""

    PIECES = {"3_1": "n=2:1 1 1", "4_1": "n=3:1 -2 1 -2",
              "5_1": "n=2:1 1 1 1 1", "T(2,4)": "n=2:1 1 1 1"}

    def check(self, names, blocks):
        words = [parse_braid(self.PIECES[name]) for name in names]
        union = braid_closure(split_union(*words))
        result = alexander_polynomial(union)
        expected = LaurentPoly.one(union.num_components)
        offset = 0
        for word in words:
            piece = braid_closure(word)
            expected = expected * embedded(
                alexander_polynomial(piece).value, offset,
                union.num_components)
            offset += piece.num_components
        assert result.value == canonical(expected)
        assert len(result.source["blocks"]) == blocks
        assert {b["path"] for b in result.source["blocks"]} == {"shortcut"}
        return result

    def test_two_cinquefoils(self):
        result = self.check(("5_1", "5_1"), 2)
        assert result.value == (
            parse_poly("t1^4 - t1^3 + t1^2 - t1 + 1", 2) *
            parse_poly("t2^4 - t2^3 + t2^2 - t2 + 1", 2))
        assert delta("braid:n=4:1 1 1 1 1 3 3 3 3 3").value == result.value

    def test_three_components_eleven_crossings(self):
        self.check(("3_1", "3_1", "5_1"), 3)

    def test_five_components_fifteen_crossings(self):
        self.check(("3_1", "4_1", "4_1", "T(2,4)"), 4)


class TestReductionAndBlocks:
    def test_hand_built_matrices_against_the_definition(self):
        zero, one = LaurentPoly.zero(1), LaurentPoly.one(1)
        two = LaurentPoly.constant(2, 1)
        a, b = parse_poly("t + 1", 1), parse_poly("t^2 + 1", 1)
        diagonal = presentation_from_rows([[a, zero], [zero, b]], 1, 2)
        chain = presentation_from_rows([[a, two, zero], [zero, a, two]], 1, 3)
        # the unit pivot leaves the one-entry row [b - a]
        pivot = presentation_from_rows([[one, a], [one, b]], 1, 2)
        # diagram-shaped, but the row sets' minors a and b differ
        shaped = presentation_from_rows([[a, -a], [b, -b]], 1, 2)
        for pres, expected, blocks in (
                (diagonal, canonical(a * b), 2),
                (chain, one, 1),
                (pivot, parse_poly("t - 1", 1), 1),
                (shaped, one, 1)):
            result = torsion_order(pres)
            assert result.value == expected == definition_delta(pres)
            assert len(result.source["blocks"]) == blocks

    def test_blocks_in_source(self):
        a = delta("braid:n=2:1 1 1")
        assert a.source["blocks"] == [{"rows": 2, "columns": 2,
                                       "path": "shortcut"}]
        unlink = delta("braid:n=3:")
        assert [b["path"] for b in unlink.source["blocks"]] == ["rank0"] * 3

    def test_fallback_and_its_budget(self, monkeypatch):
        rows = [[parse_poly(p, 1) for p in ("t + 1", "t^2 - 1", "2*t + 2")],
                [parse_poly(p, 1) for p in ("2*t + 2", "2*t^2 - 2", "4*t + 4")]]
        pres = presentation_from_rows(rows, 1, 3)
        result = torsion_order(pres)
        assert result.value == parse_poly("t + 1", 1)
        assert result.source["blocks"] == [{"rows": 2, "columns": 3,
                                            "path": "fallback"}]
        # rank 1 on a 2x3 block: C(2,1) - 1 row-side and C(3,1) - 1
        # column-side minors besides the certificate's, 3 in all
        monkeypatch.setattr(alexander, "FALLBACK_MINOR_BUDGET", 2)
        with pytest.raises(ComputationError) as info:
            torsion_order(pres)
        assert "budget of 2" in str(info.value)
        assert "2x3" in str(info.value)


# 3- to 6-component closures whose Delta took the full-minor fallback,
# each with the paths of its blocks: the first enumerates the column
# side of the table of minors, the next three have blocks with two
# spare rows and take the shortcut, and the last three enumerate it
FALLBACK_SPECS = {
    "braid:n=7:4 2 1 1 -2 -2 -1 4 5 4 1 -3 -6 -3 2": ["fallback"],
    "braid:n=7:-1 -6 2 1 4 -6 -2 -6 -1 -2 -3": ["shortcut", "shortcut",
                                                 "rank0"],
    "braid:n=4:3 3 3 -3 -2 -3 2 3 2 1 3 -2 2": ["shortcut", "rank0"],
    "braid:n=7:-5 6 6 -4 -2 2 -3 -3 4 -2 -2": ["rank0", "shortcut", "rank0"],
    "braid:n=5:1 2 -1 -4 -2 -1 2 -2 -4 -2 2 2 4 -3 -4": ["fallback",
                                                         "rank0"],
    "braid:n=7:5 -4 -5 -5 6 -5 -6 1 -5 4 -5 -3 -2 1": ["fallback"],
    "braid:n=5:4 4 1 1 3 -2 1 -3 -3 3": ["fallback"]}


class TestAgainstReplacedLoops:
    """
    The sparse Fox rows, the reduction and the Bareiss routine on packed
    keys against the loops they replaced, kept in pipeline_reference
    (the Bareiss routine before laurent.mul_add, run through the block
    stage on decoded blocks): the same Jacobian entries, blocks, rank
    certificates and Delta.
    """

    def check(self, diagram, monkeypatch):
        pres, phi = wirtinger_presentation(diagram)
        A = jacobian(pres, phi)
        dense = reference.jacobian(pres, phi)
        assert laurent_form(A) == laurent_form(dense), diagram
        blocks = alexander._reduced_blocks(A)
        assert list(map(laurent_form, blocks)) == list(map(
            laurent_form, reference._reduced_blocks(A))), diagram
        certificates = [module_rank(b) for b in blocks]
        delta = torsion_order(A)
        with monkeypatch.context() as patch:
            patch.setattr(reference, "decoded_eliminate", reference._eliminate)
            patch.setattr(alexander, "_block_order",
                          reference.decoded_block_order)
            patch.setattr(alexander, "_reduced_blocks",
                          reference._reduced_blocks)
            assert certificates == [
                reference.decoded_module_rank(decoded_block(b))
                for b in blocks]
            old = torsion_order(A)
        assert delta.value == old.value, diagram
        assert delta.source == old.source, diagram
        return delta

    def test_random_closures(self, monkeypatch):
        rng = random.Random(2411)
        components = set()
        for _ in range(200):
            word = random_closure(rng, (2, 6), (1, 24), max_components=4)
            components.add(len(word.cycles()))
            self.check(braid_closure(word), monkeypatch)
        assert components == {1, 2, 3, 4}

    def test_bundled_diagrams(self, monkeypatch):
        for name, spec in knot_table() + link_table():
            self.check(parse_link_spec(spec), monkeypatch)

    def test_fallback_closures(self, monkeypatch):
        for spec, paths in FALLBACK_SPECS.items():
            delta = self.check(parse_link_spec(spec), monkeypatch)
            assert [b["path"] for b in delta.source["blocks"]] == paths

    def test_column_weights(self, monkeypatch):
        # one t_c - 1 a component, term for term (in order) what the
        # loop of monomial(...) - one gave every column; and the one
        # weight _block_order divides a shortcut block of two or more
        # components by, the same at the column q outside its certificate
        divisors, divide = [], alexander.exact_divide
        monkeypatch.setattr(alexander, "exact_divide", lambda p, d: (
            divisors.append(d) or divide(p, d)))
        rng = random.Random(2007)
        specs = [spec for _, spec in knot_table() + link_table()]
        specs += list(FALLBACK_SPECS)
        specs += [braid_spec(random_closure(rng, (2, 6), (1, 16)))
                  for _ in range(100)]
        nvars, divided = set(), 0
        for spec in specs:
            diagram = parse_link_spec(spec)
            pres, phi = wirtinger_presentation(diagram)
            A = jacobian(pres, phi)
            if diagram.kernel:
                A = A._replace(kernel=diagram.kernel)
            for block in alexander._reduced_blocks(A):
                weights = reference._column_weights(block)
                old = reference.column_weights(block)
                assert [(w.nvars, list(w.terms.items())) for w in weights] \
                    == [(w.nvars, list(w.terms.items())) for w in old], spec
                assert len(set(map(id, weights))) == len(
                    set(block.generator_component))
                nvars.add(block.nvars)
                divisors.clear()
                _, path = alexander._block_order(block)
                if path == "shortcut" and len(set(
                        block.generator_component)) > 1:
                    cert = (alexander._kernel_certificate(block)
                            or module_rank(block))
                    q = next(j for j in range(block.num_generators)
                             if j not in cert.pivot_columns)
                    k, = divisors
                    assert (k.nvars, list(k.terms.items())) == (
                        old[q].nvars, list(old[q].terms.items())), spec
                    divided += 1
        assert {1, 2, 3} <= nvars and divided > 20


def reference_delta(pres, monkeypatch):
    """torsion_order with the block order of pipeline_reference."""
    with monkeypatch.context() as patch:
        patch.setattr(alexander, "_block_order", reference._block_order)
        return torsion_order(pres)


class TestAgainstFullMinorGcd:
    """
    The block order from the rank-one table of minors against the one it
    replaced, kept in pipeline_reference: the shortcut behind
    _rows_agree's row check, else the gcd of all C(R,r) * C(G,r) minors.
    """

    def check(self, diagram, monkeypatch):
        A = fox_matrix(diagram)
        delta = torsion_order(A)
        assert delta.value == reference_delta(A, monkeypatch).value, diagram
        return delta

    def test_random_closures(self, monkeypatch):
        rng = random.Random(1729)
        paths = set()
        for _ in range(1500):
            word = random_closure(rng, (4, 8), (10, 18))
            delta = self.check(braid_closure(word), monkeypatch)
            paths.update(b["path"] for b in delta.source["blocks"])
        assert paths == {"rank0", "shortcut", "fallback"}

    def test_bundled_diagrams_and_fallback_closures(self, monkeypatch):
        specs = [spec for _, spec in knot_table() + link_table()]
        for spec in specs + list(FALLBACK_SPECS):
            self.check(parse_link_spec(spec), monkeypatch)

    def test_column_side_gives_the_closed_form(self, monkeypatch):
        # a block whose rows fail the Fox row relation enumerates the
        # column side; forced on every diagram-shaped block, that side
        # must give the same Delta
        specs = [spec for _, spec in knot_table() + link_table()]
        for spec in specs + list(FALLBACK_SPECS):
            A = fox_matrix(parse_link_spec(spec))
            delta = torsion_order(A)
            with monkeypatch.context() as patch:
                patch.setattr(alexander, "_row_relation_holds",
                              lambda *args: False)
                forced = torsion_order(A)
            assert forced.value == delta.value, spec
            assert {b["path"] for b in forced.source["blocks"]} <= {
                "rank0", "fallback"}, spec

    def test_hand_built_blocks(self):
        t = parse_poly("t", 1)
        zero = LaurentPoly.zero(1)
        a, b, c = 2 * t + 2, parse_poly("t^3 + t^2 + t + 1", 1), t - 1
        t1, t2 = parse_poly("t1", 2), parse_poly("t2", 2)
        u1, u2 = t1 - 1, t2 - 1
        f, g = parse_poly("t1^2 - t2", 2), parse_poly("t1*t2 + 3", 2)
        rng = random.Random(4)
        left = [[random_poly(rng, 1, 3, 2, 4) for _ in range(2)]
                for _ in range(4)]
        right = [[random_poly(rng, 1, 3, 2, 4) for _ in range(3)]
                 for _ in range(2)]
        product = [[sum((left[i][k] * right[k][j] for k in range(2)), zero)
                    for j in range(3)] for i in range(4)]
        cases = {
            # rank 1, zero minors on both sides of the table
            "zeros": ([[a, zero, b], [zero, zero, zero], [c * a, zero, c * b]],
                      1, None, "fallback"),
            "full rank": ([[a, b], [c, a * c]], 1, None, "fallback"),
            "full row rank": ([[a, b, c], [c, a, b]], 1, None, "fallback"),
            # rank 2 with two spare rows, not diagram-shaped
            "product": (product, 1, None, "fallback"),
            # one component, the Fox relation holds: two spare rows
            "spare rows": ([[a, -a], [b, -b], [c * b, -c * b]], 1, None,
                           "shortcut"),
            # the rows' minors a and b differ
            "shaped": ([[a, -a], [b, -b]], 1, None, "shortcut"),
            # two components, rows along (t2 - 1, -(t1 - 1))
            "two components": ([[f * u2, -f * u1], [g * u2, -g * u1]], 2,
                               (0, 1), "shortcut"),
            # rank 1 = G - 1, but the Fox relation fails: no closed form
            "no relation": ([[f * u2, f * u1], [g * u2, g * u1]], 2, (0, 1),
                            "fallback")}
        for name, (rows, nvars, comps, path) in cases.items():
            pres = AlexanderPresentation.of(tuple(map(tuple, rows)), nvars,
                                            comps or (0,) * len(rows[0]))
            value, got = alexander._block_order(pres)
            old, _ = reference._block_order(pres)
            assert canonical(value) == canonical(old) == \
                definition_delta(pres), name
            assert got == path, name

    def test_minors_evaluated_match_the_budget_count(self, monkeypatch):
        a, b = parse_poly("t + 1", 1), parse_poly("t^2 + 1", 1)
        # rank 1 on a 2x3 block: 1 row-side and 2 column-side minors;
        # on a diagram-shaped 3x2 block: 2 row-side minors
        fallback = [[a, a * (a - 2), 2 * a], [2 * a, 2 * a * (a - 2), 4 * a]]
        shortcut = [[a, -a], [a * b, -a * b], [2 * a, -2 * a]]
        calls = []
        minor = alexander._det

        def counted(*args):
            calls.append(args)
            return minor(*args)

        monkeypatch.setattr(alexander, "_det", counted)
        for rows, ncols, needed in ((fallback, 3, 3), (shortcut, 2, 2)):
            pres = presentation_from_rows(rows, 1, ncols)
            monkeypatch.setattr(alexander, "FALLBACK_MINOR_BUDGET", needed)
            expected = definition_delta(pres)  # its determinants call _det
            calls.clear()
            assert torsion_order(pres).value == expected
            assert len(calls) == needed
            monkeypatch.setattr(alexander, "FALLBACK_MINOR_BUDGET",
                                needed - 1)
            with pytest.raises(ComputationError):
                torsion_order(pres)


def same_output_module():
    """tools/same_output.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"
    spec = importlib.util.spec_from_file_location("same_output", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_output_closures():
    """
    FALLBACK_CLOSURES, SPARE_ROW_CLOSURES and CENSUS_FALLBACKS of
    tools/same_output.py.
    """
    module = same_output_module()
    return (module.FALLBACK_CLOSURES + module.SPARE_ROW_CLOSURES
            + module.CENSUS_FALLBACKS)


def blocks_and_delta(diagram, monkeypatch, orders=None):
    """
    The reduced blocks alexander_polynomial hands to _block_order, and
    the result; what _block_order returned is appended to orders if given.
    """
    blocks, block_order = [], alexander._block_order

    def recorded(block):
        blocks.append(block)
        order = block_order(block)
        if orders is not None:
            orders.append(order)
        return order

    with monkeypatch.context() as patch:
        patch.setattr(alexander, "_block_order", recorded)
        result = alexander_polynomial(diagram)
    return blocks, result


def laurent_blocks(diagram):
    """
    The reduced blocks of the LaurentPoly route kept in pipeline_reference,
    after asserting that jacobian's decoded matrix equals that route's.
    """
    pres, phi = wirtinger_presentation(diagram)
    A = reference.laurent_jacobian(pres, phi)
    new = jacobian(pres, phi)
    assert laurent_form(new) == laurent_form(A) and \
        [[e.terms for e in row] for row in decoded(new)] == \
        [[e.terms for e in row] for row in decoded(A)], diagram
    if diagram.kernel and len(diagram.kernel) == len(pres.relators):
        A = A._replace(kernel=monomials(diagram.kernel))
    return reference.laurent_reduced_blocks(A)


def assert_same_blocks(blocks, old, orders):
    """
    Blocks of the reduction on packed keys against the LaurentPoly
    route's: the same matrix, generator components and kernel (the old
    blocks' monomials), the same kernel certificate and Fox row
    relation, and, unless orders is None, from _block_order on the old
    blocks, packed anew with the new blocks' kernels, the (order, path)
    in orders.
    """
    assert list(map(laurent_form, blocks)) == list(map(laurent_form, old))
    assert [monomials(b.kernel) for b in blocks] == [b.kernel for b in old]
    for n, (block, ref) in enumerate(zip(blocks, old)):
        assert alexander._kernel_certificate(block) == \
            reference.laurent_kernel_certificate(ref)
        assert alexander._row_relation_holds(
            block.matrix, block.generator_component) == \
            reference._row_relation_holds(ref, reference._column_weights(ref))
        if orders is not None:
            assert alexander._block_order(AlexanderPresentation.of(
                ref.matrix, ref.nvars, ref.generator_component,
                block.kernel)) == orders[n]


def counting_module_rank(monkeypatch):
    """Count alexander.module_rank's calls from here on."""
    calls, module_rank = [], alexander.module_rank
    monkeypatch.setattr(alexander, "module_rank",
                        lambda pres: calls.append(pres) or module_rank(pres))
    return calls


class TestKernelCertificate:
    """
    The left kernel certificate of braid closures.  y * J = 0 holds
    exactly on each closure's full Jacobian, and Delta and every block's
    path equal those of minor_table_block_order, the block order the
    certificate bypasses, kept in pipeline_reference.
    """

    def check(self, diagram, monkeypatch, certified=None):
        if diagram.kernel is not None:
            J = fox_matrix(diagram)
            assert len(diagram.kernel) == J.num_relators
            y = [LaurentPoly.monomial(1, e) for e in diagram.kernel]
            assert all(len(e) == diagram.num_components
                       for e in diagram.kernel)
            zero = LaurentPoly.zero(J.nvars)
            for j in range(J.num_generators):
                assert sum((yi * row[j] for yi, row in zip(y, decoded(J))),
                           zero).is_zero(), diagram
        blocks, delta = blocks_and_delta(diagram, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(alexander, "_block_order",
                          reference.minor_table_block_order)
            old = alexander_polynomial(diagram)
        assert delta.value == old.value, diagram
        assert delta.source == old.source, diagram
        if certified is not None:
            for block, record in zip(blocks, delta.source["blocks"]):
                if alexander._kernel_certificate(block) is not None:
                    certified.append(block)
                    assert record["path"] == "shortcut"
        return delta

    def test_random_closures(self, monkeypatch):
        rng = random.Random(1818)
        components, certified, blocks = set(), [], 0
        for _ in range(800):
            word = random_closure(rng, (2, 8), (1, 24), max_components=6)
            components.add(len(word.cycles()))
            delta = self.check(braid_closure(word), monkeypatch, certified)
            blocks += sum(b["path"] != "rank0" for b in delta.source["blocks"])
        assert components == {1, 2, 3, 4, 5, 6}
        assert 0 < len(certified) < blocks
        assert any(len(set(b.generator_component)) > 1 for b in certified)

    def test_bundled_diagrams_and_split_unions(self, monkeypatch):
        for name, spec in knot_table() + link_table():
            self.check(parse_link_spec(spec), monkeypatch)
        pieces = [parse_braid(w) for w in TestSplitUnions.PIECES.values()]
        rng = random.Random(1819)
        for _ in range(12):
            words = rng.sample(pieces, 2) + [random_braid(rng, 4, 8)]
            self.check(braid_closure(split_union(*words)), monkeypatch)

    def test_same_output_closures(self, monkeypatch):
        certified = []
        for spec in same_output_closures():
            self.check(parse_link_spec(spec), monkeypatch, certified)
        assert certified

    def test_corrupted_kernel_takes_module_rank(self, monkeypatch):
        calls = counting_module_rank(monkeypatch)
        specs = ["braid:n=3:1 -2 1 -2", "braid:n=2:1 1 1 1",
                 "braid:n=4:1 1 1 1 1 3 3 3 3 3"] + list(FALLBACK_SPECS)[1:4]
        corrupted = 0
        for spec in specs:
            blocks, _ = blocks_and_delta(parse_link_spec(spec), monkeypatch)
            for block in blocks:
                if alexander._kernel_certificate(block) is None:
                    continue
                value, path = alexander._block_order(block)
                y, h = block.kernel, block.matrix.bound
                # each vector shifted by t1, the wrong length, the wrong
                # variable count, an entry past h
                wrongs = [y[:i] + ((e[0] + 1,) + e[1:],) + y[i + 1:]
                          for i, e in enumerate(y)]
                past = (h + 1,) + y[0][1:]
                for kernel in wrongs + [y[:-1], y + y[:1],
                                        tuple(e + (0,) for e in y),
                                        tuple(e[:-1] for e in y),
                                        (past,) + y[1:]]:
                    bad = block._replace(kernel=kernel)
                    assert alexander._kernel_certificate(bad) is None
                    calls.clear()
                    got, got_path = alexander._block_order(bad)
                    assert len(calls) == 1, spec
                    assert canonical(got) == canonical(value), spec
                    assert got_path == path, spec
                    corrupted += 1
        assert corrupted >= 20
        # on the full Jacobian: a wrong entry of an eliminated row drops
        # out of every block's kernel, any other one fails its check
        d = parse_link_spec("braid:n=3:1 -2 1 -2")
        expected = alexander_polynomial(d)
        calls.clear()
        for i in range(d.num_crossings):
            exps = tuple(x + 1 for x in d.kernel[i])
            kernel = d.kernel[:i] + (exps,) + d.kernel[i + 1:]
            result = alexander_polynomial(d._replace(kernel=kernel))
            assert result.value == expected.value
            assert result.source == expected.source
        assert 0 < len(calls) < d.num_crossings
        # a kernel of the wrong length is not attached at all, and one in
        # the wrong number of variables fails the check
        for kernel in (d.kernel[:-1], tuple((0, 0) for _ in d.kernel)):
            calls.clear()
            result = alexander_polynomial(d._replace(kernel=kernel))
            assert result.value == expected.value and len(calls) == 1

    def test_kernel_of_the_wrong_length_is_refused(self, monkeypatch):
        # a kernel is taken only with one vector per row: a short one
        # once raised IndexError, a long one was cut to the block's rows
        t1, t2 = (LaurentPoly.variable(i, 2) for i in (0, 1))
        rows = ((t2 - 1, 1 - t1), (1 - t2, t1 - 1))
        calls = counting_module_rank(monkeypatch)
        for kernel in (((0, 0),), ((0, 0),) * 3):
            result = torsion_order(
                AlexanderPresentation.of(rows, 2, (0, 1), kernel=kernel))
            assert result.value == LaurentPoly.one(2)
            assert result.source == {
                "generators": 2, "relators": 2,
                "blocks": [{"rows": 2, "columns": 2, "path": "shortcut"}]}
        assert len(calls) == 2

    def test_hand_built_kernels_the_check_refuses(self):
        # only y = (g, -f), no monomials, kills both rows: the minors'
        # gcd is 1, not the one minor f * (t2 - 1) divided by t2 - 1,
        # and y = (1, t1) leaves (g * t1 + f) * (t2 - 1, -(t1 - 1))
        f, g = parse_poly("t1^2 - t2", 2), parse_poly("t1*t2 + 3", 2)
        u1, u2 = parse_poly("t1 - 1", 2), parse_poly("t2 - 1", 2)
        no_kernel = AlexanderPresentation.of(
            ((f * u2, -f * u1), (g * u2, -g * u1)), 2, (0, 1),
            ((0, 0), (1, 0)))
        # y = (1, 1) kills both rows, but the Fox row relation fails
        a, two = parse_poly("t + 1", 1), LaurentPoly.constant(2, 1)
        no_relation = AlexanderPresentation.of(((a, two), (-a, -two)), 1,
                                               (0, 0), ((0,), (0,)))
        for block, path in ((no_kernel, "shortcut"),
                            (no_relation, "fallback")):
            assert alexander._kernel_certificate(block) is None
            value, got = alexander._block_order(block)
            assert canonical(value) == definition_delta(block) == \
                LaurentPoly.one(block.nvars)
            assert got == path

    def test_pd_and_sublink_diagrams_carry_no_kernel(self, monkeypatch):
        for name, spec in knot_table():
            if spec.startswith("pd:"):
                d = parse_link_spec(spec)
                assert d.kernel is None, name
                blocks, _ = blocks_and_delta(d, monkeypatch)
                assert all(b.kernel is None for b in blocks), name
        for name, spec in link_table():
            d = parse_link_spec(spec)
            assert d.kernel is not None
            for c in range(d.num_components):
                assert sublink(d, c).kernel is None, name
        assert fox_matrix(parse_link_spec("braid:n=2:1 1 1")).kernel is None

    def test_census_block_of_rank_six_gets_c_zero(self, monkeypatch):
        spec = list(TestCensusFallbacks.CASES)[0]
        blocks, delta = blocks_and_delta(parse_link_spec(spec), monkeypatch)
        block = blocks[0]
        assert (block.num_relators, block.num_generators) == (8, 8)
        zero = LaurentPoly.zero(block.nvars)
        for j in range(8):  # the certificate holds, yet c = 0
            assert sum((yi * row[j] for yi, row in
                        zip(monomials(block.kernel), decoded(block))),
                       zero).is_zero()
        assert alexander._det(block.matrix, range(7), range(7)).is_zero()
        assert alexander._kernel_certificate(block) is None
        assert module_rank(block).rank == 6
        assert delta.source["blocks"][0]["path"] == "fallback"
        assert delta.text == TestCensusFallbacks.CASES[spec][0]

    def test_module_rank_calls(self, monkeypatch):
        calls = counting_module_rank(monkeypatch)
        assert str(delta("braid:n=3:1 -2 1 -2")) == "t^2 - 3*t + 1"
        assert len(calls) == 0
        figure_eight = "pd:X(4,2,5,1);X(8,6,1,5);X(6,3,7,4);X(2,7,3,8)"
        assert str(delta(figure_eight)) == "t^2 - 3*t + 1"
        assert len(calls) == 1


class TestNoLaurentPolyBeforeTheBlocks:
    """
    No LaurentPoly is built from alexander_polynomial's entry to
    torsion_order's, nor inside _reduced_blocks: the kernel stays the
    diagram's exponent vectors, and the Jacobian and its reduction run on
    packed keys.  Counted as calls of LaurentPoly.__init__ and
    LaurentPoly._make; the rest of torsion_order, the block stage, is
    counted too, to show that the counters see what is built.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"before": 0, "reduction": 0, "blocks": 0}
        stage = [None]
        init, make = LaurentPoly.__init__, LaurentPoly.__dict__["_make"]
        torsion, reduce = alexander.torsion_order, alexander._reduced_blocks

        def counted_init(self, *args):
            if stage[0]:
                counts[stage[0]] += 1
            init(self, *args)

        def counted_make(cls, *args):
            if stage[0]:
                counts[stage[0]] += 1
            return make.__func__(cls, *args)

        def entered_torsion(*args):
            stage[0] = "blocks"
            return torsion(*args)

        def reduction(*args):
            stage[0] = "reduction"
            try:
                return reduce(*args)
            finally:
                stage[0] = "blocks"

        monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
        monkeypatch.setattr(LaurentPoly, "_make", classmethod(counted_make))
        monkeypatch.setattr(alexander, "torsion_order", entered_torsion)
        monkeypatch.setattr(alexander, "_reduced_blocks", reduction)

        def run(diagram):
            stage[0] = "before"
            try:
                return alexander_polynomial(diagram)
            finally:
                stage[0] = None

        counts["run"] = run
        return counts

    def test_braid_closures_and_pd_knots(self, counts):
        rng = random.Random(3030)
        components, certified = set(), 0
        for _ in range(150):
            word = random_closure(rng, (2, 7), (1, 20), max_components=5)
            components.add(len(word.cycles()))
            delta = counts["run"](braid_closure(word))
            certified += any(b["path"] == "shortcut"
                             for b in delta.source["blocks"])
        pd_knots = [spec for _, spec in knot_table() if spec.startswith("pd:")]
        for spec in pd_knots:
            counts["run"](parse_link_spec(spec))
        assert components == {1, 2, 3, 4, 5} and certified > 50
        assert pd_knots and counts["blocks"] > 0
        assert (counts["before"], counts["reduction"]) == (0, 0)


class TestAgainstMonomialKernel:
    """
    The kernel as exponent vectors against the form it replaced, kept in
    pipeline_reference: on the same reduced blocks, with the kernel
    turned into monomials, monomial_kernel_certificate and
    monomial_block_order give the same certificate (rank, rows, columns,
    minor), order and path as _kernel_certificate and _block_order.
    """

    def check(self, diagram, monkeypatch, tally):
        orders = []
        blocks, _ = blocks_and_delta(diagram, monkeypatch, orders)
        for block, order in zip(blocks, orders):
            old = block._replace(kernel=monomials(block.kernel))
            cert = alexander._kernel_certificate(block)
            assert cert == reference.monomial_kernel_certificate(old), diagram
            assert order == reference.monomial_block_order(old), diagram
            if cert is not None:
                tally.add(len(set(block.generator_component)) > 1)

    def test_random_closures(self, monkeypatch):
        rng = random.Random(3031)
        components, tally = set(), set()
        for _ in range(300):
            word = random_closure(rng, (2, 8), (1, 22), max_components=6)
            components.add(len(word.cycles()))
            self.check(braid_closure(word), monkeypatch, tally)
        assert components == set(range(1, 7))
        assert tally == {False, True}

    def test_same_output_closures(self, monkeypatch):
        module = same_output_module()
        tally = set()
        for spec in (same_output_closures() + module.SHORTCUT_CLOSURES
                     + (module.SLOW_SHORTCUT,)):
            self.check(parse_link_spec(spec), monkeypatch, tally)
        assert True in tally


class TestAgainstGuardedClosedForm:
    """
    The column side of a diagram-shaped block by Cramer's rule alone
    against guarded_block_order, the block order that checked it by one
    guard minor, kept in pipeline_reference.  A diagram's reduced blocks
    run with their kernel and, if one passes _kernel_certificate,
    without it, so that both the certificate's and module_rank's row
    side run: the same order and path on each block, the guard never
    disagreeing, and exactly one minor fewer on each diagram-shaped
    block.  The same reduction's blocks and orders are checked against
    the LaurentPoly route kept in pipeline_reference (assert_same_blocks).
    """

    def check(self, diagram, monkeypatch, tally):
        orders = []
        blocks, delta = blocks_and_delta(diagram, monkeypatch, orders)
        # the same blocks and orders on the LaurentPoly route
        assert_same_blocks(blocks, laurent_blocks(diagram), orders)
        variants = [blocks]
        # without a certificate the kernel changes nothing
        if any(alexander._kernel_certificate(b) for b in blocks):
            variants.append([b._replace(kernel=None) for b in blocks])
        for variant in variants:
            new = old = LaurentPoly.one(delta.nvars)
            for block in variant:
                tally["minors"].clear()
                value, path = alexander._block_order(block)
                minors = len(tally["minors"])
                tally["minors"].clear()
                guards = tally["guards"]
                old_value, old_path = reference.guarded_block_order(block)
                assert canonical(value) == canonical(old_value), diagram
                assert path == old_path, diagram
                assert len(tally["minors"]) - minors == (
                    path == "shortcut"), diagram
                assert tally["guards"] - guards == (path == "shortcut")
                assert not tally["disagreed"], diagram
                tally["paths"].add((path, block.kernel is not None,
                                    len(set(block.generator_component))
                                    > 1))
                new, old = new * value, old * old_value
            assert canonical(new) == canonical(old) == delta.value, diagram

    @pytest.fixture
    def tally(self, monkeypatch):
        """
        Count the minors taken, alexander's _det calls and
        pipeline_reference's _minor calls, and _closed_form's disagreeing
        guards.
        """
        tally = {"minors": [], "guards": 0, "disagreed": 0,
                 "paths": set()}
        closed_form = reference._closed_form

        def counting(minor):
            def counted(*args):
                tally["minors"].append(args)
                return minor(*args)
            return counted

        def guarded(*args):
            k = closed_form(*args)
            tally["guards"] += 1
            tally["disagreed"] += k is None
            return k

        monkeypatch.setattr(alexander, "_det", counting(alexander._det))
        monkeypatch.setattr(reference, "_minor", counting(reference._minor))
        monkeypatch.setattr(reference, "_closed_form", guarded)
        return tally

    def test_random_closures(self, monkeypatch, tally):
        rng = random.Random(19)
        components = set()
        for _ in range(1000):
            word = random_closure(rng, (2, 8), (1, 22))
            components.add(len(word.cycles()))
            self.check(braid_closure(word), monkeypatch, tally)
        assert components == set(range(1, 9))
        # shortcut blocks of one and of several components, both routes
        assert {("shortcut", k, m) for k in (True, False)
                for m in (True, False)} <= tally["paths"]
        assert any(p == "fallback" and m for p, _, m in tally["paths"])

    def test_bundled_diagrams(self, monkeypatch, tally):
        for name, spec in knot_table() + link_table():
            self.check(parse_link_spec(spec), monkeypatch, tally)

    def test_same_output_closures(self, monkeypatch, tally):
        module = same_output_module()
        for spec in (module.FALLBACK_CLOSURES + module.SPARE_ROW_CLOSURES
                     + module.CENSUS_FALLBACKS + module.SHORTCUT_CLOSURES
                     + (module.SLOW_SHORTCUT,)):
            self.check(parse_link_spec(spec), monkeypatch, tally)

    def test_corrupted_row_side_raises(self, monkeypatch, capsys):
        # a two-component link whose one 2 x 2 block is diagram-shaped and
        # carries a kernel certificate: c + 1 is not divisible by w_q, on
        # either route, and the fault must surface, not yield a Delta
        spec = "braid:n=2:1 1 1 1"
        d = parse_link_spec(spec)
        assert str(alexander_polynomial(d)) == "t1*t2 + 1"
        certificate, rank = alexander._kernel_certificate, module_rank

        def corrupt(cert):
            return cert and cert._replace(minor=cert.minor + LaurentPoly.one(
                cert.minor.nvars))

        for patches in (
                {"_kernel_certificate": lambda b: corrupt(certificate(b))},
                {"_kernel_certificate": lambda b: None,
                 "module_rank": lambda b: corrupt(rank(b))}):
            with monkeypatch.context() as patch:
                for name, wrong in patches.items():
                    patch.setattr(alexander, name, wrong)
                with pytest.raises(ComputationError, match="rank-one"):
                    alexander_polynomial(d)
                capsys.readouterr()
                assert cli.main(["compute", spec]) == 3
                out, err = capsys.readouterr()
                assert out == "" and "rank-one identity" in err


def unit_inverse(u):
    (exps, coeff), = u.terms.items()
    return LaurentPoly.monomial(coeff, tuple(-e for e in exps))


class TestPackedKeys:
    """
    The reduction and the kernel certificate's checks on packed exponent
    keys (foxcalc.PackedMatrix) against the LaurentPoly route kept in
    pipeline_reference, on PD codes and hand-built matrices, and at the
    edges of the packing's radius.
    """

    def check(self, pres, orders=True):
        blocks = alexander._reduced_blocks(pres)
        assert_same_blocks(blocks, reference.laurent_reduced_blocks(
            pres._replace(kernel=monomials(pres.kernel))),
            [alexander._block_order(b) for b in blocks] if orders else None)
        return blocks

    def test_pd_twins_of_the_same_output_closures(self, monkeypatch):
        module = same_output_module()
        twins = module.pd_twins(
            same_output_closures() + module.SHORTCUT_CLOSURES
            + (module.SLOW_SHORTCUT,))
        assert len(twins) == 35
        for spec in twins:
            orders = []
            diagram = parse_link_spec(spec)
            blocks, _ = blocks_and_delta(diagram, monkeypatch, orders)
            assert_same_blocks(blocks, laurent_blocks(diagram), orders)

    def test_hand_built_matrices(self):
        # Jacobians of closures of 1-5 components with each row times a
        # monomial t^s of exponents up to 1,000 in absolute value and the
        # kernel's vector minus s, so that the Fox row relation and y * B
        # = 0 hold (a kernel of exponent vectors holds no sign to flip);
        # then sparse matrices of units and of units times short sums,
        # whose orders' gcds would run on spans of thousands
        rng = random.Random(2424)
        nvars, certified = set(), 0
        for _ in range(120):
            word = random_closure(rng, (2, 6), (1, 10), max_components=5)
            diagram = braid_closure(word)
            pres, phi = wirtinger_presentation(diagram)
            A = reference.laurent_jacobian(pres, phi)
            shifts = [tuple(rng.randint(-1000, 1000) for _ in range(A.nvars))
                      for _ in A.matrix]
            blocks = self.check(AlexanderPresentation.of(
                tuple(tuple(LaurentPoly.monomial(1, s) * e for e in row)
                      for s, row in zip(shifts, A.matrix)),
                A.nvars, A.generator_component,
                tuple(tuple(x - a for x, a in zip(e, s))
                      for e, s in zip(diagram.kernel, shifts))))
            certified += sum(alexander._kernel_certificate(b) is not None
                             for b in blocks)
            nvars.add(A.nvars)
        assert nvars == {1, 2, 3, 4, 5} and certified > 20
        for _ in range(300):
            m = rng.randint(1, 5)
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)

            def entry():
                u = LaurentPoly.monomial(rng.choice((1, -1)), tuple(
                    rng.randint(-1000, 1000) for _ in range(m)))
                kind = rng.random()
                if kind < 0.4:
                    return LaurentPoly.zero(m)
                return u if kind < 0.8 else u * random_poly(rng, m, 3, 1, 3)

            self.check(AlexanderPresentation.of(
                tuple(tuple(entry() for _ in range(ncols))
                      for _ in range(nrows)),
                m, tuple(rng.randrange(m) for _ in range(ncols))), False)

    def test_schur_entries_reach_the_radius(self):
        # one pivot, u, and a row of constants: the bound h is 2 * s, the
        # radius 2h, and the one entry left is -6 u^-2 = -6 t1^2s t2^-2s
        # t3^2s, at h
        s = 500
        u = parse_poly("t1^-%d*t2^%d*t3^-%d" % (s, s, s), 3)
        zero, three = LaurentPoly.zero(3), LaurentPoly.constant(3, 3)
        five = LaurentPoly.constant(5, 3)
        pres = AlexanderPresentation.of(
            ((u, 2 * unit_inverse(u), zero), (three, zero, five)), 3,
            (0, 1, 2))
        block, = self.check(pres)
        assert block.matrix.radius == 4 * s and block.matrix.bound == 2 * s
        expected = parse_poly("-6*t1^%d*t2^-%d*t3^%d" % (2 * s, 2 * s, 2 * s),
                              3)
        assert decoded(block) == ((expected, five),)
        assert block.generator_component == (1, 2)

    def test_check_radius_is_tight(self):
        # B = (f_i * (t2 - 1, -(t1 - 1)))_i holds the Fox row relation,
        # and y * B = (t1 * f0 + t1^-1 * f1) * (t2 - 1, -(t1 - 1)): 0 for
        # f1 = -t1^3, but t1^2 - t1^-3 * t2 for f1 = -t1^-2 * t2.  The
        # entries of the second B lie within 2 and y within 1, so at
        # radius 4 (h = 2) every exponent of y_i * B_ij, at most 3, has a
        # key of its own; at radius 2, a radix of 5, t1^2 and t1^-3 * t2
        # share the key 2, and the wrong y passes
        t1, t2 = parse_poly("t1", 2), parse_poly("t2", 2)
        one = LaurentPoly.one(2)
        y = ((1, 0), (-1, 0))
        for f1, certified in ((-t1 ** 3, True),
                              (-parse_poly("t1^-2*t2", 2), False)):
            block = AlexanderPresentation.of(
                ((t1 * (t2 - one), -t1 * (t1 - one)),
                 (f1 * (t2 - one), -f1 * (t1 - one))), 2, (0, 1), y)
            assert (alexander._kernel_certificate(block) is not None) \
                == certified
        assert block.matrix.radius == 2 * 2 * (2 + 2)
        for radius, certified in ((4, False), (2, True)):
            narrow = block._replace(matrix=PackedMatrix.pack(
                decoded(block), 2, 2, radius))
            assert (alexander._kernel_certificate(narrow) is not None) \
                == certified
        assert narrow.matrix.key((2, 0)) == narrow.matrix.key((-3, 1))

    def test_kernel_past_the_radius_is_refused(self, monkeypatch):
        # y = (t1^3, t1^-3) on B = (f_i * (t2 - 1, -(t1 - 1)))_i, f0 = 1
        # and f1 = -t1^-1 * t2: y * B has t1^3 - t1^-4 * t2.  Packed on
        # its own, h = 2 * (1 + 2) covers the kernel, and the check
        # refuses the wrong y; packed at radius 4 (h = 2, its entries'
        # bound), B takes no kernel of 3 at all
        t1, t2 = parse_poly("t1", 2), parse_poly("t2", 2)
        one, f1 = LaurentPoly.one(2), -parse_poly("t1^-1*t2", 2)
        block = AlexanderPresentation.of(
            ((t2 - one, one - t1), (f1 * (t2 - one), -f1 * (t1 - one))), 2,
            (0, 1), ((3, 0), (-3, 0)))
        assert alexander._kernel_certificate(block) is None
        assert block.matrix.radius == 2 * 2 * (1 + 2)
        narrow = block._replace(matrix=PackedMatrix.pack(
            decoded(block), 2, 2, 4))
        assert alexander._kernel_certificate(narrow) is None
        # a reduced block's kernel moved by t1^R / t2, R the radix of its
        # keys, packs to the same keys: it lies past h and is refused
        calls = counting_module_rank(monkeypatch)
        blocks, _ = blocks_and_delta(parse_link_spec("braid:n=2:1 1 1 1"),
                                     monkeypatch)
        block, = blocks
        value, path = alexander._block_order(block)
        radix = 2 * block.matrix.radius + 1
        y = block.kernel
        shifted = (y[0][0] + radix, y[0][1] - 1)
        bad = block._replace(kernel=(shifted,) + y[1:])
        assert block.matrix.key((radix, -1)) == 0
        assert alexander._kernel_certificate(bad) is None
        calls.clear()
        got, got_path = alexander._block_order(bad)
        assert len(calls) == 1
        assert (canonical(got), got_path) == (canonical(value), path)


def decoded_block_check(blocks, orders=None):
    """
    Each block's (order, path), from orders if given (what _block_order
    returned on it), and module_rank's and _kernel_certificate's rank
    certificates (rank, rows, columns and minor), against the block
    stage on decoded blocks kept in pipeline_reference.
    """
    if orders is None:
        orders = [alexander._block_order(block) for block in blocks]
    old = list(map(decoded_block, blocks))
    assert orders == list(map(reference.decoded_block_order, old))
    for block, ref in zip(blocks, old):
        assert module_rank(block) == reference.decoded_module_rank(ref)
        assert alexander._kernel_certificate(block) == \
            reference.decoded_kernel_certificate(ref)


class TestAgainstDecodedBlocks:
    """
    The block stage on packed keys (_eliminate on PackedMatrix rows)
    against the one it replaced, on decoded LaurentPoly blocks, kept in
    pipeline_reference: the same order and path of every reduced block,
    the same rank certificates and Delta, and the same determinants.
    """

    def check(self, diagram, monkeypatch):
        # Delta is the canonical product of these orders, and its source
        # the shapes and paths of these blocks
        orders = []
        blocks, _ = blocks_and_delta(diagram, monkeypatch, orders)
        decoded_block_check(blocks, orders)
        return orders

    def test_bundled_diagrams(self, monkeypatch):
        for name, spec in knot_table() + link_table():
            self.check(parse_link_spec(spec), monkeypatch)

    def test_same_output_closures_and_their_pd_twins(self, monkeypatch):
        module = same_output_module()
        specs = (same_output_closures() + module.SHORTCUT_CLOSURES
                 + (module.SLOW_SHORTCUT,))
        for spec in specs + module.pd_twins(specs):
            self.check(parse_link_spec(spec), monkeypatch)

    def test_random_closures_and_sublinks(self, monkeypatch):
        rng = random.Random(2525)
        components, sublinks, paths = set(), 0, set()
        for _ in range(1000):
            word = random_closure(rng, (2, 8), (1, 20))
            diagram = braid_closure(word)
            components.add(diagram.num_components)
            paths.update(path for _, path in self.check(diagram, monkeypatch))
            if diagram.num_components > 1 and rng.random() < 0.25:
                self.check(sublink(diagram, rng.randrange(
                    diagram.num_components)), monkeypatch)
                sublinks += 1
        assert components == set(range(1, 9)) and sublinks > 100
        assert paths == {"rank0", "shortcut", "fallback"}

    def test_hand_built_matrices(self):
        # small random entries times a unit for each row and each column,
        # of exponents up to 1,000 in absolute value, so that every minor
        # is a unit times a small one; some rows empty, some the sum of
        # multiples of others (rank deficient); then the blocks of the
        # Jacobians of closures with each row times a monomial t^s, which
        # carry their kernel's vectors minus s
        rng = random.Random(2526)
        nvars, deficient, empty = set(), 0, 0

        def unit(m):
            return LaurentPoly.monomial(rng.choice((1, -1)), tuple(
                rng.randint(-1000, 1000) for _ in range(m)))

        for _ in range(200):
            m = rng.randint(1, 5)
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            zero = LaurentPoly.zero(m)
            small = [[zero if rng.random() < 0.3 else
                      random_poly(rng, m, 2, 1, 4) for _ in range(ncols)]
                     for _ in range(nrows)]
            if nrows > 2 and rng.random() < 0.4:
                a, b = (random_poly(rng, m, 2, 1, 2) for _ in range(2))
                small[-1] = [a * x + b * y
                             for x, y in zip(small[0], small[1])]
            if rng.random() < 0.2:
                small[rng.randrange(nrows)] = [zero] * ncols
                empty += 1
            us, vs = [unit(m) for _ in small], [unit(m) for _ in small[0]]
            rows = tuple(tuple(u * v * x for v, x in zip(vs, row))
                         for u, row in zip(us, small))
            pres = AlexanderPresentation.of(rows, m, tuple(
                rng.randrange(m) for _ in range(ncols)))
            cert = module_rank(pres)
            assert cert == reference.decoded_module_rank(decoded_block(pres))
            deficient += cert.rank < min(nrows, ncols)
            assert alexander._block_order(pres) == \
                reference.decoded_block_order(decoded_block(pres))
            decoded_block_check(alexander._reduced_blocks(pres))
            n = min(nrows, ncols)
            square = [row[:n] for row in rows[:n]]
            assert determinant(square) == \
                reference.decoded_determinant(square)
            nvars.add(m)
        assert nvars == {1, 2, 3, 4, 5} and deficient > 20 and empty > 20
        certified = 0
        for _ in range(100):
            word = random_closure(rng, (2, 6), (1, 10), max_components=5)
            diagram = braid_closure(word)
            A = fox_matrix(diagram)
            rows = decoded(A)
            shifts = [tuple(rng.randint(-1000, 1000) for _ in range(A.nvars))
                      for _ in rows]
            blocks = alexander._reduced_blocks(AlexanderPresentation.of(
                tuple(tuple(LaurentPoly.monomial(1, s) * e for e in row)
                      for s, row in zip(shifts, rows)),
                A.nvars, A.generator_component,
                tuple(tuple(x - a for x, a in zip(e, s))
                      for e, s in zip(diagram.kernel, shifts))))
            decoded_block_check(blocks)
            certified += sum(alexander._kernel_certificate(b) is not None
                             for b in blocks)
        assert certified > 20


class TestPackedBareiss:
    """
    The exactness of _eliminate and laurent.divide_cells on packed keys:
    numerators at the radius, quotients at the bound h, and inexact
    divisions.
    """

    def test_numerators_reach_the_radius(self):
        # one unit pivot u = t1^-s * t2 whose row holds t1^s, above three
        # rows of constants, none of them a unit: h = 2 * s, the radius
        # 4 * s, and the 3 x 3 block left has entries c_ij - c_i0 * a_j *
        # T, T = t1^2s * t2^-1.  Its 2 x 2 minors reach T, and the
        # numerators of the second Bareiss step, the first pivot times
        # the block's determinant, T^2 = t1^4s * t2^-2, at the radius
        s = 40
        u, v = parse_poly("t1^-%d*t2" % s, 2), parse_poly("t1^%d" % s, 2)
        consts = [[2, 3, 5, 7], [11, -2, 3, 4], [3, 5, -7, 2]]
        rows = [[u, 2 * v, 3 * v, -5 * v]]
        rows += [[LaurentPoly.constant(x, 2) for x in row] for row in consts]
        pres = presentation_from_rows(rows, 2, 4)
        block, = alexander._reduced_blocks(pres)
        assert block.matrix.radius == 4 * s
        B = decoded(block)
        d = determinant(B)
        reach = max(e[0] for e in (B[0][0] * d).terms)
        assert reach == block.matrix.radius and \
            max(e[0] for e in d.terms) == 2 * s
        cert = module_rank(block)
        assert cert == reference.decoded_module_rank(decoded_block(block))
        assert cert.rank == 3
        assert d == reference.decoded_determinant(B)
        assert alexander._block_order(block) == \
            reference.decoded_block_order(decoded_block(block))
        assert canonical(torsion_order(pres).value) == definition_delta(pres)

    def test_inexact_division_is_refused(self):
        # at radius 2h, p = t1^2h + t1^-2h * t2 packs to T^2h * (1 + T)
        # and t1 + 1 to 1 + T: the keys divide, by t1^2h, whose exponent
        # is past h, and t1 + 1 does not divide p (t1 = -1 leaves 1 + t2)
        h = 3
        packed = PackedMatrix([], 2, 2, 2 * h)
        p = packed.cell(parse_poly("t1^%d + t1^-%d*t2" % (2 * h, 2 * h), 2))
        d = packed.cell(parse_poly("t1 + 1", 2))
        assert sorted(p) == [2 * h, 2 * h + 1]
        assert divide_cells(p, d, packed) is None
        for num, den, quotient in (
                ("t1^2*t2 - t2", "t1 - 1", "t1*t2 + t2"),
                ("t1^2 + 1", "t1 - 1", None),
                ("2*t1*t2 + 1", "2", None),
                ("6*t1^-1*t2^5 - 4*t1^2", "2*t1^-1", "3*t2^5 - 2*t1^3"),
                ("6*t1^-3*t2^5 - 4*t1^3", "2*t1^-3", None)):  # t1^6: past h
            got = divide_cells(packed.cell(parse_poly(num, 2)),
                               packed.cell(parse_poly(den, 2)), packed)
            assert (got and packed.poly(got)) == (
                quotient and parse_poly(quotient, 2)), num
        one = PackedMatrix([], 1, 1, 0)  # one variable: no bound
        t = parse_poly("t^5000 - 1", 1)
        got = divide_cells(one.cell(t), one.cell(parse_poly("t - 1", 1)), one)
        assert one.poly(got) == sum((parse_poly("t^%d" % i, 1)
                                     for i in range(5000)),
                                    LaurentPoly.zero(1))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_heap_against_max_scan(self, m):
        # divide_cells keeps the remainder's keys in a heap, the division
        # it replaced took max over the remainder at every step: random
        # divisors and quotients within h, their products within 2h, off
        # by a term, times an integer, or unrelated, cancellations included
        rng = random.Random(2600 + m)
        h = 6
        packed = PackedMatrix([], 0, m, 2 * h)
        exact = 0
        for k in range(150):
            den = random_poly(rng, m, max_terms=6, max_exp=h // 2)
            while not den.terms:
                den = random_poly(rng, m, max_terms=6, max_exp=h // 2)
            quot = random_poly(rng, m, max_terms=12, max_exp=h // 2)
            if k % 4 == 0:
                num = quot
            elif k % 4 == 1:
                num = den * quot
            elif k % 4 == 2:
                num = den * quot + random_poly(rng, m, max_terms=1,
                                               max_exp=h)
            else:
                num = den * quot * rng.choice((2, -3))
            if not num.terms:
                continue
            args = packed.cell(num), packed.cell(den), packed
            got = divide_cells(*args)
            assert got == laurent_reference.scan_divide(*args), (num, den)
            if got is not None:
                assert den * packed.poly(got) == num
                exact += len(den.terms) > 1
        assert exact >= 40

    def test_minors_past_the_bound_raise(self):
        # a 3 x 3 matrix packed at radius 2 (h = 1) with entries of t1
        # degree 1: its determinant reaches t1^3, past h, and the second
        # Bareiss step's quotient fails the digit check
        t1, t2 = parse_poly("t1", 2), parse_poly("t2", 2)
        one = LaurentPoly.one(2)
        rows = ((t1 + one, t2, 3 * one), (2 * one, t1 - t2, t1),
                (t1 * t2, 5 * one, t1 + 2 * one))
        assert max(e[0] for e in determinant(rows).terms) == 3
        narrow = PackedMatrix.pack(rows, 3, 2, 2)
        with pytest.raises(ComputationError, match="Bareiss"):
            module_rank(AlexanderPresentation(narrow, 2, (0, 1, 1)))


class TestCensusFallbacks:
    """
    The slowest fallback inputs of a census of random closures, pinned to
    the Delta the full-minor fallback gave, within a CPU bound about
    three times their time on the table of minors' two sides (1.3 and
    0.6 s on a 2-core Xeon VM, against 16 and 6 s before).
    """

    CASES = {
        # 6 components, an 8 x 8 block of rank 6
        "braid:n=10:1 -4 6 -9 -3 6 5 -9 8 9 7 -3 -2 4 6 -9 -4 -7 -5 8 -2 "
        "-2 1 6": (
            "t1^3*t3^2*t4^2 - t1^3*t3^2*t4 - 2*t1^3*t3*t4^2 - "
            "2*t1^2*t3^2*t4^2 + t1^3*t3^2 + 2*t1^3*t3*t4 + t1^3*t4^2 + "
            "2*t1^2*t3^2*t4 + 4*t1^2*t3*t4^2 + 2*t1*t3^2*t4^2 - 2*t1^3*t3 - "
            "t1^3*t4 - 2*t1^2*t3^2 - 4*t1^2*t3*t4 - 2*t1^2*t4^2 - "
            "2*t1*t3^2*t4 - 4*t1*t3*t4^2 - t3^2*t4^2 + t1^3 + 4*t1^2*t3 + "
            "2*t1^2*t4 + 2*t1*t3^2 + 4*t1*t3*t4 + 2*t1*t4^2 + t3^2*t4 + "
            "2*t3*t4^2 - 2*t1^2 - 4*t1*t3 - 2*t1*t4 - t3^2 - 2*t3*t4 - "
            "t4^2 + 2*t1 + 2*t3 + t4 - 1", 4.0),
        # 8 components, an 8 x 7 block of rank 5
        "braid:n=10:7 8 -6 -4 -1 2 -9 -7 -1 2 -7 -8 -4 3 -1 5 9 -6 -2 -8 5 "
        "6 5 7": ("t2*t4*t7 - t2*t4 - t2*t7 - t4*t7 + t2 + t4 + t7 - 1", 2.0)}

    @pytest.mark.parametrize("spec", list(CASES))
    def test_delta_within_the_bound(self, spec):
        text, bound = self.CASES[spec]
        started = time.process_time()
        result = delta(spec)
        spent = time.process_time() - started
        assert result.text == text
        assert [b["path"] for b in result.source["blocks"]][0] == "fallback"
        assert spent < bound, spent


class TestSlowShortcut:
    """
    ROADMAP item 11's example, the slowest shortcut input known: 5
    components, one 6 x 6 block.  Pinned to the Delta the row side of the
    table of minors gave, within a CPU bound about three times its time
    on the left kernel certificate (0.3 s on a 2-core Xeon VM, against
    1.9-2.1 s before).
    """

    SPEC = ("braid:n=8:-5 -1 3 -4 -4 5 6 7 -4 -4 -3 -5 7 2 -1 -3 -3 -1 6 6 "
            "7 2 -5")
    TEXT = (
            "2*t1^2*t2^3*t4^2*t5^4 - 3*t1^2*t2^3*t4^2*t5^3 - "
            "3*t1^2*t2^3*t4*t5^4 - 5*t1^2*t2^2*t4^2*t5^4 - "
            "4*t1*t2^3*t4^2*t5^4 + 3*t1^2*t2^3*t4^2*t5^2 + "
            "6*t1^2*t2^3*t4*t5^3 + t1^2*t2^3*t5^4 + 8*t1^2*t2^2*t4^2*t5^3 + "
            "8*t1^2*t2^2*t4*t5^4 + 4*t1^2*t2*t4^2*t5^4 + "
            "6*t1*t2^3*t4^2*t5^3 + 6*t1*t2^3*t4*t5^4 + 10*t1*t2^2*t4^2*t5^4 "
            "+ 2*t2^3*t4^2*t5^4 - 3*t1^2*t2^3*t4^2*t5 - 6*t1^2*t2^3*t4*t5^2 "
            "- 2*t1^2*t2^3*t5^3 - 8*t1^2*t2^2*t4^2*t5^2 - "
            "18*t1^2*t2^2*t4*t5^3 - 3*t1^2*t2^2*t5^4 - 7*t1^2*t2*t4^2*t5^3 "
            "- 7*t1^2*t2*t4*t5^4 - t1^2*t4^2*t5^4 - 6*t1*t2^3*t4^2*t5^2 - "
            "12*t1*t2^3*t4*t5^3 - 2*t1*t2^3*t5^4 - 16*t1*t2^2*t4^2*t5^3 - "
            "16*t1*t2^2*t4*t5^4 - 8*t1*t2*t4^2*t5^4 - 3*t2^3*t4^2*t5^3 - "
            "3*t2^3*t4*t5^4 - 5*t2^2*t4^2*t5^4 + t1^2*t2^3*t4^2 + "
            "6*t1^2*t2^3*t4*t5 + 2*t1^2*t2^3*t5^2 + 8*t1^2*t2^2*t4^2*t5 + "
            "18*t1^2*t2^2*t4*t5^2 + 7*t1^2*t2^2*t5^3 + 7*t1^2*t2*t4^2*t5^2 "
            "+ 18*t1^2*t2*t4*t5^3 + 3*t1^2*t2*t5^4 + 2*t1^2*t4^2*t5^3 + "
            "2*t1^2*t4*t5^4 + 6*t1*t2^3*t4^2*t5 + 12*t1*t2^3*t4*t5^2 + "
            "4*t1*t2^3*t5^3 + 16*t1*t2^2*t4^2*t5^2 + 36*t1*t2^2*t4*t5^3 + "
            "6*t1*t2^2*t5^4 + 14*t1*t2*t4^2*t5^3 + 14*t1*t2*t4*t5^4 + "
            "2*t1*t4^2*t5^4 + 3*t2^3*t4^2*t5^2 + 6*t2^3*t4*t5^3 + t2^3*t5^4 "
            "+ 8*t2^2*t4^2*t5^3 + 8*t2^2*t4*t5^4 + 4*t2*t4^2*t5^4 - "
            "2*t1^2*t2^3*t4 - 2*t1^2*t2^3*t5 - 3*t1^2*t2^2*t4^2 - "
            "18*t1^2*t2^2*t4*t5 - 7*t1^2*t2^2*t5^2 - 7*t1^2*t2*t4^2*t5 - "
            "18*t1^2*t2*t4*t5^2 - 8*t1^2*t2*t5^3 - 2*t1^2*t4^2*t5^2 - "
            "6*t1^2*t4*t5^3 - t1^2*t5^4 - 2*t1*t2^3*t4^2 - 12*t1*t2^3*t4*t5 "
            "- 4*t1*t2^3*t5^2 - 16*t1*t2^2*t4^2*t5 - 36*t1*t2^2*t4*t5^2 - "
            "14*t1*t2^2*t5^3 - 14*t1*t2*t4^2*t5^2 - 36*t1*t2*t4*t5^3 - "
            "6*t1*t2*t5^4 - 4*t1*t4^2*t5^3 - 4*t1*t4*t5^4 - 3*t2^3*t4^2*t5 "
            "- 6*t2^3*t4*t5^2 - 2*t2^3*t5^3 - 8*t2^2*t4^2*t5^2 - "
            "18*t2^2*t4*t5^3 - 3*t2^2*t5^4 - 7*t2*t4^2*t5^3 - 7*t2*t4*t5^4 "
            "- t4^2*t5^4 + t1^2*t2^3 + 7*t1^2*t2^2*t4 + 7*t1^2*t2^2*t5 + "
            "3*t1^2*t2*t4^2 + 18*t1^2*t2*t4*t5 + 8*t1^2*t2*t5^2 + "
            "2*t1^2*t4^2*t5 + 6*t1^2*t4*t5^2 + 3*t1^2*t5^3 + 4*t1*t2^3*t4 + "
            "4*t1*t2^3*t5 + 6*t1*t2^2*t4^2 + 36*t1*t2^2*t4*t5 + "
            "14*t1*t2^2*t5^2 + 14*t1*t2*t4^2*t5 + 36*t1*t2*t4*t5^2 + "
            "16*t1*t2*t5^3 + 4*t1*t4^2*t5^2 + 12*t1*t4*t5^3 + 2*t1*t5^4 + "
            "t2^3*t4^2 + 6*t2^3*t4*t5 + 2*t2^3*t5^2 + 8*t2^2*t4^2*t5 + "
            "18*t2^2*t4*t5^2 + 7*t2^2*t5^3 + 7*t2*t4^2*t5^2 + 18*t2*t4*t5^3 "
            "+ 3*t2*t5^4 + 2*t4^2*t5^3 + 2*t4*t5^4 - 4*t1^2*t2^2 - "
            "8*t1^2*t2*t4 - 8*t1^2*t2*t5 - t1^2*t4^2 - 6*t1^2*t4*t5 - "
            "3*t1^2*t5^2 - 2*t1*t2^3 - 14*t1*t2^2*t4 - 14*t1*t2^2*t5 - "
            "6*t1*t2*t4^2 - 36*t1*t2*t4*t5 - 16*t1*t2*t5^2 - 4*t1*t4^2*t5 - "
            "12*t1*t4*t5^2 - 6*t1*t5^3 - 2*t2^3*t4 - 2*t2^3*t5 - "
            "3*t2^2*t4^2 - 18*t2^2*t4*t5 - 7*t2^2*t5^2 - 7*t2*t4^2*t5 - "
            "18*t2*t4*t5^2 - 8*t2*t5^3 - 2*t4^2*t5^2 - 6*t4*t5^3 - t5^4 + "
            "5*t1^2*t2 + 3*t1^2*t4 + 3*t1^2*t5 + 8*t1*t2^2 + 16*t1*t2*t4 + "
            "16*t1*t2*t5 + 2*t1*t4^2 + 12*t1*t4*t5 + 6*t1*t5^2 + t2^3 + "
            "7*t2^2*t4 + 7*t2^2*t5 + 3*t2*t4^2 + 18*t2*t4*t5 + 8*t2*t5^2 + "
            "2*t4^2*t5 + 6*t4*t5^2 + 3*t5^3 - 2*t1^2 - 10*t1*t2 - 6*t1*t4 - "
            "6*t1*t5 - 4*t2^2 - 8*t2*t4 - 8*t2*t5 - t4^2 - 6*t4*t5 - 3*t5^2 "
            "+ 4*t1 + 5*t2 + 3*t4 + 3*t5 - 2")

    def test_delta_within_the_bound(self):
        started = time.process_time()
        result = delta(self.SPEC)
        spent = time.process_time() - started
        assert result.text == self.TEXT
        assert [b["path"] for b in result.source["blocks"]] == ["shortcut"]
        assert spent < 1.0, spent
