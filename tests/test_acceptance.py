"""
Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line.  All comparisons are exact; run with -s to see the
summary lines.
"""

import random
import time

from ribboncheck.alexander import alexander_polynomial, module_rank
from ribboncheck.foxcalc import jacobian
from ribboncheck.laurent import LaurentPoly, canonical, gcd, parse_poly
from ribboncheck.linkcodec import (braid_closure, connected_sum,
                                   linking_number, parse_braid,
                                   parse_link_spec)
from ribboncheck.obstruct import (NOT_OBSTRUCTED, OBSTRUCTED,
                                  ribbon_obstruction)
from ribboncheck.oracles import (cyclic_cover_check, reidemeister_schreier,
                                 torres_check)
from ribboncheck.wirtinger import (AbelianizationMap, apply_phi, free_reduce,
                                   wirtinger_presentation)

from conftest import random_braid_knot, random_free_word
from helpers import fox_derivative, inverted_variables

TREFOIL_BRAID = "n=2:1 1 1"
FIG8_BRAID = "n=3:1 -2 1 -2"
TREFOIL_PD = "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
FIG8_PD = "pd:X(8,5,1,6);X(4,1,5,2);X(2,8,3,7);X(6,4,7,3)"


def report(criterion, passed):
    print("criterion %-38s %s" % (criterion + ":", "PASS" if passed else "FAIL"))
    assert passed


def square_knot_closure(braid_text):
    word = parse_braid(braid_text)
    return braid_closure(connected_sum(word, word.inverse()))


def test_criterion_1_coprime_square_knots_obstruct_both_ways():
    start = time.perf_counter()
    j = square_knot_closure(TREFOIL_BRAID)
    l = square_knot_closure(FIG8_BRAID)
    delta_j = alexander_polynomial(j).value
    delta_l = alexander_polynomial(l).value
    ok = delta_j == canonical(parse_poly("t^2 - t + 1", 1) ** 2)
    ok = ok and delta_l == canonical(parse_poly("t^2 - 3*t + 1", 1) ** 2)
    ok = ok and gcd(delta_j, delta_l) == LaurentPoly.one(1)
    ok = ok and ribbon_obstruction(j, l).verdict == OBSTRUCTED
    ok = ok and ribbon_obstruction(l, j).verdict == OBSTRUCTED
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report("1 (coprime square knots)", ok)


def test_criterion_2_cover_oracle_agreement(bundled_knots):
    start = time.perf_counter()
    ok = True
    for name, diagram in bundled_knots:
        pres, phi = wirtinger_presentation(diagram)
        delta = alexander_polynomial(diagram)
        for k in (2, 3, 5):
            invariants = reidemeister_schreier(pres, phi, k)
            if not cyclic_cover_check(delta, k, invariants):
                ok = False
                print("  cover mismatch: %s at k=%d" % (name, k))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report("2 (cyclic cover oracle, k=2,3,5)", ok)


def test_criterion_3_fox_fundamental_identity(bundled_knots, bundled_links):
    def identity_holds(word, phi):
        m = phi.num_components
        total = LaurentPoly.zero(m)
        for gen in range(len(phi.component_of)):
            d = LaurentPoly.zero(m)
            for w, c in fox_derivative(word, gen).items():
                d = d + LaurentPoly.monomial(c, apply_phi(w, phi))
            basis = LaurentPoly.monomial(
                1, tuple(1 if i == phi.component_of[gen] else 0
                         for i in range(m)))
            total = total + d * (basis - LaurentPoly.one(m))
        return total == LaurentPoly.monomial(1, apply_phi(word, phi)) - \
            LaurentPoly.one(m)

    ok = True
    for name, diagram in bundled_knots + bundled_links:
        pres, phi = wirtinger_presentation(diagram)
        for rel in pres.relators:
            ok = ok and identity_holds(rel, phi)
    rng = random.Random(0xF0C5)
    for _ in range(500):
        gens = rng.randint(1, 6)
        m = rng.randint(1, min(3, gens))
        phi = AbelianizationMap(tuple(rng.randrange(m) for _ in range(gens)), m)
        word = free_reduce(random_free_word(rng, gens, 40))
        ok = ok and identity_holds(word, phi)
    report("3 (Fox fundamental identity)", ok)


def test_criterion_4_connected_sum_multiplicativity():
    rng = random.Random(0x5E55)
    ok = True
    for _ in range(25):
        w1 = random_braid_knot(rng, max_letters=8)
        w2 = random_braid_knot(rng, max_letters=8)
        d1 = alexander_polynomial(braid_closure(w1)).value
        d2 = alexander_polynomial(braid_closure(w2)).value
        ds = alexander_polynomial(braid_closure(connected_sum(w1, w2))).value
        ok = ok and ds == canonical(d1 * d2)
    report("4 (connected-sum multiplicativity)", ok)


def test_criterion_5_symmetry_normalization_torres(bundled_knots,
                                                   bundled_links):
    ok = True
    for name, diagram in bundled_knots:
        value = alexander_polynomial(diagram).value
        ok = ok and canonical(inverted_variables(value)) == value
        ok = ok and value.evaluate([1]) in (1, -1)
    for name, diagram in bundled_links:
        if linking_number(diagram, 0, 1) != 0:
            ok = ok and torres_check(diagram).status == "pass"
    report("5 (symmetry, Delta(1), Torres)", ok)


def test_criterion_6_encoding_independence():
    pairs = [(TREFOIL_PD, "braid:" + TREFOIL_BRAID),
             (FIG8_PD, "braid:" + FIG8_BRAID)]
    ok = True
    for pd_spec, braid_spec in pairs:
        from_pd = alexander_polynomial(parse_link_spec(pd_spec)).value
        from_braid = alexander_polynomial(parse_link_spec(braid_spec)).value
        ok = ok and from_pd == from_braid
    report("6 (encoding independence)", ok)


def test_criterion_7_stabilization_is_never_obstructed():
    rng = random.Random(0xAB1E)
    ok = True
    for _ in range(25):
        k = random_braid_knot(rng, max_letters=8)
        w = random_braid_knot(rng, max_letters=8)
        j = braid_closure(connected_sum(connected_sum(k, w), w.inverse()))
        verdict = ribbon_obstruction(j, braid_closure(k)).verdict
        ok = ok and verdict == NOT_OBSTRUCTED
    report("7 (stabilization unobstructed)", ok)


def test_criterion_8_split_and_degenerate_inputs():
    unlink = parse_link_spec("braid:n=2:")
    pres, phi = wirtinger_presentation(unlink)
    cert = module_rank(jacobian(pres, phi))
    ok = cert.rank == 0
    ok = ok and str(alexander_polynomial(unlink)) == "1"
    ok = ok and str(alexander_polynomial(parse_link_spec("braid:n=1:"))) == "1"
    report("8 (split and degenerate links)", ok)
