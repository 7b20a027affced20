"""
The pipeline against the closed forms of tests/families.py beyond the
bundled table: the rational knots through 11 crossings, the torus knots
of up to 40 crossings as braids, their mirrors and their PD twins, the
verdict on every ordered pair of those torus knots, which their
cyclotomic factors decide, connected sums, whose Delta_L divides
Delta_J with a known quotient, and ribbon moves on random closures,
whose Delta_L divides Delta_J by the paper.  Each test runs under a CPU
bound, about ten times what it takes on a 2-core Xeon VM.
"""

import random
import time

import pytest

from conftest import random_closure
from families import (continued_fraction_value, rational_knot_partials,
                      rational_pd_spec, ribbon_move, torus_braid_spec,
                      torus_cyclotomic_indices, torus_delta, torus_knot_pairs,
                      two_bridge_delta)
from helpers import braid_to_pd, is_unit, spec as braid_spec
from ribboncheck.alexander import alexander_polynomial
from ribboncheck.linkcodec import (braid_closure, connected_sum, parse_braid,
                                   parse_link_spec, pd_diagram)
from ribboncheck.obstruct import NOT_OBSTRUCTED, obstruction_from_polynomials
from ribboncheck.tables import knot_table

CPU_SECONDS = 3.0


def braid(spec):
    return parse_braid(spec[len("braid:"):])


@pytest.fixture(scope="module")
def torus_knots():
    """{(p, q): its braid word} for the 41 torus knots of up to 40 crossings."""
    return {(p, q): braid(torus_braid_spec(p, q))
            for p, q in torus_knot_pairs(40)}


def test_rational_knots_through_eleven_crossings():
    started = time.process_time()
    family = rational_knot_partials(11)
    assert len(family) == 341
    for partials in family:
        diagram = parse_link_spec(rational_pd_spec(partials))
        assert diagram.num_components == 1, partials
        assert diagram.num_crossings == sum(partials), partials
        fraction = continued_fraction_value(partials)
        assert alexander_polynomial(diagram).value == two_bridge_delta(
            fraction.numerator, fraction.denominator), partials
    assert time.process_time() - started < CPU_SECONDS


def test_torus_knots_their_mirrors_and_pd_twins(torus_knots):
    started = time.process_time()
    assert len(torus_knots) == 41
    for (p, q), word in torus_knots.items():
        expected = torus_delta(p, q)
        for diagram in (braid_closure(word), braid_closure(word.mirror()),
                        pd_diagram(braid_to_pd(word))):
            assert alexander_polynomial(diagram).value == expected, (p, q)
    assert time.process_time() - started < CPU_SECONDS


def test_torus_pair_verdicts_are_the_cyclotomic_inclusions(torus_knots):
    # Delta_L divides Delta_J exactly when L's Phi_d are among J's
    deltas = {pq: alexander_polynomial(braid_closure(word))
              for pq, word in torus_knots.items()}
    started = time.process_time()
    wrong = [(j, l) for j in deltas for l in deltas
             if (obstruction_from_polynomials(deltas[j], deltas[l]).verdict
                 == NOT_OBSTRUCTED)
             != (torus_cyclotomic_indices(*l) <= torus_cyclotomic_indices(*j))]
    assert wrong == []
    assert time.process_time() - started < CPU_SECONDS


def test_a_connected_sum_is_divided_by_each_summand():
    # Delta(K1 # K2) = Delta(K1) Delta(K2): J = K1 # K2 against L = K1 is
    # not obstructed, with the quotient Delta(K2)
    started = time.process_time()
    table = dict(knot_table())
    knots = {name: braid(table[name]) for name in ("3_1", "4_1", "5_1", "8_19")}
    deltas = {name: alexander_polynomial(braid_closure(word))
              for name, word in knots.items()}
    for first in knots:
        for second in knots:
            summed = alexander_polynomial(braid_closure(
                connected_sum(knots[first], knots[second])))
            report = obstruction_from_polynomials(summed, deltas[first])
            assert report.verdict == NOT_OBSTRUCTED, (first, second)
            assert report.quotient == deltas[second].value, (first, second)
    assert time.process_time() - started < CPU_SECONDS


def test_ribbon_moves_never_obstruct():
    # J from L by one or two ribbon moves is a ribbon concordance J >= L,
    # so Delta_L divides Delta_J: on 60 closures L of each component
    # count 1 to 5, against J as a braid and as its PD twin
    rng = random.Random(26)
    started = time.process_time()
    verdicts = []
    for draw in range(300):
        components = 1 + draw % 5
        while True:
            word = random_closure(rng, (2, 5), (2, 12), components)
            if len(word.cycles()) == components:
                break
        moved = word
        for _ in range(rng.randint(1, 2)):
            moved = ribbon_move(rng, moved, 16)
        delta_l = alexander_polynomial(braid_closure(word))
        twin = braid_to_pd(moved)
        for diagram in (braid_closure(moved), twin and pd_diagram(twin)):
            if diagram is None:
                continue
            assert diagram.num_components == components, braid_spec(moved)
            report = obstruction_from_polynomials(
                alexander_polynomial(diagram), delta_l)
            assert report.verdict == NOT_OBSTRUCTED, (
                braid_spec(word), braid_spec(moved))
            verdicts.append(report)
    assert time.process_time() - started < 9.0
    # the moves change Delta: a tenth of the quotients are not units
    assert len(verdicts) >= 550
    assert sum(not is_unit(r.quotient) for r in verdicts) >= len(verdicts) // 10
