"""
The pipeline against the closed forms of tests/families.py beyond the
bundled table: the rational knots through 11 crossings, the torus knots
of up to 40 crossings as braids, their mirrors and their PD twins, the
verdict on every ordered pair of those torus knots, which their
cyclotomic factors decide, and connected sums, whose Delta_L divides
Delta_J with a known quotient.  Each test runs under a CPU bound, about
ten times what it takes on a 2-core Xeon VM.
"""

import time

import pytest

from families import (continued_fraction_value, rational_knot_partials,
                      rational_pd_spec, torus_braid_spec,
                      torus_cyclotomic_indices, torus_delta, torus_knot_pairs,
                      two_bridge_delta)
from helpers import braid_to_pd
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
