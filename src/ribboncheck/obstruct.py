"""
The divisibility obstruction to homotopy ribbon concordance.

If an m-component link J is homotopy ribbon concordant to an
m-component link L, the polynomial of L divides the polynomial of J.
The contrapositive is a certificate: whenever Delta_L does not divide
Delta_J, no homotopy ribbon concordance from J to L exists.

The verdict vocabulary is deliberately one-sided.  "obstructed" is a
theorem-backed impossibility certificate; "not_obstructed" only records
that this invariant is silent, never that a concordance exists (whether
the relation is a partial order is open).  A component-count mismatch is
outside the theorem's hypotheses and is raised as a distinct error, not
silently folded into a verdict.
"""

import json
from math import gcd
from typing import NamedTuple, Optional, Tuple

from . import laurent
from .laurent import LaurentPoly, exact_divide
from .alexander import (XI, AlexanderPolynomial, ComputationError,
                        alexander_polynomial)


class ComponentMismatch(ValueError):
    """Links with different component counts are never concordant."""


OBSTRUCTED = "obstructed"
NOT_OBSTRUCTED = "not_obstructed"

# the gcd that _coprime proves, shared: a LaurentPoly is never mutated
_ONE = LaurentPoly.one(1)

# a pair's JSON line: its direction, then the rest, its tail; a
# report's tail is filled in from JSON texts by to_json and by batch
# --pairs (the verdict is plain text that needs no escape)
LINE_JSON = '{"direction": [%s, %s], %s}'
REPORT_TAIL = ('"deltaJ": %s, "deltaL": %s, "verdict": "%s", '
               '"quotient": %s, "gcd": %s')


class ObstructionReport(NamedTuple):
    """
    One ordered pair's verdict and witnesses, immutable: a NamedTuple,
    which builds in a third of a frozen dataclass's time.
    """

    direction: Tuple[str, str]
    delta_j: AlexanderPolynomial
    delta_l: AlexanderPolynomial
    verdict: str
    quotient: Optional[LaurentPoly]  # witness with delta_l * quotient = delta_j
    gcd_value: LaurentPoly

    def to_dict(self):
        return {
            "direction": list(self.direction),
            "deltaJ": str(self.delta_j),
            "deltaL": str(self.delta_l),
            "verdict": self.verdict,
            "quotient": None if self.quotient is None else
                        laurent.poly_to_str(self.quotient),
            "gcd": laurent.poly_to_str(self.gcd_value),
        }

    def witness_json(self):
        """The quotient and the gcd as JSON texts, in that order."""
        g = self.gcd_value
        return ("null" if self.quotient is None else
                json.dumps(laurent.poly_to_str(self.quotient)),
                '"1"' if g.is_one() else
                self.delta_l.json_text if g == self.delta_l.value else
                self.delta_j.json_text if g == self.delta_j.value else
                json.dumps(laurent.poly_to_str(g)))

    def tail_json(self):
        """The JSON line's text after the direction, see LINE_JSON."""
        return REPORT_TAIL % (self.delta_j.json_text, self.delta_l.json_text,
                              self.verdict, *self.witness_json())

    def to_json(self):
        """json.dumps(self.to_dict()), from the polynomials' encoded texts."""
        return LINE_JSON % (json.dumps(self.direction[0]),
                            json.dumps(self.direction[1]), self.tail_json())

    def summary(self):
        if self.verdict == OBSTRUCTED:
            return ("OBSTRUCTED: Delta_L does not divide Delta_J; "
                    "no homotopy ribbon concordance %s >= %s" % self.direction)
        return "not obstructed (quotient: %s)" % laurent.poly_to_str(self.quotient)


def ribbon_obstruction(diagram_j, diagram_l, names=("J", "L")):
    """
    Apply the divisibility test to an ordered pair of diagrams.

    >>> from .linkcodec import parse_link_spec
    >>> r = ribbon_obstruction(parse_link_spec("braid:n=1:"),
    ...                        parse_link_spec("braid:n=2:1 1 1"))
    >>> r.verdict
    'obstructed'
    """
    return obstruction_from_polynomials(alexander_polynomial(diagram_j),
                                        alexander_polynomial(diagram_l), names)


def component_mismatch(delta_j, delta_l):
    """Why the theorem does not apply to the polynomials' links, or None."""
    if delta_j.nvars != delta_l.nvars:
        return ("component counts differ (%d vs %d); concordance preserves "
                "them" % (delta_j.nvars, delta_l.nvars))


def obstruction_from_polynomials(delta_j, delta_l, names=("J", "L"),
                                 shared=None):
    """
    Apply the divisibility test to polynomials already computed.

    The division comes first; when Delta_L divides Delta_J the gcd is
    Delta_L itself.  When it does not, the other direction is divided
    too, and the gcd is Delta_J when that divides; only when neither
    divides the other is a gcd taken.  shared, when given, is one dict
    that every call on the same two polynomial values passes, in either
    order and any number of times; without it a call takes a fresh one.
    It keeps each direction's quotient, under its dividend's text, and
    the gcd, under "gcd" (no polynomial's text).  So two values take at
    most one division per direction, whatever the order of the calls,
    and a gcd only when neither divides the other.  Every call that
    divides checks its quotient.

    Integers decide most of this (see _screened and _coprime): a
    division is skipped where the one cached value shows that it fails,
    and the gcd is 1 without laurent.gcd where one GCDHEU point proves
    it.  Every other case divides or takes the gcd as above.
    """
    reason = component_mismatch(delta_j, delta_l)
    if reason:
        raise ComponentMismatch(reason)
    memo = {} if shared is None else shared
    quotient = _quotient(delta_j, delta_l, memo)
    if quotient is not None:
        if delta_l.value * quotient != delta_j.value:
            raise ComputationError("division witness failed verification")
        verdict, g = NOT_OBSTRUCTED, delta_l.value  # canonical already
    else:
        verdict, g = OBSTRUCTED, memo.get("gcd")
        if g is None:
            g = memo["gcd"] = (
                delta_j.value if _quotient(delta_l, delta_j, memo) is not None
                else _ONE if _coprime(delta_j, delta_l)
                else laurent.gcd(delta_j.value, delta_l.value))
    return ObstructionReport(tuple(names), delta_j, delta_l, verdict,
                             quotient, g)


def _quotient(delta_j, delta_l, memo):
    """Delta_J / Delta_L or None, kept in memo under Delta_J's text."""
    if delta_j.text not in memo:
        memo[delta_j.text] = (None if _screened(delta_j, delta_l) else
                              exact_divide(delta_j.value, delta_l.value))
    return memo[delta_j.text]


def _screened(delta_j, delta_l):
    """
    Whether the one cached value (AlexanderPolynomial.xi_value, at the
    point a with a_i = XI + 1009*i^2 + i) shows that Delta_L does not
    divide Delta_J.  Canonical forms are polynomials P in Z[t1..tm] that
    no variable divides.  If Delta_L divides Delta_J, then P_J = t^e *
    P_L * Q with Q a polynomial that no variable divides.  Z[t1..tm] is
    a UFD (Gauss's lemma) in which each t_i is prime, so no t_i divides
    P_L * Q either, and e = 0: P_J = P_L * Q.  Then P_L(a) divides
    P_J(a) at every integer point a, and a point where it does not
    (P_L(a) = 0 != P_J(a) included) proves that Delta_L does not divide
    Delta_J.
    """
    x, y = delta_l.xi_value[0], delta_j.xi_value[0]
    return bool(y % x if x else y)


def _coprime(delta_j, delta_l):
    """
    Whether one GCDHEU point proves that the gcd of two one-variable
    polynomials is 1: both primitive, XI >= 2B + 2 with B the smaller of
    their largest |coefficients|, and gcd(P_J(XI), P_L(XI)) <= XI / 2.
    This is laurent._gcd_poly's acceptance, at one variable, of G = that
    integer, whose primitive part 1 divides both (proof there).
    """
    if delta_j.nvars != 1:
        return False
    (vj, cj, bj), (vl, cl, bl) = delta_j.xi_value, delta_l.xi_value
    return (cj == cl == 1 and XI >= 2 * min(bj, bl) + 2
            and gcd(vj, vl) <= XI // 2)


def coprimality_report(diagram_j, diagram_l):
    """
    gcd of the two polynomials, canonicalized.  A unit gcd obstructs in
    both directions as soon as both polynomials are nonunits.
    """
    return ribbon_obstruction(diagram_j, diagram_l).gcd_value
