"""
The records' contracts: a record that checks its input raises the same
exception with the same message when built directly, every record
refuses assignment to a field, and an AlexanderPolynomial is the
canonical form of its nonzero value, with nvars and source read-only and
source taking no part in equality or hash.
"""

import copy
import pickle

import pytest

from ribboncheck.alexander import (AlexanderPolynomial, ComputationError,
                                   RankCertificate, alexander_polynomial,
                                   module_rank, torsion_order)
from ribboncheck.foxcalc import jacobian
from ribboncheck.laurent import LaurentPoly
from ribboncheck.linkcodec import (BraidWord, DiagramError, parse_braid,
                                   parse_link_spec, parse_pd)
from ribboncheck.obstruct import (obstruction_from_polynomials,
                                  ribbon_obstruction)
from ribboncheck.oracles import AbelianGroupInvariants, torres_check
from ribboncheck.wirtinger import (AbelianizationMap, GroupPresentation,
                                   wirtinger_presentation)

TREFOIL = "braid:n=2:1 1 1"


@pytest.mark.parametrize("build, error, message", [
    (lambda: GroupPresentation(2, (((0, 1), (2, -1)),)), DiagramError,
     "relator letter 2 out of range"),
    (lambda: GroupPresentation(2, (((0, 1), (1, 2)),)), DiagramError,
     "letter exponents must be ±1"),
    (lambda: AbelianizationMap((0, 2, 1), 2), DiagramError,
     "component index 2 out of range"),
    (lambda: BraidWord(0, ()), DiagramError,
     "braid needs at least one strand"),
    (lambda: BraidWord(3, (1, 3)), DiagramError,
     "generator 3 out of range for 3 strands"),
    (lambda: BraidWord(3, (1.5,)), DiagramError,
     "braid strands and letters must be integers"),
    (lambda: BraidWord(2.5, (1,)), DiagramError,
     "braid strands and letters must be integers"),
    (lambda: RankCertificate(1, (0,), (0,), LaurentPoly.zero(1)),
     ComputationError, "rank certificate carries a zero minor"),
    (lambda: AbelianGroupInvariants(0, (1, 2)), ValueError,
     "torsion factors must be >= 2"),
    (lambda: AbelianGroupInvariants(0, (2, 3)), ValueError,
     "invariant factors must form a chain"),
])
def test_direct_construction_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def _records():
    """One of each record, built as the pipeline builds it: (record, field)."""
    diagram = parse_link_spec(TREFOIL)
    pres, phi = wirtinger_presentation(diagram)
    A = jacobian(pres, phi)
    return [
        (parse_pd("X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"), "crossings"),
        (parse_braid("n=2: 1 1 1"), "letters"),
        (diagram.crossings[0], "sign"),
        (diagram, "kernel"),
        (pres, "relators"),
        (phi, "num_components"),
        (A, "kernel"),
        (module_rank(A), "minor"),
        (alexander_polynomial(diagram), "value"),
        (AbelianGroupInvariants(1, (3,)), "torsion_factors"),
        (torres_check(parse_link_spec("braid:n=2:1 1 1 1")), "status"),
        (ribbon_obstruction(parse_link_spec("braid:n=1:"), diagram),
         "verdict"),
    ]


def test_fields_refuse_assignment():
    records = _records()
    assert len({type(record) for record, _ in records}) == 12
    for record, name in records:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


def test_polynomial_source_outside_equality_and_hash():
    delta = alexander_polynomial(parse_link_spec(TREFOIL))
    source = delta.source
    assert source
    bare = AlexanderPolynomial(delta.value)
    other = AlexanderPolynomial(delta.value, source={"relators": 0})
    assert bare.source == {}
    assert delta == bare == other
    assert hash(delta) == hash(bare) == hash(other)
    with pytest.raises(AttributeError):
        delta.source = {}
    with pytest.raises(AttributeError):
        del delta.source
    assert delta.source is source


def test_polynomial_is_its_canonical_nonzero_value():
    t = LaurentPoly.variable(0, 1)
    assert AlexanderPolynomial._fields == ("value",)
    delta = AlexanderPolynomial(t ** 3 - t ** 2 + t)
    assert delta.value == t ** 2 - t + 1
    assert delta.nvars == 1
    with pytest.raises(AttributeError):
        delta.nvars = 2
    with pytest.raises(TypeError):
        AlexanderPolynomial(t - 1, 1)
    with pytest.raises(ValueError):
        AlexanderPolynomial(LaurentPoly.zero(1))
    # the variable count is part of the value, so it takes part in equality
    two = AlexanderPolynomial(LaurentPoly.variable(0, 2) - 1)
    assert two.nvars == 2
    assert two != AlexanderPolynomial(t - 1)


def test_polynomial_value_fixes_the_verdict():
    """A value given in another unit multiple reads as its canonical form."""
    t = LaurentPoly.variable(0, 1)
    report = obstruction_from_polynomials(
        AlexanderPolynomial(t ** 2 - t + 1),
        AlexanderPolynomial(t ** 3 - t ** 2 + t))
    assert report.verdict == "not_obstructed"
    assert report.quotient == LaurentPoly.one(1)
    t1 = LaurentPoly.variable(0, 2)
    delta = AlexanderPolynomial(t1 - 1)
    assert obstruction_from_polynomials(delta, delta).verdict == \
        "not_obstructed"


def test_polynomial_copy_and_pickle_keep_every_attribute():
    t = LaurentPoly.variable(0, 1)
    delta = AlexanderPolynomial(t * t - t + 1, source={"relators": 2})
    for twin in (copy.copy(delta), pickle.loads(pickle.dumps(delta))):
        assert (twin.value, twin.nvars, twin.source) == \
            (delta.value, 1, {"relators": 2})


def test_polynomial_make_and_replace_build_through_the_constructor():
    t = LaurentPoly.variable(0, 1)
    delta = AlexanderPolynomial(t - 1, source={"relators": 1})
    moved = delta._replace(value=t ** 3 - t ** 2)
    assert (moved.value, moved.nvars, moved.source) == (t - 1, 1, {})
    assert moved == delta
    with pytest.raises(ValueError):
        delta._replace(value=LaurentPoly.zero(1))
    made = AlexanderPolynomial._make([LaurentPoly.variable(1, 2) ** 2])
    assert (made.value, made.nvars, made.source) == (
        LaurentPoly.one(2), 2, {})


def test_torsion_order_leaves_the_canonical_form_to_the_record():
    assert "canonical" not in torsion_order.__code__.co_names
