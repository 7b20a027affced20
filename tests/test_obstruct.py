import json
import random

import pytest

from ribboncheck import laurent, obstruct
from ribboncheck.alexander import alexander_polynomial
from ribboncheck.laurent import LaurentPoly, canonical, parse_poly
from ribboncheck.linkcodec import braid_closure, connected_sum, parse_braid, \
    parse_link_spec
from ribboncheck.obstruct import (ComponentMismatch, NOT_OBSTRUCTED,
                                  OBSTRUCTED, coprimality_report,
                                  obstruction_from_polynomials,
                                  ribbon_obstruction)

from conftest import random_braid_knot

TREFOIL = parse_braid("n=2:1 1 1")
FIG8 = parse_braid("n=3:1 -2 1 -2")


def closure_of_sum(a, b):
    return braid_closure(connected_sum(a, b))


class TestRemarkPair:
    """Square knots on coprime polynomials obstruct in both directions."""

    def setup_method(self):
        self.J = closure_of_sum(TREFOIL, TREFOIL.inverse())
        self.L = closure_of_sum(FIG8, FIG8.inverse())

    def test_polynomials(self):
        assert alexander_polynomial(self.J).value == \
            parse_poly("t^4 - 2*t^3 + 3*t^2 - 2*t + 1", 1)
        assert alexander_polynomial(self.L).value == \
            parse_poly("t^4 - 6*t^3 + 11*t^2 - 6*t + 1", 1)

    def test_both_directions_obstructed(self):
        assert ribbon_obstruction(self.J, self.L).verdict == OBSTRUCTED
        assert ribbon_obstruction(self.L, self.J).verdict == OBSTRUCTED

    def test_coprime(self):
        assert coprimality_report(self.J, self.L) == LaurentPoly.one(1)


class TestVerdicts:
    def test_ribbon_concordant_pair_not_obstructed(self):
        # 3_1 # 4_1 # -4_1 is ribbon concordant to 3_1
        j = braid_closure(
            connected_sum(connected_sum(TREFOIL, FIG8), FIG8.inverse()))
        l = braid_closure(TREFOIL)
        report = ribbon_obstruction(j, l)
        assert report.verdict == NOT_OBSTRUCTED
        assert canonical(report.quotient) == \
            parse_poly("t^4 - 6*t^3 + 11*t^2 - 6*t + 1", 1)

    def test_unknot_vs_trefoil(self):
        report = ribbon_obstruction(parse_link_spec("braid:n=1:"),
                                    braid_closure(TREFOIL))
        assert report.verdict == OBSTRUCTED

    def test_reflexivity_never_obstructs(self, bundled_knots, bundled_links):
        for name, diagram in bundled_knots + bundled_links:
            report = ribbon_obstruction(diagram, diagram)
            assert report.verdict == NOT_OBSTRUCTED, name
            assert canonical(report.quotient) == \
                LaurentPoly.one(report.quotient.nvars)

    def test_stabilization_never_obstructs(self):
        rng = random.Random(8080)
        for _ in range(8):
            k = random_braid_knot(rng, max_letters=6)
            w = random_braid_knot(rng, max_letters=6)
            stabilized = connected_sum(connected_sum(k, w), w.inverse())
            report = ribbon_obstruction(braid_closure(stabilized),
                                        braid_closure(k))
            assert report.verdict == NOT_OBSTRUCTED

    def test_coprime_implies_two_way(self, bundled_knots):
        knots = dict(bundled_knots)
        pairs = [("3_1", "4_1"), ("3_1", "8_12"), ("4_1", "5_1")]
        for a, b in pairs:
            da, db = knots[a], knots[b]
            if coprimality_report(da, db) == LaurentPoly.one(1):
                assert ribbon_obstruction(da, db).verdict == OBSTRUCTED
                assert ribbon_obstruction(db, da).verdict == OBSTRUCTED

    def test_verdict_depends_only_on_canonical_forms(self):
        pd_trefoil = parse_link_spec("pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        braid_trefoil = braid_closure(TREFOIL)
        a = ribbon_obstruction(pd_trefoil, braid_trefoil)
        b = ribbon_obstruction(braid_trefoil, pd_trefoil)
        assert a.verdict == b.verdict == NOT_OBSTRUCTED
        assert a.to_dict()["deltaJ"] == b.to_dict()["deltaJ"]

    def test_component_mismatch(self):
        with pytest.raises(ComponentMismatch):
            ribbon_obstruction(parse_link_spec("braid:n=2:1 1"),
                               braid_closure(TREFOIL))


class TestCoprimality:
    def test_trefoil_against_granny(self):
        granny = closure_of_sum(TREFOIL, TREFOIL)
        g = coprimality_report(braid_closure(TREFOIL), granny)
        assert g == parse_poly("t^2 - t + 1", 1)

    def test_unknots(self):
        u = parse_link_spec("braid:n=1:")
        assert coprimality_report(u, u) == LaurentPoly.one(1)


class TestReportShape:
    def test_json_schema(self):
        report = ribbon_obstruction(braid_closure(TREFOIL),
                                    parse_link_spec("braid:n=1:"),
                                    names=("J", "L"))
        payload = json.loads(report.to_json())
        assert list(payload) == ["direction", "deltaJ", "deltaL", "verdict",
                                 "quotient", "gcd"]
        assert payload["direction"] == ["J", "L"]
        assert payload["verdict"] == "not_obstructed"
        assert payload["quotient"] == "t^2 - t + 1"
        assert payload["deltaL"] == "1"

    @pytest.mark.parametrize("table", ["knots", "links"])
    def test_to_json_is_dumps_of_to_dict(self, table, bundled_knots,
                                         bundled_links):
        rows = {"knots": bundled_knots, "links": bundled_links}[table]
        deltas = [(name, alexander_polynomial(d)) for name, d in rows]
        gcds = set()
        for name_j, delta_j in deltas:
            for name_l, delta_l in deltas:
                report = obstruction_from_polynomials(
                    delta_j, delta_l, names=(name_j, name_l))
                assert report.to_json() == json.dumps(report.to_dict())
                g = report.gcd_value
                gcds.add("1" if g.is_one() else "L" if g == delta_l.value
                         else "J" if g == delta_j.value else "other")
        # every way to_json renders a gcd
        assert gcds == ({"1", "L", "J", "other"} if table == "knots"
                        else {"1", "L"})

    def test_obstructed_summary_text(self):
        report = ribbon_obstruction(parse_link_spec("braid:n=1:"),
                                    braid_closure(TREFOIL))
        assert report.summary().startswith("OBSTRUCTED")
        assert report.quotient is None


class TestSharedMemo:
    """One shared dict for any number of calls on the same two values."""

    def count_work(self, monkeypatch):
        work = {"divide": 0, "gcd": 0}

        def counted(name, original):
            def call(a, b):
                work[name] += 1
                return original(a, b)
            return call

        monkeypatch.setattr(obstruct, "exact_divide",
                            counted("divide", obstruct.exact_divide))
        monkeypatch.setattr(laurent, "gcd", counted("gcd", laurent.gcd))
        return work

    @pytest.mark.parametrize("specs, divisions, gcds", [
        (("braid:n=2:1 1 1", "braid:n=3:1 -2 1 -2"), 2, 1),  # coprime
        (("braid:n=4:1 1 1 2 -3 2 -3", "braid:n=2:1 1 1"), 2, 0),  # divides
        (("braid:n=2:1 1 1", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"), 1, 0),
        (("braid:n=2:1 1 1 1", "braid:n=2:1 1 1 1 1 1"), 2, 1)])  # links
    def test_one_division_per_direction_in_any_order(
            self, monkeypatch, specs, divisions, gcds):
        a, b = (alexander_polynomial(parse_link_spec(s)) for s in specs)
        expected = {order: obstruction_from_polynomials(*order).to_dict()
                    for order in ((a, b), (b, a))}
        work = self.count_work(monkeypatch)
        for calls in ([(a, b), (a, b), (b, a), (b, a), (a, b)],
                      [(b, a), (a, b), (b, a)]):
            shared = {}
            work.update(divide=0, gcd=0)
            for order in calls:
                report = obstruction_from_polynomials(*order, shared=shared)
                assert report.to_dict() == expected[order]
            assert work == {"divide": divisions, "gcd": gcds}

    def test_without_shared_one_division_then_the_gcd(self, monkeypatch):
        work = self.count_work(monkeypatch)
        a, b = (alexander_polynomial(braid_closure(w)) for w in (TREFOIL, FIG8))
        assert obstruction_from_polynomials(a, b).verdict == OBSTRUCTED
        assert work == {"divide": 1, "gcd": 1}
