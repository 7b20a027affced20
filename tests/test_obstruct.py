import json
import math
import os
import random
import sys
from pathlib import Path

import pytest

import pipeline_reference as reference
from ribboncheck import cli, laurent, obstruct
from ribboncheck.alexander import (XI, AlexanderPolynomial, ComputationError,
                                  alexander_polynomial)
from ribboncheck.laurent import (LaurentPoly, canonical, exact_divide,
                                 parse_poly)
from ribboncheck.linkcodec import braid_closure, connected_sum, parse_braid, \
    parse_link_spec
from ribboncheck.obstruct import (ComponentMismatch, NOT_OBSTRUCTED,
                                  OBSTRUCTED,
                                  obstruction_from_polynomials,
                                  ribbon_obstruction)

from conftest import random_braid_knot, random_closure
from helpers import table_path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

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
        assert ribbon_obstruction(self.J, self.L).gcd_value == LaurentPoly.one(1)


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
            if ribbon_obstruction(da, db).gcd_value == LaurentPoly.one(1):
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
        g = ribbon_obstruction(braid_closure(TREFOIL), granny).gcd_value
        assert g == parse_poly("t^2 - t + 1", 1)

    def test_unknots(self):
        u = parse_link_spec("braid:n=1:")
        assert ribbon_obstruction(u, u).gcd_value == LaurentPoly.one(1)


class TestReportShape:
    def test_json_schema(self):
        report = ribbon_obstruction(braid_closure(TREFOIL),
                                    parse_link_spec("braid:n=1:"))
        record = report.to_dict()
        assert list(record) == ["direction", "deltaJ", "deltaL", "verdict",
                                "quotient", "gcd"]
        assert record["direction"] == ["J", "L"]
        assert record["verdict"] == "not_obstructed"
        assert record["quotient"] == "t^2 - t + 1"
        assert record["deltaL"] == "1"

    @pytest.mark.parametrize("table", ["knots", "links"])
    def test_pair_lines_are_dumps_of_to_dict(self, table, bundled_knots,
                                             bundled_links, capsys):
        rows = {"knots": bundled_knots, "links": bundled_links}[table]
        assert cli.main(["batch", table_path(table + ".csv"), "--pairs"]) == 0
        lines = iter(capsys.readouterr().out.splitlines()[len(rows):])
        deltas = [(name, alexander_polynomial(d)) for name, d in rows]
        gcds = set()
        for name_j, delta_j in deltas:
            for name_l, delta_l in deltas:
                report = obstruction_from_polynomials(
                    delta_j, delta_l, names=(name_j, name_l))
                assert next(lines) == json.dumps(report.to_dict())
                g = report.gcd_value
                gcds.add("1" if g.is_one() else "L" if g == delta_l.value
                         else "J" if g == delta_j.value else "other")
        assert next(lines, None) is None
        # every way a pair line renders a gcd
        assert gcds == ({"1", "L", "J", "other"} if table == "knots"
                        else {"1", "L"})

    def test_obstructed_summary_text(self):
        report = ribbon_obstruction(parse_link_spec("braid:n=1:"),
                                    braid_closure(TREFOIL))
        assert report.summary().startswith("OBSTRUCTED")
        assert report.quotient is None


def poly(expr, nvars=1):
    """The value of a Python expression in t (or t1, t2, ...), ^ for **."""
    names = ({"t": LaurentPoly.variable(0, 1)} if nvars == 1 else
             {"t%d" % (i + 1): LaurentPoly.variable(i, nvars)
              for i in range(nvars)})
    value = eval(expr.replace("^", "**"), {}, names)
    return (LaurentPoly.constant(value, nvars) if isinstance(value, int)
            else value)


def delta_of(expr, nvars=1):
    """A hand-built AlexanderPolynomial of expr."""
    return AlexanderPolynomial(poly(expr, nvars))


class TestSharedMemo:
    """
    The memo two records keep for their pair, for any number of calls on
    them.  A division runs only where the one cached value does not show
    that it fails, and a gcd only where the one-point test does not
    prove it 1.
    """

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
        # coprime: the point shows each direction and proves gcd 1
        (("braid:n=2:1 1 1", "braid:n=3:1 -2 1 -2"), 0, 0),
        # 3_1 divides 3_1 # 4_1; the point shows the other direction
        (("braid:n=4:1 1 1 2 -3 2 -3", "braid:n=2:1 1 1"), 1, 0),
        (("braid:n=2:1 1 1", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"), 1, 0),
        # links: no one-point gcd test at two variables
        (("braid:n=2:1 1 1 1", "braid:n=2:1 1 1 1 1 1"), 0, 1),
        # 3_1 # 3_1 and 3_1 # 4_1 share the factor t^2 - t + 1
        (("braid:n=3:1 1 1 2 2 2", "braid:n=4:1 1 1 2 -3 2 -3"), 0, 1)])
    def test_one_division_per_direction_in_any_order(
            self, monkeypatch, specs, divisions, gcds):
        diagrams = [parse_link_spec(s) for s in specs]

        def records():
            return [alexander_polynomial(d) for d in diagrams]

        # each expected report from records that no other call touched
        expected = {order: obstruction_from_polynomials(
            *(fresh[i] for i in order)).to_dict()
            for order, fresh in (((0, 1), records()), ((1, 0), records()))}
        work = self.count_work(monkeypatch)
        for calls in ([(0, 1), (0, 1), (1, 0), (1, 0), (0, 1)],
                      [(1, 0), (0, 1), (1, 0)]):
            pair = records()
            work.update(divide=0, gcd=0)
            for order in calls:
                report = obstruction_from_polynomials(*(pair[i] for i in order))
                assert report.to_dict() == expected[order]
            assert work == {"divide": divisions, "gcd": gcds}

    def test_interleaved_pairs_on_shared_records(self, monkeypatch):
        # a = 3_1 # 4_1, b = 3_1, c = 5_1: a's memo of (a, c) must not
        # answer (a, b), whose quotient is Delta(4_1) = t^2 - 3*t + 1
        specs = {"a": "braid:n=4:1 1 1 2 -3 2 -3", "b": "braid:n=2:1 1 1",
                 "c": "braid:n=2:1 1 1 1 1"}
        diagrams = {name: parse_link_spec(s) for name, s in specs.items()}
        kept = {name: alexander_polynomial(d) for name, d in diagrams.items()}
        calls = ["ac", "ab", "ba", "ca"]
        expected = {}
        for names in calls:
            fresh = [alexander_polynomial(diagrams[name]) for name in names]
            expected[names] = obstruction_from_polynomials(*fresh).to_dict()
        assert expected["ab"]["verdict"] == NOT_OBSTRUCTED
        assert expected["ab"]["quotient"] == "t^2 - 3*t + 1"
        assert expected["ba"]["gcd"] == expected["ab"]["deltaL"]
        work = self.count_work(monkeypatch)
        for names in calls:
            report = obstruction_from_polynomials(
                *(kept[name] for name in names))
            assert report.to_dict() == expected[names]
        # a / c and c / a are screened out, the gcd of a and c is 1 by the
        # point; a / b divides and serves (b, a)'s gcd, b / a is screened
        assert work == {"divide": 1, "gcd": 0}

    def test_a_kept_quotient_is_checked_on_every_call(self, monkeypatch):
        # a wrong quotient stays on the records and fails every call
        trefoil, pd_trefoil = (
            alexander_polynomial(parse_link_spec(s)) for s in
            ("braid:n=2:1 1 1", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"))
        monkeypatch.setattr(obstruct, "exact_divide", lambda a, b: a)
        for order in ((trefoil, pd_trefoil), (trefoil, pd_trefoil),
                      (pd_trefoil, trefoil)):
            with pytest.raises(ComputationError, match="division witness"):
                obstruction_from_polynomials(*order)

    def test_no_caller_memo(self):
        trefoil = alexander_polynomial(parse_link_spec("braid:n=2:1 1 1"))
        with pytest.raises(TypeError):
            obstruction_from_polynomials(trefoil, trefoil, shared={})

    def test_without_shared_one_division_then_the_gcd(self, monkeypatch):
        # Delta_J = f * ((t^2 - 3t + 1) * (t + 1) + t - XI), f = t^2 - t + 1
        # a factor of Delta_L = f * (t^2 - 3t + 1): the value at XI does
        # not show that Delta_L does not divide, it shows the other
        # direction, and the gcd is f
        delta_l = delta_of("(t^2 - t + 1)*(t^2 - 3*t + 1)")
        delta_j = delta_of("(t^2 - t + 1)*((t^2 - 3*t + 1)*(t + 1) + t - %d)"
                           % XI)
        work = self.count_work(monkeypatch)
        report = obstruction_from_polynomials(delta_j, delta_l)
        assert report.verdict == OBSTRUCTED
        assert report.gcd_value == parse_poly("t^2 - t + 1", 1)
        assert work == {"divide": 1, "gcd": 1}


    def test_without_shared_the_other_division_gives_the_gcd(
            self, monkeypatch):
        # 3_1 does not take 3_1 # 4_1 as its divisor, and divides it: the
        # gcd is 3_1's value, from the one division the other way
        trefoil = alexander_polynomial(parse_link_spec("braid:n=2:1 1 1"))
        total = alexander_polynomial(
            parse_link_spec("braid:n=4:1 1 1 2 -3 2 -3"))
        work = self.count_work(monkeypatch)
        report = obstruction_from_polynomials(trefoil, total)
        assert report.verdict == OBSTRUCTED
        assert report.gcd_value is trefoil.value
        assert work == {"divide": 1, "gcd": 0}


# the 12 random rows of perfbench's seed-1 table_pairs CSV, in its order
# (perfbench/workloads.py draws them; the next test checks the copy)
TABLE_PAIRS_RANDOM = (
    ("rand_k4_9", "braid:n=4:-1 3 -2 1 -2 -3 -2 -2 -2"),
    ("rand_k4_7", "braid:n=4:1 -2 1 2 -1 -1 3"),
    ("rand_k3_10", "braid:n=3:1 2 2 1 -2 -1 -2 -1 -1 -1"),
    ("rand_l3_9", "braid:n=3:1 -2 1 -2 1 1 -2 -2 1"),
    ("rand_l3_7", "braid:n=3:-1 -2 -2 -2 1 1 1"),
    ("rand_l2_10", "braid:n=2:-1 -1 -1 -1 -1 -1 -1 -1 -1 -1"),
    ("rand_l2_8", "braid:n=2:1 1 1 1 1 1 1 1"),
    ("rand_k2_9", "braid:n=2:-1 -1 -1 -1 -1 -1 -1 -1 -1"),
    ("rand_l4_8", "braid:n=4:-1 2 -3 -2 -2 -2 -2 -1"),
    ("rand_k2_7", "braid:n=2:-1 -1 -1 -1 -1 -1 -1"),
    ("rand_l4_10", "braid:n=4:3 3 -2 1 -2 -2 -1 2 3 -1"),
    ("rand_k3_8", "braid:n=3:-1 2 2 2 -1 -1 -1 -2"),
)


@pytest.mark.skipif(not os.path.isfile(os.path.join(PERFBENCH, "workloads.py")),
                    reason="perfbench/workloads.py is not in this copy of "
                           "the tree")
def test_frozen_rows_are_table_pairs_seed_1():
    fresh = {"workloads", "published", "reference"} - set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        rows = workloads.generate("table_pairs", 1,
                                  Path(PERFBENCH).parent).requests[0].rows
    finally:
        sys.path.remove(PERFBENCH)
        for name in fresh:
            sys.modules.pop(name, None)
    assert tuple((link.name, link.spec) for link in rows
                 if link.name.startswith("rand_")) == TABLE_PAIRS_RANDOM


def pair_outputs(named, kinds=None):
    """
    batch --pairs' pair lines of (name, AlexanderPolynomial or None) rows,
    and the reference's, as two texts.
    """
    rows = [(name, "") for name, _ in named]
    deltas = [delta for _, delta in named]
    kinds = kinds or [None] * len(named)
    return ("".join(cli._pair_lines(rows, deltas, kinds)),
            "".join(reference.memo_pair_lines(rows, deltas, kinds)))


def verdicts(text):
    return {json.loads(line).get("verdict") for line in text.splitlines()}


class TestScreenAgainstReference:
    """
    The integer screen and the one-point gcd test against the pair loop
    they replaced (pipeline_reference.memo_pair_lines): the same bytes,
    also where the point passes and the division still fails, where a
    value is 0 at the point, and where the content is not 1.
    """

    def test_bundled_tables(self, bundled_knots, bundled_links):
        for table in (bundled_knots, bundled_links):
            new, old = pair_outputs([(name, alexander_polynomial(d))
                                     for name, d in table])
            assert new == old
            assert verdicts(new) == {OBSTRUCTED, NOT_OBSTRUCTED}

    def test_random_closures(self):
        # 1-4 components; some rows repeat a polynomial
        rng = random.Random(2301)
        named = []
        for i in range(60):
            word = random_closure(rng, (2, 5), (1, 12))
            named.append(("r%d" % i, alexander_polynomial(braid_closure(word))))
        assert {d.nvars for _, d in named} >= {1, 2, 3, 4}
        new, old = pair_outputs(named)
        assert new == old
        assert verdicts(new) == {OBSTRUCTED, NOT_OBSTRUCTED,
                                 "component_mismatch"}

    def test_one_point_shows_what_the_six_points_show(self, bundled_knots,
                                                      bundled_links):
        # random.Random(7)'s 600 closures of 2-5 strands and 4-12 letters,
        # the bundled tables and the random rows of perfbench's seed-1
        # table_pairs CSV (TABLE_PAIRS_RANDOM): on
        # every ordered pair of distinct values, the one point screens
        # out no pair that divides and lets through none that does not
        rng = random.Random(7)
        words = [random_closure(rng, (2, 5), (4, 12)) for _ in range(600)]
        diagrams = ([braid_closure(word) for word in words]
                    + [d for _, d in bundled_knots + bundled_links]
                    + [parse_link_spec(spec) for _, spec in TABLE_PAIRS_RANDOM])
        deltas = {}
        for diagram in diagrams:
            delta = alexander_polynomial(diagram)
            deltas.setdefault((delta.nvars, delta.text), delta)
        shown, reference_shown, wrong = 0, 0, []
        for delta_j in deltas.values():
            for delta_l in deltas.values():
                if delta_j is delta_l or delta_j.nvars != delta_l.nvars:
                    continue
                divides = exact_divide(delta_j.value,
                                       delta_l.value) is not None
                new = obstruct._screened(delta_j, delta_l)
                old = reference.screened(delta_j, delta_l)
                if new == divides or (old and not new):
                    wrong.append((delta_j.text, delta_l.text, divides))
                shown += new
                reference_shown += old
        assert wrong == []
        # every one of the 2,431 pairs that do not divide
        assert reference_shown == shown == 2431

    def test_pairs_that_pass_every_point_but_do_not_divide(self, monkeypatch):
        # Delta_J = Delta_L * q + c * (t1 - XI): Delta_L(a) divides
        # Delta_J(a) at the point, whose t1 is XI, so exact_divide must
        # decide, and finds no quotient
        screen = "(t1 - %d)" % XI
        cases = [("t1^2 - t1 + 1", "t1 + 2", 1, 1),
                 ("t1^2 - 3*t1 + 1", "1", -1, 1),
                 ("2*t1^4 - 3*t1^3 + 3*t1^2 - 3*t1 + 2", "t1^2 + 1", 3, 1),
                 ("t1*t2 + 1", "t2 + 1", 1, 2),
                 ("t1^2*t2^2 + t1*t2 + 1", "t1 - 2", 2, 2),
                 ("t1*t2*t3 + t1 + 1", "t3 + 3", 1, 3)]
        divisions = []
        original = obstruct.exact_divide

        def recorded(p, d):
            divisions.append((p, d))
            return original(p, d)

        monkeypatch.setattr(obstruct, "exact_divide", recorded)
        for low, q, c, nvars in cases:
            text = "(%s)*(%s) + (%d)*%s" % (low, q, c, screen)
            if nvars == 1:
                low, text = low.replace("t1", "t"), text.replace("t1", "t")
            delta_l, delta_j = delta_of(low, nvars), delta_of(text, nvars)
            # the canonical form is the polynomial itself, up to sign
            assert delta_j.value in (poly(text, nvars), -poly(text, nvars))
            assert not obstruct._screened(delta_j, delta_l)
            del divisions[:]
            new, old = pair_outputs([("J", delta_j), ("L", delta_l)])
            assert new == old
            line = json.loads(new.splitlines()[1])
            assert line["direction"] == ["J", "L"]
            assert line["verdict"] == OBSTRUCTED
            assert (delta_j.value, delta_l.value) in divisions

    def test_shared_factor_gcd_comes_from_laurent(self, monkeypatch):
        # 3_1 # 3_1 and 3_1 # 4_1: neither divides, gcd t^2 - t + 1
        gcds = []
        original = laurent.gcd

        def recorded(p, q):
            gcds.append((str(p), str(q)))
            return original(p, q)

        monkeypatch.setattr(laurent, "gcd", recorded)
        named = [(name, alexander_polynomial(parse_link_spec(spec)))
                 for name, spec in (("granny", "braid:n=3:1 1 1 2 2 2"),
                                    ("sum", "braid:n=4:1 1 1 2 -3 2 -3"),
                                    ("trefoil", "braid:n=2:1 1 1"))]
        new, old = pair_outputs(named)
        assert new == old
        lines = [json.loads(line) for line in new.splitlines()]
        granny_sum = [line for line in lines
                      if set(line["direction"]) == {"granny", "sum"}]
        assert [line["gcd"] for line in granny_sum] == ["t^2 - t + 1"] * 2
        # the reference's gcd, then the new code's, once
        assert gcds == [("t^4 - 2*t^3 + 3*t^2 - 2*t + 1",
                         "t^4 - 4*t^3 + 5*t^2 - 4*t + 1")] * 2

    # content 2, values that vanish at the point t = XI (once or twice),
    # and their products with 3_1's and 4_1's
    HAND_BUILT = [text.replace("XI", str(XI)) for text in (
        "2", "2*t^2 - 2*t + 2", "2*t^2 - 6*t + 2",
        "4*t^4 - 8*t^3 + 12*t^2 - 8*t + 4", "t^2 - t + 1", "t^2 - 3*t + 1",
        "t - XI", "(t - XI)*(t^2 - t + 1)", "(t - XI)*(t + 3)",
        "2*t - 2*XI", "(t - XI)*(t^2 - 3*t + 1)", "(t - XI)^2",
        "(t^2 - t + 1)*(t - XI)^2", "1")]

    def test_content_and_zeros_at_the_points(self):
        named = [("p%d" % i, delta_of(text))
                 for i, text in enumerate(self.HAND_BUILT)]
        zero = [d.xi_value[0] == 0 for _, d in named]
        assert sum(zero) == 7
        assert sum(d.xi_value[1] > 1 for _, d in named) == 5
        new, old = pair_outputs(named)
        assert new == old
        lines = [json.loads(line) for line in new.splitlines()]
        gcds = {line["gcd"] for line in lines}
        assert {"2", "2*t^2 - 2*t + 2", "t - %d" % XI} <= gcds

    def test_two_variable_content_and_zeros(self):
        texts = ["2*t1*t2 + 2", "t1*t2 + 1", "t1 + 3", "(t1 + 3)*(t1*t2 + 1)",
                 "(t2 + 1)*(t1 - 2)", "2", "1"]
        named = [("p%d" % i, delta_of(text, 2))
                 for i, text in enumerate(texts)]
        new, old = pair_outputs(named)
        assert new == old
        assert verdicts(new) == {OBSTRUCTED, NOT_OBSTRUCTED}

    def test_operand_errors_and_mismatches(self):
        named = [("knot", delta_of("t^2 - t + 1")), ("bad", None),
                 ("link", delta_of("t1*t2 + 1", 2)), ("broken", None),
                 ("knot again", delta_of("t^2 - t + 1")),
                 ("fig8", delta_of("t^2 - 3*t + 1"))]
        kinds = [None, "parse", None, "compute", None, None]
        new, old = pair_outputs(named, kinds)
        assert new == old
        assert verdicts(new) == {OBSTRUCTED, NOT_OBSTRUCTED,
                                 "component_mismatch", None}


class TestIntegerValues:
    def test_point_values_and_xi(self):
        # a knot's point is t = XI
        assert delta_of("t^2 - 3*t + 1").xi_value == (XI * XI - 3 * XI + 1,
                                                      1, 3)
        assert delta_of("2*t^2 - 6*t + 2").xi_value == (
            2 * (XI * XI - 3 * XI + 1), 2, 6)

    def test_link_points_cycle_through_the_screen(self):
        # t_i = XI + 1009 i^2 + i: t1 = XI, t2 = XI + 1010, t3 = XI + 4038
        delta = delta_of("t1 - 2*t2 + 3*t3", 3)
        assert delta.xi_value == (
            XI - 2 * (XI + 1010) + 3 * (XI + 4038), 1, 3)

    def test_one_point_gcd_test(self):
        trefoil, fig8 = delta_of("t^2 - t + 1"), delta_of("t^2 - 3*t + 1")
        assert obstruct._coprime(trefoil, fig8)
        # not primitive, or a common factor: the test does not apply
        assert not obstruct._coprime(delta_of("2*t^2 - 2*t + 2"),
                                     delta_of("2*t^2 - 6*t + 2"))
        assert not obstruct._coprime(
            trefoil, delta_of("(t^2 - t + 1)*(t^2 - 3*t + 1)"))
        # coefficients past XI / 2: the root bound does not hold
        big = delta_of("%d*t^2 + t + %d" % (XI, XI))
        assert not obstruct._coprime(big, delta_of("%d*t + 1" % XI))
        assert not obstruct._coprime(delta_of("t1 + 1", 2),
                                     delta_of("t1*t2 + 1", 2))

    def test_one_point_cannot_prove_a_two_variable_gcd_is_one(self):
        # f = t1 - t2 + 1009 is -1 at the point t1 = XI, t2 = XI + 1010,
        # so the values of f (t1 t2 + 3) and f (t1 + t2^2 + 5) have the
        # integer gcd 9 <= XI / 2, yet f divides both: _coprime must not
        # read that as gcd 1 at two variables
        f = "(t1 - t2 + 1009)"
        delta_j = delta_of(f + "*(t1*t2 + 3)", 2)
        delta_l = delta_of(f + "*(t1 + t2^2 + 5)", 2)
        # primitive, and coefficients far below XI / 2
        assert (delta_j.xi_value[1:], delta_l.xi_value[1:]) == ((1, 3027),
                                                                (1, 5045))
        assert (poly(f, 2).evaluate((XI, XI + 1010)) == -1
                and math.gcd(delta_j.xi_value[0], delta_l.xi_value[0]) == 9)
        report = obstruction_from_polynomials(delta_j, delta_l)
        assert report.verdict == OBSTRUCTED
        assert report.gcd_value == canonical(poly(f, 2))
