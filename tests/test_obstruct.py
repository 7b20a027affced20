import json
import random
import sys
from pathlib import Path

import pytest

import pipeline_reference as reference
from ribboncheck import cli, laurent, obstruct
from ribboncheck.alexander import XI, AlexanderPolynomial, alexander_polynomial
from ribboncheck.laurent import (LaurentPoly, canonical, exact_divide,
                                 parse_poly)
from ribboncheck.linkcodec import braid_closure, connected_sum, parse_braid, \
    parse_link_spec
from ribboncheck.obstruct import (ComponentMismatch, NOT_OBSTRUCTED,
                                  OBSTRUCTED, coprimality_report,
                                  obstruction_from_polynomials,
                                  ribbon_obstruction)

from conftest import random_braid_knot

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


def poly(expr, nvars=1):
    """The value of a Python expression in t (or t1, t2, ...), ^ for **."""
    names = ({"t": LaurentPoly.variable(0, 1)} if nvars == 1 else
             {"t%d" % (i + 1): LaurentPoly.variable(i, nvars)
              for i in range(nvars)})
    value = eval(expr.replace("^", "**"), {}, names)
    return (LaurentPoly.constant(value, nvars) if isinstance(value, int)
            else value)


def delta_of(expr, nvars=1):
    """A hand-built AlexanderPolynomial: the canonical form of expr."""
    return AlexanderPolynomial(canonical(poly(expr, nvars)), nvars)


class TestSharedMemo:
    """
    One shared dict for any number of calls on the same two values.  A
    division runs only where the one cached value does not show that it
    fails, and a gcd only where the one-point test does not prove it 1.
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


def table_pairs_specs(seed):
    """The specs of perfbench's table_pairs CSV rows at seed."""
    fresh = {"workloads", "published", "reference"} - set(sys.modules)
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        return [link.spec for link in
                workloads.generate("table_pairs", seed, Path(PERFBENCH).parent)
                .requests[0].rows]
    finally:
        sys.path.remove(PERFBENCH)
        for name in fresh:
            sys.modules.pop(name, None)


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
            n = rng.randint(2, 5)
            word = parse_braid("n=%d:" % n + " ".join(
                str(rng.choice((1, -1)) * rng.randint(1, n - 1))
                for _ in range(rng.randint(1, 12))))
            named.append(("r%d" % i, alexander_polynomial(braid_closure(word))))
        assert {d.nvars for _, d in named} >= {1, 2, 3, 4}
        new, old = pair_outputs(named)
        assert new == old
        assert verdicts(new) == {OBSTRUCTED, NOT_OBSTRUCTED,
                                 "component_mismatch"}

    def test_one_point_shows_what_the_six_points_show(self, bundled_knots,
                                                      bundled_links):
        # random.Random(7)'s 600 closures of 2-5 strands and 4-12 letters,
        # the bundled tables and perfbench's seed-1 table_pairs CSV: on
        # every ordered pair of distinct values, the one point screens
        # out no pair that divides and lets through none that does not
        rng = random.Random(7)
        words = []
        for _ in range(600):
            n = rng.randint(2, 5)
            words.append(parse_braid("n=%d:" % n + " ".join(
                str(rng.choice((1, -1)) * rng.randint(1, n - 1))
                for _ in range(rng.randint(4, 12)))))
        diagrams = ([braid_closure(word) for word in words]
                    + [d for _, d in bundled_knots + bundled_links]
                    + [parse_link_spec(spec) for spec in table_pairs_specs(1)])
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
