import random
from fractions import Fraction

import pytest

from ribboncheck.linkcodec import (BraidWord, DiagramError, ParseError,
                                   PDCode, braid_closure, connected_sum,
                                   linking_number, parse_braid,
                                   parse_link_spec, parse_pd, pd_diagram,
                                   sublink)

from conftest import random_closure

TREFOIL_PD = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"


class TestParsePD:
    def test_trefoil(self):
        pd = parse_pd(TREFOIL_PD)
        assert len(pd) == 3
        assert pd.crossings[0] == (1, 4, 2, 5)
        diagram = pd_diagram(pd)
        assert diagram.num_components == 1

    def test_tuple_arity_error(self):
        with pytest.raises(ParseError):
            parse_pd("X(1,2,3)")

    def test_label_count_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X(1,1,2,2);X(3,3,4,5)")

    def test_label_range_error(self):
        with pytest.raises(DiagramError):
            parse_pd("X(1,4,2,5);X(3,7,4,1);X(5,2,7,3)")

    @pytest.mark.parametrize("crossings", [((1, 3, 2, 4), (2, 4, 1, 5)),
                                           ((0, 1, 0, 1),), ((1, 1, 1, 1),),
                                           ((1, 2, 3, 4, 1), (2, 3, 4))])
    def test_hand_built_code_checked(self, crossings):
        # the checks live in PDCode, not only in parse_pd
        with pytest.raises(DiagramError):
            pd_diagram(PDCode(crossings))

    def test_whitespace_insensitive(self):
        pd = parse_pd(" X( 1 ,4, 2,5) ; X(3,6,4,1);X(5,2,6,3) ")
        assert len(pd) == 3

    def test_kink(self):
        diagram = pd_diagram(parse_pd("X(1,1,2,2)"))
        assert diagram.num_components == 1
        assert diagram.num_arcs == 1

    def test_always_over_component_resolved_deterministically(self):
        # component {3,4} is the over strand at both crossings, so its
        # orientation is settled by the label-successor fallback; the code
        # is virtual (a never-under component cannot link in the plane)
        # and is accepted as combinatorial data
        d = pd_diagram(parse_pd("X(1,3,2,4);X(2,4,1,3)"))
        assert d.num_components == 2
        assert d.num_arcs == 3
        assert abs(linking_number(d, 0, 1)) == 1
        again = pd_diagram(parse_pd("X(1,3,2,4);X(2,4,1,3)"))
        assert again == d


class TestParseBraid:
    def test_basic(self):
        assert parse_braid("n=2: 1 1 1") == BraidWord(2, (1, 1, 1))

    def test_commas(self):
        assert parse_braid("n=3: 1,-2,1,-2") == BraidWord(3, (1, -2, 1, -2))

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_braid("n=2: 3")

    def test_empty_word(self):
        assert parse_braid("n=2:") == BraidWord(2, ())

    def test_integral_values_stored_as_ints(self):
        word = BraidWord(3.0, [True, Fraction(-4, 2)])
        assert word == BraidWord(3, (1, -2))
        assert [type(x) for x in (word.strands, *word.letters)] == [int] * 3
        assert braid_closure(word) == braid_closure(BraidWord(3, (1, -2)))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_braid("2: 1 1")


class TestLinkSpec:
    def test_dispatch(self):
        assert parse_link_spec("pd:" + TREFOIL_PD).num_crossings == 3
        assert parse_link_spec("braid:n=2:1 1 1").num_crossings == 3
        with pytest.raises(ParseError):
            parse_link_spec("dt:4 6 2")


class TestBraidClosure:
    def test_trefoil(self):
        d = braid_closure(BraidWord(2, (1, 1, 1)))
        assert (d.num_components, d.num_crossings) == (1, 3)

    def test_empty_word_unlink(self):
        d = braid_closure(BraidWord(2, ()))
        assert (d.num_components, d.num_crossings) == (2, 0)

    def test_hopf(self):
        d = braid_closure(BraidWord(2, (1, 1)))
        assert (d.num_components, d.num_crossings) == (2, 2)

    def test_component_count_is_cycle_count(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(1, 5)
            length = rng.randint(0, 10)
            letters = tuple(rng.choice([1, -1]) * rng.randint(1, max(n - 1, 1))
                            for _ in range(length)) if n > 1 else ()
            word = BraidWord(n, letters)
            d = braid_closure(word)
            assert d.num_components == len(word.cycles())

    def test_signs_follow_letters(self):
        d = braid_closure(BraidWord(3, (1, -2)))
        assert [c.sign for c in d.crossings] == [1, -1]


class TestLinkingNumber:
    def test_hopf(self):
        d = braid_closure(BraidWord(2, (1, 1)))
        assert linking_number(d, 0, 1) == 1

    def test_mirror_hopf(self):
        d = braid_closure(BraidWord(2, (-1, -1)))
        assert linking_number(d, 0, 1) == -1

    def test_unlink(self):
        d = braid_closure(BraidWord(2, ()))
        assert linking_number(d, 0, 1) == 0

    def test_symmetric_and_mirror_negated(self):
        rng = random.Random(99)
        count = 0
        while count < 30:
            word = random_closure(rng, (2, 4), (1, 8))
            d = braid_closure(word)
            if d.num_components < 2:
                continue
            count += 1
            dm = braid_closure(word.mirror())
            for i in range(d.num_components):
                for j in range(i + 1, d.num_components):
                    lk = linking_number(d, i, j)
                    assert lk == linking_number(d, j, i)
                    assert linking_number(dm, i, j) == -lk

    def test_index_errors(self):
        d = braid_closure(BraidWord(2, (1, 1)))
        with pytest.raises(DiagramError):
            linking_number(d, 0, 2)
        with pytest.raises(DiagramError):
            linking_number(d, 1, 1)


class TestBraidWordOps:
    def test_mirror(self):
        assert BraidWord(2, (1, 1, 1)).mirror().letters == (-1, -1, -1)

    def test_reverse(self):
        assert BraidWord(3, (1, -2)).reverse().letters == (-2, 1)

    def test_mirror_involution(self):
        w = BraidWord(4, (1, -2, 3, 3, -1))
        assert w.mirror().mirror() == w

    def test_inverse_is_reversed_mirror(self):
        w = BraidWord(3, (1, -2))
        assert w.inverse().letters == (2, -1)


class TestConnectedSum:
    def test_shift_construction(self):
        s = connected_sum(BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)))
        assert s == BraidWord(4, (1, 1, 1, 2, -3, 2, -3))

    def test_unknot_identity(self):
        s = connected_sum(BraidWord(2, (1, 1, 1)), BraidWord(1, ()))
        assert s == BraidWord(2, (1, 1, 1))

    def test_link_operand_rejected(self):
        with pytest.raises(DiagramError):
            connected_sum(BraidWord(2, (1, 1)), BraidWord(2, (1, 1, 1)))

    def test_closure_is_knot(self):
        s = connected_sum(BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)))
        assert braid_closure(s).num_components == 1


class TestSublink:
    def test_hopf_component_is_unknot(self):
        d = braid_closure(BraidWord(2, (1, 1)))
        s = sublink(d, 0)
        assert (s.num_components, s.num_crossings) == (1, 0)

    def test_knot_with_satellite_crossings(self):
        # trefoil on strands 1-2 plus a far unknotted strand woven through
        d = braid_closure(BraidWord(3, (1, 1, 1, 2, -2)))
        assert d.num_components == 2
        s0 = sublink(d, 0)
        assert s0.num_components == 1
        assert s0.num_crossings == 3  # the trefoil survives

    def test_arc_count_consistency(self, bundled_knots):
        for name, diagram in bundled_knots:
            assert diagram.num_components == 1
            # a knot diagram with c > 0 crossings has c under-passes,
            # hence c arcs
            if diagram.num_crossings:
                assert diagram.num_arcs == diagram.num_crossings


class TestPdTieBreak:
    """pd_diagram's label rule, which runs every strand x -> x + 1 (or
    hi -> lo) along its component's run of labels, so that the over edges
    b, d run d -> b where b = d + 1, against the label-successor rule
    that read them b -> d and rejected such valid codes."""

    UNLINK_PD = "pd:X(1,6,2,5);X(2,6,3,7);X(3,8,4,7);X(4,8,1,5)"

    def test_successor_read_backwards(self, capsys):
        # the closure of s1^-1 s1 s1^-1 s1, a diagram of the 2-component
        # unlink; the label-successor rule rejected it
        from ribboncheck import cli
        from pipeline_reference import label_successor_pd_diagram
        pd = parse_pd(self.UNLINK_PD[3:])
        with pytest.raises(DiagramError, match="step by one"):
            label_successor_pd_diagram(pd)
        assert pd_diagram(pd).num_components == 2
        assert cli.main(["compute", self.UNLINK_PD]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert cli.main(["compute", "braid:n=2:-1 1 -1 1"]) == 0
        assert first == capsys.readouterr().out.splitlines()[0] == "1"

    def test_pd_twins_against_label_successor(self):
        # every code the old rule accepts keeps its diagram, and every one
        # it rejected parses to its braid's Delta
        import time
        from helpers import braid_to_pd
        from pipeline_reference import label_successor_pd_diagram
        from ribboncheck.alexander import alexander_polynomial
        started = time.process_time()
        rng = random.Random(1717)
        accepted = rejected = 0
        while accepted + rejected < 1500:
            word = random_closure(rng, (2, 12), (2, 24))
            pd = braid_to_pd(word)
            if pd is None:
                continue
            try:
                old = label_successor_pd_diagram(pd)
            except DiagramError:
                old = None
            new = pd_diagram(pd)
            if old is not None:
                assert new == old, word
                accepted += 1
                if accepted % 25:
                    continue
            else:
                rejected += 1
            assert alexander_polynomial(new).text == \
                alexander_polynomial(braid_closure(word)).text, word
        assert rejected >= 15
        assert time.process_time() - started < 10


def _mutated(rng, crossings):
    """The crossings after one edit that keeps every label used twice:
    over edges swapped, a tuple rotated or mirrored, or the labels
    permuted, two of them swapped, or all shifted."""
    xs = [list(x) for x in crossings]
    i, kind = rng.randrange(len(xs)), rng.randrange(6)
    if kind == 0:
        xs[i][1], xs[i][3] = xs[i][3], xs[i][1]
    elif kind == 1:
        r = rng.randint(1, 3)
        xs[i] = xs[i][r:] + xs[i][:r]
    elif kind == 2:
        xs[i].reverse()
    else:
        relabel = list(range(1, 2 * len(xs) + 1))
        if kind == 3:
            rng.shuffle(relabel)
        elif kind == 4:
            u, v = rng.sample(range(len(relabel)), 2)
            relabel[u], relabel[v] = relabel[v], relabel[u]
        else:
            k = rng.randrange(len(relabel))
            relabel = relabel[k:] + relabel[:k]
        xs = [[relabel[e - 1] for e in x] for x in xs]
    return tuple(map(tuple, xs))


class TestAgainstPropagation:
    """pd_diagram reads each direction from the labels; the head/tail
    propagation with its stalled tie-break, which it replaced, must
    accept the same codes and give the same diagrams."""

    @staticmethod
    def agree(codes):
        from pipeline_reference import propagation_pd_diagram
        accepted = rejected = 0
        for crossings in codes:
            pd = PDCode(crossings)
            try:
                old = propagation_pd_diagram(pd)
            except DiagramError:
                with pytest.raises(DiagramError):
                    pd_diagram(pd)
                rejected += 1
            else:
                assert pd_diagram(pd) == old, crossings
                accepted += 1
        return accepted, rejected

    @staticmethod
    def twins(rng, count):
        from helpers import braid_to_pd
        out = []
        while len(out) < count:
            pd = braid_to_pd(random_closure(rng, (2, 12), (1, 24)))
            if pd is not None:
                out.append(pd.crossings)
        return out

    def test_bundled(self):
        from ribboncheck.tables import knot_table, link_table
        codes = [parse_pd(spec[3:]).crossings
                 for _, spec in knot_table() + link_table()
                 if spec.startswith("pd:")]
        assert self.agree(codes) == (29, 0)

    def test_twins_mutated_and_random_pairings(self):
        import time
        started = time.process_time()
        rng = random.Random(2205)
        twins = self.twins(rng, 2000)
        assert self.agree(twins) == (2000, 0)
        accepted, rejected = self.agree(_mutated(rng, x) for x in twins)
        assert accepted >= 500 and rejected >= 500
        pairings = []
        for _ in range(4000):
            labels = [e for e in range(1, 2 * rng.randint(1, 8) + 1)
                      for _ in range(2)]
            rng.shuffle(labels)
            pairings.append(tuple(zip(*[iter(labels)] * 4)))
        accepted, rejected = self.agree(pairings)
        assert accepted >= 300 and rejected >= 2000
        assert time.process_time() - started < 10
