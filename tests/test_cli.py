import argparse
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys

import pytest

import ribboncheck
from ribboncheck import (alexander, cli, laurent, linkcodec, obstruct, tables,
                         wirtinger)

import cli_reference
import pipeline_reference as reference
from helpers import table_path

# the child runs the package these tests import, from wherever it is
SRC = os.path.dirname(os.path.dirname(ribboncheck.__file__))


def child_env(env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return full_env


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "ribboncheck.cli", *args],
                          capture_output=True, text=True, env=child_env(env))


class TestCompute:
    def test_trefoil_braid(self):
        r = run_cli("compute", "braid:n=2:1 1 1")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "t^2 - t + 1"

    def test_trefoil_pd(self):
        r = run_cli("compute", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        assert r.stdout.splitlines()[0] == "t^2 - t + 1"

    def test_unlink(self):
        r = run_cli("compute", "braid:n=2:")
        assert r.stdout.splitlines()[0] == "1"
        assert "components: 2" in r.stdout

    def test_json(self):
        r = run_cli("compute", "--json", "braid:n=2:1 1 1")
        payload = json.loads(r.stdout)
        assert payload["alexander"] == "t^2 - t + 1"
        assert payload["components"] == 1
        assert payload["crossings"] == 3

    def test_parse_error_exit_code(self):
        r = run_cli("compute", "braid:n=2: 5")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_crossing_bound_env(self):
        r = run_cli("compute", "braid:n=2:" + " 1" * 25)
        assert r.returncode == 2
        r = run_cli("compute", "braid:n=2:" + " 1" * 25,
                    env={"RIBBONCHECK_MAX_CROSSINGS": "40"})
        assert r.returncode == 0
        assert r.stdout.splitlines()[0].startswith("t^24")
        r = run_cli("compute", "braid:n=2:1 1 1",
                    env={"RIBBONCHECK_MAX_CROSSINGS": "abc"})
        assert r.returncode == 2
        assert "RIBBONCHECK_MAX_CROSSINGS" in r.stderr

    def test_strand_bound(self):
        # at most 2 * 24 + 1 strands under the default crossing limit
        r = run_cli("compute", "braid:n=1000000:1")
        assert r.returncode == 2
        assert "RIBBONCHECK_MAX_CROSSINGS" in r.stderr
        assert run_cli("compute", "braid:n=49:1").returncode == 0
        assert run_cli("compute", "braid:n=50:1").returncode == 2
        r = run_cli("compute", "braid:n=50:1",
                    env={"RIBBONCHECK_MAX_CROSSINGS": "25"})
        assert r.returncode == 0


class TestObstruct:
    def test_obstructed_pair(self):
        # Delta(3_1) does not divide Delta(4_1)
        r = run_cli("obstruct", "braid:n=3:1 -2 1 -2", "braid:n=2:1 1 1")
        assert r.returncode == 0
        assert r.stdout.startswith("OBSTRUCTED")

    def test_reflexive(self):
        r = run_cli("obstruct", "braid:n=2:1 1 1", "braid:n=2:1 1 1")
        assert r.stdout.strip() == "not obstructed (quotient: 1)"

    def test_both_directions_json(self):
        r = run_cli("obstruct", "--json", "--both-directions",
                    "braid:n=2:1 1 1", "braid:n=3:1 -2 1 -2")
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert len(lines) == 2
        assert lines[0]["direction"] == ["J", "L"]
        assert lines[1]["direction"] == ["L", "J"]
        assert {line["verdict"] for line in lines} == {"obstructed"}

    def test_component_mismatch_is_structured_not_fatal(self):
        r = run_cli("obstruct", "--json", "braid:n=2:1 1", "braid:n=2:1 1 1")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["verdict"] == "component_mismatch"

    def test_verdicts_never_set_exit_code(self):
        r = run_cli("obstruct", "braid:n=1:", "braid:n=2:1 1 1")
        assert r.returncode == 0
        assert r.stdout.startswith("OBSTRUCTED")

    def test_coprime_square_knot_pair(self):
        # trefoil # -trefoil against fig8 # -fig8: coprime polynomials,
        # obstructed in both directions
        j = "braid:n=3:1 1 1 -2 -2 -2"
        l = "braid:n=5:1 -2 1 -2 4 -3 4 -3"
        r = run_cli("obstruct", "--json", "--both-directions", j, l)
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert [x["verdict"] for x in lines] == ["obstructed", "obstructed"]
        assert lines[0]["deltaJ"] == "t^4 - 2*t^3 + 3*t^2 - 2*t + 1"
        assert lines[0]["deltaL"] == "t^4 - 6*t^3 + 11*t^2 - 6*t + 1"
        assert lines[0]["gcd"] == "1"


class TestBatch:
    def make_csv(self, tmp_path, rows):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_three_rows(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "unknot,braid:n=1:",
            "trefoil,braid:n=2:1 1 1",
            "fig8,braid:n=3:1 -2 1 -2",
        ])
        r = run_cli("batch", path)
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert [row["name"] for row in lines] == ["unknot", "trefoil", "fig8"]
        assert lines[1]["alexander"] == "t^2 - t + 1"

    def test_pairs_matrix(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "unknot,braid:n=1:",
            "trefoil,braid:n=2:1 1 1",
            "fig8,braid:n=3:1 -2 1 -2",
        ])
        r = run_cli("batch", path, "--pairs")
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        verdict_lines = [l for l in lines if "verdict" in l]
        assert len(verdict_lines) == 9
        diagonal = [l for l in verdict_lines if l["direction"][0] == l["direction"][1]]
        assert all(l["verdict"] == "not_obstructed" for l in diagonal)

    def test_bad_row_is_isolated(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "good,braid:n=2:1 1 1",
            "bad,braid:n=2: 9",
            "alsogood,braid:n=1:",
        ])
        r = run_cli("batch", path)
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert "alexander" in lines[0]
        assert lines[1]["error"]["kind"] == "parse"
        assert "alexander" in lines[2]

    def test_duplicate_names_keep_their_own_polynomials(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "A,braid:n=2:1 1 1",
            "A,braid:n=3:1 -2 1 -2",
        ])
        r = run_cli("batch", path, "--pairs")
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert len(lines) == 2 + 4
        first_second = lines[3]  # rows (0, 1): 3_1 against 4_1
        assert first_second["deltaJ"] == "t^2 - t + 1"
        assert first_second["deltaL"] == "t^2 - 3*t + 1"
        assert first_second["verdict"] == "obstructed"
        assert lines[5]["deltaJ"] == lines[5]["deltaL"] == "t^2 - 3*t + 1"

    def test_pair_lines_of_an_unparseable_row(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "good,braid:n=2:1 1 1",
            "bad,braid:n=2: 9",
        ])
        r = run_cli("batch", path, "--pairs")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[3] == ('{"direction": ["good", "bad"], "error": '
                            '{"kind": "parse", "message": "unparseable operand"}}')
        assert all(json.loads(line)["error"]["kind"] == "parse"
                   for line in lines[3:])

    def test_jobs_output_identical_to_serial(self, tmp_path):
        path = self.make_csv(tmp_path, [
            "trefoil,braid:n=2:1 1 1",
            "fig8,braid:n=3:1 -2 1 -2",
            "t25,braid:n=2:1 1 1 1 1",
            "unknot,braid:n=1:",
        ])
        serial = run_cli("batch", path, "--pairs")
        threaded = run_cli("batch", path, "--pairs", "--jobs", "4")
        assert serial.stdout == threaded.stdout

    def test_jobs_starts_no_process(self, tmp_path, monkeypatch, capsys):
        path = self.make_csv(tmp_path, [
            "trefoil,braid:n=2:1 1 1",
            "fig8,braid:n=3:1 -2 1 -2",
            "hopf,braid:n=2:1 1",
            "unknot,braid:n=1:",
        ])
        assert cli.main(["batch", path, "--pairs"]) == 0
        serial = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("batch started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert cli.main(["batch", path, "--pairs", "--jobs", "2"]) == 0
        assert capsys.readouterr() == serial
        assert len(serial.out.splitlines()) == 4 + 16

    def test_bundled_table_is_batchable(self):
        r = run_cli("batch", table_path("links.csv"))
        assert r.returncode == 0
        lines = [json.loads(line) for line in r.stdout.splitlines()]
        assert all("alexander" in l for l in lines)

    def test_missing_file(self):
        r = run_cli("batch", "/nonexistent/table.csv")
        assert r.returncode == 2

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx,y\n")
        r = run_cli("batch", str(path))
        assert r.returncode == 2

    def test_file_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("name,spec\ncaf\xe9,braid:n=2:1 1 1\n"
                         .encode("latin-1"))
        assert cli.main(["batch", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: batch CSV %s is not UTF-8 text "
                       "(invalid continuation byte)\n" % path)

    def test_field_past_the_csv_limit_is_an_input_error(self, tmp_path,
                                                        capsys):
        path = tmp_path / "long.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "long,braid:n=2:" + "1 " * 70000 + "\n")
        assert cli.main(["batch", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: batch CSV %s, line 3: field larger than "
                       "field limit (131072)\n" % path)

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n",
                        encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfname")
        assert cli.main(["batch", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "name": "trefoil", "spec": "braid:n=2:1 1 1", "components": 1,
            "crossings": 3, "alexander": "t^2 - t + 1"}


class TestSinglePass:
    """In-process runs of cli.main, so that module functions can be patched."""

    def count_torsion_calls(self, monkeypatch):
        calls = []
        original = alexander.torsion_order

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(alexander, "torsion_order", counted)
        return calls

    def record_gcd_calls(self, monkeypatch):
        calls = []
        original = laurent.gcd

        def recorded(p, q):
            calls.append((str(p), str(q)))
            return original(p, q)

        monkeypatch.setattr(laurent, "gcd", recorded)
        return calls

    def test_batch_pairs_computes_each_delta_once(self, tmp_path, monkeypatch,
                                                   capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "fig8,braid:n=3:1 -2 1 -2\nhopf,braid:n=2:1 1\n"
                        "unknot,braid:n=1:\n")
        calls = self.count_torsion_calls(monkeypatch)
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4 + 16
        assert len(calls) == 4

    def test_obstruct_both_directions_computes_each_delta_once(
            self, monkeypatch, capsys):
        calls = self.count_torsion_calls(monkeypatch)
        gcds = self.record_gcd_calls(monkeypatch)
        # 3_1 # 3_1 and 3_1 # 4_1
        assert cli.main(["obstruct", "--both-directions",
                         "braid:n=3:1 1 1 2 2 2",
                         "braid:n=4:1 1 1 2 -3 2 -3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len(calls) == 2
        # neither divides the other and they share t^2 - t + 1: one gcd,
        # reused for (L, J)
        assert gcds == [("t^4 - 2*t^3 + 3*t^2 - 2*t + 1",
                         "t^4 - 4*t^3 + 5*t^2 - 4*t + 1")]

    def test_obstruct_both_directions_on_equal_polynomials_divides_once(
            self, monkeypatch, capsys):
        divisions = self.count_divisions(monkeypatch)
        # 3_1 as a braid and as a PD code: two records of one value
        assert cli.main(["obstruct", "--both-directions", "--json",
                         "braid:n=2:1 1 1",
                         "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert [line["quotient"] for line in lines] == ["1", "1"]
        assert divisions == [True]

    # 3_1, 3_1 # 4_1, 4_1, T(2,4), the Hopf link and T(2,6):
    # Delta(4_1) divides Delta(3_1 # 4_1), and so does Delta(3_1)
    SIX_ROWS = ["trefoil,braid:n=2:1 1 1\n", "sum,braid:n=4:1 1 1 2 -3 2 -3\n",
                "fig8,braid:n=3:1 -2 1 -2\n", "t24,braid:n=2:1 1 1 1\n",
                "hopf,braid:n=2:1 1\n", "t26,braid:n=2:1 1 1 1 1 1\n"]

    def test_batch_pairs_takes_one_gcd_per_unordered_pair(
            self, tmp_path, monkeypatch, capsys):
        rows = self.SIX_ROWS
        divisions = []
        original = obstruct.exact_divide

        def counted(a, b):
            quotient = original(a, b)
            divisions.append(quotient is not None)
            return quotient

        monkeypatch.setattr(obstruct, "exact_divide", counted)
        gcds = self.record_gcd_calls(monkeypatch)
        # the same work in every row order, so a shuffled CSV costs the same
        for order in (rows, rows[::-1], rows[1::2] + rows[0::2]):
            del divisions[:], gcds[:]
            path = tmp_path / "table.csv"
            path.write_text("name,spec\n" + "".join(order))
            assert cli.main(["batch", str(path), "--pairs"]) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines()[6:]]
            assert len(lines) == 36
            verdicts = {tuple(line["direction"]): line.get("verdict")
                        for line in lines}
            assert verdicts[("sum", "fig8")] == "not_obstructed"
            assert verdicts[("fig8", "sum")] == "obstructed"
            # A division only where no point of the screen shows that it
            # fails: the 10 ordered pairs that divide (3 knots and 3
            # two-component links with themselves, sum by trefoil and by
            # fig8, t24 and t26 by hopf), also when (trefoil, sum) comes
            # first and needs the other direction for its gcd.  A gcd
            # only where the one-point test fails: not for trefoil and
            # fig8, and once for t24 and t26, whose gcd of (J, L) serves
            # (L, J).
            assert divisions == [True] * 10
            assert [frozenset(pair) for pair in gcds] == [
                frozenset(["t1*t2 + 1", "t1^2*t2^2 + t1*t2 + 1"])]

    def count_divisions(self, monkeypatch):
        divisions = []
        original = obstruct.exact_divide

        def counted(a, b):
            quotient = original(a, b)
            divisions.append(quotient is not None)
            return quotient

        monkeypatch.setattr(obstruct, "exact_divide", counted)
        return divisions

    # a second row for five of SIX_ROWS' polynomials: 3_1 as a PD code,
    # the mirror 4_1, the negative Hopf link, the 2-component unlink
    # (Delta 1, as the Hopf link's) and the mirror T(2,4)
    REPEATS = ['trefoil_pd,"pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"\n',
               "mirror_fig8,braid:n=3:-1 2 -1 2\n", "hopf_neg,braid:n=2:-1 -1\n",
               "unlink,braid:n=2:\n", "t24_mirror,braid:n=2:-1 -1 -1 -1\n"]

    def repeated_rows(self):
        rows = self.SIX_ROWS
        return rows[:2] + self.REPEATS[:2] + rows[2:] + self.REPEATS[2:]

    def test_batch_pairs_work_is_per_pair_of_distinct_polynomials(
            self, tmp_path, monkeypatch, capsys):
        divisions = self.count_divisions(monkeypatch)
        gcds = self.record_gcd_calls(monkeypatch)
        repeated = self.repeated_rows()
        work = []
        # the de-duplicated CSV first, then the repeated one in three orders
        for order in (self.SIX_ROWS, repeated, repeated[::-1],
                      repeated[1::2] + repeated[0::2]):
            del divisions[:], gcds[:]
            path = tmp_path / "table.csv"
            path.write_text("name,spec\n" + "".join(order))
            assert cli.main(["batch", str(path), "--pairs"]) == 0
            records = [json.loads(line) for line in
                       capsys.readouterr().out.splitlines()[:len(order)]]
            assert len({(r["components"], r["alexander"])
                        for r in records}) == 6
            work.append((divisions[:],
                         sorted(tuple(sorted(pair)) for pair in gcds)))
        # only the 10 divisions that divide, and one gcd (t24, t26)
        assert work[0] == ([True] * 10,
                           [("t1*t2 + 1", "t1^2*t2^2 + t1*t2 + 1")])
        assert work == [work[0]] * 4

    def test_batch_pairs_calls_obstruction_once_per_same_component_pair(
            self, tmp_path, monkeypatch, capsys):
        calls = []
        original = cli.obstruction_from_polynomials

        def recorded(delta_j, delta_l):
            calls.append((delta_j.text, delta_l.text))
            return original(delta_j, delta_l)

        monkeypatch.setattr(cli, "obstruction_from_polynomials", recorded)
        path = tmp_path / "table.csv"
        path.write_text("name,spec\n" + "".join(self.repeated_rows()))
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()[11:]]
        assert len(lines) == 11 * 11
        # one call per ordered pair of distinct polynomial values, in the
        # order of the first line that has it: 5 knots of 3 values and 6
        # two-component links of 3 values
        assert len(calls) == 3 * 3 + 3 * 3
        first = {}
        for line in lines:
            if line["verdict"] != "component_mismatch":
                first.setdefault((line["deltaJ"], line["deltaL"]))
        assert calls == list(first)

    def test_batch_pairs_converts_each_knot_delta_once(
            self, tmp_path, monkeypatch, capsys):
        deltas = []
        original_delta = cli.alexander_polynomial

        def recorded(diagram):
            deltas.append(original_delta(diagram))
            return deltas[-1]

        operands = []
        original_divide = obstruct.exact_divide

        def counted(p, d):
            operands.append((p, d))
            return original_divide(p, d)

        monkeypatch.setattr(cli, "alexander_polynomial", recorded)
        monkeypatch.setattr(obstruct, "exact_divide", counted)
        path = tmp_path / "table.csv"
        path.write_text("name,spec\n" + "".join(self.SIX_ROWS))
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6 + 36
        knots = [delta.value for delta in deltas if delta.nvars == 1]
        assert len(knots) == 3
        # every division takes the polynomials computed once: the trefoil
        # and 4_1 divide themselves and 3_1 # 4_1, which divides itself,
        # so they fill 3, 4 and 3 operand slots; the screen decides every
        # other knot pair, and the links take the other 5 divisions
        assert [sum(x is knot for pair in operands for x in pair)
                for knot in knots] == [3, 4, 3]
        assert len(operands) == 10

    def test_batch_pair_lines_match_obstruct(self, tmp_path, capsys):
        # knots and 2-component links; 3_1 twice (braid and PD), the
        # unknot and the Hopf link divide everything of their count, and
        # 3_1 and 4_1 divide 3_1 # 4_1: reused and skipped gcds both occur
        rows = [("trefoil", "braid:n=2:1 1 1"),
                ("trefoil_pd", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"),
                ("unknot", "braid:n=1:"), ("fig8", "braid:n=3:1 -2 1 -2"),
                ("sum", "braid:n=4:1 1 1 2 -3 2 -3"),
                ("hopf", "braid:n=2:1 1"), ("t24", "braid:n=2:1 1 1 1"),
                ("t26", "braid:n=2:1 1 1 1 1 1")]
        path = tmp_path / "table.csv"
        path.write_text("name,spec\n" + "".join(
            '%s,"%s"\n' % row for row in rows))
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        pair_lines = capsys.readouterr().out.splitlines()[len(rows):]
        assert len(pair_lines) == len(rows) ** 2
        lines = iter(pair_lines)
        verdicts = set()
        for name_j, spec_j in rows:
            for name_l, spec_l in rows:
                assert cli.main(["obstruct", "--json", spec_j, spec_l]) == 0
                single = json.loads(capsys.readouterr().out)
                assert single.pop("direction") == ["J", "L"]
                line = json.loads(next(lines))
                assert line.pop("direction") == [name_j, name_l]
                assert line == single
                verdicts.add(line["verdict"])
        assert verdicts == {"obstructed", "not_obstructed",
                            "component_mismatch"}

    def test_pair_line_bytes_with_escaped_names(self, tmp_path, capsys):
        # knots and 2-component links mixed, under names that JSON
        # escapes: every line is json.dumps of its record
        rows = [('say "3_1"', "braid:n=2:1 1 1"),
                ("back\\slash", "braid:n=3:1 -2 1 -2"),
                ("caf\u00e9", "braid:n=2:1 1"),
                ("snow\u2603man", "braid:n=2:1 1 1 1"),
                ("unknot", "braid:n=1:")]
        path = tmp_path / "table.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("name", "spec")] + rows)
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 + 25
        deltas = [alexander.alexander_polynomial(linkcodec.parse_link_spec(
            spec)) for _, spec in rows]
        pair_lines = iter(lines[5:])
        mismatches = 0
        for (name_j, _), delta_j in zip(rows, deltas):
            for (name_l, _), delta_l in zip(rows, deltas):
                line = next(pair_lines)
                if delta_j.nvars != delta_l.nvars:
                    mismatches += 1
                    assert line == json.dumps({
                        "direction": [name_j, name_l],
                        "verdict": "component_mismatch",
                        "reason": "component counts differ (%d vs %d); "
                                  "concordance preserves them"
                                  % (delta_j.nvars, delta_l.nvars)})
                else:
                    assert line == json.dumps(
                        obstruct.obstruction_from_polynomials(
                            delta_j, delta_l, names=(name_j, name_l)
                        ).to_dict())
        assert mismatches == 12
        assert '"direction": ["say \\"3_1\\"", "back\\\\slash"]' in lines[6]
        assert '"snow\\u2603man"' in lines[5 + 3 * 5 + 1]

    def test_exhausted_multivariable_gcd_exits_3(self, monkeypatch, capsys):
        # T(2,4) and T(2,6): neither polynomial divides the other
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        code = cli.main(["obstruct", "braid:n=2:1 1 1 1",
                         "braid:n=2:1 1 1 1 1 1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: gcd of two polynomials in 2 variables: GCDHEU found no "
            "common divisor at 0 evaluation points (laurent._HEU_TRIES)\n")

    def test_exhausted_gcd_in_batch_pairs_is_that_pair_s_line(
            self, monkeypatch, capsys, tmp_path):
        # T(2,4) and T(2,6) need a two-variable gcd; the trefoil's
        # one-variable gcds take their last point and finish
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        path = tmp_path / "t.csv"
        path.write_text("name,spec\n3_1,braid:n=2:1 1 1\n"
                        "T24,braid:n=2:1 1 1 1\nT26,braid:n=2:1 1 1 1 1 1\n")
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        lines = out.out.splitlines()
        assert len(lines) == 12
        failed = [line for line in lines if '"error"' in line]
        message = ("gcd of two polynomials in 2 variables: GCDHEU found no "
                   "common divisor at 0 evaluation points (laurent._HEU_TRIES)")
        assert failed == [json.dumps({"direction": names, "error": {
            "kind": "compute", "message": message}})
            for names in (["T24", "T26"], ["T26", "T24"])]
        assert all("verdict" in json.loads(line) for line in lines[3:]
                   if line not in failed)

    def test_failed_division_witness_in_batch_pairs(self, monkeypatch, capsys,
                                                    tmp_path):
        monkeypatch.setattr(obstruct, "exact_divide", lambda a, b: a)
        path = tmp_path / "t.csv"
        path.write_text("name,spec\nA,braid:n=2:1 1 1\nB,braid:n=1:\n")
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        assert len(lines) == 6
        assert lines[2] == {"direction": ["A", "A"], "error": {
            "kind": "compute",
            "message": "division witness failed verification"}}

    def test_failed_division_witness_is_a_computation_error(
            self, monkeypatch, capsys):
        # Delta_J itself is no quotient of trefoil by trefoil
        monkeypatch.setattr(obstruct, "exact_divide", lambda a, b: a)
        code = cli.main(["obstruct", "braid:n=2:1 1 1", "braid:n=2:1 1 1"])
        assert code == 3
        assert "division witness" in capsys.readouterr().err


    def test_strand_bound_is_checked_before_the_closure(self, monkeypatch,
                                                       capsys):
        def refuse(*args):
            raise AssertionError("braid parsed or closed")

        monkeypatch.setattr(linkcodec, "_braid_word", refuse)
        monkeypatch.setattr(linkcodec, "braid_closure", refuse)
        assert cli.main(["compute", "braid:n=99999999:1"]) == 2
        assert "RIBBONCHECK_MAX_CROSSINGS" in capsys.readouterr().err

    def test_crossing_bound_is_checked_before_the_closure(self, monkeypatch,
                                                         capsys):
        def refuse(*args):
            raise AssertionError("braid parsed or closed")

        monkeypatch.setattr(linkcodec, "_braid_word", refuse)
        monkeypatch.setattr(linkcodec, "braid_closure", refuse)
        spec = "braid:n=2:" + " 1" * 300000
        assert cli.main(["compute", spec]) == 2
        assert ("diagram has 300000 crossings; limit is 24 "
                "(raise RIBBONCHECK_MAX_CROSSINGS to accept)"
                in capsys.readouterr().err)
        assert cli.main(["compute", "braid:n=2:1,1 1" + ",1" * 22]) == 2
        assert "diagram has 25 crossings" in capsys.readouterr().err

    def test_pd_crossing_bound_is_checked_before_the_diagram(
            self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("PD code parsed or built")

        trefoil = "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
        assert cli.main(["compute", trefoil]) == 0
        assert capsys.readouterr().out.startswith("t^2 - t + 1\n")
        monkeypatch.setattr(linkcodec, "parse_pd", refuse)
        monkeypatch.setattr(linkcodec, "pd_diagram", refuse)
        spec = "pd:" + ";".join(["X(1,2,3,4)"] * 100001)
        assert cli.main(["compute", spec]) == 2
        assert ("diagram has 100001 crossings; limit is 24 "
                "(raise RIBBONCHECK_MAX_CROSSINGS to accept)"
                in capsys.readouterr().err)
        assert cli.main(["compute", " pd: " + "X(1,1,2,2) ;" * 24
                         + "X(3,3,4,4)"]) == 2
        assert "diagram has 25 crossings" in capsys.readouterr().err

    def test_unexpected_row_error_is_isolated(self, tmp_path, monkeypatch,
                                              capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "fig8,braid:n=3:1 -2 1 -2\nunknot,braid:n=1:\n")
        original = cli.alexander_polynomial

        def fails_on_fig8(diagram):
            if diagram.num_crossings == 4:
                raise ValueError("boom")
            return original(diagram)

        monkeypatch.setattr(cli, "alexander_polynomial", fails_on_fig8)
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        out, err = capsys.readouterr()
        assert "ValueError: boom" in err  # the traceback
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3 + 9
        assert lines[0]["alexander"] == "t^2 - t + 1"
        assert lines[1]["error"] == {"kind": "internal",
                                     "message": "ValueError: boom"}
        assert lines[2]["alexander"] == "1"
        pairs = {tuple(line["direction"]): line for line in lines[3:]}
        assert pairs[("unknot", "trefoil")]["verdict"] == "obstructed"
        fig8_pairs = [line for names, line in pairs.items() if "fig8" in names]
        assert len(fig8_pairs) == 5
        assert all(line["error"]["kind"] == "internal" for line in fig8_pairs)

    def test_unexpected_pair_error_is_that_pair_s_line(self, tmp_path,
                                                       monkeypatch, capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "fig8,braid:n=3:1 -2 1 -2\nunknot,braid:n=1:\n")
        fig8 = cli.alexander_polynomial(
            cli.parse_link_spec("braid:n=3:1 -2 1 -2"))
        original = cli.obstruction_from_polynomials

        def fails_from_fig8(dj, dl):
            if dj == fig8:
                raise KeyError("boom")
            return original(dj, dl)

        monkeypatch.setattr(cli, "obstruction_from_polynomials",
                            fails_from_fig8)
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        out, err = capsys.readouterr()
        assert "KeyError: 'boom'" in err  # the traceback
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3 + 9
        pairs = {tuple(line["direction"]): line for line in lines[3:]}
        assert {names: line["error"] for names, line in pairs.items()
                if "error" in line} == {
            ("fig8", name): {"kind": "internal", "message": "KeyError: 'boom'"}
            for name in ("trefoil", "fig8", "unknot")}
        assert pairs[("trefoil", "fig8")]["verdict"] == "obstructed"
        assert pairs[("unknot", "fig8")]["verdict"] == "obstructed"

    def test_pair_lines_carry_a_compute_error(self, tmp_path, monkeypatch,
                                              capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "fig8,braid:n=3:1 -2 1 -2\n")
        original = cli.alexander_polynomial

        def fails_on_fig8(diagram):
            if diagram.num_crossings == 4:
                raise alexander.ComputationError("past the budget")
            return original(diagram)

        monkeypatch.setattr(cli, "alexander_polynomial", fails_on_fig8)
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        assert lines[1]["error"] == {"kind": "compute",
                                     "message": "past the budget"}
        assert lines[2]["verdict"] == "not_obstructed"
        assert [line["error"]["kind"] for line in lines[3:]] == ["compute"] * 3


class TestPairsAgainstReference:
    """
    batch --pairs against the row and pair loops it replaced, kept in
    pipeline_reference: the same stdout bytes and exit code in each row
    order of the shuffle test above, on rows that repeat polynomials,
    fail, or carry names that JSON escapes.
    """

    def outputs(self, tmp_path, capsys, rows):
        """(stdout of batch --pairs, of the reference) in each row order."""
        for order in (rows, rows[::-1], rows[1::2] + rows[0::2]):
            path = tmp_path / "table.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([("name", "spec")] + order)
            assert cli.main(["batch", str(path), "--pairs"]) == 0
            new = capsys.readouterr().out
            args = argparse.Namespace(csv_path=str(path), pairs=True,
                                      max_crossings=cli._max_crossings())
            assert reference.cmd_batch(args) == 0
            yield new, capsys.readouterr().out

    # 3_1 as a braid and as a PD code, the mirror images of 3_1 and 4_1,
    # two Hopf links and the 2-component unlink (all three Delta 1),
    # names that JSON escapes, and a row each that fails to parse, to
    # compute (the 5 crossings of T(2,5)) and for an unexpected reason
    # (the 8 of T(2,8))
    ROWS = [("3_1", "braid:n=2:1 1 1"),
            ("3_1 pd", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"),
            ('mirror "3_1"', "braid:n=2:-1 -1 -1"),
            ("4_1", "braid:n=3:1 -2 1 -2"),
            ("mirror\\4_1", "braid:n=3:-1 2 -1 2"),
            ("hopf", "braid:n=2:1 1"), ("hopf\u2603", "braid:n=2:-1 -1"),
            ("unlink", "braid:n=2:"), ("caf\u00e9", "braid:n=1:"),
            ("sum", "braid:n=4:1 1 1 2 -3 2 -3"),
            ("t24", "braid:n=2:1 1 1 1"), ("bad", "braid:n=2: 9"),
            ("t25", "braid:n=2:1 1 1 1 1"),
            ("t28", "braid:n=2:1 1 1 1 1 1 1 1")]

    def test_rows_of_every_kind(self, tmp_path, monkeypatch, capsys):
        original = cli.alexander_polynomial

        def fails(diagram):
            if diagram.num_crossings == 5:
                raise alexander.ComputationError("past the budget")
            if diagram.num_crossings == 8:
                raise ValueError("boom")
            return original(diagram)

        monkeypatch.setattr(cli, "alexander_polynomial", fails)
        n = len(self.ROWS)
        for new, old in self.outputs(tmp_path, capsys, self.ROWS):
            assert new == old
            lines = [json.loads(line) for line in new.splitlines()]
            assert len(lines) == n + n * n
            kinds = {line.get("verdict") or line["error"]["kind"]
                     for line in lines[n:]}
            assert kinds == {"obstructed", "not_obstructed",
                             "component_mismatch", "parse", "compute",
                             "internal"}
            assert '"mirror \\"3_1\\"", "mirror\\\\4_1"' in new
            assert '"hopf\\u2603"' in new

    def test_pair_level_compute_errors(self, tmp_path, monkeypatch, capsys):
        # T(2,4) and T(2,6) twice each: their two-variable gcd runs out of
        # evaluation points in every pair of rows, in both directions
        monkeypatch.setattr(laurent, "_HEU_TRIES", 0)
        rows = [("3_1", "braid:n=2:1 1 1"), ("T24", "braid:n=2:1 1 1 1"),
                ("T26", "braid:n=2:1 1 1 1 1 1"),
                ("T24 mirror", "braid:n=2:-1 -1 -1 -1"),
                ("T26 again", "braid:n=2:1 1 1 1 1 1"),
                ("4_1", "braid:n=3:1 -2 1 -2")]
        for new, old in self.outputs(tmp_path, capsys, rows):
            assert new == old
            errors = [json.loads(line)["direction"] for line in
                      new.splitlines() if '"error"' in line]
            assert len(errors) == 8
            assert all({"T24", "T26"} == {name.split()[0] for name in names}
                       for names in errors)


class TestValidate:
    def test_ok(self):
        r = run_cli("validate", "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)")
        payload = json.loads(r.stdout)
        assert payload["components"] == 1
        assert payload["crossings"] == 3
        assert payload["generators"] == 3

    def test_arc_error(self):
        r = run_cli("validate", "pd:X(1,1,2,2);X(3,3,4,5)")
        assert r.returncode == 2

    def test_counts_the_presentation_without_building_it(self, monkeypatch,
                                                         capsys):
        # one Wirtinger generator per arc and one relator per crossing
        def refuse(diagram):
            raise AssertionError("validate built a presentation")

        monkeypatch.setattr(cli, "wirtinger_presentation", refuse)
        counts = {}
        for name, spec in tables.knot_table() + tables.link_table():
            assert cli.main(["validate", spec]) == 0, name
            payload = json.loads(capsys.readouterr().out)
            counts[name] = payload["generators"], payload["relators"]
            pres, _ = wirtinger.wirtinger_presentation(
                linkcodec.parse_link_spec(spec))
            assert counts[name] == (pres.num_generators,
                                    len(pres.relators)), name
        assert len(counts) == 41
        assert (counts["unlink_2"], counts["split_pair"]) == ((2, 0), (2, 1))


class TestOracleCheck:
    def test_knot(self):
        r = run_cli("oracle-check", "braid:n=2:1 1 1", "--covers", "2", "3")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["oracles"] == [
            {"kind": "cyclic_cover", "k": 2, "pass": True},
            {"kind": "cyclic_cover", "k": 3, "pass": True},
        ]

    def test_composite_degrees(self):
        # the resultant vanishes at k = 6 and 12 (Phi_6 = Delta of 3_1)
        r = run_cli("oracle-check", "braid:n=2:1 1 1", "--covers", "6", "12")
        assert r.returncode == 0
        assert all(o["pass"] for o in json.loads(r.stdout)["oracles"])

    def test_cover_degree_below_two_is_an_input_error(self, monkeypatch,
                                                      capsys):
        def refuse(spec, limit):
            raise AssertionError("diagram built for %s" % spec)

        # rejected before any work is done
        monkeypatch.setattr(cli, "parse_link_spec", refuse)
        for k in ("1", "0", "-2"):
            assert cli.main(["oracle-check", "braid:n=2:1 1 1",
                             "--covers", "2", k]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "cover degree must be at least 2, not %s" % k in err

    def test_a_knot_takes_one_presentation(self, monkeypatch, capsys):
        # cmd_oracle_check hands the presentation it builds for the covers
        # to alexander_polynomial, which built a second one before
        built, present = [], alexander.wirtinger_presentation

        def counting(diagram):
            built.append(diagram)
            return present(diagram)

        monkeypatch.setattr(alexander, "wirtinger_presentation", counting)
        monkeypatch.setattr(cli, "wirtinger_presentation", counting)
        assert cli.main(["oracle-check", "braid:n=3:1 -2 1 -2"]) == 0
        assert json.loads(capsys.readouterr().out)["oracles"][0]["pass"]
        assert len(built) == 1

    def test_link(self):
        r = run_cli("oracle-check", "braid:n=2:1 1 1 1")
        payload = json.loads(r.stdout)
        assert payload["oracles"][0]["kind"] == "torres"
        assert payload["oracles"][0]["pass"] is True


class TestSharedParser:
    """
    cli.main reads argv against one table, cli.COMMANDS; a sequence of
    calls in one process must behave as if each call had a process of its
    own.
    """

    # three components whose reduced block (3x2, rank 1) has two spare
    # rows: C(3,1) - 1 row-side minors, 2 in all
    FALLBACK = "braid:n=3:2 -1 -2 1 2 1"

    def run_alone(self, argv, env, budget=None):
        """argv run by a child process of its own: (exit code, out, err)."""
        if budget is None:
            r = run_cli(*argv, env=env)
        else:
            program = ("import sys\n"
                       "from ribboncheck import alexander, cli\n"
                       "alexander.FALLBACK_MINOR_BUDGET = %d\n"
                       "sys.exit(cli.main(sys.argv[1:]))" % budget)
            r = subprocess.run([sys.executable, "-c", program, *argv],
                               capture_output=True, text=True,
                               env=child_env(env))
        return r.returncode, r.stdout, r.stderr

    def run_here(self, argv, env, budget, monkeypatch, capsys):
        """argv run by cli.main in this process: (exit code, out, err)."""
        with monkeypatch.context() as patch:
            for name, value in env.items():
                patch.setenv(name, value)
            if budget is not None:
                patch.setattr(alexander, "FALLBACK_MINOR_BUDGET", budget)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_main_builds_no_parser(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a parser was built")

        # the table is the one parser: cli holds no other, nor argparse
        assert not {"argparse", "build_parser", "_PARSER"} & set(vars(cli))
        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        for _ in range(3):
            assert cli.main(["compute", "--json", "braid:n=2:1 1 1"]) == 0
            assert cli.main(["oracle-check", "braid:n=2:1 1 1"]) == 0
            assert cli.main(["compute", "braid:n=2: 5"]) == 2
            assert cli.main(["compute"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[2] == out[4]
        assert json.loads(out[0])["alexander"] == "t^2 - t + 1"

    def test_each_call_parses_into_a_namespace_of_its_own(
            self, tmp_path, monkeypatch, capsys):
        # the args object each command function receives
        used = []
        for name, (func, *rest) in list(cli.COMMANDS.items()):
            def recorded(args, func=func):
                used.append(args)
                return func(args)
            monkeypatch.setitem(cli.COMMANDS, name, (recorded, *rest))

        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n")
        for argv in (["batch", str(path), "--pairs"],
                     ["compute", "braid:n=2:1 1 1"],
                     ["compute", "braid:n=2:1 1 1"]):
            assert cli.main(argv) == 0
        assert len(used) == 3
        assert all(hasattr(ns, "max_crossings") for ns in used)
        assert len({id(ns) for ns in used}) == 3
        assert not hasattr(used[1], "pairs")

    def test_covers_default_is_immutable(self):
        args = cli.parse_args(["oracle-check", "braid:n=2:1 1 1"])
        assert args.covers == (2, 3, 5)

    def test_sequence_matches_one_process_per_call(self, tmp_path,
                                                   monkeypatch, capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n"
                        "fig8,braid:n=3:1 -2 1 -2\nhopf,braid:n=2:1 1\n")
        trefoil = "braid:n=2:1 1 1"
        monkeypatch.delenv("RIBBONCHECK_MAX_CROSSINGS", raising=False)
        # (argv, environment, fallback budget or None, expected exit code)
        steps = [
            (["compute", "--json", trefoil], {}, None, 0),
            (["compute", trefoil], {}, None, 0),
            (["batch", str(path), "--pairs"], {}, None, 0),
            (["batch", str(path)], {}, None, 0),
            (["oracle-check", trefoil], {}, None, 0),
            (["oracle-check", trefoil, "--covers", "2"], {}, None, 0),
            (["oracle-check", trefoil], {}, None, 0),
            (["compute"], {}, None, 2),
            (["compute", "--json", trefoil], {}, None, 0),
            (["compute", "braid:n=2: 5"], {}, None, 2),
            (["obstruct", trefoil, "braid:n=3:1 -2 1 -2", "--json"], {},
             None, 0),
            (["compute", self.FALLBACK], {}, 1, 3),
            (["compute", "--json", self.FALLBACK], {}, None, 0),
            (["compute", trefoil], {"RIBBONCHECK_MAX_CROSSINGS": "3"},
             None, 0),
            (["compute", trefoil], {"RIBBONCHECK_MAX_CROSSINGS": "2"},
             None, 2),
            (["compute", trefoil], {}, None, 0),
            (["oracle-check", "--help"], {}, None, 0),
            (["validate", trefoil], {}, None, 0),
        ]
        results = []
        for argv, env, budget, expected in steps:
            here = self.run_here(argv, env, budget, monkeypatch, capsys)
            assert here == self.run_alone(argv, env, budget), argv
            assert here[0] == expected, argv
            results.append(here)
        covers = [[o["k"] for o in json.loads(results[i][1])["oracles"]]
                  for i in (4, 5, 6)]
        assert covers == [[2, 3, 5], [2], [2, 3, 5]]
        assert "budget of 1" in results[11][2]
        assert "limit is 2 " in results[14][2]


class TestCommandTable:
    """
    cli.parse_args against the argparse parser it replaced
    (tests/cli_reference.py): wherever argparse accepts an argv, the
    table gives the same value for every dest; wherever argparse exits
    2, parse_args raises ParseError and main returns 2.
    """

    TREFOIL, FIG8 = "braid:n=2:1 1 1", "braid:n=3:1 -2 1 -2"
    # the grammar, written out here rather than read from cli.COMMANDS:
    # each command's flags and integer options (True: one or more values)
    FLAGS = {"compute": ("--json",),
             "obstruct": ("--json", "--both-directions"),
             "batch": ("--pairs",), "validate": (), "oracle-check": ()}
    INTEGER_OPTIONS = {"batch": {"--jobs": False},
                       "oracle-check": {"--covers": True}}
    FOREIGN = ("--json", "--both-directions", "--pairs", "--jobs", "--covers",
               "--bogus", "-x")
    INTEGERS = ("-3", "-1", "0", "1", "2", "3", "5", "12")
    NOT_INTEGERS = ("x", "2.5", "", "3x")

    def draw(self, rng, csv_path):
        """One argv of the grammar: valid often, each kind of error too."""
        if rng.random() < 0.03:
            return []
        if rng.random() < 0.06:
            return [rng.choice(("comput", "frobnicate", "--json", "7")),
                    self.TREFOIL]
        command = rng.choice(list(self.FLAGS))
        positionals = {"obstruct": [self.TREFOIL, self.FIG8],
                       "batch": [csv_path]}.get(command, [self.TREFOIL])
        if rng.random() < 0.1:
            del positionals[rng.randrange(len(positionals))]
        elif rng.random() < 0.1:
            positionals.append(rng.choice(("extra", "7", self.TREFOIL)))
        groups = [[token] for token in positionals]
        for flag in self.FLAGS[command]:
            groups += [[flag]] * rng.choice((0, 1, 1, 2))
        options = dict(self.INTEGER_OPTIONS.get(command, {}))
        if rng.random() < 0.15:
            foreign = rng.choice(self.FOREIGN)
            options.setdefault(foreign, rng.random() < 0.5)
            groups.append([foreign])
        for option, many in options.items():
            for _ in range(rng.choice((0, 1, 1, 2))):
                values = [rng.choice(self.INTEGERS)
                          for _ in range(rng.randint(1, 4) if many else 1)]
                if rng.random() < 0.1:
                    values[rng.randrange(len(values))] = rng.choice(
                        self.NOT_INTEGERS)
                if rng.random() < 0.08:
                    values = []
                groups.append([option] + values)
        rng.shuffle(groups)
        return [command] + [token for group in groups for token in group]

    def test_same_namespace_or_exit_2_as_argparse(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n")
        parser = cli_reference.build_parser()
        rng = random.Random(44)
        seen = {"accepted": set(), "refused": set()}
        for _ in range(3000):
            argv = self.draw(rng, str(path))
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    expected = parser.parse_args(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                with pytest.raises(linkcodec.ParseError):
                    cli.parse_args(argv)
                assert cli.main(argv) == 2, argv
                seen["refused"].add(tuple(argv[:1]))
            else:
                assert vars(cli.parse_args(argv)) == vars(expected), argv
                seen["accepted"].add((argv[0], len(argv)))
        capsys.readouterr()
        assert {command for command, _ in seen["accepted"]} == set(self.FLAGS)
        assert len(seen["accepted"]) >= 25
        assert seen["refused"] >= {(), ("frobnicate",)} | {
            (command,) for command in self.FLAGS}

    def test_prefix_abbreviation_is_a_usage_error(self, capsys):
        argv = ["obstruct", self.TREFOIL, self.FIG8, "--both"]
        assert cli_reference.build_parser().parse_args(argv).both_directions
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            "error: unknown option '--both'\nusage: ribboncheck obstruct "
            "[--json] [--both-directions] spec_j spec_l\n"))

    def test_option_equals_value_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("name,spec\ntrefoil,braid:n=2:1 1 1\n")
        argv = ["batch", str(path), "--jobs=2"]
        assert cli_reference.build_parser().parse_args(argv).jobs == 2
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown option '--jobs=2'\n")

    def test_double_dash_is_a_usage_error(self, capsys):
        argv = ["compute", "--", self.TREFOIL]
        assert cli_reference.build_parser().parse_args(argv).spec == \
            self.TREFOIL
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown option '--'\n")

    def test_usage_errors_name_the_usage_line(self, capsys):
        for argv, message in [
                (["compute"], "missing spec"),
                (["obstruct", self.TREFOIL], "missing spec_l"),
                (["validate", self.TREFOIL, "7"], "unexpected argument '7'"),
                (["batch", "t.csv", "--jobs"], "--jobs N takes integers"),
                (["oracle-check", "--covers", "3", "2", self.TREFOIL],
                 "--covers K [K ...] takes integers")]:
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            error, usage = err.splitlines()
            assert error == "error: " + message
            assert usage.startswith("usage: ribboncheck %s " % argv[0])
        assert cli.main([]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: no command given"
        assert [line.split("ribboncheck ")[1].split()[0]
                for line in err[1:]] == list(cli.COMMANDS)

    def test_help_prints_the_usage_and_exits_0(self, monkeypatch, capsys):
        # help reads no environment, as argparse's exited before main did
        monkeypatch.setenv("RIBBONCHECK_MAX_CROSSINGS", "x")
        assert cli.main(["oracle-check", self.TREFOIL, "--help"]) == 0
        assert capsys.readouterr() == (
            "usage: ribboncheck oracle-check [--covers K [K ...]] spec\n", "")
        assert cli.main(["-h"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split()[-1] for line in out.splitlines()] == [
            "spec", "spec_l", "csv_path", "spec", "spec"]


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = run_cli("compute", "--json", "braid:n=3:1 -2 1 -2")
        b = run_cli("compute", "--json", "braid:n=3:1 -2 1 -2")
        assert a.stdout == b.stdout


class TestStartUp:
    def loaded(self, names, *options):
        """Those of names in sys.modules once a child of the given python
        options has imported cli and read both tables."""
        program = ("import sys\n"
                   "import ribboncheck.cli\n"
                   "from ribboncheck import tables\n"
                   "tables.knot_table(), tables.link_table()\n"
                   "print(sorted(%r & set(sys.modules)))" % set(names))
        r = subprocess.run([sys.executable, *options, "-c", program],
                           capture_output=True, text=True, env=child_env())
        assert r.returncode == 0, r.stderr
        return r.stdout

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # a command's cost is mostly start-up: the first two were about
        # half of what the package added to a bare interpreter, and
        # argparse parsed every call twice and loaded gettext
        assert self.loaded({"dataclasses", "inspect", "argparse",
                            "gettext"}) == "[]\n"

    def test_reading_the_tables_loads_no_resource_machinery(self):
        # the tables are plain files beside tables.py; -S, because a site
        # hook may import importlib.resources before the package does
        assert self.loaded({"importlib.resources", "zipfile", "tempfile",
                            "pathlib"}, "-S") == "[]\n"
