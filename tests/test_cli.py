import json
import os
import subprocess
import sys

import ribboncheck
from ribboncheck import alexander, cli, laurent, linkcodec, obstruct
from ribboncheck.tables import table_path

# the child runs the package these tests import, from wherever it is
SRC = os.path.dirname(os.path.dirname(ribboncheck.__file__))


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, full_env.get("PYTHONPATH")]))
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "ribboncheck.cli", *args],
                          capture_output=True, text=True, env=full_env)


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
        assert cli.main(["obstruct", "--both-directions", "braid:n=2:1 1 1",
                         "braid:n=3:1 -2 1 -2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len(calls) == 2
        # neither divides the other: one gcd, reused for (L, J)
        assert gcds == [("t^2 - t + 1", "t^2 - 3*t + 1")]

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
            divisions.append(1)
            return original(a, b)

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
            # One division per same-component ordered pair (3 knots
            # squared, 3 two-component links squared).  No gcd where the
            # components differ or either polynomial divides the other,
            # also for (trefoil, sum) when met first in the direction that
            # does not divide; the gcd of (J, L) serves (L, J).
            assert len(divisions) == 18
            assert set(map(frozenset, gcds)) == {
                frozenset(["t^2 - t + 1", "t^2 - 3*t + 1"]),
                frozenset(["t1*t2 + 1", "t1^2*t2^2 + t1*t2 + 1"])}
            assert len(gcds) == 2

    def test_batch_pairs_converts_each_knot_delta_once(
            self, tmp_path, monkeypatch, capsys):
        deltas = []
        original_delta = cli.alexander_polynomial

        def recorded(diagram):
            deltas.append(original_delta(diagram))
            return deltas[-1]

        converted = []
        original_convert = laurent._to_dense

        def counted(p):
            converted.append(p)
            return original_convert(p)

        monkeypatch.setattr(cli, "alexander_polynomial", recorded)
        monkeypatch.setattr(laurent, "_to_dense", counted)
        path = tmp_path / "table.csv"
        path.write_text("name,spec\n" + "".join(self.SIX_ROWS))
        assert cli.main(["batch", str(path), "--pairs"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6 + 36
        knots = [delta.value for delta in deltas if delta.nvars == 1]
        assert len(knots) == 3
        # each takes part in 5 divisions and the trefoil and 4_1 in a gcd,
        # all on the dense list kept on the polynomial
        assert [sum(p is knot for p in converted) for knot in knots] == [1] * 3

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

    def test_failed_division_witness_is_a_computation_error(
            self, monkeypatch, capsys):
        # Delta_J itself is no quotient of trefoil by trefoil
        monkeypatch.setattr(obstruct, "exact_divide", lambda a, b: a)
        code = cli.main(["obstruct", "braid:n=2:1 1 1", "braid:n=2:1 1 1"])
        assert code == 3
        assert "division witness" in capsys.readouterr().err


    def test_strand_bound_is_checked_before_the_closure(self, monkeypatch,
                                                       capsys):
        def refuse(spec):
            raise AssertionError("closure built for %s" % spec)

        monkeypatch.setattr(cli, "parse_link_spec", refuse)
        assert cli.main(["compute", "braid:n=99999999:1"]) == 2
        assert "RIBBONCHECK_MAX_CROSSINGS" in capsys.readouterr().err

    def test_crossing_bound_is_checked_before_the_closure(self, monkeypatch,
                                                         capsys):
        def refuse(spec):
            raise AssertionError("closure built for a long braid")

        monkeypatch.setattr(cli, "parse_link_spec", refuse)
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
        def refuse(spec):
            raise AssertionError("diagram built for %s" % spec)

        # rejected before any work is done
        monkeypatch.setattr(cli, "parse_link_spec", refuse)
        for k in ("1", "0", "-2"):
            assert cli.main(["oracle-check", "braid:n=2:1 1 1",
                             "--covers", "2", k]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "cover degree must be at least 2, not %s" % k in err

    def test_link(self):
        r = run_cli("oracle-check", "braid:n=2:1 1 1 1")
        payload = json.loads(r.stdout)
        assert payload["oracles"][0]["kind"] == "torres"
        assert payload["oracles"][0]["pass"] is True


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = run_cli("compute", "--json", "braid:n=3:1 -2 1 -2")
        b = run_cli("compute", "--json", "braid:n=3:1 -2 1 -2")
        assert a.stdout == b.stdout
