import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"


@pytest.fixture(scope="module")
def same_output():
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMMANDS = [["compute", "--json", "braid:n=2:1 1 1"],
            ["validate", "braid:n=1:"],
            ["batch", "t.csv", "--pairs"]]
RESULTS = [[0, '{"alexander": "t^2 - t + 1"}\n', ""],
           [0, '{"spec": "braid:n=1:"}\n', ""],
           [0, "row 1\nrow 2\npair 1\n", ""]]


def changed(index, field, value):
    results = [list(r) for r in RESULTS]
    results[index][field] = value
    return results


class TestFirstDifference:
    def test_identical(self, same_output):
        assert same_output.differences(COMMANDS, RESULTS,
                                       [list(r) for r in RESULTS]) == []

    def test_exit_code(self, same_output):
        diff, = same_output.differences(COMMANDS, RESULTS, changed(1, 0, 3))
        assert diff == "validate braid:n=1:: exit code differs: 0 against 3"

    def test_stdout_names_the_line(self, same_output):
        diff, = same_output.differences(
            COMMANDS, RESULTS, changed(2, 1, "row 1\nrow 2\npair 2\n"))
        assert diff == ("batch t.csv --pairs: stdout line 3 differs: "
                        "'pair 1\\n' against 'pair 2\\n'")

    def test_missing_last_line(self, same_output):
        diff, = same_output.differences(
            COMMANDS, RESULTS, changed(2, 1, "row 1\nrow 2\n"))
        assert diff == ("batch t.csv --pairs: stdout line 3 differs: "
                        "'pair 1\\n' against ''")

    def test_trailing_newline(self, same_output):
        diff, = same_output.differences(
            COMMANDS, RESULTS, changed(1, 1, '{"spec": "braid:n=1:"}'))
        assert diff == ("validate braid:n=1:: stdout line 1 differs: "
                        "'{\"spec\": \"braid:n=1:\"}\\n' against "
                        "'{\"spec\": \"braid:n=1:\"}'")

    def test_stderr(self, same_output):
        diff, = same_output.differences(
            COMMANDS, RESULTS, changed(0, 2, "error: x\n"))
        assert diff == ("compute --json braid:n=2:1 1 1: stderr line 1 "
                        "differs: '' against 'error: x\\n'")

    def test_first_of_several(self, same_output):
        results = changed(2, 0, 1)
        results[1][2] = "warning\n"
        first, second = same_output.differences(COMMANDS, RESULTS, results)
        assert first.startswith("validate braid:n=1:: stderr line 1")
        assert second == "batch t.csv --pairs: exit code differs: 0 against 1"

    def test_every_differing_command(self, same_output):
        # each command by its first differing field only
        results = changed(2, 0, 1)
        results[2][1] = "row 1\n"
        results[0][2] = "error: x\n"
        assert same_output.differences(COMMANDS, RESULTS, results) == [
            "compute --json braid:n=2:1 1 1: stderr line 1 differs: '' "
            "against 'error: x\\n'",
            "batch t.csv --pairs: exit code differs: 0 against 1"]

    def test_blocks(self, same_output):
        blocks = [{"rows": 2, "columns": 2, "path": "shortcut"}]
        parent = [r + [None] for r in RESULTS]
        parent[0][3] = [blocks]
        change = [list(r) for r in parent]
        change[0][3] = [[dict(blocks[0], path="fallback")]]
        assert same_output.differences(COMMANDS, parent, [
            list(r) for r in parent]) == []
        diff, = same_output.differences(COMMANDS, parent, change)
        assert diff.startswith("compute --json braid:n=2:1 1 1: blocks "
                               "differs: [[{'rows': 2")

    def test_result_counts(self, same_output):
        diff, = same_output.differences(COMMANDS, RESULTS, RESULTS[:2])
        assert diff == "result counts differ: 3 commands, 3 and 2 results"


def test_main_names_a_usage_command_whose_text_differs(same_output,
                                                        monkeypatch, capsys):
    # only the wording of one usage error's stderr differs: every stream
    # is written on both sides, and the exit codes agree
    argv = ["compute"]
    assert argv in same_output.USAGE_COMMANDS

    def run_side(tree, commands):
        err = "error: %s\n" % ("missing" if tree.name == "parent" else "needs")
        return [[2, "", err if c == argv else "", None] for c in commands]

    monkeypatch.setattr(same_output.ab_bench, "export", lambda rev, into: None)
    monkeypatch.setattr(same_output, "corpus", lambda tree, seeds: ([], {}))
    monkeypatch.setattr(same_output, "run_side", run_side)
    assert same_output.main(["PARENT", "CHANGE"]) == 1
    assert capsys.readouterr().out == (
        "compute: stderr line 1 differs: 'error: missing\\n' against "
        "'error: needs\\n'\ndifferences: 1 in %d commands\n"
        % len(same_output.ARGV_FORMS + same_output.USAGE_COMMANDS))


# the path of each block of each FALLBACK_CLOSURES entry, in order
FALLBACK_PATHS = (
    ["shortcut", "rank0"], ["shortcut", "rank0"], ["fallback"],
    ["fallback", "rank0"], ["shortcut", "rank0"], ["fallback", "rank0"],
    ["fallback"], ["shortcut", "shortcut", "rank0"], ["shortcut", "rank0"],
    ["fallback", "rank0"], ["shortcut", "rank0"],
    ["rank0", "shortcut", "rank0"], ["rank0", "fallback", "rank0"],
    ["rank0", "fallback", "rank0"], ["fallback", "rank0"], ["fallback"],
    ["fallback"], ["fallback"], ["fallback"])


def test_fallback_closures_reach_the_fallback(same_output):
    from ribboncheck.alexander import alexander_polynomial
    from ribboncheck.linkcodec import parse_link_spec
    paths = []
    for spec in same_output.FALLBACK_CLOSURES:
        diagram = parse_link_spec(spec)
        assert diagram.num_components >= 3, spec
        paths.append([b["path"] for b in
                      alexander_polynomial(diagram).source["blocks"]])
    assert tuple(paths) == FALLBACK_PATHS
    assert sum("fallback" in p for p in paths) == 12


def test_shortcut_closures_reach_the_kernel_certificate(same_output,
                                                         monkeypatch):
    from ribboncheck import alexander
    from ribboncheck.alexander import alexander_polynomial
    from ribboncheck.linkcodec import parse_link_spec
    calls, module_rank = [], alexander.module_rank
    monkeypatch.setattr(alexander, "module_rank",
                        lambda pres: calls.append(pres) or module_rank(pres))
    blocks, block_order = [], alexander._block_order
    monkeypatch.setattr(alexander, "_block_order",
                        lambda block: blocks.append(block) or block_order(block))
    specs = (same_output.SLOW_SHORTCUT,) + same_output.SHORTCUT_CLOSURES
    assert len(specs) == 13
    for spec in specs:
        diagram = parse_link_spec(spec)
        assert 3 <= diagram.num_components <= 6, spec
        blocks.clear()
        result = alexander_polynomial(diagram)
        assert [b["path"] for b in result.source["blocks"]] == ["shortcut"]
        block, = blocks
        assert block.num_relators == block.num_generators, spec
        assert len(set(block.generator_component)) >= 2, spec
    assert calls == []


def test_pd_twins_of_the_closures(same_output):
    from ribboncheck.linkcodec import parse_link_spec
    closures = (same_output.FALLBACK_CLOSURES + same_output.SPARE_ROW_CLOSURES
                + same_output.CENSUS_FALLBACKS + (same_output.SLOW_SHORTCUT,)
                + same_output.SHORTCUT_CLOSURES)
    kept = [spec for spec in closures if same_output.pd_twins((spec,))]
    twins = same_output.pd_twins(closures)
    assert (len(closures), len(twins)) == (37, 35)
    for spec, twin in zip(kept, twins):
        assert parse_link_spec(twin).num_components == \
            parse_link_spec(spec).num_components, spec


def test_duplicates_csv_repeats_polynomials(same_output, tmp_path, capsys):
    from ribboncheck import cli
    path = tmp_path / "duplicates.csv"
    path.write_text(same_output.DUPLICATES_CSV, encoding="utf-8")
    assert cli.main(["batch", str(path)]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    values = [(r["components"], r["alexander"]) for r in records
              if "alexander" in r]
    assert (len(records), len(values), len(set(values))) == (14, 13, 7)
    assert [r["error"]["kind"] for r in records if "error" in r] == ["parse"]
    names = [r["name"] for r in records]
    assert sum(json.dumps(n) != '"%s"' % n for n in names) == 4


def test_screen_pairs_csv(same_output, tmp_path, capsys):
    from ribboncheck import cli
    path = tmp_path / "screen_pairs.csv"
    path.write_text(same_output.screen_pairs_csv(), encoding="utf-8")
    assert cli.main(["batch", str(path), "--pairs"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    records = [line for line in lines if "spec" in line]
    assert len(records) == 4 + 12 + 12 + 19
    counts = [r["components"] for r in records]
    # same-count pairs of 3 to 6 components
    assert {c for c in counts if counts.count(c) > 1} == {1, 3, 4, 5}
    assert max(counts) == 6
    # each shortcut closure and its PD twin: two diagrams of one polynomial
    values = {r["name"]: r["alexander"] for r in records}
    assert all(values["shortcut %d" % i] == values["twin %d" % i]
               for i in range(1, 13))
    pairs = {tuple(line["direction"]): line for line in lines
             if "direction" in line}
    assert pairs["3_1 # 3_1", "3_1 # 4_1"]["gcd"] == "t^2 - t + 1"
    assert pairs["3_1 # 4_1", "4_1"]["verdict"] == "not_obstructed"


def test_families_csv(same_output, tmp_path, capsys):
    from ribboncheck import cli
    path = tmp_path / "families_pairs.csv"
    path.write_text(same_output.families_csv(), encoding="utf-8")
    assert cli.main(["batch", str(path), "--pairs"]) == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    records = [line for line in lines if "spec" in line]
    assert len(records) == 85 + 20
    assert sum(r["spec"].startswith("pd:") for r in records) == 85
    verdicts = [line["verdict"] for line in lines if "verdict" in line]
    assert len(verdicts) == 105 * 105
    assert set(verdicts) == {"obstructed", "not_obstructed"}


def test_child_records_the_blocks_of_compute_commands(same_output):
    tree = TOOL.parent.parent
    results = same_output.run_side(tree, [
        ["compute", "--json", "braid:n=3:1 -2 1 -2"],
        ["compute", "braid:n=3:1"], ["validate", "braid:n=2:1 1 1"]])
    assert [r[0] for r in results] == [0, 0, 0]
    assert [r[3] for r in results] == [
        [[{"rows": 2, "columns": 2, "path": "shortcut"}]],
        [[{"rows": 0, "columns": 1, "path": "rank0"},
          {"rows": 0, "columns": 1, "path": "rank0"}]], None]


def test_child_runs_usage_and_help_commands(same_output):
    tree = TOOL.parent.parent
    commands = [list(argv) for argv in same_output.USAGE_COMMANDS]
    results = same_output.run_side(tree, commands)
    helps = [argv for argv in commands if "--help" in argv]
    assert len(helps) == 6
    for argv, (code, out, err, blocks) in zip(commands, results):
        assert (code, bool(out), bool(err)) == (
            (0, True, False) if argv in helps else (2, False, True)), argv
        assert blocks == ([] if argv[:1] == ["compute"] else None)
    results = same_output.run_side(
        tree, [list(argv) for argv in same_output.ARGV_FORMS])
    assert [r[0] for r in results] == [0] * len(same_output.ARGV_FORMS)


def test_pair_commands_reach_every_gcd_text(same_output, tmp_path, capsys):
    # each way a pair line renders a gcd: "1", Delta_L's text, Delta_J's
    # and another, in obstruct --json with and without --both-directions
    # and in batch --pairs, on the corpus that no workload seed adds to
    from ribboncheck import cli
    tree = TOOL.parent.parent
    before = set(sys.modules)
    try:
        commands, files = same_output.corpus(tree, ())
    finally:
        for name in {"workloads", "published", "reference"} - before:
            sys.modules.pop(name, None)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    texts = {}
    for argv in commands:
        if argv[0] == "obstruct" and "--json" in argv:
            key = " ".join(a for a in argv if a.startswith("--"))
        elif argv[0] == "batch" and "--pairs" in argv:
            key = "batch --pairs"
            path = tmp_path / argv[1] if argv[1] in files else tree / argv[1]
            argv = ["batch", str(path), "--pairs"]
        else:
            continue
        assert cli.main(argv) == 0
        for line in capsys.readouterr().out.splitlines():
            r = json.loads(line)
            if "gcd" in r:
                texts.setdefault(key, set()).add(
                    "1" if r["gcd"] == "1" else "L" if r["gcd"] == r["deltaL"]
                    else "J" if r["gcd"] == r["deltaJ"] else "other")
    assert texts == {key: {"1", "L", "J", "other"} for key in (
        "--json", "--both-directions --json", "batch --pairs")}
