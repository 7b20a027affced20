import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BETTER = {"latency_p50_ms": "lower", "requests_per_s": "higher",
          "cli.self_ms": "lower"}
BOUNDS = {"latency_p50_ms": 0.25, "requests_per_s": 0.25}


def runs(parent, change):
    """Synthetic run lines, one pair per index: {metric: [values]} a side."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        pairs = len(next(iter(values.values())))
        for seed in range(pairs):
            metrics = {name: {"value": v[seed]} for name, v in values.items()}
            out.append({"side": side, "seed": seed,
                        "result": {"correct": True, "metrics": metrics}})
    return out


def summary(ab_bench, parent, change):
    return ab_bench.summarise("w", 0, runs(parent, change), BETTER, BOUNDS)


def test_seeds_refuse_a_range_that_ends_below_its_start(ab_bench, capsys):
    with pytest.raises(ValueError, match="5-3 ends below its start"):
        ab_bench.seeds("5-3")
    # argparse turns the ValueError into a usage error, before any run
    with pytest.raises(SystemExit) as refusal:
        ab_bench.main(["PARENT", "CHANGE", "--workloads", "table_pairs",
                       "--seeds", "1010-1001"])
    assert refusal.value.code == 2
    assert "invalid seeds value: '1010-1001'" in capsys.readouterr().err


def test_exported_trees_last_as_long_as_the_with_block(ab_bench,
                                                       git_work_tree):
    with ab_bench.exported({"a": "HEAD", "b": "HEAD"}) as trees:
        assert sorted(trees) == ["a", "b"]
        assert trees["a"] != trees["b"]
        for tree in trees.values():
            assert (tree / "src" / "ribboncheck" / "cli.py").is_file()
    assert not any(tree.exists() for tree in trees.values())


class TestVerdicts:
    def test_clear_gain(self, ab_bench):
        parent = [2.8, 2.9, 2.7, 3.0, 2.8, 2.9, 2.6, 2.8, 3.1, 2.7]
        s = summary(ab_bench, {"latency_p50_ms": parent},
                    {"latency_p50_ms": [x / 2 for x in parent]})
        m = s["latency_p50_ms"]
        assert m["change_wins"] == "10/10"
        assert m["claim_met"] is True
        assert m["within_bound"] is True

    def test_nine_of_ten_pairs_suffice_eight_do_not(self, ab_bench):
        parent = [10.0] * 10
        nine = [5.0] * 9 + [11.0]
        eight = [5.0] * 8 + [11.0] * 2
        assert summary(ab_bench, {"latency_p50_ms": parent},
                       {"latency_p50_ms": nine}
                       )["latency_p50_ms"]["claim_met"] is True
        m = summary(ab_bench, {"latency_p50_ms": parent},
                    {"latency_p50_ms": eight})["latency_p50_ms"]
        assert m["change_wins"] == "8/10"
        assert m["claim_met"] is False

    def test_gap_within_the_parents_spread(self, ab_bench):
        # the change wins every pair, but by 1 against an interquartile
        # range of 10
        parent = [10.0, 20.0] * 5
        m = summary(ab_bench, {"latency_p50_ms": parent},
                    {"latency_p50_ms": [x - 1 for x in parent]}
                    )["latency_p50_ms"]
        assert m["change_wins"] == "10/10"
        assert m["parent_iqr"] == 10.0
        assert m["claim_met"] is False
        assert m["within_bound"] is True

    def test_bound_on_a_higher_is_better_metric(self, ab_bench):
        parent = {"requests_per_s": [100.0] * 10}

        def verdicts(value):
            m = summary(ab_bench, parent, {"requests_per_s": [value] * 10}
                        )["requests_per_s"]
            return m["claim_met"], m["within_bound"]

        assert verdicts(75.0) == (False, True)  # exactly at the bound
        assert verdicts(74.0) == (False, False)
        assert verdicts(130.0) == (True, True)

    def test_bound_on_a_lower_is_better_metric(self, ab_bench):
        parent = {"latency_p50_ms": [4.0] * 10}
        for value, within in ((5.0, True), (5.1, False), (3.0, True)):
            m = summary(ab_bench, parent, {"latency_p50_ms": [value] * 10}
                        )["latency_p50_ms"]
            assert m["within_bound"] is within, value

    def test_unresolved_when_the_parent_spreads_past_the_bound(
            self, ab_bench):
        # parent interquartile range 40 against a bound of 0.25 * 100
        parent = [80.0, 120.0] * 5

        def verdicts(change):
            m = summary(ab_bench, {"latency_p50_ms": parent},
                        {"latency_p50_ms": change})["latency_p50_ms"]
            assert m["parent_iqr"] == 40.0
            return m["unresolved"], m["within_bound"]

        # overlapping runs: within the bound by the medians, yet unresolved
        assert verdicts([x + 5 for x in parent]) == (True, True)
        assert verdicts([x - 10 for x in parent]) == (True, True)
        # every change run better than every parent run: resolved
        assert verdicts([79.0] * 10) == (False, True)
        # one change run at a parent run's value is not better than it
        assert verdicts([79.0] * 9 + [80.0]) == (True, True)

    def test_resolved_when_the_parent_spreads_within_the_bound(
            self, ab_bench):
        parent = [95.0, 105.0] * 5  # interquartile range 10 < 25
        m = summary(ab_bench, {"latency_p50_ms": parent},
                    {"latency_p50_ms": [x + 30 for x in parent]}
                    )["latency_p50_ms"]
        assert m["unresolved"] is False
        assert m["within_bound"] is False
        # a higher-is-better metric, same rule
        m = summary(ab_bench, {"requests_per_s": [10.0, 20.0] * 5},
                    {"requests_per_s": [21.0] * 10})["requests_per_s"]
        assert m["parent_iqr"] == 10.0
        assert m["unresolved"] is False
        m = summary(ab_bench, {"requests_per_s": [10.0, 20.0] * 5},
                    {"requests_per_s": [20.0] * 10})["requests_per_s"]
        assert m["unresolved"] is True

    def test_per_layer_metrics_get_no_verdict(self, ab_bench):
        s = summary(ab_bench, {"cli.self_ms": [1.6] * 10},
                    {"cli.self_ms": [0.3] * 10})
        assert s["cli.self_ms"]["change_wins"] == "10/10"
        assert "claim_met" not in s["cli.self_ms"]
        assert "within_bound" not in s["cli.self_ms"]
        assert "unresolved" not in s["cli.self_ms"]

    def test_unpaired_runs_are_left_out(self, ab_bench):
        lines = runs({"latency_p50_ms": [4.0] * 3},
                     {"latency_p50_ms": [2.0] * 3})
        lines[0]["result"] = None  # the parent's run of pair 0 failed
        s = ab_bench.summarise("w", 0, lines, BETTER, BOUNDS)
        assert s["pairs"] == 2
        assert s["all_correct"] is False
        assert s["latency_p50_ms"]["change_wins"] == "2/2"
