import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ribboncheck

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"

pytestmark = pytest.mark.usefixtures("git_work_tree")


@pytest.fixture
def ab_inprocess(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))  # as when run as a script
    spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_head_against_head(ab_inprocess, capsys):
    modules, path = set(sys.modules), list(sys.path)
    assert ab_inprocess.main(["HEAD", "HEAD", "--workload", "split_fallback",
                              "--passes", "3"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passes"] == 3 and result["workload"] == "split_fallback"
    assert result["revisions"][0] == result["revisions"][1]
    for side in ("parent", "change"):
        low, high = result[side]["quartiles_ms"]
        assert 0 < low <= result[side]["median_ms"] <= high
    assert result["change_faster"].endswith("/3")
    assert set(sys.modules) == modules and sys.path == path
    # the run leaves the package imported before in place
    assert sys.modules["ribboncheck"] is ribboncheck


def wrap_change_main(ab_inprocess, monkeypatch, wrap):
    """Make the change side's cli.main wrap(its cli.main)."""
    load = ab_inprocess.load

    def wrapping(tree, name):
        cli = load(tree, name)
        if name != "ab_change":
            return cli
        wrapped = type(sys)(name + ".cli")
        wrapped.main = wrap(cli.main)
        return wrapped

    monkeypatch.setattr(ab_inprocess, "load", wrapping)


def test_refuses_when_the_outputs_differ(ab_inprocess, monkeypatch, capsys):
    wrap_change_main(ab_inprocess, monkeypatch,
                     lambda main: lambda argv: print("extra") or main(argv))
    with pytest.raises(SystemExit, match="the sides differ on compute"):
        ab_inprocess.main(["HEAD", "HEAD", "--workload", "split_fallback",
                           "--passes", "2"])
    assert capsys.readouterr().out == ""


def test_refuses_when_a_request_raises(ab_inprocess, monkeypatch, capsys):
    def broken(argv):
        raise RuntimeError("broken")

    wrap_change_main(ab_inprocess, monkeypatch, lambda main: broken)
    modules, path = set(sys.modules), list(sys.path)
    with pytest.raises(SystemExit,
                       match="the change side raised on compute") as refusal:
        ab_inprocess.main(["HEAD", "HEAD", "--workload", "split_fallback",
                           "--passes", "2"])
    # run_pass kept the traceback in that request's stderr
    assert "RuntimeError: broken" in str(refusal.value)
    assert capsys.readouterr().out == ""
    assert set(sys.modules) == modules and sys.path == path


def test_refuses_different_shared_trees(ab_inprocess, monkeypatch):
    ab_bench = sys.modules["ab_bench"]
    git, trees = ab_bench.git, []

    def differing(*args):  # each side's perfbench tree a new object
        if args[-1].endswith(":perfbench"):
            trees.append(args)
            return str(len(trees))
        return git(*args)

    monkeypatch.setattr(ab_bench, "git", differing)
    with pytest.raises(SystemExit, match="different perfbench/ trees"):
        ab_inprocess.main(["HEAD", "HEAD", "--workload", "split_fallback"])
