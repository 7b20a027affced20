import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ribboncheck

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"


def _work_tree_root():
    """The root of the git work tree holding ROOT, or None outside one."""
    try:
        proc = subprocess.run(("git", "-C", str(ROOT), "rev-parse",
                               "--show-toplevel"), capture_output=True,
                              text=True)
    except OSError:  # no git at all
        return None
    return Path(proc.stdout.strip()).resolve() if proc.returncode == 0 \
        else None


# the tool names its revisions through git rev-parse, which exits 128
# in a copy of the files that is no git work tree (a git archive export)
pytestmark = pytest.mark.skipif(
    _work_tree_root() != ROOT,
    reason="the repository root is not a git work tree, and "
           "ab_bench.revisions needs git rev-parse")


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


def test_refuses_when_the_outputs_differ(ab_inprocess, monkeypatch, capsys):
    load = ab_inprocess.load

    def loud(tree, name):
        cli = load(tree, name)
        if name != "ab_change":
            return cli
        wrapped = type(sys)(name + ".cli")
        wrapped.main = lambda argv: print("extra") or cli.main(argv)
        return wrapped

    monkeypatch.setattr(ab_inprocess, "load", loud)
    with pytest.raises(SystemExit, match="the sides differ on compute"):
        ab_inprocess.main(["HEAD", "HEAD", "--workload", "split_fallback",
                           "--passes", "2"])
    assert capsys.readouterr().out == ""


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
