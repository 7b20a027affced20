import doctest
import shlex
from pathlib import Path

import pytest

import ribboncheck
from ribboncheck import (alexander, cli, foxcalc, laurent, linkcodec,
                         obstruct, oracles, wirtinger)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [laurent, linkcodec, wirtinger, foxcalc,
                                    alexander, obstruct, oracles],
                         ids=lambda m: m.__name__.split(".")[-1])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_library_section_names_all():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    section = section[:section.index("\n## ", 1)]
    missing = [name for name in ribboncheck.__all__
               if "`%s`" % name not in section]
    assert missing == []


def readme_block(heading, fence):
    """The first fenced block of a README section, without its fences."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## %s\n" % heading):]
    start = section.index(fence + "\n") + len(fence) + 1
    return section[start:section.index("\n```", start)]


def test_readme_examples_run(capsys):
    code = readme_block("Library", "```python")
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if "#" in line]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 2
    commands = [shlex.split(line)[1:]
                for line in readme_block("Command line", "```").splitlines()
                if line.startswith("ribboncheck ")]
    # mytable.csv stands for the reader's own file
    ran = [argv for argv in commands if argv[:2] != ["batch", "mytable.csv"]]
    assert len(ran) == len(commands) - 1 == 5
    for argv in ran:
        assert cli.main(argv) == 0, argv
