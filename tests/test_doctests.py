import doctest
from pathlib import Path

import pytest

import ribboncheck
from ribboncheck import (alexander, foxcalc, laurent, linkcodec, obstruct,
                         oracles, wirtinger)

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
