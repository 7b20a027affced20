import subprocess
from pathlib import Path

import pytest

from ribboncheck.laurent import LaurentPoly
from ribboncheck.linkcodec import BraidWord, parse_link_spec
from ribboncheck.tables import knot_table, link_table


@pytest.fixture(scope="session")
def git_work_tree():
    """
    Skips the test unless the repository root is the root of a git work
    tree: the A/B tools name revisions through git rev-parse, which
    exits 128 in a copy of the files that is none (a git archive export).
    """
    root = Path(__file__).resolve().parent.parent
    try:
        top = subprocess.run(("git", "-C", str(root), "rev-parse",
                              "--show-toplevel"), capture_output=True,
                             text=True).stdout.strip()
    except OSError:  # no git at all
        top = ""
    if not top or Path(top).resolve() != root:
        pytest.skip("the repository root is not a git work tree, and "
                    "the A/B tools need git")


@pytest.fixture(scope="session")
def bundled_knots():
    return [(name, parse_link_spec(spec)) for name, spec in knot_table()]


@pytest.fixture(scope="session")
def bundled_links():
    return [(name, parse_link_spec(spec)) for name, spec in link_table()]


def random_poly(rng, nvars, max_terms=5, max_exp=3, max_coeff=6, laurent=True):
    terms = {}
    low = -max_exp if laurent else 0
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(low, max_exp) for _ in range(nvars))
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    return LaurentPoly(nvars, {e: c for e, c in terms.items() if c})


def random_closure(rng, strands, letters, max_components=None):
    """
    A random braid word: n = rng.randint(*strands) strands, then
    rng.randint(*letters) letters, each +-rng.randint(1, n - 1), drawn
    again while its closure has more than max_components components.
    """
    while True:
        n = rng.randint(*strands)
        word = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                  for _ in range(rng.randint(*letters))))
        if max_components is None or len(word.cycles()) <= max_components:
            return word


def random_braid_knot(rng, max_strands=3, max_letters=8):
    """A random braid word whose closure is a knot."""
    return random_closure(rng, (2, max_strands), (1, max_letters),
                          max_components=1)


def random_free_word(rng, num_generators, max_length=40):
    letters = []
    for _ in range(rng.randint(0, max_length)):
        letters.append((rng.randrange(num_generators), rng.choice([1, -1])))
    return tuple(letters)
