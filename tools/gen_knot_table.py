#!/usr/bin/env python3
"""
Regenerate the bundled reference tables (src/ribboncheck/data/*.csv).

The knots come from three families whose diagram builders and closed
forms live in tests/families.py, where the tests use them too: torus
knots as braid words, rational (2-bridge) knots as 4-plat PD codes built
from their continued fractions, and pretzel knots as PD codes of twist
columns.  This script keeps only the names it takes from each family.
The tests check that its rows are the bundled knots.csv, and check the
pipeline against the closed forms beyond the table too.

Every generated row is validated before being written: the diagram must
close to one component with the expected crossing count, and its
Alexander polynomial (computed by this package) must match an
independent closed form: the torus quotient, the 2-bridge
alternating-sum formula for b(p, q) or the odd-pretzel quadratic.

Run from the repository root:  python tools/gen_knot_table.py
"""

import csv
import importlib.util
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from ribboncheck.linkcodec import parse_link_spec  # noqa: E402
from ribboncheck.alexander import alexander_polynomial  # noqa: E402


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families = _load("families", os.path.join(HERE, "..", "tests", "families.py"))


# ---------------------------------------------------------------------------
# table contents

# complete list of 2-bridge (rational) knots through 8 crossings, plus
# the 9-crossing rational knots with small fractions; [partials] gives
# the alternating 4-plat and sum(partials) the crossing number
RATIONAL_KNOTS = [
    ("5_2", [3, 2]),
    ("6_1", [4, 2]),
    ("6_2", [3, 1, 2]),
    ("6_3", [2, 1, 1, 2]),
    ("7_2", [5, 2]),
    ("7_3", [4, 3]),
    ("7_4", [3, 1, 3]),
    ("7_5", [3, 2, 2]),
    ("7_6", [2, 2, 1, 2]),
    ("7_7", [2, 1, 1, 1, 2]),
    ("8_1", [6, 2]),
    ("8_2", [5, 1, 2]),
    ("8_3", [4, 4]),
    ("8_4", [4, 1, 3]),
    ("8_6", [3, 3, 2]),
    ("8_7", [4, 1, 1, 2]),
    ("8_8", [2, 3, 1, 2]),
    ("8_9", [3, 1, 1, 3]),
    ("8_11", [3, 2, 1, 2]),
    ("8_12", [2, 2, 2, 2]),
    ("8_13", [3, 1, 1, 1, 2]),
    ("8_14", [2, 2, 1, 1, 2]),
    ("9_2", [7, 2]),
    ("9_3", [6, 3]),
    ("9_4", [5, 4]),
    ("9_5", [5, 1, 3]),
    ("9_6", [5, 2, 2]),
]

TORUS_KNOTS = [
    ("3_1", 2, 3),
    ("5_1", 2, 5),
    ("7_1", 2, 7),
    ("8_19", 3, 4),
    ("9_1", 2, 9),
]

PRETZEL_KNOTS = [
    ("9_35", (3, 3, 3)),
    ("9_46", (3, 3, -3)),
]

EXTRA_BRAIDS = [
    ("4_1", "braid:n=3:1 -2 1 -2"),
]

LINKS = [
    ("hopf", "braid:n=2:1 1"),
    ("hopf_mirror", "braid:n=2:-1 -1"),
    ("torus_2_4", "braid:n=2:1 1 1 1"),
    ("torus_2_6", "braid:n=2:1 1 1 1 1 1"),
    ("unlink_2", "braid:n=2:"),
    ("split_pair", "braid:n=3:1"),
]


def build_knot_rows():
    rows = []
    for name, p, q in TORUS_KNOTS:
        spec = families.torus_braid_spec(p, q)
        expected = families.torus_delta(p, q)
        rows.append((name, spec, expected, (p - 1) * q))
    for name, spec in EXTRA_BRAIDS:
        rows.append((name, spec, None, None))
    for name, partials in RATIONAL_KNOTS:
        frac = families.continued_fraction_value(partials)
        p, q = frac.numerator, frac.denominator
        if p % 2 == 0:
            raise ValueError("%s: fraction %s is a link, not a knot" % (name, frac))
        spec = families.rational_pd_spec(partials)
        expected = families.two_bridge_delta(p, q)
        rows.append((name, spec, expected, sum(partials)))
    for name, tangles in PRETZEL_KNOTS:
        spec = families.pretzel_pd_spec(tangles)
        expected = families.pretzel_delta(*tangles)
        rows.append((name, spec, expected, sum(abs(t) for t in tangles)))
    return rows


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..",
                           "src", "ribboncheck", "data")
    os.makedirs(out_dir, exist_ok=True)
    knot_rows = []
    for name, spec, expected, crossings in build_knot_rows():
        diagram = parse_link_spec(spec)
        if diagram.num_components != 1:
            raise SystemExit("%s: closed to %d components"
                             % (name, diagram.num_components))
        if crossings is not None and diagram.num_crossings != crossings:
            raise SystemExit("%s: %d crossings, expected %d"
                             % (name, diagram.num_crossings, crossings))
        delta = alexander_polynomial(diagram)
        if expected is not None and delta.value != expected:
            raise SystemExit("%s: pipeline Delta %s != closed form %s"
                             % (name, delta, expected))
        print("%-8s %2d crossings  Delta = %s" %
              (name, diagram.num_crossings, delta))
        knot_rows.append((name, spec))
    knot_rows.sort(key=_table_order)

    with open(os.path.join(out_dir, "knots.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "spec"])
        writer.writerows(knot_rows)
    with open(os.path.join(out_dir, "links.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "spec"])
        writer.writerows(LINKS)
    print("wrote %d knots, %d links" % (len(knot_rows), len(LINKS)))


def _table_order(row):
    name = row[0]
    if "_" in name:
        head, _, tail = name.partition("_")
        try:
            return (int(head), int(tail))
        except ValueError:
            pass
    return (99, 0)


if __name__ == "__main__":
    main()
