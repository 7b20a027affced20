"""
The bundled knot table must agree with published polynomial values and
with the closed forms of the torus, 2-bridge and pretzel families
(tests/families.py).
"""

import csv
import importlib.util
import sys
from importlib import resources
from pathlib import Path

import pytest

import ribboncheck

from families import (continued_fraction_value, pretzel_delta, pretzel_pd_spec,
                      rational_pd_spec, torus_braid_spec, torus_delta,
                      two_bridge_delta)
from ribboncheck.alexander import alexander_polynomial
from ribboncheck.laurent import parse_poly
from ribboncheck.tables import knot_table, link_table

# published one-variable Alexander polynomials (canonical form)
PUBLISHED = {
    "3_1": "t^2 - t + 1",
    "4_1": "t^2 - 3*t + 1",
    "5_1": "t^4 - t^3 + t^2 - t + 1",
    "5_2": "2*t^2 - 3*t + 2",
    "6_1": "2*t^2 - 5*t + 2",
    "6_2": "t^4 - 3*t^3 + 3*t^2 - 3*t + 1",
    "6_3": "t^4 - 3*t^3 + 5*t^2 - 3*t + 1",
    "7_1": "t^6 - t^5 + t^4 - t^3 + t^2 - t + 1",
    "7_2": "3*t^2 - 5*t + 3",
    "7_3": "2*t^4 - 3*t^3 + 3*t^2 - 3*t + 2",
    "7_4": "4*t^2 - 7*t + 4",
    "7_5": "2*t^4 - 4*t^3 + 5*t^2 - 4*t + 2",
    "7_6": "t^4 - 5*t^3 + 7*t^2 - 5*t + 1",
    "7_7": "t^4 - 5*t^3 + 9*t^2 - 5*t + 1",
    "8_1": "3*t^2 - 7*t + 3",
    "8_2": "t^6 - 3*t^5 + 3*t^4 - 3*t^3 + 3*t^2 - 3*t + 1",
    "8_3": "4*t^2 - 9*t + 4",
    "8_4": "2*t^4 - 5*t^3 + 5*t^2 - 5*t + 2",
    "8_6": "2*t^4 - 6*t^3 + 7*t^2 - 6*t + 2",
    "8_7": "t^6 - 3*t^5 + 5*t^4 - 5*t^3 + 5*t^2 - 3*t + 1",
    "8_8": "2*t^4 - 6*t^3 + 9*t^2 - 6*t + 2",
    "8_9": "t^6 - 3*t^5 + 5*t^4 - 7*t^3 + 5*t^2 - 3*t + 1",
    "8_11": "2*t^4 - 7*t^3 + 9*t^2 - 7*t + 2",
    "8_12": "t^4 - 7*t^3 + 13*t^2 - 7*t + 1",
    "8_13": "2*t^4 - 7*t^3 + 11*t^2 - 7*t + 2",
    "8_14": "2*t^4 - 8*t^3 + 11*t^2 - 8*t + 2",
    "8_19": "t^6 - t^5 + t^3 - t + 1",
    "9_1": "t^8 - t^7 + t^6 - t^5 + t^4 - t^3 + t^2 - t + 1",
    "9_2": "4*t^2 - 7*t + 4",
    "9_35": "7*t^2 - 13*t + 7",
    "9_46": "2*t^2 - 5*t + 2",
}

# knot determinants |Delta(-1)|
DETERMINANTS = {
    "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9, "6_2": 11, "6_3": 13,
    "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17, "7_6": 19,
    "7_7": 21, "8_1": 13, "8_2": 17, "8_3": 17, "8_4": 19, "8_6": 23,
    "8_7": 23, "8_8": 25, "8_9": 25, "8_11": 27, "8_12": 29, "8_13": 29,
    "8_14": 31, "8_19": 3, "9_1": 9, "9_2": 15, "9_3": 19, "9_4": 21,
    "9_5": 23, "9_6": 27, "9_35": 27, "9_46": 9,
}

TORUS = {"3_1": (2, 3), "5_1": (2, 5), "7_1": (2, 7), "8_19": (3, 4),
         "9_1": (2, 9)}

TWO_BRIDGE = {
    "3_1": [3], "4_1": [2, 2], "5_1": [5], "5_2": [3, 2], "6_1": [4, 2],
    "6_2": [3, 1, 2], "6_3": [2, 1, 1, 2], "7_1": [7], "7_2": [5, 2],
    "7_3": [4, 3], "7_4": [3, 1, 3], "7_5": [3, 2, 2], "7_6": [2, 2, 1, 2],
    "7_7": [2, 1, 1, 1, 2], "8_1": [6, 2], "8_2": [5, 1, 2], "8_3": [4, 4],
    "8_4": [4, 1, 3], "8_6": [3, 3, 2], "8_7": [4, 1, 1, 2],
    "8_8": [2, 3, 1, 2], "8_9": [3, 1, 1, 3], "8_11": [3, 2, 1, 2],
    "8_12": [2, 2, 2, 2], "8_13": [3, 1, 1, 1, 2], "8_14": [2, 2, 1, 1, 2],
    "9_2": [7, 2], "9_3": [6, 3], "9_4": [5, 4], "9_5": [5, 1, 3],
    "9_6": [5, 2, 2],
}

PRETZEL = {"9_35": (3, 3, 3), "9_46": (3, 3, -3)}


@pytest.fixture(scope="module")
def computed(bundled_knots):
    return {name: alexander_polynomial(d).value for name, d in bundled_knots}


class TestBundledTable:
    def test_expected_contents(self):
        names = [name for name, _ in knot_table()]
        assert len(names) == len(set(names)) == 35
        # complete rational coverage through 8 crossings plus torus reps
        for required in list(TWO_BRIDGE) + list(TORUS) + list(PRETZEL):
            assert required in names, required
        assert len(link_table()) == 6

    def test_a_copy_under_another_name_reads_its_own_data(self,
                                                          monkeypatch):
        # the package loaded as another_ribboncheck, no ribboncheck importable
        package = Path(ribboncheck.__file__).parent
        spec = importlib.util.spec_from_file_location(
            "another_ribboncheck", package / "__init__.py",
            submodule_search_locations=[str(package)])
        monkeypatch.setitem(sys.modules, "ribboncheck", None)
        monkeypatch.setitem(sys.modules, spec.name,
                            importlib.util.module_from_spec(spec))
        try:
            spec.loader.exec_module(sys.modules[spec.name])
            tables = importlib.import_module(spec.name + ".tables")
            assert len(tables.knot_table()) == 35
            assert len(tables.link_table()) == 6
        finally:
            for name in list(sys.modules):
                if name.startswith(spec.name + "."):
                    del sys.modules[name]

    def test_rows_as_a_plain_csv_reader_reads_them(self):
        # batch_rows, the one batch CSV reader, returns the rows that the
        # tables' own reader returned: every row after the header, as is
        for table, filename, count in ((knot_table, "knots.csv", 35),
                                       (link_table, "links.csv", 6)):
            data = resources.files("ribboncheck").joinpath("data", filename)
            with data.open(newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                rows = [(row[0], row[1]) for row in reader if row]
            assert len(rows) == count
            assert table() == rows

    def test_published_polynomials(self, computed):
        for name, text in PUBLISHED.items():
            assert computed[name] == parse_poly(text, 1), name

    def test_determinants(self, computed):
        for name, det in DETERMINANTS.items():
            assert abs(computed[name].evaluate([-1])) == det, name

    def test_torus_closed_form(self, computed):
        for name, (p, q) in TORUS.items():
            assert computed[name] == torus_delta(p, q), name

    def test_two_bridge_closed_form(self, computed):
        for name, partials in TWO_BRIDGE.items():
            frac = continued_fraction_value(partials)
            p, q = frac.numerator, frac.denominator
            assert p % 2 == 1
            assert computed[name] == two_bridge_delta(p, q), name
            assert abs(computed[name].evaluate([-1])) == p, name

    def test_pretzel_closed_form(self, computed):
        for name, tangles in PRETZEL.items():
            assert computed[name] == pretzel_delta(*tangles), name

    def test_specs_are_the_family_builders_output(self):
        # every knot but 4_1, the one hand-written braid, byte for byte
        built = {name: torus_braid_spec(p, q) for name, (p, q) in TORUS.items()}
        built.update((name, pretzel_pd_spec(tangles))
                     for name, tangles in PRETZEL.items())
        built.update((name, rational_pd_spec(partials))
                     for name, partials in TWO_BRIDGE.items()
                     if name not in built and name != "4_1")
        table = dict(knot_table())
        assert len(built) == 34 and set(table) - set(built) == {"4_1"}
        for name, spec in built.items():
            assert table[name] == spec, name

    def test_crossing_numbers_not_exceeded(self, bundled_knots):
        for name, diagram in bundled_knots:
            head = int(name.split("_")[0])
            assert diagram.num_crossings == head, name
