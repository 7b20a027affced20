"""
Bundled reference diagrams, and the one reader of batch CSV files.

knots.csv: prime knots with verified encodings, complete for the
rational (2-bridge) knots through 8 crossings and including torus,
twist, and pretzel representatives through 9 crossings.  Rational
entries are generated 4-plat PD codes; torus knots are braid words.
links.csv: small 2-component links for the multivariable checks.

Both files use the batch CSV format (header "name,spec"), so they feed
the command-line batch mode directly, and batch_rows reads them as it
reads a CSV that batch is given.
"""

import csv
import os

from .linkcodec import ParseError

# the CSVs are files beside this module; a zip import is not supported
_DATA = os.path.join(os.path.dirname(__file__), "data")


def batch_rows(path):
    """(name, spec) rows of a batch CSV, stripped; ParseError if malformed."""
    # utf-8-sig: a byte-order mark is not part of the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["name", "spec"]:
                raise ParseError("batch CSV must have header 'name,spec'")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise ParseError("row %d needs both name and spec" % lineno)
                rows.append((row[0].strip(), row[1].strip()))
            return rows
        except UnicodeDecodeError as exc:
            raise ParseError("batch CSV %s is not UTF-8 text (%s)"
                             % (path, exc.reason)) from None
        except csv.Error as exc:
            raise ParseError("batch CSV %s, line %d: %s"
                             % (path, reader.line_num, exc)) from None


def knot_table():
    """List of (name, spec) pairs for the bundled knots."""
    return batch_rows(os.path.join(_DATA, "knots.csv"))


def link_table():
    """List of (name, spec) pairs for the bundled 2-component links."""
    return batch_rows(os.path.join(_DATA, "links.csv"))
