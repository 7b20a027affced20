"""
ribboncheck.cli's argparse parser, kept unchanged as the reference that
its command table is tested against: build_parser as the CLI built it,
once at import, before parse_args read argv against COMMANDS.  The
table refuses three of its forms on purpose: prefix abbreviations,
--opt=value and --.
"""

import argparse

from ribboncheck.cli import (cmd_batch, cmd_compute, cmd_obstruct,
                             cmd_oracle_check, cmd_validate)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ribboncheck",
        description="Alexander polynomials of links and the divisibility "
                    "obstruction to homotopy ribbon concordance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Alexander polynomial of one link")
    p.add_argument("spec", help="link spec, e.g. 'braid:n=2:1 1 1' or 'pd:X(...)'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("obstruct", help="divisibility verdict for a pair J, L")
    p.add_argument("spec_j")
    p.add_argument("spec_l")
    p.add_argument("--json", action="store_true")
    p.add_argument("--both-directions", action="store_true")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("batch", help="process a CSV of name,spec rows")
    p.add_argument("csv_path")
    p.add_argument("--pairs", action="store_true",
                   help="also emit the full pairwise obstruction matrix")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="accepted and ignored; rows run one after another "
                        "(a forked worker measured slower on two cores, "
                        "see ROADMAP)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate", help="parse and structurally check a spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle-check", help="run independent verification")
    p.add_argument("spec")
    p.add_argument("--covers", type=int, nargs="+", default=(2, 3, 5),
                   metavar="K", help="cyclic cover degrees (knots)")
    p.set_defaults(func=cmd_oracle_check)
    return parser
