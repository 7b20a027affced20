"""
Command-line interface.

    ribboncheck compute "braid:n=2:1 1 1"
    ribboncheck obstruct "braid:n=2:1 1 1" "braid:n=3:1 -2 1 -2" --both-directions
    ribboncheck batch table.csv --pairs
    ribboncheck validate "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"
    ribboncheck oracle-check "braid:n=2:1 1 1" --covers 2 3 5

Exit codes carry operational status only: 0 success, 2 input/parse
error, 3 computation error.  Mathematical verdicts are data, never exit
codes.  RIBBONCHECK_MAX_CROSSINGS (default 24, a non-negative integer)
bounds accepted diagram sizes: a diagram may have at most that many
crossings, and a braid spec at most twice that many strands plus one
(a crossing joins two strands).  A braid spec's strands and letters
(its crossings) and a PD code's crossing entries are counted from the
text before the diagram is built.

batch records an error in one row, including an unexpected one (kind
"internal", with the traceback on stderr), and goes on with the next
row.  It accepts --jobs N and ignores it: each row's polynomial is
computed once, in one thread, and reused for the --pairs matrix.
"""

import argparse
import csv
import json
import os
import sys

from .linkcodec import (DiagramError, ParseError, parse_link_spec,
                        spec_size)
from .alexander import ComputationError, alexander_polynomial
from .obstruct import ComponentMismatch, obstruction_from_polynomials
from .oracles import (cyclic_cover_check, reidemeister_schreier, torres_check)
from .wirtinger import wirtinger_presentation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

DEFAULT_MAX_CROSSINGS = 24


def _max_crossings():
    raw = os.environ.get("RIBBONCHECK_MAX_CROSSINGS", "")
    if not raw:
        return DEFAULT_MAX_CROSSINGS
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ParseError("RIBBONCHECK_MAX_CROSSINGS must be a non-negative "
                         "integer, not %r" % raw)
    return limit


def _load(spec, limit):
    # spec_size reads every kind of spec that parse_link_spec accepts, so
    # nothing over the limit gets built
    size = spec_size(spec)
    if size is not None:
        strands, crossings = size
        if strands is not None and strands > 2 * limit + 1:
            raise ParseError(
                "braid has %d strands; limit is %d, twice the crossing limit "
                "plus one (raise RIBBONCHECK_MAX_CROSSINGS to accept)"
                % (strands, 2 * limit + 1))
        if crossings > limit:
            raise ParseError(
                "diagram has %d crossings; limit is %d "
                "(raise RIBBONCHECK_MAX_CROSSINGS to accept)"
                % (crossings, limit))
    return parse_link_spec(spec)


def _compute_record(name, spec, limit):
    diagram = _load(spec, limit)
    delta = alexander_polynomial(diagram)
    record = {}
    if name is not None:
        record["name"] = name
    record.update({
        "spec": spec,
        "components": diagram.num_components,
        "crossings": diagram.num_crossings,
        "alexander": str(delta),
    })
    return record, delta


def cmd_compute(args):
    record, _ = _compute_record(None, args.spec, args.max_crossings)
    if args.json:
        print(json.dumps(record))
    else:
        print(record["alexander"])
        print("components: %d, crossings: %d"
              % (record["components"], record["crossings"]))
    return EXIT_OK


def _mismatch_record(names, exc):
    return {"direction": list(names), "verdict": "component_mismatch",
            "reason": str(exc)}


def cmd_obstruct(args):
    dj = _load(args.spec_j, args.max_crossings)
    dl = _load(args.spec_l, args.max_crossings)
    deltas = {"J": alexander_polynomial(dj), "L": alexander_polynomial(dl)}
    directions = [("J", "L")]
    if args.both_directions:
        directions.append(("L", "J"))
    shared = {} if args.both_directions else None
    for names in directions:
        try:
            report = obstruction_from_polynomials(
                deltas[names[0]], deltas[names[1]], names=names,
                shared=shared)
        except ComponentMismatch as exc:
            print(json.dumps(_mismatch_record(names, exc)) if args.json
                  else "component mismatch: %s" % exc)
            continue
        print(report.to_json() if args.json else report.summary())
    return EXIT_OK


def _batch_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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


# what a pair line says when an operand's row has no polynomial, by the
# kind of that row's error
_OPERAND_ERRORS = {"parse": "unparseable operand",
                   "compute": "operand's polynomial could not be computed",
                   "internal": "internal error in operand"}


def cmd_batch(args):
    rows = _batch_rows(args.csv_path)
    # per row, by index (names may repeat): its polynomial, or None and
    # the kind of its error
    deltas, kinds = [], []
    for name, spec in rows:
        delta = None
        try:
            record, delta = _compute_record(name, spec, args.max_crossings)
        except (ParseError, DiagramError) as exc:
            record = {"name": name, "spec": spec,
                      "error": {"kind": "parse", "message": str(exc)}}
        except ComputationError as exc:
            record = {"name": name, "spec": spec,
                      "error": {"kind": "compute", "message": str(exc)}}
        except Exception as exc:
            # one row's bug must not cost the other rows their results
            import traceback
            traceback.print_exc(file=sys.stderr)
            record = {"name": name, "spec": spec,
                      "error": {"kind": "internal", "message": "%s: %s"
                                % (type(exc).__name__, exc)}}
        deltas.append(delta)
        kinds.append(record["error"]["kind"] if delta is None else None)
        print(json.dumps(record))

    if args.pairs:
        # (i, j) with i < j -> what the two directions of rows i and j share
        shared = {}
        for i, (name_j, _) in enumerate(rows):
            for j, (name_l, _) in enumerate(rows):
                names = (name_j, name_l)
                failed = kinds[i] or kinds[j]
                if failed:
                    print(json.dumps({"direction": list(names), "error": {
                        "kind": failed, "message": _OPERAND_ERRORS[failed]}}))
                    continue
                pair = (None if i == j else
                        shared.setdefault((min(i, j), max(i, j)), {}))
                try:
                    report = obstruction_from_polynomials(
                        deltas[i], deltas[j], names=names, shared=pair)
                except ComponentMismatch as exc:
                    print(json.dumps(_mismatch_record(names, exc)))
                    continue
                print(report.to_json())
    return EXIT_OK


def cmd_validate(args):
    diagram = _load(args.spec, args.max_crossings)
    pres, phi = wirtinger_presentation(diagram)
    print(json.dumps({
        "spec": args.spec,
        "components": diagram.num_components,
        "crossings": diagram.num_crossings,
        "arcs": diagram.num_arcs,
        "generators": pres.num_generators,
        "relators": len(pres.relators),
    }))
    return EXIT_OK


def cmd_oracle_check(args):
    for k in args.covers:
        if k < 2:
            raise ParseError("cover degree must be at least 2, not %d" % k)
    diagram = _load(args.spec, args.max_crossings)
    results = []
    if diagram.num_components == 1:
        pres, phi = wirtinger_presentation(diagram)
        delta = alexander_polynomial(diagram)
        for k in args.covers:
            invariants = reidemeister_schreier(pres, phi, k)
            results.append({"kind": "cyclic_cover", "k": k,
                            "pass": cyclic_cover_check(delta, k, invariants)})
    elif diagram.num_components == 2:
        report = torres_check(diagram)
        results.append({"kind": "torres",
                        "status": report.status,
                        "pass": report.status != "fail"})
    else:
        raise ParseError("oracle-check supports knots and 2-component links")
    payload = {"spec": args.spec, "oracles": results}
    print(json.dumps(payload))
    return EXIT_OK if all(r.get("pass", True) for r in results) else EXIT_COMPUTE


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
                   help="accepted and ignored; rows run one after another")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("validate", help="parse and structurally check a spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle-check", help="run independent verification")
    p.add_argument("spec")
    p.add_argument("--covers", type=int, nargs="+", default=[2, 3, 5],
                   metavar="K", help="cyclic cover degrees (knots)")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.max_crossings = _max_crossings()
        return args.func(args)
    except (ParseError, DiagramError, FileNotFoundError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (ComputationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
