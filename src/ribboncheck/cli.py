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

Every command, its positionals and its options are one table, COMMANDS,
which parse_args walks argv against once: tokens in any order, option
names exactly as written, and --covers taking the integers up to the
next option, negatives included.  Prefix abbreviations, --opt=value and
-- are refused.  A usage error prints "error: ..." and the usage line on
stderr and main returns 2; -h or --help prints the usage and returns 0.
main may be called any number of times in one process: it reads argv
and RIBBONCHECK_MAX_CROSSINGS anew on every call.

batch records an error in one row, including an unexpected one (kind
"internal", with the traceback on stderr), and goes on with the next
row; a computation error in one pair of --pairs is that pair's line
(kind "compute"), and the next pair follows.  It accepts --jobs N and
ignores it: each row's polynomial is computed once, in one thread, and
reused for the --pairs matrix.  A second worker may find no CPU free
on the shared two-core machine measured: two CPU-bound processes took
0.74-2.15 times the wall time of one, and a forked worker for --jobs 2
read slower (ROADMAP, directions (a) and (w)).  No other module of the
package encodes JSON.
"""

import json
import os
import sys
from types import SimpleNamespace

from .linkcodec import (DiagramError, ParseError, parse_link_spec,
                        spec_size)
from .alexander import ComputationError, alexander_polynomial
from .obstruct import component_mismatch, obstruction_from_polynomials
from .oracles import (cyclic_cover_check, reidemeister_schreier, torres_check)
from .tables import batch_rows
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


def cmd_obstruct(args):
    dj = _load(args.spec_j, args.max_crossings)
    dl = _load(args.spec_l, args.max_crossings)
    deltas = {"J": alexander_polynomial(dj), "L": alexander_polynomial(dl)}
    for names in [("J", "L"), ("L", "J")][:1 + args.both_directions]:
        pair = [deltas[name] for name in names]
        reason = component_mismatch(*pair)
        if reason:
            print(json.dumps({"direction": list(names),
                              "verdict": "component_mismatch",
                              "reason": reason})
                  if args.json else "component mismatch: %s" % reason)
            continue
        report = obstruction_from_polynomials(*pair, names=names)
        print(json.dumps(report.to_dict()) if args.json else report.summary())
    return EXIT_OK


# what a pair line says when an operand's row has no polynomial, by the
# kind of that row's error
_OPERAND_ERRORS = {"parse": "unparseable operand",
                   "compute": "operand's polynomial could not be computed",
                   "internal": "internal error in operand"}


def cmd_batch(args):
    rows = batch_rows(args.csv_path)
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
        for text in _pair_lines(rows, deltas, kinds):
            sys.stdout.write(text)
    return EXIT_OK


# a pair's JSON line: its direction, then the rest, its tail, each
# filled in from JSON texts (a verdict is plain text that needs no
# escape); a line is json.dumps of its record, a report's to_dict()
_LINE = '{"direction": [%s, %s], %s}'
_REPORT_TAIL = ('"deltaJ": %s, "deltaL": %s, "verdict": "%s", '
                '"quotient": %s, "gcd": %s')
_MISMATCH_TAIL = '"verdict": "component_mismatch", "reason": %s'
_ERROR_TAIL = '"error": {"kind": "%s", "message": %s}'


def _pair_lines(rows, deltas, kinds):
    """
    Each row's --pairs lines, as one text a row.  A line is its direction
    and a tail (_LINE), and rows with equal polynomials share their
    tails: each ordered pair of distinct polynomial values is decided by
    one obstruction_from_polynomials call and encoded once, each pair of
    component counts once, and each pair that an operand's error
    decides once.
    """
    # per row: its name as JSON, its polynomial and its key, the kind of
    # its error or the index of the first row of an equal polynomial,
    # and the polynomial's text as JSON
    first = {}
    table = [(json.dumps(name), delta,
              kind or first.setdefault((delta.nvars, delta.text), i),
              delta and json.dumps(delta.text))
             for i, ((name, _), delta, kind)
             in enumerate(zip(rows, deltas, kinds))]
    tails, reasons = {}, {}
    for row_j in table:
        row_tails = tails.setdefault(row_j[2], {})
        lines = []
        for row_l in table:
            tail = row_tails.get(row_l[2])
            if tail is None:
                tail = row_tails[row_l[2]] = _pair_tail(row_j, row_l, reasons)
            lines.append(_LINE % (row_j[0], row_l[0], tail))
        yield "\n".join(lines) + "\n"


def _pair_tail(row_j, row_l, reasons):
    """
    The tail of the pair lines of two rows of _pair_lines' table.  Both
    directions of two values share their work on the two polynomials
    (obstruction_from_polynomials); reasons holds the mismatch reason of
    each pair of component counts, as JSON.  A report's gcd reuses the
    rows' texts where it is one of the two polynomials.
    """
    (_, dj, a, text_j), (_, dl, b, text_l) = row_j, row_l
    failed = a if dj is None else b if dl is None else None
    if failed:
        return _ERROR_TAIL % (failed, json.dumps(_OPERAND_ERRORS[failed]))
    if dj.nvars != dl.nvars:
        key = dj.nvars, dl.nvars
        if key not in reasons:
            reasons[key] = json.dumps(component_mismatch(dj, dl))
        return _MISMATCH_TAIL % reasons[key]
    try:
        report = obstruction_from_polynomials(dj, dl)
    except ComputationError as exc:
        return _ERROR_TAIL % ("compute", json.dumps(str(exc)))
    q, g = report.quotient, report.gcd_value
    return _REPORT_TAIL % (
        text_j, text_l, report.verdict,
        "null" if q is None else json.dumps(str(q)),
        '"1"' if g.is_one() else text_l if g == dl.value else
        text_j if g == dj.value else json.dumps(str(g)))


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
        delta = alexander_polynomial(diagram, (pres, phi))
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


# each command: its function, positional names and options by default: a
# flag's is False, that of an option taking one integer an int, and that
# of one taking one or more a tuple.  parse_args reads argv against it.
COMMANDS = {
    "compute": (cmd_compute, ("spec",), {"--json": False}),
    "obstruct": (cmd_obstruct, ("spec_j", "spec_l"),
                 {"--json": False, "--both-directions": False}),
    "batch": (cmd_batch, ("csv_path",), {"--pairs": False, "--jobs": 1}),
    "validate": (cmd_validate, ("spec",), {}),
    "oracle-check": (cmd_oracle_check, ("spec",), {"--covers": (2, 3, 5)}),
}
_FORMS = {bool: "", int: " N", tuple: " K [K ...]"}


def _usage(name):
    """The usage line of a command, or of each command if name is not one."""
    return "usage: " + "\n       ".join(
        " ".join(["ribboncheck", n] + ["[%s%s]" % (o, _FORMS[type(d)])
                                       for o, d in options.items()]
                 + list(positionals))
        for n, (_, positionals, options) in COMMANDS.items()
        if name not in COMMANDS or n == name)


def _refused(name, message):
    return ParseError("%s\n%s" % (message, _usage(name)))


def _is_option(token):
    return token[:1] == "-" and not token[1:].isdigit()


def parse_args(argv):
    """
    The namespace argv asks for: command, func and each positional and
    option of the command by name ("-" read as "_"); None once -h or
    --help has printed the usage.  Tokens come in any order, and an
    option's integers run up to the next option: a token that starts
    with "-" and is not a negative integer.
    """
    name = argv[0] if argv else None
    if {"-h", "--help"} & set(argv if name in COMMANDS else argv[:1]):
        return print(_usage(name))
    if name not in COMMANDS:
        raise _refused(name, "unknown command %r" % name if argv else
                       "no command given")
    func, positionals, options = COMMANDS[name]
    found, given, i = dict(options), [], 1
    while i < len(argv):
        token, i = argv[i], i + 1
        if token not in options:
            if _is_option(token):
                raise _refused(name, "unknown option %r" % token)
            given.append(token)
        elif type(options[token]) is bool:
            found[token] = True
        else:
            many, end = type(options[token]) is tuple, i
            while end < len(argv) and not _is_option(argv[end]) and (
                    many or end == i):
                end += 1
            try:
                values = [int(value) for value in argv[i:end]]
            except ValueError:
                values = []
            if not values:
                raise _refused(name, "%s%s takes integers"
                               % (token, _FORMS[type(options[token])]))
            found[token], i = values if many else values[0], end
    if len(given) != len(positionals):
        raise _refused(name, "unexpected argument %r" % given[len(positionals)]
                       if len(given) > len(positionals) else
                       "missing " + " ".join(positionals[len(given):]))
    args = dict(zip(positionals, given), command=name, func=func)
    args.update((o[2:].replace("-", "_"), v) for o, v in found.items())
    return SimpleNamespace(**args)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        args.max_crossings = _max_crossings()
        return args.func(args)
    except (ParseError, DiagramError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (ComputationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
