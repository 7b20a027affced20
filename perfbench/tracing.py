"""
Spans around the calls into each ribboncheck module, recorded from the
benchmark's side by rebinding the public functions where their callers
look them up.  Spans (id, parent, request id, name, start, end) and
counts stay in memory and are written out when the run ends.

A span's self time is its duration minus its children's; the request's
own span ("cli.main") has as self time the request's wall time minus the
union of its children's intervals, since batch --jobs 2 runs children
on two threads at once.  Under the interpreter lock a span on one worker
thread also covers time spent waiting for the other.
"""

import itertools
import json
import threading
import types
from math import comb
from time import perf_counter

REQUEST_SPAN = "cli.main"

# per-layer metric -> span whose self time it reports
LAYER_SPANS = {
    "linkcodec.parse_ms": "linkcodec.parse_link_spec",
    "wirtinger.present_ms": "wirtinger.wirtinger_presentation",
    "foxcalc.jacobian_ms": "foxcalc.jacobian",
    "alexander.rank_ms": "alexander.module_rank",
    "alexander.torsion_ms": "alexander.torsion_order",
    "laurent.gcd_ms": "laurent.gcd",
    "laurent.divide_ms": "laurent.exact_divide",
    "obstruct.pair_ms": "obstruct.obstruction_from_polynomials",
    "oracles.cover_ms": "oracles.reidemeister_schreier",
    "oracles.resultant_ms": "oracles.cover_torsion_from_polynomial",
    "cli.self_ms": REQUEST_SPAN,
}

# per-layer metric -> count summed per request
LAYER_COUNTS = ("linkcodec.crossings", "wirtinger.generators",
                "foxcalc.jacobian_terms", "alexander.rank_deficit_links",
                "alexander.fallback_minor_bound", "alexander.delta_terms",
                "oracles.snf_columns")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []  # (request id, key, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.request = 0
        self._root = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, value):
        self.counts.append((self.request, key, value))

    def run_request(self, request_id, call):
        """Run call() as request request_id under a root span."""
        self.request = request_id
        self._root = next(self._ids)
        stack = self._stack()
        stack.append(self._root)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((self._root, 0, request_id, REQUEST_SPAN, start, end))

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span = next(self._ids)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span, parent, self.request, name, start, end))
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for count in self.counts:
                fh.write(json.dumps(["count"] + list(count)) + "\n")


def install(tracer, cli, alexander, obstruct, oracles, laurent):
    """Rebind the public functions each layer's callers use."""
    count = tracer.count

    def on_parse(args, diagram):
        count("linkcodec.crossings", diagram.num_crossings)

    def on_present(args, result):
        count("wirtinger.generators", result[0].num_generators)

    def on_jacobian(args, pres):
        count("foxcalc.jacobian_terms",
              sum(len(e.terms) for row in pres.matrix for e in row))

    def on_rank(args, cert):
        pres = args[0]
        g, r = pres.num_generators, cert.rank
        if r < g - 1:
            count("alexander.rank_deficit_links", 1)
            count("alexander.fallback_minor_bound",
                  comb(pres.num_relators, r) * comb(g, r))

    def on_torsion(args, delta):
        count("alexander.delta_terms", len(delta.value.terms))
        count("alexander.delta_coeff_bits",
              max(abs(c) for c in delta.value.terms.values()).bit_length())

    def on_pair(args, report):
        count("obstruct.verdicts", 1)
        count("obstruct.obstructed", int(report.verdict == "obstructed"))

    def on_cover(args, result):
        pres, phi, k = args
        count("oracles.snf_columns", k * pres.num_generators)

    wrap = tracer.wrap
    present = wrap("wirtinger.wirtinger_presentation",
                   alexander.wirtinger_presentation, on_present)
    alexander.wirtinger_presentation = present
    cli.wirtinger_presentation = present
    alexander.jacobian = wrap("foxcalc.jacobian", alexander.jacobian, on_jacobian)
    alexander.module_rank = wrap("alexander.module_rank", alexander.module_rank,
                                 on_rank)
    alexander.torsion_order = wrap("alexander.torsion_order",
                                   alexander.torsion_order, on_torsion)
    cli.alexander_polynomial = wrap("alexander.alexander_polynomial",
                                    cli.alexander_polynomial)
    cli.parse_link_spec = wrap("linkcodec.parse_link_spec", cli.parse_link_spec,
                               on_parse)
    cli.obstruction_from_polynomials = wrap(
        "obstruct.obstruction_from_polynomials", cli.obstruction_from_polynomials,
        on_pair)
    # obstruct reaches gcd as laurent.gcd: give it a module of its own
    # so that only the pairs' calls are traced
    traced_laurent = types.ModuleType(laurent.__name__)
    traced_laurent.__dict__.update(vars(laurent))
    traced_laurent.gcd = wrap("laurent.gcd", laurent.gcd)
    obstruct.laurent = traced_laurent
    obstruct.exact_divide = wrap("laurent.exact_divide", obstruct.exact_divide)
    cli.reidemeister_schreier = wrap("oracles.reidemeister_schreier",
                                     cli.reidemeister_schreier, on_cover)
    cli.cyclic_cover_check = wrap("oracles.cyclic_cover_check",
                                  cli.cyclic_cover_check)
    oracles.cover_torsion_from_polynomial = wrap(
        "oracles.cover_torsion_from_polynomial",
        oracles.cover_torsion_from_polynomial)


def _union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(path, requests):
    """Per-request means of each layer's self time (ms) and counts."""
    spans, counts = [], []
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            (counts if item[0] == "count" else spans).append(item)
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    self_s = {}
    for span_id, parent, _, name, start, end in spans:
        kids = [(s[4], s[5]) for s in children.get(span_id, ())]
        if name == REQUEST_SPAN:
            own = (end - start) - _union_length(kids)
        else:
            own = (end - start) - sum(b - a for a, b in kids)
        self_s[name] = self_s.get(name, 0.0) + own
    metrics = {key: self_s.get(name, 0.0) * 1000 / requests
               for key, name in LAYER_SPANS.items()}
    totals = {}
    for _, _, key, value in counts:
        if key == "alexander.delta_coeff_bits":
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value
    for key in LAYER_COUNTS:
        metrics[key] = totals.get(key, 0) / requests
    metrics["alexander.delta_coeff_bits"] = totals.get("alexander.delta_coeff_bits", 0)
    verdicts = totals.get("obstruct.verdicts", 0)
    metrics["obstruct.obstructed_share"] = (
        totals.get("obstruct.obstructed", 0) / verdicts if verdicts else 0.0)
    base = {"obstruct.verdicts": verdicts, "spans": len(spans)}
    return metrics, base
