"""
Independent references for every output the benchmark checks.

Shares no code with ribboncheck.  Polynomials here are plain dicts
{exponent tuple: int}; determinants, exact division and gcds over Z use
sympy.  The references are:

* the benchmark's own copy of the published polynomials (published.py);
* for braid closures, the reduced Burau identity
  det(I - psi(beta)) * (1 - t) / (1 - t^n) = Delta(t) for knots and
  (t - 1) * Delta(t, ..., t) for links, up to units +-t^k;
* for split unions, the product of the pieces' references in disjoint
  variables;
* for ordered pairs, sympy exact division over Z (not_obstructed iff
  Delta_L divides Delta_J) and the sympy gcd;
* for oracle-check, the pass flag of every requested cover.
"""

import json
import re
from dataclasses import dataclass
from functools import lru_cache

from sympy import ZZ, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

import published

_T = ZZ[symbols("t")]


# ----- sparse Laurent polynomials as dicts ----------------------------------

def normalize(p):
    """Representative up to units: least exponents 0, leading coefficient > 0."""
    if not p:
        return {}
    nvars = len(next(iter(p)))
    low = [min(e[i] for e in p) for i in range(nvars)]
    shifted = {tuple(a - b for a, b in zip(e, low)): c for e, c in p.items()}
    lead = max(shifted, key=lambda e: (sum(e), e))
    sign = 1 if shifted[lead] > 0 else -1
    return {e: sign * c for e, c in shifted.items()}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def diagonal(p):
    """Substitute t_i = t for every variable."""
    out = {}
    for e, c in p.items():
        k = (sum(e),)
        out[k] = out.get(k, 0) + c
    return {e: c for e, c in out.items() if c}


def disjoint_product(pieces):
    """Product of polynomials in disjoint blocks of variables, in order."""
    out = {(): 1}
    for p in pieces:
        out = {a + b: ca * cb for a, ca in out.items() for b, cb in p.items()}
    return out


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
_FACTOR = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")


def parse(text, nvars):
    """Parse the program's polynomial text ("2*t1^2*t2 - t1 + 1")."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    out = {}
    for term in _TERM_SPLIT.split(s):
        if not term:
            continue
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        coeff = 1
        exps = [0] * nvars
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError("bad factor %r in %r" % (factor, text))
            index = int(m.group(1)) - 1 if m.group(1) else 0
            if not 0 <= index < nvars or (nvars > 1 and not m.group(1)):
                raise ValueError("variable %r out of range in %r" % (factor, text))
            exps[index] += int(m.group(2)) if m.group(2) else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


# ----- references -------------------------------------------------------------

@lru_cache(maxsize=4096)
def burau(strands, letters):
    """
    det(I - psi(beta)) (1 - t) / (1 - t^n) for the reduced Burau
    representation psi, normalized; {} when it vanishes.  Inverse
    letters are scaled by t so that every entry stays polynomial.
    """
    m = strands - 1
    if m == 0:
        return {(0,): 1}
    one, zero, t = _T.one, _T.zero, _T.gens[0]
    product = DomainMatrix.eye(m, _T)
    negatives = 0
    for k in letters:
        i = abs(k) - 1
        if k > 0:
            diag, above = -t, t
        else:
            negatives += 1
            diag, above = -one, t
        rows = [[(t if k < 0 else one) if r == c else zero for c in range(m)]
                for r in range(m)]
        rows[i][i] = diag
        if i > 0:
            rows[i - 1][i] = above
        if i + 1 < m:
            rows[i + 1][i] = one
        product = product * DomainMatrix(rows, (m, m), _T)
    det = (DomainMatrix.eye(m, _T) * t ** negatives - product).det()
    quotient, remainder = divmod(det, sum((t ** j for j in range(strands)), zero))
    if remainder:
        raise ArithmeticError("Burau determinant not divisible by [n]_t")
    return normalize({e: int(c) for e, c in quotient.to_dict().items()})


@dataclass(frozen=True)
class Link:
    """One diagram the benchmark sends, with what is needed to check it."""
    name: str
    spec: str
    components: int
    crossings: int
    ref: tuple  # ("burau", strands, letters) | ("published", name) | ("split", pieces)


@dataclass(frozen=True)
class Reference:
    poly: dict
    full: bool  # False: poly is (t - 1) * Delta(t, ..., t) only


def reference(link):
    kind = link.ref[0]
    if kind == "burau":
        _, strands, letters = link.ref
        return Reference(burau(strands, letters), link.components == 1)
    if kind == "published":
        return Reference(normalize(published.polynomial(link.ref[1])), True)
    if kind == "split":
        pieces = [published.polynomial(p) for p in link.ref[1]]
        return Reference(normalize(disjoint_product(pieces)), True)
    raise ValueError("unknown reference kind %r" % kind)


def agrees(ref, poly):
    """True iff the program's polynomial matches the reference up to units."""
    if ref.full:
        return normalize(poly) == ref.poly
    nvars = len(next(iter(poly))) if poly else 1
    if nvars == 1:
        return normalize(poly) == ref.poly
    return normalize(mul(diagonal(poly), {(1,): 1, (0,): -1})) == ref.poly


@lru_cache(maxsize=None)
def _ring(nvars):
    return ring(",".join("x%d" % i for i in range(nvars)), ZZ)[0]


def pair_reference(dj, dl):
    """(divides, gcd) for canonical Delta_J, Delta_L, by sympy over Z."""
    nvars = len(next(iter(dj)))
    r = _ring(nvars)
    fj, fl = r.from_dict(normalize(dj)), r.from_dict(normalize(dl))
    divides = not fj.rem(fl)
    g = fj.gcd(fl)
    return divides, normalize({e: int(c) for e, c in g.to_dict().items()})


# ----- checking the program's outputs -----------------------------------------

@dataclass
class Tally:
    records: int = 0
    wrong: int = 0
    failed_records: int = 0
    failed_requests: int = 0
    first_wrong: str = ""

    def bad(self, why):
        self.wrong += 1
        if not self.first_wrong:
            self.first_wrong = why


class Checker:
    """
    Holds the references for one workload's inputs (computed when it is
    built, before anything is timed) and checks outputs against them.
    Identical outputs at the same position are checked once.
    """

    def __init__(self, links):
        self.refs = {link.name: reference(link) for link in links}
        for name, ref in self.refs.items():
            if not ref.poly:
                raise ValueError("reference for %s vanishes" % name)
        self._seen = {}
        self._pairs = {}

    def check(self, request, exit_code, output, tally):
        """Check one request's output; request is the workload's Request."""
        if exit_code != 0:
            tally.failed_requests += 1
            if not output.strip():  # an operational error, reported on stderr
                tally.records += 1
                tally.failed_records += 1
                return
        if request.kind == "batch":
            self._check_batch(request.rows, output, tally, exit_code)
        else:
            tally.records += 1
            verdict = self._memo((request.kind, request.link.name, output),
                                 lambda: self._single(request, output))
            if verdict == "failed":
                tally.failed_records += 1
                if exit_code == 0:
                    tally.failed_requests += 1
            elif verdict != "ok":
                tally.bad(verdict)

    def _memo(self, key, compute):
        if key not in self._seen:
            self._seen[key] = compute()
        return self._seen[key]

    def _single(self, request, output):
        lines = output.splitlines()
        if len(lines) != 1:
            return "%s: expected one output line, got %d" % (request.link.name,
                                                             len(lines))
        try:
            record = json.loads(lines[0])
        except ValueError:
            return "%s: output is not JSON" % request.link.name
        if "error" in record:
            return "failed"
        if request.kind == "compute":
            return self._record(request.link, record, with_name=False)
        return self._oracle(request, record)

    def _record(self, link, record, with_name):
        if with_name and record.get("name") != link.name:
            return "%s: row out of order (%r)" % (link.name, record.get("name"))
        if record.get("spec") != link.spec:
            return "%s: spec echoed wrongly" % link.name
        if (record.get("components"), record.get("crossings")) != (
                link.components, link.crossings):
            return "%s: components/crossings %r/%r" % (
                link.name, record.get("components"), record.get("crossings"))
        try:
            poly = parse(record["alexander"], link.components)
        except (KeyError, ValueError) as exc:
            return "%s: unreadable polynomial (%s)" % (link.name, exc)
        if not agrees(self.refs[link.name], poly):
            return "%s: Alexander polynomial %s disagrees with the reference" % (
                link.name, record["alexander"])
        return "ok"

    def _oracle(self, request, record):
        argv, link = request.argv, request.link
        covers = argv[argv.index("--covers") + 1:]
        expected = [{"kind": "cyclic_cover", "k": int(k), "pass": True}
                    for k in covers]
        if record.get("spec") != link.spec or record.get("oracles") != expected:
            return "%s: oracle-check reported %s" % (link.name,
                                                     record.get("oracles"))
        return "ok"

    def _check_batch(self, rows, output, tally, exit_code):
        lines = output.splitlines()
        n = len(rows)
        expected = n + n * n
        if len(lines) != expected:
            tally.bad("batch: %d output lines, expected %d" % (len(lines), expected))
            return
        deltas = {}
        request_failed = False
        for i, (link, line) in enumerate(zip(rows, lines)):
            tally.records += 1
            verdict = self._memo(("row", i, line), lambda: self._row(link, line))
            if verdict == "failed":
                tally.failed_records += 1
                request_failed = True
            elif verdict != "ok":
                tally.bad(verdict)
            else:
                deltas[link.name] = json.loads(line)["alexander"]
        for k, line in enumerate(lines[n:]):
            tally.records += 1
            a, b = rows[k // n], rows[k % n]
            verdict = self._memo(("pair", k, line),
                                 lambda: self._pair(a, b, line, deltas))
            if verdict == "failed":
                tally.failed_records += 1
                request_failed = True
            elif verdict != "ok":
                tally.bad(verdict)
        if request_failed and exit_code == 0:
            tally.failed_requests += 1

    def _row(self, link, line):
        try:
            record = json.loads(line)
        except ValueError:
            return "%s: row is not JSON" % link.name
        if "error" in record:
            return "failed"
        return self._record(link, record, with_name=True)

    def _pair(self, a, b, line, deltas):
        try:
            record = json.loads(line)
        except ValueError:
            return "pair %s,%s: not JSON" % (a.name, b.name)
        if record.get("direction") != [a.name, b.name]:
            return "pair %s,%s: direction %r" % (a.name, b.name,
                                                 record.get("direction"))
        if "error" in record:
            return "failed"
        if a.components != b.components:
            if record.get("verdict") != "component_mismatch":
                return "pair %s,%s: expected component_mismatch" % (a.name, b.name)
            return "ok"
        if a.name not in deltas or b.name not in deltas:
            return "pair %s,%s: operand row was wrong" % (a.name, b.name)
        if (record.get("deltaJ"), record.get("deltaL")) != (deltas[a.name],
                                                            deltas[b.name]):
            return "pair %s,%s: operands differ from the row output" % (a.name,
                                                                       b.name)
        m = a.components
        dj, dl = self._operand(a, deltas), self._operand(b, deltas)
        key = (a.name, b.name)
        if key not in self._pairs:
            self._pairs[key] = pair_reference(dj, dl)
        divides, g = self._pairs[key]
        want = "not_obstructed" if divides else "obstructed"
        if record.get("verdict") != want:
            return "pair %s,%s: verdict %r, reference %r" % (
                a.name, b.name, record.get("verdict"), want)
        try:
            if normalize(parse(record["gcd"], m)) != g:
                return "pair %s,%s: gcd %s disagrees" % (a.name, b.name,
                                                         record["gcd"])
            quotient = record["quotient"]
            if divides:
                if mul(parse(quotient, m), parse(deltas[b.name], m)) != parse(
                        deltas[a.name], m):
                    return "pair %s,%s: quotient %s is no witness" % (
                        a.name, b.name, quotient)
            elif quotient is not None:
                return "pair %s,%s: obstructed pair carries a quotient" % (
                    a.name, b.name)
        except (KeyError, ValueError) as exc:
            return "pair %s,%s: unreadable record (%s)" % (a.name, b.name, exc)
        return "ok"

    def _operand(self, link, deltas):
        """
        Delta for a pair verdict: the full reference where one exists; for
        random multi-component closures (whose reference is only the
        one-variable reduction) the program's row output, which already
        matched that reduction.
        """
        ref = self.refs[link.name]
        if ref.full:
            return ref.poly
        return normalize(parse(deltas[link.name], link.components))
