"""
perfbench/tracing.py's tracer, imported as it is, on top of the package:
every name it rebinds still exists, every layer it reports records a
span, and its Jacobian term count reads what the packed rows hold.
"""

import importlib.util
from pathlib import Path

import pytest

from ribboncheck import alexander, cli, laurent, obstruct, oracles

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

TREFOIL_PD = "pd:X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"

# module -> the names tracing.install rebinds on it
REBOUND = {
    alexander: ("wirtinger_presentation", "jacobian", "module_rank",
                "torsion_order"),
    cli: ("wirtinger_presentation", "alexander_polynomial", "parse_link_spec",
          "obstruction_from_polynomials", "reidemeister_schreier",
          "cyclic_cover_check"),
    obstruct: ("laurent", "exact_divide"),
    oracles: ("cover_torsion_from_polynomial",),
}


@pytest.fixture
def tracing(monkeypatch):
    """The tracer's module, with every name it rebinds restored afterwards."""
    for module, names in REBOUND.items():
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_records_a_span(tracing, monkeypatch, tmp_path, capsys):
    # the presentations jacobian returns, recorded beneath the tracer's
    # own wrapper
    presentations, jacobian = [], alexander.jacobian

    def recorded(*args):
        presentations.append(jacobian(*args))
        return presentations[-1]

    monkeypatch.setattr(alexander, "jacobian", recorded)
    tracer = tracing.Tracer()
    tracing.install(tracer, cli, alexander, obstruct, oracles, laurent)
    table = tmp_path / "pairs.csv"
    table.write_text("name,spec\n"
                     "a,braid:n=3:1 1 1 2 2 2\n"
                     "b,braid:n=4:1 1 1 2 -3 2 -3\n"
                     "c,%s\n" % TREFOIL_PD)
    requests = (["compute", "--json", TREFOIL_PD],
                ["batch", str(table), "--pairs"],
                ["oracle-check", "braid:n=3:1 -2 1 -2", "--covers", "2"])
    for i, args in enumerate(requests):
        assert tracer.run_request(i, lambda: cli.main(args)) == 0, args
    capsys.readouterr()

    recorded = {span[3] for span in tracer.spans}
    missing = set(tracing.LAYER_SPANS.values()) - recorded
    assert not missing
    terms = [value for _, key, value in tracer.counts
             if key == "foxcalc.jacobian_terms"]
    assert presentations and terms == [
        sum(len(cell) for row in pres.matrix.rows for cell in row.values())
        for pres in presentations]

    # the spans and counts read back as every per-layer metric
    spans = tmp_path / "spans.jsonl"
    tracer.dump(spans)
    metrics, base = tracing.layer_metrics(spans, len(requests))
    assert base["spans"] == len(tracer.spans)
    assert metrics["foxcalc.jacobian_terms"] == sum(terms) / len(requests)
