"""The benchmark's traced run patches package names in place (see
``perfbench/tracing.py``).  A refactor that stops calling through those
names would leave its layers silently empty; this test catches that."""

from pathlib import Path

from twostage import compose, generate_profile, make_procedure, procedures, verify_bounded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layers_see_verify_and_compose_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import CHECK, CONTRACT, ENUMERATE, KERNEL, SUPPORT, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcome = verify_bounded(compose(19, 7), "H", 3, 2)
        p = generate_profile(5, 7, seed=3)
        compose(27, 28).choose_detailed(p)
        # the calls above choose from one label at every contraction, which
        # builds its input directly; this one contracts to two
        make_procedure(7).choose(p, {"a", "b"})
    finally:
        tracer.uninstall()
    assert outcome.status == "verified"
    # every checked profile came from the one traced enumeration pass
    assert tracer.counters["enumerated"] == outcome.evaluated
    totals = tracer.layer_totals()
    for layer in (SUPPORT, CONTRACT, KERNEL, CHECK, ENUMERATE):
        assert totals.get(layer, (0, 0.0))[0] > 0, layer


def test_a_traced_check_derives_the_relation_once_per_profile(monkeypatch):
    # core -> core reads only the majority relation: each checked profile
    # derives it once, and every subset restricts it rather than contracting
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import CONTRACT, SUPPORT, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcome = verify_bounded(compose(20, 20), "H", 3, 3)
    finally:
        tracer.uninstall()
    assert outcome.status == "verified" and outcome.evaluated == 10
    totals = tracer.layer_totals()
    assert totals[SUPPORT][0] == outcome.evaluated
    assert totals.get(CONTRACT, (0, 0.0))[0] == 0


def test_a_traced_check_of_a_rule_declaring_no_kinds_derives_no_support(monkeypatch):
    # the traced benchmark wraps each rule in a CountingRule, which declares
    # no kinds; a rule whose stages read only μ must still derive μ alone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import CountingRule, Tracer

    derived = []
    support = procedures.tournament_matrix

    def counted(p):
        derived.append(p)
        return support(p)

    monkeypatch.setattr(procedures, "tournament_matrix", counted)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [
            verify_bounded(CountingRule(compose(*spec), tracer.counters), "H", 3, 3)
            for spec in ((20, 20), (19, 7))
        ]
    finally:
        tracer.uninstall()
    assert [outcome.evaluated for outcome in outcomes] == [216, 216]
    assert tracer.counters["rule_calls"] > 0
    assert not derived
