"""The benchmark's traced run patches package names in place (see
``perfbench/tracing.py``).  A refactor that stops calling through those
names would leave its layers silently empty; this test catches that."""

from pathlib import Path

from twostage import compose, generate_profile, verify_bounded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layers_see_verify_and_compose_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import CHECK, CONTRACT, ENUMERATE, KERNEL, SUPPORT, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcome = verify_bounded(compose(19, 7), "H", 3, 2)
        compose(27, 28).choose_detailed(generate_profile(5, 7, seed=3))
    finally:
        tracer.uninstall()
    assert outcome.status == "verified"
    totals = tracer.layer_totals()
    for layer in (SUPPORT, CONTRACT, KERNEL, CHECK, ENUMERATE):
        assert totals.get(layer, (0, 0.0))[0] > 0, layer
