import importlib

import pytest

import tracing
from tracing import END, START, Tracer, self_times
from worker import call_cli


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, parent=0),
             span("a.inner", 2.0, 3.0, parent=1),
             span("b", 5.0, 6.0, parent=0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 5.0, parent=0),
             span("b", 3.0, 7.0, parent=0),
             span("late", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _bindings(modules):
    """Every module global, and every attribute of every class they define."""
    out = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    out[(name, attr, cls_attr)] = cls_value
    return out


@pytest.fixture
def modules():
    return {name: importlib.import_module(name) for name in tracing.MODULES}


def test_every_wrapped_name_is_restored(modules):
    before = _bindings(modules)
    tracer = Tracer()
    tracer.install(modules)
    wrapped = {key for key, value in _bindings(modules).items() if before.get(key) is not value}
    # Names imported into another module are wrapped at that binding too.
    assert ("xmeter.attr_methods", "gradient") in wrapped
    assert ("xmeter.attr_metrics", "evaluate_loss_batch") in wrapped
    assert ("xmeter.core", "ModelHandle", "predict_batch") in wrapped
    tracer.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_span_closes_when_the_wrapped_call_raises(modules):
    tracer = Tracer()
    tracer.install(modules)
    try:
        with pytest.raises(TypeError):
            modules["xmeter.cli"].parse_model_spec()
    finally:
        tracer.restore()
    assert tracer.spans[-1][END] >= tracer.spans[-1][START]
    assert tracer._stack == []


def test_traced_park_counts(modules):
    """Four methods judged at one point: one distinct restriction-loss input."""
    tracer = Tracer()
    tracer.install(modules)
    tracer.command = 0
    try:
        _, problem = call_cli(modules["xmeter.cli"], [
            "attr-eval", "--model", "park", "--point", "0.24,0.48,0.56,0.99,0.68,0.86",
            "--n-mc", "100"])
    finally:
        tracer.restore()
    assert problem is None
    layers = tracing.layer_metrics(tracer.spans, 1, 0.0, 0.0, 0.065)
    assert layers["attr_methods.compute_attribution.calls"] == 4
    assert layers["attr_metrics.restriction_loss_vector.calls"] == 4
    assert layers["attr_metrics.restriction_loss_vector.useful_ratio"] == 0.25
    assert layers["core.gradient.calls"] == 1 + 1 + 64
    assert layers["core.sample_matrix.rows"] % 100 == 0
    assert layers["mi.estimate_mi.calls"] == 0
    assert layers["mi.estimate_mi.useful_ratio"] == 0.0
