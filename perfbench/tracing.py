"""Outside-in tracing of xmeter's layers for the traced benchmark run.

The tracer replaces selected functions and methods of the xmeter modules with
wrappers that record one span per call: name, start, end, the span that was
open when the call began (its parent) and the command it belongs to. A
function that another xmeter module imported by name is wrapped at that
binding too, because that is the name the caller looks up. ``restore`` puts
every original object back.

Spans exist only for the names the per-layer metrics need, so a span's self
time (its duration minus the part covered by its child spans) is the time
spent in that layer outside every other named layer. Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import time

# Modules whose bindings are patched: a function imported by name into one of
# these (for example ``gradient`` in attr_methods) is wrapped there as well.
MODULES = ("xmeter", "xmeter.cli", "xmeter.core", "xmeter.attr_methods",
           "xmeter.attr_metrics", "xmeter.mi", "xmeter.example_based",
           "xmeter.bench", "xmeter.model_server")


def _rows(args, kwargs, result):
    return len(args[1])


def _sample_rows(args, kwargs, result):
    return int(args[2])


def _one_row(args, kwargs, result):
    return 1


def _restriction_input(args, kwargs, result):
    model, x_star, cfg = args[:3]
    return (id(model), x_star.tobytes(), id(cfg))


def _prefixes(args, kwargs, result):
    return len(result.losses)


def _extractor_kind(args, kwargs, result):
    return args[1].kind


def _mi_result(args, kwargs, result):
    return (result.estimator, result.raw_value)


# (span name, module, attribute or Class.method, annotation of the call).
# An annotation sees (args, kwargs, result) and returns what the metrics need.
SPANS = (
    ("cli.parse_dataset_spec", "xmeter.cli", "parse_dataset_spec", None),
    ("cli.parse_model_spec", "xmeter.cli", "parse_model_spec", None),
    ("cli.write_report", "xmeter.cli", "write_report", None),
    ("cli.external.request", "xmeter.cli", "ExternalModel.predict", None),
    ("cli.external.request", "xmeter.cli", "ExternalModel.gradient", None),
    ("core.predict", "xmeter.core", "ModelHandle.predict", None),
    ("core.predict_batch", "xmeter.core", "ModelHandle.predict_batch", _rows),
    ("core.gradient", "xmeter.core", "gradient", None),
    ("core.sample_matrix", "xmeter.core", "FeatureDistribution.sample_matrix", _sample_rows),
    ("core.evaluate_loss_batch", "xmeter.core", "evaluate_loss_batch", None),
    ("attr_methods.compute_attribution", "xmeter.attr_methods", "compute_attribution", None),
    ("attr_metrics.restriction_loss_vector", "xmeter.attr_metrics",
     "restriction_loss_vector", _restriction_input),
    ("attr_metrics.effective_complexity", "xmeter.attr_metrics",
     "effective_complexity_detail", _prefixes),
    ("mi.extractor_report", "xmeter.mi", "extractor_report", _extractor_kind),
    ("mi.estimate_mi", "xmeter.mi", "estimate_mi", _mi_result),
    ("mi.fit_entropy_discretizer", "xmeter.mi", "fit_entropy_discretizer", None),
    ("mi.apply_extractor", "xmeter.mi", "apply_extractor", None),
    ("example_based.select_kmedoids", "xmeter.example_based", "select_kmedoids", None),
    ("example_based.select_mmd_critic", "xmeter.example_based", "select_mmd_critic", None),
    ("example_based.select_protodash", "xmeter.example_based", "select_protodash", None),
    ("example_based.non_representativeness", "xmeter.example_based",
     "non_representativeness", None),
    ("example_based.diversity", "xmeter.example_based", "diversity", None),
    ("bench.fit_decision_tree", "xmeter.bench", "fit_decision_tree", None),
    ("bench.tree_predict", "xmeter.bench", "DecisionTreeModel.predict_proba_batch", _rows),
    ("bench.tree_predict", "xmeter.bench", "DecisionTreeModel.predict_proba", _one_row),
    ("bench.synth_tabular", "xmeter.bench", "synth_tabular", None),
)

NAME, START, END, PARENT, COMMAND, INFO = range(6)


class Tracer:
    """Records spans from wrapped callables; not thread-safe (xmeter's traced
    calls all run on the thread that runs the command)."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, annotate):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.command, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                span[INFO] = annotate(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, annotate))

    def install(self, modules: dict) -> None:
        """Wrap every entry of SPANS; ``modules`` maps module names to modules."""
        for name, module_name, path, annotate in SPANS:
            owner = modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                self.patch(vars(owner)[cls_name], attr, name, annotate)
                continue
            original = vars(owner)[path]
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self.patch(other, attr, name, annotate)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], reach)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, n_commands: int, child_cpu_s: float, overhead_frac: float,
                  speed_probe_s: float) -> dict:
    """Per-command per-layer metrics from the spans of ``n_commands`` commands.

    Counts, rows and seconds are means per command; ``child_cpu_s`` is the
    total CPU time of reaped model-server children over those commands.
    A useful ratio is 0 when its layer made no calls. ``speed_probe_s``, the
    run's median speed probe, is passed through: no change to xmeter should
    move it.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def calls(name):
        return len(by_name.get(name, ())) / n_commands

    def self_s(name, info=None):
        return sum(selfs[i] for i in by_name.get(name, ())
                   if info is None or spans[i][INFO][0] == info) / n_commands

    def info_sum(name):
        return sum(spans[i][INFO] for i in by_name.get(name, ())) / n_commands

    def duration(name):
        return sum(spans[i][END] - spans[i][START] for i in by_name.get(name, ())) / n_commands

    rlv = by_name.get("attr_metrics.restriction_loss_vector", [])
    rlv_inputs = {(spans[i][COMMAND], spans[i][INFO]) for i in rlv}

    # Feature MI is the first estimate under an extractor report, target MI the second.
    mi_calls = by_name.get("mi.estimate_mi", [])
    mi_results: dict[tuple, set] = {}
    side_of_parent: dict[int, int] = {}
    for i in mi_calls:
        parent = spans[i][PARENT]
        side = side_of_parent.get(parent, 0)
        side_of_parent[parent] = side + 1
        extractor = spans[parent][INFO] if parent >= 0 else None
        mi_results.setdefault((spans[i][COMMAND], extractor, side), set()).add(spans[i][INFO][1])
    mi_distinct = sum(len(values) for values in mi_results.values())

    return {
        "cli.external.requests": calls("cli.external.request"),
        "cli.external.wait_s": duration("cli.external.request"),
        "cli.parse_model_spec.self_s": self_s("cli.parse_model_spec"),
        "cli.parse_dataset_spec.self_s": self_s("cli.parse_dataset_spec"),
        "cli.write_report.self_s": self_s("cli.write_report"),
        "model_server.cpu_s": child_cpu_s / n_commands,
        "core.predict.calls": calls("core.predict"),
        "core.predict_batch.calls": calls("core.predict_batch"),
        "core.predict_batch.rows": info_sum("core.predict_batch"),
        "core.predict_batch.self_s": self_s("core.predict_batch"),
        "core.gradient.calls": calls("core.gradient"),
        "core.gradient.self_s": self_s("core.gradient"),
        "core.sample_matrix.rows": info_sum("core.sample_matrix"),
        "core.sample_matrix.self_s": self_s("core.sample_matrix"),
        "core.evaluate_loss_batch.self_s": self_s("core.evaluate_loss_batch"),
        "attr_methods.compute_attribution.calls": calls("attr_methods.compute_attribution"),
        "attr_methods.compute_attribution.self_s": self_s("attr_methods.compute_attribution"),
        "attr_metrics.restriction_loss_vector.calls":
            calls("attr_metrics.restriction_loss_vector"),
        "attr_metrics.restriction_loss_vector.self_s":
            self_s("attr_metrics.restriction_loss_vector"),
        "attr_metrics.restriction_loss_vector.useful_ratio":
            len(rlv_inputs) / len(rlv) if rlv else 0.0,
        "attr_metrics.effective_complexity.prefixes":
            info_sum("attr_metrics.effective_complexity"),
        "attr_metrics.effective_complexity.self_s": self_s("attr_metrics.effective_complexity"),
        "mi.estimate_mi.calls": calls("mi.estimate_mi"),
        "mi.estimate_mi.ksg.self_s": self_s("mi.estimate_mi", "ksg-continuous"),
        "mi.estimate_mi.mixed.self_s": self_s("mi.estimate_mi", "mixed-discrete"),
        "mi.estimate_mi.plugin.self_s": self_s("mi.estimate_mi", "plugin-discrete"),
        "mi.estimate_mi.useful_ratio": mi_distinct / len(mi_calls) if mi_calls else 0.0,
        "mi.fit_entropy_discretizer.self_s": self_s("mi.fit_entropy_discretizer"),
        "mi.apply_extractor.self_s": self_s("mi.apply_extractor"),
        "example_based.select_kmedoids.self_s": self_s("example_based.select_kmedoids"),
        "example_based.select_mmd_critic.self_s": self_s("example_based.select_mmd_critic"),
        "example_based.select_protodash.self_s": self_s("example_based.select_protodash"),
        "example_based.non_representativeness.self_s":
            self_s("example_based.non_representativeness"),
        "example_based.diversity.self_s": self_s("example_based.diversity"),
        "bench.fit_decision_tree.self_s": self_s("bench.fit_decision_tree"),
        "bench.tree_predict.rows": info_sum("bench.tree_predict"),
        "bench.tree_predict.self_s": self_s("bench.tree_predict"),
        "bench.synth_tabular.self_s": self_s("bench.synth_tabular"),
        "trace.overhead_frac": overhead_frac,
        "machine.speed_probe_s": speed_probe_s,
    }
