"""Spans recorded around calls into the package, from outside the package.

Wrappers are installed on the module attributes where the harness actually
looks a function up (``experiments`` imports ``cluster`` by name, so the
wrapper goes on ``experiments.cluster``, not on ``adaptive_cluster``), and
every original binding is put back afterwards.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span in the same list, or -1 for a root.  Names are
``<module>.<function>``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from segxfer import adaptive_cluster, experiments, segmodel, transferability

Span = tuple[str, float, float, int]

ROOT_SPAN = "perfbench.seed"
# Counter updates that inspect outputs run in their own span, so their cost
# stays out of the self time of the layer being measured.
HOOK_SPAN = "perfbench.hook"

MODULES = ("synthdata", "adaptive_cluster", "transferability", "numkit", "tma",
           "segmodel", "experiments")


class Patches:
    """Module attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """In-memory span list plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        self.spans[idx] = (name, start, perf_counter(), parent)
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(args, kwargs, out)`` runs
        after it in a separate hook span."""

        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if hook is not None:
                idx, parent = self._open()
                start = perf_counter()
                try:
                    hook(args, kwargs, out)
                finally:
                    self._close(idx, parent, HOOK_SPAN, start)
            return out

        traced.__wrapped__ = fn
        return traced

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside span ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# Where the wrappers go
# ---------------------------------------------------------------------------


STAGES = {"prepare_seed": "experiments.prepare_seed",
          "finetune_variant": "experiments.finetune_variant",
          "evaluate_variant": "experiments.evaluate_variant",
          "train": "segmodel.train"}


def install_stage_spans(tracer: Tracer, patches: Patches, train_hook=None) -> None:
    """The handful of stage timers the untraced run needs."""
    for attr, span in STAGES.items():
        hook = train_hook if attr == "train" else None
        patches.set(experiments, attr, tracer.wrap(span, getattr(experiments, attr), hook))


def install_layer_spans(tracer: Tracer, patches: Patches) -> None:
    """Stage timers plus a span on every layer function the harness calls."""
    counters = tracer.counters
    seen_clusters: set[tuple] = set()
    cluster_sig = inspect.signature(adaptive_cluster.cluster)

    def count_images(args, kwargs, out):
        counters["synthdata.images"] += len(out)

    def count_repeat_cluster(args, kwargs, out):
        bound = cluster_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        digest = hashlib.sha1(np.ascontiguousarray(a["fm"].features).tobytes()).hexdigest()
        key = (digest, a["fm"].height, a["fm"].width, a["stride"], a["tau"], a["iters"])
        if key in seen_clusters:
            counters["adaptive_cluster.repeat_cluster_calls"] += 1
        seen_clusters.add(key)

    def count_finite(args, kwargs, out):
        counters["adaptive_cluster.finite_sim"] += int(np.count_nonzero(np.isfinite(out)))
        counters["adaptive_cluster.sim_entries"] += out.size

    def count_admitted(args, kwargs, out):
        counters["tma.admitted_pairs"] += int(np.count_nonzero(np.isfinite(out.additive)))
        counters["tma.pairs"] += out.additive.size
        counters["tma.fallback_rows"] += int(np.count_nonzero(out.fallback))

    def count_train(args, kwargs, out):
        losses = out[1]
        counters["segmodel.train_steps"] += len(losses)
        counters["segmodel.final_loss_sum"] += float(losses[-1]) if losses else 0.0
        counters["segmodel.train_calls"] += 1

    def add(module, attr, span, hook=None):
        patches.set(module, attr, tracer.wrap(span, getattr(module, attr), hook))

    install_stage_spans(tracer, patches, train_hook=count_train)
    add(experiments, "generate", "synthdata.generate", count_images)
    add(experiments, "cluster", "adaptive_cluster.cluster", count_repeat_cluster)
    add(experiments, "init_grid", "adaptive_cluster.init_grid")
    add(experiments, "train_discriminator", "transferability.train_discriminator")
    add(experiments, "build_transferability_map", "transferability.build_map")
    add(experiments, "forward", "segmodel.forward")
    add(adaptive_cluster, "init_grid", "adaptive_cluster.init_grid")
    add(adaptive_cluster, "compute_similarity", "adaptive_cluster.compute_similarity",
        count_finite)
    add(adaptive_cluster, "soft_assign", "adaptive_cluster.soft_assign")
    add(adaptive_cluster, "update_centers", "adaptive_cluster.update_centers")
    add(transferability, "mlp_loss_and_grads", "numkit.mlp_loss_and_grads")
    add(transferability, "adamw_step", "numkit.adamw_step")
    add(segmodel, "model_loss_and_grads", "segmodel.loss_and_grads")
    add(segmodel, "adamw_step", "numkit.adamw_step")
    add(segmodel, "softmax_columns", "numkit.softmax_columns")
    add(segmodel, "sigmoid", "numkit.sigmoid")
    add(segmodel, "build_mask", "tma.build_mask", count_admitted)
    add(segmodel, "masked_attention_weights", "tma.masked_attention_weights")
    add(segmodel, "attention_backward_from_weights", "tma.attention_backward")
    add(segmodel, "percentile_threshold", "tma.percentile_threshold")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


# Spans reported as <name>_s (total time) and, for some, <name>_calls.
TIMED_SPANS = (
    "synthdata.generate",
    "adaptive_cluster.cluster", "adaptive_cluster.init_grid",
    "adaptive_cluster.compute_similarity", "adaptive_cluster.soft_assign",
    "adaptive_cluster.update_centers",
    "transferability.train_discriminator", "transferability.build_map",
    "numkit.mlp_loss_and_grads", "numkit.adamw_step", "numkit.softmax_columns",
    "numkit.sigmoid",
    "tma.build_mask", "tma.masked_attention_weights", "tma.attention_backward",
    "tma.percentile_threshold",
    "segmodel.train", "segmodel.loss_and_grads", "segmodel.forward",
    "experiments.prepare_seed", "experiments.finetune_variant",
    "experiments.evaluate_variant",
)
COUNTED_SPANS = ("adaptive_cluster.cluster", "numkit.adamw_step", "numkit.softmax_columns",
                 "tma.build_mask", "segmodel.loss_and_grads", "segmodel.forward")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced seed, keyed by metric name.

    The span list must hold exactly one ``ROOT_SPAN``, enclosing the seed.
    """
    counters = defaultdict(float, counters)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_module: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += own
        self_by_module[module_of(name)] += own
    seed_s = total[ROOT_SPAN]

    def ratio(num: str, den: str) -> float:
        return counters[num] / counters[den] if counters[den] else 0.0

    m = {f"{span}_s": total[span] for span in TIMED_SPANS}
    m.update({f"{span}_calls": calls[span] for span in COUNTED_SPANS})
    m.update({
        "synthdata.images": counters["synthdata.images"],
        "adaptive_cluster.repeat_cluster_calls":
            counters["adaptive_cluster.repeat_cluster_calls"],
        "adaptive_cluster.finite_sim_fraction":
            ratio("adaptive_cluster.finite_sim", "adaptive_cluster.sim_entries"),
        "transferability.disc_steps": calls["numkit.mlp_loss_and_grads"],
        "transferability.pad": counters["transferability.pad"],
        "transferability.disc_held_acc": counters["transferability.disc_held_acc"],
        "tma.admitted_fraction": ratio("tma.admitted_pairs", "tma.pairs"),
        "tma.fallback_rows": counters["tma.fallback_rows"],
        "segmodel.train_steps": counters["segmodel.train_steps"],
        "segmodel.loss_and_grads_self_s": self_by_name["segmodel.loss_and_grads"],
        "segmodel.final_train_loss": ratio("segmodel.final_loss_sum", "segmodel.train_calls"),
        "trace.seed_s": seed_s,
        "trace.hook_s": total[HOOK_SPAN],
        "trace.spans": len(spans),
    })
    for module in MODULES:
        m[f"{module}.self_s"] = self_by_module[module]
        m[f"{module}.self_share"] = self_by_module[module] / seed_s if seed_s else 0.0
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(r[k] for r in runs)) for k in runs[0]}
