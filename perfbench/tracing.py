"""Spans around calls into the ccrn modules, recorded from outside the program.

A ``Recorder`` replaces public functions in the ccrn modules with wrappers
that record one span per call: name, start, end and the span that was open
when the call began. The program looks its callees up as module attributes
(``diffcore.conv1d``, ``quality.lpc`` inside ``quality``), so replacing the
attribute is enough for every call site to be traced. For the ``diffcore``
ops the wrapper also wraps the ``_backward`` closure of the node the op
returns, which yields the backward spans.

Per-layer metrics are derived from the spans when the run ends: a span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# diffcore ops that build graph nodes: forward and backward get separate spans
DIFFCORE_OPS = ("conv1d", "batchnorm1d", "prelu", "mse")

# module name -> functions whose calls are recorded as "<module>.<function>"
TRACED_FUNCTIONS = {
    "diffcore": ("backprop",),
    "netmodel": ("forward_nodes", "forward", "load_checkpoint", "save_checkpoint"),
    "objectives": ("train", "sample_example", "cost_graph", "adamw_step"),
    "corpus": ("corrupt", "read_wav", "write_wav"),
    "frontend": ("assemble_features", "target_spectrum", "reconstruct"),
    "quality": ("srmr", "llr", "lpc", "vad_mask"),
}

# per-layer metric -> (span name, statistic); statistics are per operation
# unit ("total" and "self" in ms, "calls" as a count)
SPAN_METRICS = {
    "diffcore.conv1d.fwd_ms": ("diffcore.conv1d.fwd", "total"),
    "diffcore.conv1d.bwd_ms": ("diffcore.conv1d.bwd", "total"),
    "diffcore.batchnorm1d.fwd_ms": ("diffcore.batchnorm1d.fwd", "total"),
    "diffcore.batchnorm1d.bwd_ms": ("diffcore.batchnorm1d.bwd", "total"),
    "diffcore.prelu.fwd_ms": ("diffcore.prelu.fwd", "total"),
    "diffcore.prelu.bwd_ms": ("diffcore.prelu.bwd", "total"),
    "diffcore.mse.fwd_ms": ("diffcore.mse.fwd", "total"),
    "diffcore.mse.bwd_ms": ("diffcore.mse.bwd", "total"),
    "diffcore.backprop.self_ms": ("diffcore.backprop", "self"),
    "netmodel.forward_nodes.self_ms": ("netmodel.forward_nodes", "self"),
    "netmodel.forward.self_ms": ("netmodel.forward", "self"),
    "netmodel.load_checkpoint_ms": ("netmodel.load_checkpoint", "total"),
    "netmodel.save_checkpoint_ms": ("netmodel.save_checkpoint", "total"),
    "objectives.sample_example_ms": ("objectives.sample_example", "total"),
    "objectives.cost_graph.self_ms": ("objectives.cost_graph", "self"),
    "objectives.adamw_step_ms": ("objectives.adamw_step", "total"),
    "objectives.train.self_ms": ("objectives.train", "self"),
    "corpus.corrupt_ms": ("corpus.corrupt", "total"),
    "corpus.read_wav_ms": ("corpus.read_wav", "total"),
    "corpus.write_wav_ms": ("corpus.write_wav", "total"),
    "frontend.assemble_features_ms": ("frontend.assemble_features", "total"),
    "frontend.assemble_features.calls": ("frontend.assemble_features", "calls"),
    "frontend.target_spectrum_ms": ("frontend.target_spectrum", "total"),
    "frontend.target_spectrum.calls": ("frontend.target_spectrum", "calls"),
    "frontend.reconstruct_ms": ("frontend.reconstruct", "total"),
    "quality.srmr_ms": ("quality.srmr", "total"),
    "quality.llr.self_ms": ("quality.llr", "self"),
    "quality.lpc_ms": ("quality.lpc", "total"),
    "quality.lpc.calls": ("quality.lpc", "calls"),
    "quality.vad_mask_ms": ("quality.vad_mask", "total"),
    "cli.main.self_ms": ("cli.main", "self"),
}

# per-layer metrics that are not a statistic of one span
DERIVED_METRICS = {
    "diffcore.conv1d.gflop": "GFLOP",
    "diffcore.conv1d.fwd_gflop_per_s": "GFLOP/s",
    "diffcore.graph_mb": "MB",
    "trace.audio_s_per_s": "s/s",
}


def metric_unit(name: str) -> str:
    if name in DERIVED_METRICS:
        return DERIVED_METRICS[name]
    return "count" if name.endswith(".calls") else "ms"


class Recorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one (name id, start, end, parent index) tuple per finished span;
        # a started span holds None until it ends
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._open = [-1]
        self.conv_flop = 0
        self.graph_bytes: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, open_stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_stack[-1]
            open_stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def _wrap_op(self, op: str, fn):
        forward = self.wrap(f"diffcore.{op}.fwd", fn)
        backward_name = f"diffcore.{op}.bwd"

        def traced_op(*args, **kwargs):
            node = forward(*args, **kwargs)
            if op == "conv1d":
                c_out, c_in, k = args[1].value.shape
                out = node.value
                batch = out.shape[0] if out.ndim == 3 else 1
                self.conv_flop += 2 * batch * out.shape[-1] * c_out * c_in * k
            if node._backward is not None:
                node._backward = self.wrap(backward_name, node._backward)
            return node

        return traced_op

    def _wrap_forward_nodes(self, fn):
        forward_nodes = self.wrap("netmodel.forward_nodes", fn)
        walk = self.wrap("trace.graph_walk", self._record_graph)

        def traced_forward_nodes(*args, **kwargs):
            final, probes = forward_nodes(*args, **kwargs)
            walk([final, *probes])
            return final, probes

        return traced_forward_nodes

    def _record_graph(self, roots) -> None:
        """Bytes of node values reachable from ``roots``, parameters excluded."""
        seen: set[int] = set()
        stack = list(roots)
        total = 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.op != "param":
                total += node.value.nbytes
            stack.extend(node.parents)
        self.graph_bytes.append(total)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Replace the traced functions of the ``ccrn`` package's modules with wrappers."""
        diffcore = package.diffcore
        for op in DIFFCORE_OPS:
            self._patch(diffcore, op, self._wrap_op(op, getattr(diffcore, op)))
        for module_name, functions in TRACED_FUNCTIONS.items():
            module = getattr(package, module_name)
            for fn_name in functions:
                original = getattr(module, fn_name)
                if (module_name, fn_name) == ("netmodel", "forward_nodes"):
                    self._patch(module, fn_name, self._wrap_forward_nodes(original))
                else:
                    self._patch(module, fn_name, self.wrap(f"{module_name}.{fn_name}", original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span_stats(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (total seconds, self seconds, calls)."""
        covered = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name_id, start, end, _) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry[0] += end - start
            entry[1] += end - start - covered[index]
            entry[2] += 1
        return {name: tuple(entry) for name, entry in stats.items()}

    def per_layer_metrics(self, units: int, audio_s_per_s: float) -> dict[str, float]:
        """Every per-layer metric, normalized to one operation unit.

        A span that never ran reads 0, as does a rate with no work behind it.
        """
        stats = self.span_stats()
        metrics: dict[str, float] = {}
        for metric, (span, statistic) in SPAN_METRICS.items():
            total_s, self_s, calls = stats.get(span, (0.0, 0.0, 0))
            if statistic == "calls":
                metrics[metric] = calls / units
            else:
                metrics[metric] = 1000.0 * (total_s if statistic == "total" else self_s) / units
        conv_s = stats.get("diffcore.conv1d.fwd", (0.0, 0.0, 0))[0]
        # integer ratio first, so the figure does not depend on the number of rounds
        metrics["diffcore.conv1d.gflop"] = self.conv_flop / units / 1e9
        metrics["diffcore.conv1d.fwd_gflop_per_s"] = self.conv_flop / 1e9 / conv_s if conv_s else 0.0
        metrics["diffcore.graph_mb"] = (
            sum(self.graph_bytes) / len(self.graph_bytes) / 1e6 if self.graph_bytes else 0.0
        )
        metrics["trace.audio_s_per_s"] = audio_s_per_s
        return metrics

    def write(self, path, origin: float, header: dict) -> None:
        """Spans as JSON, times in seconds since ``origin``."""
        spans = [
            [name_id, start - origin, end - origin, parent]
            for name_id, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**header, "names": self.names, "spans": spans}, fh)
