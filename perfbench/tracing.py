"""Spans around calls into the pipeline's modules, recorded from outside.

The tracer replaces module attributes that the pipeline looks up at call
time (the stage functions imported into ``templater.cli``, the kernel as
``conserved_mapping`` sees it, the scoring and solver functions inside
``similarity_assignment``, and the centrality solver inside ``graph_core``)
with wrappers that record a span per call, and restores them on exit.
Nothing under ``src/`` changes.

A span is ``[name, layer, start, end, parent]`` with ``parent`` the index of
the enclosing span, or -1.  Spans stay in memory; ``summarize`` turns the
spans and counters of one pipeline call into per-layer figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = (
    "lammps_io",
    "graph_core",
    "conserved_mapping",
    "kernels",
    "similarity_assignment",
    "reaction_analysis",
    "template_builder",
    "cli",
)


def _count_kernel(counters, args, result):
    pairs, expansions = result
    counters["kernels.expansions"] += expansions
    counters["kernels.pairs_returned"] += len(pairs)


def _count_parse(counters, args, result):
    counters["lammps_io.bytes_in"] += len(args[0])


def _count_provenance(key, prefix):
    def count(counters, args, result):
        mapping = result[0] if isinstance(result, tuple) else result
        counters[key] += sum(1 for p in mapping.provenance.values() if p.startswith(prefix))
    return count


def _count_matrix(counters, args, result):
    counters["similarity_assignment.matrix_cells"] += result.scores.size


def _count_templates(counters, args, result):
    counters["template_builder.pre_atoms"] += result.pre.atom_count
    counters["template_builder.post_atoms"] += result.post.atom_count


def _count_graph(counters, args, result):
    counters["graph_core.nodes"] += len(result.nodes)


# (module, attribute, layer, counter hook).  The attribute is the name the
# caller looks up, so patching it on that module routes every call through
# the tracer.
def targets():
    from templater import cli, conserved_mapping, graph_core, similarity_assignment

    return [
        (cli, "parse_data_file", "lammps_io", _count_parse),
        (cli, "write_molecule_template", "lammps_io", None),
        (cli, "write_map_file", "lammps_io", None),
        (cli, "build_unified_graph", "graph_core", _count_graph),
        (cli, "iterate_conserved", "conserved_mapping",
         _count_provenance("conserved_mapping.pairs", "conserved")),
        (conserved_mapping, "max_common_connected_subgraph", "kernels", _count_kernel),
        (cli, "assign_similarity", "similarity_assignment", None),
        (similarity_assignment, "build_similarity_matrix", "similarity_assignment", _count_matrix),
        (similarity_assignment, "solve_assignment", "similarity_assignment", None),
        (similarity_assignment, "similarity_score", "similarity_assignment", None),
        (cli, "refine_symmetric_paths", "similarity_assignment",
         _count_provenance("similarity_assignment.path_refined", "path-refined")),
        (cli, "swap_hydrogens", "similarity_assignment",
         _count_provenance("similarity_assignment.hydrogen_swapped", "hydrogen-swapped")),
        (cli, "build_report", "reaction_analysis", None),
        (graph_core, "eigenvector_centrality", "graph_core", None),
        (cli, "report_to_text", "reaction_analysis", None),
        (cli, "report_to_dict", "reaction_analysis", None),
        (cli, "prune_reaction", "template_builder", None),
        (cli, "assemble_templates", "template_builder", _count_templates),
        (cli, "_write_atomic", "cli", None),
    ]


class Tracer:
    """Context manager that records spans for every call through ``targets``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)

    def span(self, name: str, layer: str, fn, hook=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [name, layer, time.perf_counter(), 0.0, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attribute, layer, hook in targets():
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self.span(attribute, layer, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attribute, original in reversed(self._saved):
            setattr(module, attribute, original)
        self._saved.clear()


# Inclusive span times reported per name, in ms.
_SPAN_METRICS = {
    "lammps_io.parse_ms": ("parse_data_file",),
    "lammps_io.write_ms": ("write_molecule_template", "write_map_file"),
    "graph_core.build_ms": ("build_unified_graph",),
    "graph_core.centrality_ms": ("eigenvector_centrality",),
    "kernels.ms": ("max_common_connected_subgraph",),
    "similarity_assignment.matrix_ms": ("build_similarity_matrix",),
    "similarity_assignment.lsa_ms": ("solve_assignment",),
    "similarity_assignment.refine_ms": ("refine_symmetric_paths",),
    "similarity_assignment.hswap_ms": ("swap_hydrogens",),
    "reaction_analysis.report_ms": ("build_report",),
    "template_builder.prune_ms": ("prune_reaction",),
    "template_builder.assemble_ms": ("assemble_templates",),
    "cli.write_ms": ("_write_atomic",),
}

_CALL_COUNTS = {
    "kernels.calls": "max_common_connected_subgraph",
    "similarity_assignment.score_calls": "similarity_score",
    "graph_core.centrality_calls": "eigenvector_centrality",
}


def summarize(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one pipeline call (the root span comes first)."""
    child_time = [0.0] * len(spans)
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_ms = dict.fromkeys(LAYERS, 0.0)
    by_name: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    refine_scores = 0
    refine_index = -1
    for index, (name, layer, start, end, parent) in enumerate(spans):
        duration = end - start
        self_ms[layer] += (duration - child_time[index]) * 1e3
        by_name[name] += duration * 1e3
        calls[name] += 1
        if name == "refine_symmetric_paths":
            refine_index = index
        elif name == "similarity_score" and parent == refine_index >= 0:
            refine_scores += 1
    out = {f"{layer}.self_ms": value for layer, value in self_ms.items() if layer != "kernels"}
    for metric, names in _SPAN_METRICS.items():
        out[metric] = sum(by_name[n] for n in names)
    for metric, name in _CALL_COUNTS.items():
        out[metric] = calls[name]
    out["similarity_assignment.refine_score_calls"] = refine_scores
    for key in (
        "kernels.expansions",
        "conserved_mapping.pairs",
        "similarity_assignment.matrix_cells",
        "similarity_assignment.path_refined",
        "similarity_assignment.hydrogen_swapped",
        "lammps_io.bytes_in",
        "graph_core.nodes",
        "template_builder.pre_atoms",
        "template_builder.post_atoms",
    ):
        out[key] = counters.get(key, 0)
    returned = counters.get("kernels.pairs_returned", 0)
    out["kernels.accept_ratio"] = out["conserved_mapping.pairs"] / returned if returned else 0.0
    return out


def dominant_layer(summary: dict[str, float]) -> tuple[str, float]:
    """Layer with the largest self time, and its share of all self time."""
    selfs = {layer: summary.get(f"{layer}.self_ms", 0.0) for layer in LAYERS}
    selfs["kernels"] = summary["kernels.ms"]
    layer = max(selfs, key=selfs.get)
    total = sum(selfs.values())
    return layer, selfs[layer] / total if total else 0.0


def dominant_stage(spans: list[list]) -> tuple[str, float]:
    """Layer of the pipeline stage (a direct child of the root span) with the
    largest inclusive time, and its share of the whole call."""
    total = spans[0][3] - spans[0][2]
    by_layer: defaultdict[str, float] = defaultdict(float)
    for _name, layer, start, end, parent in spans:
        if parent == 0:
            by_layer[layer] += end - start
    layer = max(by_layer, key=by_layer.get)
    return layer, by_layer[layer] / total
