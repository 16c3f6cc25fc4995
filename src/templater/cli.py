"""End-to-end pipeline orchestration and the ``templater`` command line.

``templater run`` reads reactant and product data files, maps atoms across
the reaction, and writes the pre/post molecule templates, the reaction map
file and an analysis report.  All outputs are written atomically (temp file
plus rename) so a failed run leaves no partial artifacts, and two runs with
the same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields

from templater import errors
from templater.conserved_mapping import AtomMapping, iterate_conserved
from templater.graph_core import UnifiedGraph, build_unified_graph, dot_export
from templater.lammps_io import (
    SystemTopology,
    parse_data_file,
    write_map_file,
    write_molecule_template,
)
from templater.reaction_analysis import (
    ReactionReport,
    build_report,
    report_to_dict,
    report_to_text,
)
from templater.similarity_assignment import (
    ScoringWeights,
    SimilarityMatrix,
    assign_similarity,
    refine_symmetric_paths,
    similarity_csv,
    swap_hydrogens,
)
from templater.template_builder import (
    ReactionTemplates,
    assemble_templates,
    prune_reaction,
)

logger = logging.getLogger("templater")

STAGES = ("reactants", "products", "mapped")

EXIT_CODES = {
    OSError: 2,
    errors.ParseError: 3,
    errors.NoReactionDetected: 4,
    errors.UnsupportedReaction: 5,
    errors.BudgetExceeded: 6,
    errors.InconsistentPruning: 7,
    errors.UnknownStage: 8,
    errors.TemplaterError: 9,
}


@dataclass
class RunConfig:
    """Everything one pipeline run depends on."""

    reactants: list[str]
    products: list[str]
    out_dir: str = "."
    alpha: float = 0.5
    beta: float = 0.25
    gamma: float = 0.25
    iterations: int = 2
    cutoff: int = 4
    export_dot: bool = False
    export_similarity_csv: bool = False
    search_budget: int = 10_000_000
    hydrogen_tolerance: float = 0.01

    def __post_init__(self) -> None:
        if not self.reactants or not self.products:
            raise ValueError("at least one reactant and one product file are required")
        weights = ScoringWeights(self.alpha, self.beta, self.gamma)
        if not weights.is_normalized:
            normalized = weights.normalized()
            logger.warning(
                "weights (%g, %g, %g) do not sum to 1; rescaled to (%g, %g, %g)",
                self.alpha, self.beta, self.gamma,
                normalized.alpha, normalized.beta, normalized.gamma,
            )
            self.alpha, self.beta, self.gamma = (
                normalized.alpha, normalized.beta, normalized.gamma,
            )

    @property
    def weights(self) -> ScoringWeights:
        return ScoringWeights(self.alpha, self.beta, self.gamma)


@dataclass
class PipelineState:
    """In-memory artifacts of one pipeline run."""

    reactant_topologies: list[SystemTopology]
    product_topologies: list[SystemTopology]
    g_reac: UnifiedGraph
    g_prod: UnifiedGraph
    mapping: AtomMapping
    similarity: SimilarityMatrix | None = None
    report: ReactionReport | None = None
    templates: ReactionTemplates | None = None
    written: dict[str, str] = field(default_factory=dict)


def _read_topologies(paths: list[str]) -> list[SystemTopology]:
    topologies = []
    for path in paths:
        with open(path, "r", encoding="ascii") as handle:
            topologies.append(parse_data_file(handle.read()))
    return topologies


def run_stages(cfg: RunConfig, through: str = "templates") -> PipelineState:
    """Run the pipeline in memory up to a stage, without touching the disk.

    ``through`` is one of ``graphs``, ``report`` or ``templates``.
    """
    reactant_topologies = _read_topologies(cfg.reactants)
    product_topologies = _read_topologies(cfg.products)
    g_reac = build_unified_graph(reactant_topologies, "reactant")
    g_prod = build_unified_graph(product_topologies, "product")
    logger.info(
        "unified graphs: %d reactant nodes, %d product nodes",
        len(g_reac.nodes), len(g_prod.nodes),
    )
    state = PipelineState(
        reactant_topologies=reactant_topologies,
        product_topologies=product_topologies,
        g_reac=g_reac,
        g_prod=g_prod,
        mapping=AtomMapping(),
    )
    if through == "graphs":
        return state

    logger.info(
        "knobs: weights (%g, %g, %g), cutoff %d, iterations %d, budget %d, "
        "hydrogen tolerance %g, cost normalization min-max",
        cfg.alpha, cfg.beta, cfg.gamma, cfg.cutoff, cfg.iterations,
        cfg.search_budget, cfg.hydrogen_tolerance,
    )
    mapping = iterate_conserved(
        g_reac, g_prod, iterations=cfg.iterations, budget=cfg.search_budget
    )
    logger.info(
        "conserved mapping: %d pairs after %d iteration(s), %d expansions",
        len(mapping.pairs), cfg.iterations, mapping.search_expansions,
    )

    mapping, similarity = assign_similarity(mapping, g_reac, g_prod, cfg.weights)
    logger.info("similarity assignment: %d pairs total", len(mapping.pairs))
    mapping = refine_symmetric_paths(mapping, g_reac, g_prod, similarity)
    mapping = swap_hydrogens(mapping, g_reac, g_prod, cfg.hydrogen_tolerance)
    state.mapping = mapping
    state.similarity = similarity

    state.report = build_report(mapping, g_reac, g_prod)
    logger.info(
        "initiators: %s; created %d, deleted %d",
        state.report.initiators, len(state.report.created), len(state.report.deleted),
    )
    if through == "templates":
        pre_set, post_set = prune_reaction(
            mapping, state.report, g_reac, g_prod, cfg.cutoff
        )
        state.templates = assemble_templates(
            mapping,
            state.report,
            pre_set,
            post_set,
            g_reac,
            g_prod,
            reactant_topologies,
            product_topologies,
            cfg.cutoff,
        )
        logger.info(
            "templates: %d pre atoms, %d post atoms (cutoff %d)",
            state.templates.pre.atom_count,
            state.templates.post.atom_count,
            cfg.cutoff,
        )
    return state


def _mapping_roles(state: PipelineState) -> tuple[dict[int, str], dict[int, str]]:
    mapping = state.mapping
    report = state.report
    reactant_roles: dict[int, str] = {}
    product_roles: dict[int, str] = {}
    for r_gid, p_gid in mapping.pairs.items():
        role = "conserved" if mapping.is_conserved(r_gid) else mapping.provenance[r_gid]
        reactant_roles[r_gid] = role
        product_roles[p_gid] = role
    if report is not None:
        for gid in report.deleted:
            reactant_roles[gid] = "deleted"
        for gid in report.created:
            product_roles[gid] = "created"
        for gid in report.initiators:
            reactant_roles[gid] = "initiator"
            product_roles[mapping.pairs[gid]] = "initiator"
    return reactant_roles, product_roles


def export_dot(cfg: RunConfig, stage: str, state: PipelineState | None = None) -> dict[str, str]:
    """DOT files for one pipeline stage, as a file-name to text mapping."""
    if stage not in STAGES:
        raise errors.UnknownStage(f"unknown stage {stage!r}; expected one of {STAGES}")
    if state is None:
        state = run_stages(cfg, through="report" if stage == "mapped" else "graphs")
    if stage == "reactants":
        return {"reactants.dot": dot_export(state.g_reac, name="reactants")}
    if stage == "products":
        return {"products.dot": dot_export(state.g_prod, name="products")}
    reactant_roles, product_roles = _mapping_roles(state)
    return {
        "mapped_reactants.dot": dot_export(state.g_reac, reactant_roles, "reactants"),
        "mapped_products.dot": dot_export(state.g_prod, product_roles, "products"),
    }


def _write_atomic(out_dir: str, contents: dict[str, str]) -> dict[str, str]:
    """Stage every file, then rename; nothing lands on failure."""
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    written = {}
    try:
        for name in sorted(contents):
            tmp_path = os.path.join(out_dir, name + ".tmp")
            with open(tmp_path, "w", encoding="ascii", newline="\n") as handle:
                handle.write(contents[name])
            staged.append((tmp_path, os.path.join(out_dir, name)))
        for tmp_path, final_path in staged:
            os.replace(tmp_path, final_path)
            written[os.path.basename(final_path)] = final_path
    except BaseException:
        for tmp_path, _ in staged:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise
    return written


def run_pipeline(cfg: RunConfig) -> PipelineState:
    """Full pipeline run: map, analyze, build templates, write artifacts."""
    state = run_stages(cfg)
    templates = state.templates
    report = state.report
    contents = {
        "pre_template.mol": write_molecule_template(templates.pre, "pre-reaction template"),
        "post_template.mol": write_molecule_template(templates.post, "post-reaction template"),
        "reaction_map.txt": write_map_file(templates.to_map_file()),
        "report.txt": report_to_text(report, state.mapping, state.g_reac, state.g_prod),
        "report.json": _report_json(cfg, state),
    }
    if cfg.export_similarity_csv and state.similarity is not None:
        contents["similarity.csv"] = similarity_csv(
            state.similarity, state.g_reac, state.g_prod
        )
    if cfg.export_dot:
        contents.update(export_dot(cfg, "mapped", state))
    state.written = _write_atomic(cfg.out_dir, contents)
    return state


def _report_json(cfg: RunConfig, state: PipelineState) -> str:
    payload = report_to_dict(state.report, state.mapping, state.g_reac, state.g_prod)
    payload["templates"] = {
        "pre_atoms": state.templates.pre.atom_count,
        "post_atoms": state.templates.post.atom_count,
        "cutoff": state.templates.cutoff,
        "edge_atoms": state.templates.edge_atoms,
        "equivalences": len(state.templates.equivalences),
        "count_convention": "pre template includes deleted atoms; post includes created",
    }
    payload["config"] = {
        "weights": [cfg.alpha, cfg.beta, cfg.gamma],
        "iterations": cfg.iterations,
        "cutoff": cfg.cutoff,
        "search_budget": cfg.search_budget,
        "search_expansions": state.mapping.search_expansions,
        "hydrogen_tolerance": cfg.hydrogen_tolerance,
        "cost_normalization": "min-max",
        "tie_break": "lexicographically smallest pair list; smallest id",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="templater",
        description="Generate REACTION pre/post templates and the atom map "
        "from LAMMPS data files of reactants and products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--reactants", nargs="+", metavar="FILE", default=None,
                       help="reactant data files, in molecule order")
        p.add_argument("--products", nargs="+", metavar="FILE", default=None,
                       help="product data files, in molecule order")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        p.add_argument("--alpha", type=float, default=None, help="type-match weight")
        p.add_argument("--beta", type=float, default=None, help="mass-match weight")
        p.add_argument("--gamma", type=float, default=None, help="neighborhood weight")
        p.add_argument("--cutoff", type=int, default=None, help="template hop cutoff")
        p.add_argument("--iterations", type=int, default=None,
                       help="conserved-search iterations")
        p.add_argument("--search-budget", type=int, default=None,
                       help="pair-expansion cap for the subgraph search")
        p.add_argument("--hydrogen-tolerance", type=float, default=None,
                       help="mass window around 1.008 for hydrogen swapping")
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")

    run_p = sub.add_parser("run", help="run the full pipeline")
    add_common(run_p)
    run_p.add_argument("--export-dot", action="store_true", default=None,
                       help="also write DOT views of the mapped graphs")
    run_p.add_argument("--export-similarity-csv", action="store_true", default=None,
                       help="also write the similarity matrix as CSV")

    dot_p = sub.add_parser("export-dot", help="write DOT views for one stage")
    add_common(dot_p)
    dot_p.add_argument("--stage", required=True,
                       help="one of: reactants, products, mapped")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as handle:
            file_values = json.load(handle)
    values = {}
    for f in fields(RunConfig):
        cli_value = getattr(args, f.name, None)
        if cli_value is not None:
            values[f.name] = cli_value
        elif f.name in file_values:
            values[f.name] = file_values[f.name]
    if "reactants" not in values or "products" not in values:
        raise ValueError("--reactants and --products are required (flag or config file)")
    if "out_dir" not in values:
        values["out_dir"] = "."
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("TEMPLATER_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            state = run_pipeline(cfg)
            for name in sorted(state.written):
                print(state.written[name])
            return 0
        texts = export_dot(cfg, args.stage)
        written = _write_atomic(cfg.out_dir, texts)
        for name in sorted(written):
            print(written[name])
        return 0
    except Exception as exc:  # noqa: BLE001 - single-line error contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES.items():
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
