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
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from templater import errors
from templater.conserved_mapping import (
    DEFAULT_BUDGET,
    AtomMapping,
    iterate_conserved,
)
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
    report_json_pieces,
    report_to_dict,
    report_to_text,
)
from templater.similarity_assignment import (
    ScoringWeights,
    SimilarityMatrix,
    assign_similarity,
    similarity_csv,
)
from templater.template_builder import (
    DEFAULT_CUTOFF,
    ReactionTemplates,
    assemble_templates,
    prune_reaction,
)

logger = logging.getLogger("templater")

# The benchmark tracer (perfbench/tracing.py) looks these two up; nothing calls them.
refine_symmetric_paths = swap_hydrogens = None

STAGES = ("reactants", "products", "mapped")
RUN_STAGES = ("graphs", "report", "templates")

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

# The values TEMPLATER_LOG_LEVEL may take, in any case.
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


# What a RunConfig value must be, per field annotation; bools are ints to
# Python but never a count or a weight here.
_CONFIG_VALUE_TYPES = {
    "list[str]": (
        "a list of strings",
        lambda v: isinstance(v, list) and all(isinstance(item, str) for item in v),
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": (
        "a number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    ),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}

# The range each RunConfig field must lie in, in check order.
_NEED_BOTH_SIDES = "at least one reactant and one product file are required"
_CONFIG_VALUE_RANGES = {
    "reactants": (bool, _NEED_BOTH_SIDES),
    "products": (bool, _NEED_BOTH_SIDES),
    "out_dir": (bool, "out_dir must not be empty"),
    "cutoff": (lambda v: v >= 1, "cutoff must be >= 1"),
    "search_budget": (lambda v: v >= 0, "search budget must be non-negative"),
}


def _check_values(values: dict[str, object]) -> None:
    """Raise ValueError on the first RunConfig value of the wrong type or range.

    ``values`` may hold any subset of the fields.  Every type is checked
    before any range, so the range tests only see values of the right type.
    The weights are checked last and together, those missing taking their
    defaults.
    """
    for f in fields(RunConfig):
        if f.name in values:
            expected, accepts = _CONFIG_VALUE_TYPES[f.type]
            if not accepts(values[f.name]):
                raise ValueError(f"{f.name} must be {expected}")
    for name, (accepts, message) in _CONFIG_VALUE_RANGES.items():
        if name in values and not accepts(values[name]):
            raise ValueError(message)
    ScoringWeights(**{w: values[w] for w in ("alpha", "beta", "gamma") if w in values}).normalized()


@dataclass
class RunConfig:
    """Everything one pipeline run depends on."""

    reactants: list[str]
    products: list[str]
    out_dir: str = "."
    alpha: float = ScoringWeights.alpha
    beta: float = ScoringWeights.beta
    gamma: float = ScoringWeights.gamma
    cutoff: int = DEFAULT_CUTOFF
    export_dot: bool = False
    export_similarity_csv: bool = False
    search_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        _check_values(vars(self))
        if not self.weights.is_normalized:
            normalized = self.weights.normalized()
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
    """In-memory artifacts of one pipeline run; the graphs are the mapping's."""

    mapping: AtomMapping
    similarity: SimilarityMatrix | None = None
    report: ReactionReport | None = None
    templates: ReactionTemplates | None = None
    written: dict[str, str] = field(default_factory=dict)

    @property
    def g_reac(self) -> UnifiedGraph:
        return self.mapping.g_reac

    @property
    def g_prod(self) -> UnifiedGraph:
        return self.mapping.g_prod


def _read_topologies(paths: list[str]) -> list[SystemTopology]:
    """One parsed topology per path; a path named twice is parsed once and
    its topology, which nothing modifies, serves both molecules."""
    parsed: dict[str, SystemTopology] = {}
    for path in paths:
        if path in parsed:
            continue
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise errors.ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
        try:
            parsed[path] = parse_data_file(text)
        except errors.ParseError as exc:
            # Name the file after the message, which may start with its line.
            exc.args = (f"{exc} (in {path})",)
            raise
    return [parsed[path] for path in paths]


def run_stages(cfg: RunConfig, through: str = "templates") -> PipelineState:
    """Run the pipeline in memory up to a stage, without touching the disk.

    ``through`` is one of ``graphs``, ``report`` or ``templates``.
    """
    if through not in RUN_STAGES:
        raise errors.UnknownStage(f"unknown stage {through!r}; expected one of {RUN_STAGES}")
    reactants, products = _read_topologies(cfg.reactants), _read_topologies(cfg.products)
    g_reac = build_unified_graph(reactants, "reactant")
    g_prod = build_unified_graph(products, "product")
    logger.info(
        "unified graphs: %d reactant nodes, %d product nodes",
        len(g_reac.nodes), len(g_prod.nodes),
    )
    state = PipelineState(AtomMapping(g_reac, g_prod))
    if through == "graphs":
        return state

    logger.info(
        "knobs: weights (%g, %g, %g), cutoff %d, budget %d, cost normalization min-max",
        cfg.alpha, cfg.beta, cfg.gamma, cfg.cutoff, cfg.search_budget,
    )
    conserved = iterate_conserved(g_reac, g_prod, budget=cfg.search_budget)
    logger.info(
        "conserved mapping: %d pairs, %d expansions",
        len(conserved.pairs), conserved.search_expansions,
    )

    # assign_similarity works on a copy; the conserved-only mapping goes now.
    state.mapping, state.similarity = assign_similarity(conserved, cfg.weights)
    del conserved
    logger.info("similarity assignment: %d pairs total", len(state.mapping.pairs))

    state.report = build_report(state.mapping)
    logger.info(
        "initiators: %s; created %d, deleted %d",
        state.report.initiators, len(state.report.created), len(state.report.deleted),
    )
    if through == "templates":
        pre_set, post_set = prune_reaction(state.report, cfg.cutoff)
        state.templates = assemble_templates(state.report, pre_set, post_set)
        logger.info(
            "templates: %d pre atoms, %d post atoms (cutoff %d)",
            state.templates.pre.atom_count,
            state.templates.post.atom_count,
            cfg.cutoff,
        )
    return state


def _mapping_roles(report: ReactionReport) -> tuple[dict[int, str], dict[int, str]]:
    mapping = report.mapping
    reactant_roles: dict[int, str] = {}
    product_roles: dict[int, str] = {}
    for r_gid, p_gid in mapping.pairs.items():
        role = "conserved" if mapping.is_conserved(r_gid) else mapping.provenance[r_gid]
        reactant_roles[r_gid] = role
        product_roles[p_gid] = role
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
    reactant_roles, product_roles = _mapping_roles(state.report)
    return {
        "mapped_reactants.dot": dot_export(state.g_reac, reactant_roles, "reactants"),
        "mapped_products.dot": dot_export(state.g_prod, product_roles, "products"),
    }


def _write_atomic(out_dir: str, contents: dict[str, str | Iterable[str]]) -> dict[str, str]:
    """Stage every file, then rename; nothing lands on failure.

    Each file's content is a string or an iterable of strings.  Every piece
    is encoded as ASCII and written to the staged file as it comes, newlines
    as they are, so the text of a generator is never held whole.  Any
    failure, one raised by such a generator included, removes every staged
    file and renames none.  A target that is a directory is refused before
    anything is staged, as its rename would fail after others had landed.
    The staged names are fixed, so concurrent runs need distinct output
    directories.
    """
    for path in (os.path.join(out_dir, name) for name in contents):
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path} is a directory")
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    written = {}
    try:
        for name in sorted(contents):
            tmp_path = os.path.join(out_dir, name + ".tmp")
            staged.append((tmp_path, os.path.join(out_dir, name)))
            content = contents[name]
            with open(tmp_path, "wb") as handle:
                for piece in (content,) if isinstance(content, str) else content:
                    handle.write(piece.encode("ascii"))
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
    payload = report_to_dict(state.report)
    contents = {
        "pre_template.mol": write_molecule_template(templates.pre, "pre-reaction template"),
        "post_template.mol": write_molecule_template(templates.post, "post-reaction template"),
        "reaction_map.txt": write_map_file(templates.to_map_file()),
        "report.txt": report_to_text(payload),
        "report.json": report_json_pieces(payload | _report_sections(cfg, state)),
    }
    if cfg.export_similarity_csv:
        contents["similarity.csv"] = similarity_csv(
            state.similarity, state.g_reac, state.g_prod
        )
    if cfg.export_dot:
        contents.update(export_dot(cfg, "mapped", state))
    state.written = _write_atomic(cfg.out_dir, contents)
    return state


def _report_sections(cfg: RunConfig, state: PipelineState) -> dict:
    """The ``templates`` and ``config`` sections ``report.json`` adds to
    ``report_to_dict``'s payload: the template sizes and the run's settings."""
    return {
        "templates": {
            "pre_atoms": state.templates.pre.atom_count,
            "post_atoms": state.templates.post.atom_count,
            "cutoff": cfg.cutoff,
            "edge_atoms": state.templates.edge_atoms,
            "equivalences": len(state.templates.equivalences),
            "count_convention": "pre template includes deleted atoms; post includes created",
        },
        "config": {
            "weights": [cfg.alpha, cfg.beta, cfg.gamma],
            "cutoff": cfg.cutoff,
            "search_budget": cfg.search_budget,
            "search_expansions": state.mapping.search_expansions,
            "cost_normalization": "min-max",
            "tie_break": (
                "lexicographically smallest skeleton pair list, then leaves paired "
                "by ascending id; smallest id"
            ),
        },
    }


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
        p.add_argument("--search-budget", type=int, default=None,
                       help="pair-expansion cap for the subgraph search")
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
    names = {f.name for f in fields(RunConfig)}
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                file_values = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_values) - names)
        if unknown:
            raise ValueError(
                f"config file {args.config} has unknown keys: {', '.join(unknown)}"
            )
        # The file is checked whole, flags or not, so its errors can name it.
        try:
            _check_values(file_values)
        except ValueError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
    values = {}
    for f in fields(RunConfig):
        cli_value = getattr(args, f.name, None)
        if cli_value is not None:
            values[f.name] = cli_value
        elif f.name in file_values:
            values[f.name] = file_values[f.name]
    if "reactants" not in values or "products" not in values:
        raise ValueError("--reactants and --products are required (flag or config file)")
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("TEMPLATER_LOG_LEVEL", "WARNING")
        if level.upper() not in LOG_LEVELS:
            raise ValueError(
                f"TEMPLATER_LOG_LEVEL must be one of {', '.join(LOG_LEVELS)}, not {level!r}"
            )
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        cfg = _config_from_args(args)
        if args.command == "run":
            written = run_pipeline(cfg).written
        else:
            written = _write_atomic(cfg.out_dir, export_dot(cfg, args.stage))
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
