"""Reaction-template and atom-map generation from LAMMPS data files."""

from templater.cli import PipelineState, RunConfig, run_pipeline, run_stages
from templater.conserved_mapping import (
    AtomMapping,
    iterate_conserved,
    max_common_subgraph,
    validate_mapping,
)
from templater.graph_core import (
    AtomNode,
    UnifiedGraph,
    build_unified_graph,
    eigenvector_centrality,
)
from templater.lammps_io import (
    MoleculeTemplateFile,
    ReactionMapFile,
    SystemTopology,
    parse_data_file,
    parse_molecule_template,
    write_map_file,
    write_molecule_template,
)
from templater.reaction_analysis import ReactionReport, build_report
from templater.similarity_assignment import (
    ScoringWeights,
    build_similarity_matrix,
    similarity_score,
    solve_assignment,
)
from templater.template_builder import (
    ReactionTemplates,
    assemble_templates,
    mark_edge_atoms,
    prune_to_cutoff,
)

__version__ = "0.1.0"

__all__ = [
    "AtomMapping",
    "AtomNode",
    "MoleculeTemplateFile",
    "PipelineState",
    "ReactionMapFile",
    "ReactionReport",
    "ReactionTemplates",
    "RunConfig",
    "ScoringWeights",
    "SystemTopology",
    "UnifiedGraph",
    "assemble_templates",
    "build_report",
    "build_similarity_matrix",
    "build_unified_graph",
    "eigenvector_centrality",
    "iterate_conserved",
    "mark_edge_atoms",
    "max_common_subgraph",
    "parse_data_file",
    "parse_molecule_template",
    "prune_to_cutoff",
    "run_pipeline",
    "run_stages",
    "similarity_score",
    "solve_assignment",
    "validate_mapping",
    "write_map_file",
    "write_molecule_template",
]
