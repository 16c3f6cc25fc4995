import copy
import gc
import hashlib
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemfix
from conftest import CASE_STUDIES, alkene_dimerization, fixture_path, path_topology, ring_opening
from test_lammps_io import load_workloads
import templater
from templater import cli
from templater.cli import (
    PipelineState,
    RunConfig,
    _report_sections,
    export_dot,
    main,
    run_pipeline,
    run_stages,
)
from templater.conserved_mapping import iterate_conserved
from templater.errors import UnknownStage
from templater.reaction_analysis import build_report, report_to_dict, report_to_json
from templater.similarity_assignment import assign_similarity
from templater.template_builder import assemble_templates, prune_reaction

PC_REACTANTS, PC_PRODUCTS = CASE_STUDIES["polycondensation"]


def run_args(out_dir, extra=()):
    return [
        "run",
        "--reactants", *PC_REACTANTS,
        "--products", *PC_PRODUCTS,
        "--out", str(out_dir),
        *extra,
    ]


def read_outputs(out_dir):
    contents = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            contents[name] = handle.read()
    return contents


class TestRunCommand:
    def test_writes_three_primary_outputs(self, tmp_path):
        assert main(run_args(tmp_path)) == 0
        names = set(os.listdir(tmp_path))
        assert {"pre_template.mol", "post_template.mol", "reaction_map.txt"} <= names
        assert {"report.txt", "report.json"} <= names

    def test_map_file_delete_section(self, tmp_path):
        main(run_args(tmp_path))
        with open(tmp_path / "reaction_map.txt") as handle:
            text = handle.read()
        assert "3 deleteIDs" in text
        delete_section = text.split("DeleteIDs")[1].split("Equivalences")[0]
        assert len([l for l in delete_section.splitlines() if l.strip()]) == 3

    def test_chain_map_file_create_section(self, tmp_path):
        reactants, products = CASE_STUDIES["chain"]
        code = main([
            "run", "--reactants", *reactants, "--products", *products,
            "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "reaction_map.txt") as handle:
            text = handle.read()
        assert "2 createIDs" in text
        create_section = text.split("CreateIDs")[1].split("Equivalences")[0]
        assert len([l for l in create_section.splitlines() if l.strip()]) == 2

    def test_report_json_schema(self, tmp_path):
        main(run_args(tmp_path))
        with open(tmp_path / "report.json") as handle:
            payload = json.load(handle)
        assert payload["counts"]["conserved"] == 36
        assert payload["config"]["cost_normalization"] == "min-max"
        assert payload["config"]["weights"] == [0.5, 0.25, 0.25]
        assert "hydrogen_tolerance" not in payload["config"]
        assert payload["templates"]["cutoff"] == 4
        assert len(payload["initiators"]) == 2

    def test_exports_optional_artifacts(self, tmp_path):
        main(run_args(tmp_path, ["--export-dot", "--export-similarity-csv"]))
        names = set(os.listdir(tmp_path))
        assert {"mapped_reactants.dot", "mapped_products.dot", "similarity.csv"} <= names

    def test_similarity_csv_when_every_atom_is_conserved(self, tmp_path, capsys):
        # Two 3-bead chains join into one 6-bead chain, all beads of one
        # type: the conserved stage maps every atom, so the similarity
        # matrix has no row and no column, and its CSV is the header line.
        bead = path_topology(3, mass=14.027)
        system = chemfix.topology_system("beads", [bead, bead], [path_topology(6, mass=14.027)])
        reactants, products = chemfix.write_system(system, str(tmp_path))
        out_dir = tmp_path / "out"
        code = main([
            "run", "--reactants", *reactants, "--products", *products,
            "--out", str(out_dir), "--export-similarity-csv",
        ])
        assert code == 0
        assert str(out_dir / "similarity.csv") in capsys.readouterr().out.splitlines()
        assert (out_dir / "similarity.csv").read_text() == "\n"
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["counts"]["conserved"] == payload["counts"]["mapped"] == 6

    def test_unreadable_input_io_exit_code(self, tmp_path, capsys):
        code = main([
            "run", "--reactants", "no-such-file.data",
            "--products", *PC_PRODUCTS, "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert not os.listdir(tmp_path)

    def test_identical_inputs_no_reaction_exit_code(self, tmp_path, capsys):
        code = main([
            "run",
            "--reactants", fixture_path("butene.data"),
            "--products", fixture_path("butene.data"),
            "--out", str(tmp_path),
        ])
        assert code == 4
        assert "NoReactionDetected" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        code = main(run_args(tmp_path, ["--search-budget", "1"]))
        assert code == 6
        assert "BudgetExceeded" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_changed_edge_atom_exit_code(self, tmp_path, capsys):
        # At cutoff 1 the polyaddition template ends at atom 12 of BD, a
        # conserved carbon whose charge goes from 0.15 to 0.2; fix
        # bond/react forbids a changed edge atom.
        reactants, products = CASE_STUDIES["polyaddition"]
        code = main([
            "run", "--reactants", *reactants, "--products", *products,
            "--out", str(tmp_path), "--cutoff", "1",
        ])
        assert code == 7
        err = capsys.readouterr().err
        assert err.startswith("error: InconsistentPruning: ")
        assert err.count("\n") == 1
        assert "edge atom 2.12 " in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "name, cutoff, row",
        [
            ("chain", 2, "Dihedrals entry of changed atom 1.2 leaves the pre template"),
            ("polyaddition", 2, "Dihedrals entry of changed atom 1.17 leaves the pre template"),
            ("polyaddition", 3, "Dihedrals entry of changed atom 2.12 leaves the pre template"),
            ("polycondensation", 2, "Dihedrals entry of changed atom 1.7 leaves the pre template"),
        ],
    )
    def test_changed_interaction_outside_exit_code(self, tmp_path, capsys, name, cutoff, row):
        # fix bond/react needs every interaction that holds a deleted, created
        # or changed atom inside both templates.  At these cutoffs no changed
        # atom is an edge atom, but a dihedral of one is cut.
        reactants, products = CASE_STUDIES[name]
        out_dir = tmp_path / "out"
        code = main([
            "run", "--reactants", *reactants, "--products", *products,
            "--out", str(out_dir), "--cutoff", str(cutoff),
        ])
        assert code == 7
        err = capsys.readouterr().err
        assert err.startswith("error: InconsistentPruning: ")
        assert err.count("\n") == 1
        assert row in err
        assert not out_dir.exists()

    def test_unknown_log_level_exit_code(self, tmp_path, capsys, monkeypatch):
        # Checked before any file is read: the reactant file does not exist.
        monkeypatch.setenv("TEMPLATER_LOG_LEVEL", "verbose")
        out_dir = tmp_path / "out"
        code = main([
            "run", "--reactants", str(tmp_path / "missing.data"),
            "--products", *PC_PRODUCTS, "--out", str(out_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: TEMPLATER_LOG_LEVEL must be one of "
            "DEBUG, INFO, WARNING, ERROR, CRITICAL, not 'verbose'\n"
        )
        assert not out_dir.exists()

    def test_malformed_config_file_named(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text('{"cutoff": 4,\n}\n')
        out_dir = tmp_path / "out"
        code = main(run_args(out_dir, ["--config", str(config_path)]))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: config file {config_path}: Expecting property name "
            "enclosed in double quotes: line 2 column 1 (char 14)\n"
        )
        assert not out_dir.exists()

    def test_directory_target_refused_before_staging(self, tmp_path, capsys):
        # report.json sorts after the templates and the map file, whose
        # renames would have landed before its own failed.
        (tmp_path / "report.json").mkdir()
        (tmp_path / "pre_template.mol").write_bytes(b"sentinel\n")
        code = main(run_args(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ")
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["pre_template.mol", "report.json"]
        assert (tmp_path / "pre_template.mol").read_bytes() == b"sentinel\n"
        assert not os.listdir(tmp_path / "report.json")

    def test_failing_report_stream_leaves_earlier_outputs(self, tmp_path, monkeypatch):
        # report.json is written piece by piece into its staged file.  When
        # its generator raises after the first piece, every staged file goes,
        # nothing is renamed, and the files of an earlier run stay as they were.
        run_pipeline(RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(tmp_path)))
        before = read_outputs(tmp_path)
        pieces = cli.report_json_pieces

        def failing(payload):
            yield next(pieces(payload))
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "report_json_pieces", failing)
        cfg = RunConfig(
            reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(tmp_path),
            export_dot=True, export_similarity_csv=True,
        )
        with pytest.raises(RuntimeError, match="formatting failed"):
            run_pipeline(cfg)
        assert read_outputs(tmp_path) == before

    def test_write_atomic_takes_strings_and_pieces(self, tmp_path):
        written = cli._write_atomic(
            str(tmp_path), {"a.txt": "one string\n", "b.txt": iter(["two ", "pieces\n"])}
        )
        assert written == {name: str(tmp_path / name) for name in ("a.txt", "b.txt")}
        assert read_outputs(tmp_path) == {"a.txt": b"one string\n", "b.txt": b"two pieces\n"}

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.data"
        bad.write_text("# broken\n\nnot a header\n")
        code = main([
            "run", "--reactants", str(bad), "--products", *PC_PRODUCTS,
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_weights_rescaled_with_warning(self, tmp_path, caplog):
        cfg = RunConfig(
            reactants=PC_REACTANTS, products=PC_PRODUCTS,
            out_dir=str(tmp_path), alpha=1.0, beta=0.5, gamma=0.5,
        )
        assert cfg.alpha == pytest.approx(0.5)
        assert cfg.beta == pytest.approx(0.25)
        assert cfg.gamma == pytest.approx(0.25)

    def test_weights_summing_to_one_still_checked(self, tmp_path, capsys):
        # 2 - 0.5 - 0.5 sums to 1, so no rescaling happens; the checks must
        # still run.
        with pytest.raises(ValueError, match="non-negative"):
            RunConfig(
                reactants=PC_REACTANTS, products=PC_PRODUCTS,
                out_dir=str(tmp_path), alpha=2, beta=-0.5, gamma=-0.5,
            )
        out_dir = tmp_path / "out"
        code = main(run_args(out_dir, ["--alpha", "2", "--beta", "-0.5", "--gamma", "-0.5"]))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: scoring weights must be non-negative\n"
        )
        assert not out_dir.exists()

    def test_prints_written_paths_sorted(self, tmp_path, capsys):
        assert main(run_args(tmp_path, ["--export-dot"])) == 0
        names = [
            "mapped_products.dot", "mapped_reactants.dot", "post_template.mol",
            "pre_template.mol", "reaction_map.txt", "report.json", "report.txt",
        ]
        printed = capsys.readouterr().out.splitlines()
        assert printed == [os.path.join(str(tmp_path), name) for name in names]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_weight_error_exit(self, tmp_path, capsys, value):
        # float() parses these, and a NaN weight makes every cost NaN.
        code = main(run_args(tmp_path, ["--alpha", value]))
        assert code == 1
        assert "ValueError: scoring weights must be finite" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize(
        "flag, value, code, err",
        [
            # The hydrogen tolerance went with the hydrogen swap it tuned:
            # argparse now rejects the flag, whatever its value.
            *(
                (
                    "--hydrogen-tolerance", value, 2,
                    "usage: templater [-h] {run,export-dot} ...\n"
                    f"templater: error: unrecognized arguments: --hydrogen-tolerance {value}\n",
                )
                for value in ("-1", "nan", "inf")
            ),
            # The conserved stage stops by rule now, not after a count of
            # iterations, so the flag went too.
            (
                "--iterations", "2", 2,
                "usage: templater [-h] {run,export-dot} ...\n"
                "templater: error: unrecognized arguments: --iterations 2\n",
            ),
            ("--search-budget", "-1", 1, "error: ValueError: search budget must be non-negative\n"),
        ],
        ids=[
            "tolerance-negative", "tolerance-nan", "tolerance-inf", "iterations-retired",
            "budget-negative",
        ],
    )
    def test_out_of_range_knob_error_exit(self, tmp_path, capsys, flag, value, code, err):
        # A negative or NaN tolerance used to switch the hydrogen swap off
        # silently, and a negative budget failed as an exhausted search.
        out_dir = tmp_path / "out"
        try:
            exit_code = main(run_args(out_dir, [flag, value]))
        except SystemExit as exc:
            exit_code = exc.code
        assert exit_code == code
        assert capsys.readouterr().err == err
        assert not out_dir.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config-file"])
    @pytest.mark.parametrize(
        "name, message",
        [("cutoff", "cutoff must be >= 1")],
        ids=["cutoff"],
    )
    def test_zero_count_rejected_before_reading(self, tmp_path, capsys, name, message, from_file):
        # These used to pass the config and fail as FileNotFoundError (exit 2)
        # on inputs that do not exist, or deep in the pipeline on ones that do.
        out_dir = tmp_path / "out"
        missing = str(tmp_path / "missing.data")
        args = ["run", "--reactants", missing, "--products", missing, "--out", str(out_dir)]
        prefix = ""
        if from_file:
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps({name: 0}))
            args += ["--config", str(config_path)]
            prefix = f"config file {config_path}: "
        else:
            args += [f"--{name}", "0"]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: ValueError: {prefix}{message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config-file"])
    def test_empty_out_dir_rejected_before_reading(self, tmp_path, monkeypatch, capsys, from_file):
        # An empty output directory used to run the whole pipeline and then
        # fail as FileNotFoundError (exit 2) on writing.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        missing = str(tmp_path / "missing.data")
        args = ["run", "--reactants", missing, "--products", missing]
        prefix = ""
        if from_file:
            config_path = tmp_path / "cfg.json"
            config_path.write_text(json.dumps({"out_dir": ""}))
            args += ["--config", str(config_path)]
            prefix = f"config file {config_path}: "
        else:
            args += ["--out", ""]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: ValueError: {prefix}out_dir must not be empty\n"
        assert list(work.iterdir()) == []

    def test_flag_error_beside_config_file_names_no_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"search_budget": 100_000}))
        out_dir = tmp_path / "out"
        code = main(run_args(out_dir, ["--config", str(config_path), "--cutoff", "0"]))
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: cutoff must be >= 1\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"reactants": "r.data"}, "reactants must be a list of strings"),
            ({"cutoff": 2.5}, "cutoff must be an integer"),
        ],
        ids=["reactants-string", "cutoff-float"],
    )
    def test_library_config_type_checked(self, tmp_path, overrides, message):
        # A bare string used to be read as a list of one-character paths, and
        # a float cutoff failed deep in the pipeline.
        values = {"reactants": PC_REACTANTS, "products": PC_PRODUCTS, "out_dir": str(tmp_path)}
        with pytest.raises(ValueError) as info:
            RunConfig(**{**values, **overrides})
        assert str(info.value) == message

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "reactants": PC_REACTANTS,
            "products": PC_PRODUCTS,
            "out_dir": str(tmp_path / "from-file"),
            "cutoff": 5,
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "from-flag"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.json").exists()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["templates"]["cutoff"] == 5
        assert "iterations" not in payload["config"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"cuttoff": 2, "exportdot": True}, "has unknown keys: cuttoff, exportdot"),
            ([2], "must hold a JSON object"),
            ({"reactants": "ht.data"}, "reactants must be a list of strings"),
            ({"products": ["a.data", 3]}, "products must be a list of strings"),
            ({"out_dir": 5}, "out_dir must be a string"),
            ({"cutoff": "4"}, "cutoff must be an integer"),
            ({"search_budget": True}, "search_budget must be an integer"),
            ({"alpha": "0.5"}, "alpha must be a number"),
            # The hydrogen tolerance went with the hydrogen swap it tuned.
            ({"hydrogen_tolerance": False}, "has unknown keys: hydrogen_tolerance"),
            # So did the conserved-search iteration count.
            ({"iterations": 2}, "has unknown keys: iterations"),
            ({"export_dot": 1}, "export_dot must be true or false"),
            ({"export_similarity_csv": "yes"}, "export_similarity_csv must be true or false"),
            ({"search_budget": -1}, "search budget must be non-negative"),
            ({"hydrogen_tolerance": -1}, "has unknown keys: hydrogen_tolerance"),
            ({"alpha": -1}, "scoring weights must be non-negative"),
        ],
        ids=[
            "unknown-keys", "not-an-object", "reactants-string", "products-non-string",
            "out-dir-number", "cutoff-string", "budget-bool",
            "weight-string", "tolerance-bool", "iterations-retired", "export-dot-int", "export-csv-string",
            "budget-negative", "tolerance-negative", "weight-negative",
        ],
    )
    def test_config_file_rejected(self, tmp_path, capsys, config, message):
        # A misspelt key used to be dropped: the run went on with the default.
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code = main(run_args(out_dir, ["--config", str(config_path)]))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: config file ")
        assert message in err
        assert not out_dir.exists()


CHAIN_REACTANTS, CHAIN_PRODUCTS = CASE_STUDIES["chain"]
BUTENE_TITLE = b"# chain addition: butene"
BUTENE_ATOM_1 = b"1 1 1 -0.200000 1.540000 0.500000 0.350000"


class TestInputEncoding:
    """Data and config files are read as UTF-8.  A data file may hold other
    characters than ASCII in its title line and in comments only."""

    @staticmethod
    def butene(path, *replacements):
        with open(CHAIN_REACTANTS[0], "rb") as handle:
            data = handle.read()
        for old, new in replacements:
            assert old in data
            data = data.replace(old, new)
        path.write_bytes(data)
        return str(path)

    @staticmethod
    def chain_args(reactant, out_dir):
        return [
            "run", "--reactants", reactant, reactant, "--products", *CHAIN_PRODUCTS,
            "--out", str(out_dir), "--export-dot", "--export-similarity-csv",
        ]

    def test_title_and_comment_ignored(self, tmp_path):
        plain = self.butene(tmp_path / "plain.data")
        accented = self.butene(
            tmp_path / "accented.data",
            (BUTENE_TITLE, "# chain addition: butene, \u00c5ngstr\u00f6m units".encode()),
            (b"Atoms # full", "Atoms # full, positions in \u00c5".encode()),
        )
        assert main(self.chain_args(plain, tmp_path / "plain")) == 0
        assert main(self.chain_args(accented, tmp_path / "accented")) == 0
        assert read_outputs(tmp_path / "accented") == read_outputs(tmp_path / "plain")

    def test_full_width_digit_names_the_line(self, tmp_path, capsys):
        # int() reads U+FF11 as 1, so without the check this row would parse.
        with open(CHAIN_REACTANTS[0], "rb") as handle:
            line_no = handle.read().split(b"\n").index(BUTENE_ATOM_1) + 1
        bad = self.butene(
            tmp_path / "bad.data", (BUTENE_ATOM_1, "\uff11".encode() + BUTENE_ATOM_1[1:])
        )
        out_dir = tmp_path / "out"
        assert main(self.chain_args(bad, out_dir)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedLine: line {line_no}: non-ASCII character")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        # With several inputs, the line alone does not say which file holds it.
        with open(CHAIN_REACTANTS[0], "rb") as handle:
            line_no = handle.read().split(b"\n").index(BUTENE_ATOM_1) + 1
        bad = self.butene(tmp_path / "bad.data", (BUTENE_ATOM_1, b"1 1 x" + BUTENE_ATOM_1[5:]))
        out_dir = tmp_path / "out"
        code = main([
            "run", "--reactants", CHAIN_REACTANTS[0], bad, "--products", *CHAIN_PRODUCTS,
            "--out", str(out_dir),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedLine: line {line_no}: bad Atoms entry '1 1 x ")
        assert err.endswith(f"' (in {bad})\n")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_latin_1_byte_is_a_parse_error(self, tmp_path, capsys):
        bad = self.butene(
            tmp_path / "latin1.data", (BUTENE_TITLE, "# butene, \u00c5".encode("latin-1"))
        )
        assert main(self.chain_args(bad, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParseError: {bad} is not UTF-8 text")
        assert err.count("\n") == 1

    def test_utf_8_config_names_non_ascii_path(self, tmp_path):
        reactant = self.butene(tmp_path / "b\u00fctene.data")
        config = {
            "reactants": [reactant, reactant],
            "products": CHAIN_PRODUCTS,
            "out_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_bytes(json.dumps(config, ensure_ascii=False).encode("utf-8"))
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()


class TestInputValues:
    """Masses must be finite and positive, and an interaction row must list
    distinct atoms; either fault in a data file exits 3 and names it."""

    @pytest.mark.parametrize(
        "replacements, message",
        [
            (
                [(b"\n3 1.008 # ha\n", b"\n3 nan # ha\n")],
                "atom type 3 has mass nan; masses must be finite and positive",
            ),
            (
                [(b"11 bonds", b"12 bonds"), (b"\n11 5 4 12\n", b"\n11 5 4 12\n12 1 1 1\n")],
                "Bonds entry lists atom 1 more than once",
            ),
        ],
        ids=["nan-mass", "self-bond"],
    )
    def test_rejected_and_named(self, tmp_path, capsys, replacements, message):
        bad = TestInputEncoding.butene(tmp_path / "bad.data", *replacements)
        out_dir = tmp_path / "out"
        assert main(TestInputEncoding.chain_args(bad, out_dir)) == 3
        err = capsys.readouterr().err
        assert err == f"error: MalformedLine: {message} (in {bad})\n"
        assert not out_dir.exists()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        outputs = []
        for i in range(3):
            out_dir = tmp_path / f"run{i}"
            assert main(run_args(out_dir, ["--export-dot", "--export-similarity-csv"])) == 0
            outputs.append(read_outputs(out_dir))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_log_level_leaves_report_unchanged(self, tmp_path, caplog):
        reports = {}
        for level in (logging.INFO, logging.WARNING):
            caplog.clear()
            caplog.set_level(level, logger="templater")
            out_dir = tmp_path / logging.getLevelName(level)
            run_pipeline(
                RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(out_dir))
            )
            reports[level] = read_outputs(out_dir)["report.json"]
            at_info = level == logging.INFO
            assert ("similarity matrix: 7 x 4" in caplog.messages) == at_info
            assert (
                "anchored assignment: 4 round(s), 4 anchored pair(s), 0 seed(s)"
                in caplog.messages
            ) == at_info
            assert (
                "conserved search: iteration 1, molecules 1 -> 1: 23 pairs, 73 expansions"
                in caplog.messages
            ) == at_info
        assert reports[logging.INFO] == reports[logging.WARNING]


# sha256 of every file each case study writes with both exports on.  The
# centrality deltas come from LAPACK, whose last bits vary with the build;
# the dense-oracle tests cover them, so they are left out of the digests.
PINNED_OUTPUTS = {
    "polyaddition": {
        "mapped_products.dot": "045c91076f512361e5ca51862b2c99906d4cf5acbf952177221dd9cf4f2786e7",
        "mapped_reactants.dot": "94241d92097df3f4b547cf54dc1ace0931af36f711d760bfa8489f89d2c90ddb",
        "post_template.mol": "07986dfdf25ad6c9cd2f1379ed6f7b58099272349328373d5fa4409748c21e72",
        "pre_template.mol": "229dbfb1a33d535f6002544c9fab046b75aad8770772bf733b59c6b6310f81a9",
        "reaction_map.txt": "a9b93c6ab3d78b8b51bbfeff7d404c715a04624d8f629eb4711615d1a90eabd7",
        "report.json": "3088254b6f4b9a49c499c221c518944cc13a78f619afcc28919d24f12dc82add",
        "report.txt": "7199d37d4698ea1879c14a97d20032dd57b2a34277ec304b4e9a536b99ee15be",
        "similarity.csv": "8b8b21a0116056bead0af3e6c7b80b4d5f40b815c590324c67512761e4072e2a",
    },
    "polycondensation": {
        "mapped_products.dot": "7a2516ef5fe1113538633d10c38db3451e750c1f638e3d724f290df2d8677059",
        "mapped_reactants.dot": "ffd2d35fdc539f93e39cdf7baad5d1abbbf86a0a4b47dcb499a5ee289872af18",
        "post_template.mol": "f9af83ac690c7b0bff321bb3c4862c28075b4dd90ef239a1369bfefa0f7563bf",
        "pre_template.mol": "70d8e077dcb1c4e0ceec9c9645fd605d83507baa04a162e6f3994506e0deb910",
        "reaction_map.txt": "345224d6430f3eb93c20e20feb55c62185f33ddfd83c64584caadd5e219601e2",
        "report.json": "c94f048c8868791f90920ea29d65877db6127e280a9bede319ade86bb532f2cc",
        "report.txt": "badbb902af406092acc62efed1df277550cd9f3882bb5c436c2725ad7fa3e220",
        "similarity.csv": "f0f3b2d334a24e6e8395543635b994405a1527f8d4d2c3ed557e427903468e78",
    },
    "chain": {
        "mapped_products.dot": "a53737b0c9aef52b9abd55ce9c7bbb2d08891c622a99146c22bb671f71a58ec2",
        "mapped_reactants.dot": "5829fed26bdcf8def7b7f07594c149ad17b19dd1ab2e7e7f58f8b82142020314",
        "post_template.mol": "702eaa9632d118009fcdf8f30892222eb48a6bae7a5d4e7543fc89e5cfea6b63",
        "pre_template.mol": "ecc798f1d61321611945bbed1b66cb03f343b33c0da7851e4543c03988bba9ec",
        "reaction_map.txt": "fa90ddb99d93350a8728adee35ed3cf32c1c14ee5d117cb10843699e7148a665",
        "report.json": "e0c8c50efee93433f128121661825bb69a2f80de824276561048de02f2691024",
        "report.txt": "4e9e2e69bbfe638d4181bd2131cb67e8e3d2af3917238514904bfb27f01c648a",
        "similarity.csv": "522dba02747e791442dbaca47b7ed818230b202b7579b0f22e08e591b94c65c6",
    },
}


def output_digest(name, data):
    """sha256 of one written file, its centrality deltas left out."""
    if name == "report.json":
        payload = json.loads(data)
        for pair in payload["mapping"]:
            del pair["delta_c"]
        data = json.dumps(payload, indent=2, sort_keys=True).encode("ascii")
    elif name == "report.txt":
        data = re.sub(rb"dC=-?[0-9.]+", b"dC=", data)
    return hashlib.sha256(data).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_case_study_files_unchanged(self, tmp_path, name):
        reactants, products = CASE_STUDIES[name]
        run_pipeline(RunConfig(
            reactants=reactants, products=products, out_dir=str(tmp_path),
            export_dot=True, export_similarity_csv=True,
        ))
        written = read_outputs(tmp_path)
        assert {f: output_digest(f, data) for f, data in written.items()} == PINNED_OUTPUTS[name]


class TestExportDot:
    def test_stages(self, tmp_path):
        cfg = RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(tmp_path))
        reactants = export_dot(cfg, "reactants")
        assert set(reactants) == {"reactants.dot"}
        assert "graph" in reactants["reactants.dot"]
        mapped = export_dot(cfg, "mapped")
        assert set(mapped) == {"mapped_reactants.dot", "mapped_products.dot"}
        assert 'fillcolor="orange"' in mapped["mapped_reactants.dot"]
        assert 'fillcolor="black"' in mapped["mapped_reactants.dot"]
        assert 'fillcolor="red"' in mapped["mapped_reactants.dot"]
        assert 'fillcolor="blue"' in mapped["mapped_reactants.dot"]

    def test_unknown_stage(self, tmp_path):
        cfg = RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(tmp_path))
        with pytest.raises(UnknownStage):
            export_dot(cfg, "foo")

    def test_cli_subcommand(self, tmp_path):
        code = main([
            "export-dot", "--stage", "reactants",
            "--reactants", *PC_REACTANTS, "--products", *PC_PRODUCTS,
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "reactants.dot").exists()

    def test_cli_prints_written_paths_sorted(self, tmp_path, capsys):
        code = main([
            "export-dot", "--stage", "mapped",
            "--reactants", *PC_REACTANTS, "--products", *PC_PRODUCTS,
            "--out", str(tmp_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [
            os.path.join(str(tmp_path), name)
            for name in ("mapped_products.dot", "mapped_reactants.dot")
        ]

    def test_cli_unknown_stage_exit_code(self, tmp_path, capsys):
        code = main([
            "export-dot", "--stage", "foo",
            "--reactants", *PC_REACTANTS, "--products", *PC_PRODUCTS,
            "--out", str(tmp_path),
        ])
        assert code == 8


class TestLibraryEntryPoint:
    def test_run_pipeline_returns_state(self, tmp_path):
        cfg = RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS, out_dir=str(tmp_path))
        state = run_pipeline(cfg)
        assert state.templates is not None
        assert set(state.written) == {
            "pre_template.mol", "post_template.mol", "reaction_map.txt",
            "report.txt", "report.json",
        }

    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_graphs_left_as_built(self, tmp_path, monkeypatch, name):
        # Every reader of a graph keeps what it derives to itself: after a
        # run with every export on, each graph's attributes equal those that
        # ``__init__`` set.
        built = []
        build = cli.build_unified_graph

        def recording(topologies, side):
            graph = build(topologies, side)
            built.append((graph, copy.deepcopy(vars(graph))))
            return graph

        monkeypatch.setattr(cli, "build_unified_graph", recording)
        reactants, products = CASE_STUDIES[name]
        cfg = RunConfig(
            reactants=reactants, products=products, out_dir=str(tmp_path),
            export_dot=True, export_similarity_csv=True,
        )
        state = run_pipeline(cfg)
        assert [graph for graph, _ in built] == [state.g_reac, state.g_prod]
        for graph, as_built in built:
            assert vars(graph) == as_built

    def test_path_named_twice_parsed_once(self, tmp_path, monkeypatch):
        # The chain case study names butene.data twice: one parse, one
        # topology for both molecules.
        parsed = []
        parse = cli.parse_data_file

        def counting(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(cli, "parse_data_file", counting)
        reactants, products = CASE_STUDIES["chain"]
        assert reactants[0] == reactants[1]
        state = run_pipeline(RunConfig(reactants=reactants, products=products, out_dir=str(tmp_path)))
        assert len(parsed) == 2
        first, second = state.g_reac.topologies
        assert first is second

    def test_conserved_mapping_freed_before_report(self, monkeypatch):
        # assign_similarity copies the conserved-only mapping, so nothing
        # holds it once the report stage starts.
        conserved = []
        alive_at_report = []
        search, report = cli.iterate_conserved, cli.build_report

        def recording_search(*args, **kwargs):
            mapping = search(*args, **kwargs)
            conserved.append(weakref.ref(mapping))
            return mapping

        def checking_report(mapping):
            gc.collect()
            alive_at_report.append(conserved[0]() is not None)
            return report(mapping)

        monkeypatch.setattr(cli, "iterate_conserved", recording_search)
        monkeypatch.setattr(cli, "build_report", checking_report)
        run_stages(RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS))
        assert alive_at_report == [False]

    @pytest.mark.parametrize("name", sorted(CASE_STUDIES))
    def test_report_json_is_report_to_json(self, tmp_path, monkeypatch, name):
        # The streamed report.json holds what report_to_json joins; the
        # pinned hashes in TestPinnedOutputs cover the bytes themselves.
        payloads = []
        to_dict = cli.report_to_dict

        def recording(report):
            payloads.append(to_dict(report))
            return payloads[-1]

        monkeypatch.setattr(cli, "report_to_dict", recording)
        cfg = RunConfig(*CASE_STUDIES[name], out_dir=str(tmp_path))
        state = run_pipeline(cfg)
        expected = report_to_json(payloads[0] | _report_sections(cfg, state))
        assert (tmp_path / "report.json").read_text(encoding="ascii") == expected

    def test_run_stages_unknown_stage(self):
        cfg = RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS)
        with pytest.raises(UnknownStage, match="'graphs', 'report', 'templates'"):
            run_stages(cfg, through="template")


# Quotes, backslashes, control characters and non-ASCII.
ESCAPED_CHARACTERS = '"\\\x00\x07\x1f\x7f\n\t\u00e9\u2603\U0001f600'


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Payloads with the report_to_dict schema, and the run settings and
# templates _report_sections adds to them.
report_ints = st.one_of(
    st.sampled_from([0, 2**70]), st.integers(min_value=-(2**70), max_value=2**70)
)
report_strings = st.one_of(st.text(), st.text(alphabet=ESCAPED_CHARACTERS))
report_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
node_refs = st.fixed_dictionaries(
    {"global_id": report_ints, "molecule": report_ints, "atom": report_ints}
)
mapping_rows = st.fixed_dictionaries(
    {
        "reactant": node_refs,
        "product": node_refs,
        "provenance": report_strings,
        "delta_e": st.one_of(st.just([]), st.lists(report_strings, min_size=1, max_size=40)),
        "delta_c": report_floats,
    }
)
report_payloads = st.fixed_dictionaries(
    {
        "initiators": st.lists(node_refs, max_size=3),
        "created": st.lists(node_refs, max_size=4),
        "deleted": st.lists(node_refs, max_size=4),
        "mapping": st.lists(mapping_rows, max_size=6),
        "counts": st.fixed_dictionaries(
            {
                key: report_ints
                for key in (
                    "reactant_nodes", "product_nodes", "mapped", "conserved", "created",
                    "deleted",
                )
            }
        ),
    }
)
report_configs = st.builds(
    SimpleNamespace,
    alpha=report_floats,
    beta=report_floats,
    gamma=report_floats,
    cutoff=report_ints,
    search_budget=report_ints,
)
report_states = st.builds(
    SimpleNamespace,
    templates=st.builds(
        SimpleNamespace,
        pre=st.builds(SimpleNamespace, atom_count=report_ints),
        post=st.builds(SimpleNamespace, atom_count=report_ints),
        edge_atoms=st.lists(report_ints, max_size=4),
        equivalences=st.lists(st.tuples(report_ints, report_ints), max_size=4),
    ),
    mapping=st.builds(SimpleNamespace, search_expansions=report_ints),
)


class TestReportJsonWriter:
    def test_case_study_payloads(self, case_states, tmp_path):
        for name, state in case_states.items():
            assert_report_json_matches(RunConfig(*CASE_STUDIES[name]), state)
        # A config file may give the weights as ints that sum to 1; they stay
        # ints, and json.dumps writes them so.
        cfg = RunConfig(*CASE_STUDIES["chain"], alpha=1, beta=0, gamma=0)
        assert_report_json_matches(cfg, run_stages(cfg))
        workloads = load_workloads()
        checked = 0
        for kind in workloads.GENERATED:
            for seed in (1, 2):
                directory = tmp_path / f"{kind}-{seed}"
                directory.mkdir()
                for instance in workloads.generated(kind, seed, str(directory)):
                    cfg = RunConfig(instance.reactants, instance.products)
                    assert_report_json_matches(cfg, run_stages(cfg))
                    checked += 1
        assert checked == 2 * (72 + 72 + 24)
        # An epoxide ring opened by an amine, with rows of every provenance,
        # and a chain with every atom retyped: no conserved row, and two
        # created hydrogens.
        for g_reac, g_prod in (
            ring_opening(4, random.Random(0), 3),
            alkene_dimerization(6, random.Random(0), 7),
        ):
            mapping, _ = assign_similarity(iterate_conserved(g_reac, g_prod))
            report = build_report(mapping)
            templates = assemble_templates(report, *prune_reaction(report))
            state = PipelineState(mapping, report=report, templates=templates)
            assert_report_json_matches(RunConfig(["reactants"], ["products"]), state)

    @settings(max_examples=200, deadline=None)
    @given(report_payloads, report_configs, report_states)
    def test_report_payloads_match_json_dumps(self, payload, cfg, state):
        payload = payload | _report_sections(cfg, state)
        assert report_to_json(payload) == reference_json(payload) + "\n"


def assert_report_json_matches(cfg, state):
    payload = report_to_dict(state.report) | _report_sections(cfg, state)
    assert report_to_json(payload) == reference_json(payload) + "\n"


# Runs the CLI with every scipy import made to fail, recording each attempt,
# so a lazy import or a guarded fallback shows up as well as a top-level one.
NO_SCIPY_RUN = """
import sys

class BlockScipy:
    attempts = []

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.attempts.append(name)
            raise ModuleNotFoundError(name)
        return None

sys.meta_path.insert(0, BlockScipy())
from templater.cli import main
code = main(sys.argv[1:])
assert not BlockScipy.attempts, BlockScipy.attempts
assert "scipy" not in sys.modules
sys.exit(code)
"""


class TestRuntimeDependencies:
    def test_run_needs_no_scipy(self, tmp_path):
        src_dir = os.path.dirname(os.path.dirname(templater.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_RUN, *run_args(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert {"pre_template.mol", "post_template.mol", "reaction_map.txt"} <= set(os.listdir(tmp_path))
