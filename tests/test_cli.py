import enum
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASE_STUDIES, fixture_path
import templater
from templater.cli import RunConfig, _json_text, export_dot, main, run_pipeline, run_stages
from templater.errors import UnknownStage
from templater.reaction_analysis import report_to_dict

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
            ("--search-budget", "-1", 1, "error: ValueError: search budget must be non-negative\n"),
        ],
        ids=["tolerance-negative", "tolerance-nan", "tolerance-inf", "budget-negative"],
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
        [("cutoff", "cutoff must be >= 1"), ("iterations", "iterations must be >= 1")],
        ids=["cutoff", "iterations"],
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

    def test_flag_error_beside_config_file_names_no_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"iterations": 2}))
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
            "cutoff": 2,
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "from-flag"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "report.json").exists()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["templates"]["cutoff"] == 2

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"cuttoff": 2, "exportdot": True}, "has unknown keys: cuttoff, exportdot"),
            ([2], "must hold a JSON object"),
            ({"reactants": "ht.data"}, "reactants must be a list of strings"),
            ({"products": ["a.data", 3]}, "products must be a list of strings"),
            ({"out_dir": 5}, "out_dir must be a string"),
            ({"cutoff": "4"}, "cutoff must be an integer"),
            ({"iterations": 2.0}, "iterations must be an integer"),
            ({"search_budget": True}, "search_budget must be an integer"),
            ({"alpha": "0.5"}, "alpha must be a number"),
            # The hydrogen tolerance went with the hydrogen swap it tuned.
            ({"hydrogen_tolerance": False}, "has unknown keys: hydrogen_tolerance"),
            ({"export_dot": 1}, "export_dot must be true or false"),
            ({"export_similarity_csv": "yes"}, "export_similarity_csv must be true or false"),
            ({"search_budget": -1}, "search budget must be non-negative"),
            ({"hydrogen_tolerance": -1}, "has unknown keys: hydrogen_tolerance"),
            ({"alpha": -1}, "scoring weights must be non-negative"),
        ],
        ids=[
            "unknown-keys", "not-an-object", "reactants-string", "products-non-string",
            "out-dir-number", "cutoff-string", "iterations-float", "budget-bool",
            "weight-string", "tolerance-bool", "export-dot-int", "export-csv-string",
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
        "report.json": "0da7dbc2f8c6fc5289f4163b9a56490c0906508bae774b6e6be9f8e8810e30b6",
        "report.txt": "7199d37d4698ea1879c14a97d20032dd57b2a34277ec304b4e9a536b99ee15be",
        "similarity.csv": "8b8b21a0116056bead0af3e6c7b80b4d5f40b815c590324c67512761e4072e2a",
    },
    "polycondensation": {
        "mapped_products.dot": "7a2516ef5fe1113538633d10c38db3451e750c1f638e3d724f290df2d8677059",
        "mapped_reactants.dot": "ffd2d35fdc539f93e39cdf7baad5d1abbbf86a0a4b47dcb499a5ee289872af18",
        "post_template.mol": "f9af83ac690c7b0bff321bb3c4862c28075b4dd90ef239a1369bfefa0f7563bf",
        "pre_template.mol": "70d8e077dcb1c4e0ceec9c9645fd605d83507baa04a162e6f3994506e0deb910",
        "reaction_map.txt": "345224d6430f3eb93c20e20feb55c62185f33ddfd83c64584caadd5e219601e2",
        "report.json": "5a8cff531282fb12024c7227a4babd730249b08769ac4f9c2428caaca07b4618",
        "report.txt": "badbb902af406092acc62efed1df277550cd9f3882bb5c436c2725ad7fa3e220",
        "similarity.csv": "f0f3b2d334a24e6e8395543635b994405a1527f8d4d2c3ed557e427903468e78",
    },
    "chain": {
        "mapped_products.dot": "a53737b0c9aef52b9abd55ce9c7bbb2d08891c622a99146c22bb671f71a58ec2",
        "mapped_reactants.dot": "5829fed26bdcf8def7b7f07594c149ad17b19dd1ab2e7e7f58f8b82142020314",
        "post_template.mol": "702eaa9632d118009fcdf8f30892222eb48a6bae7a5d4e7543fc89e5cfea6b63",
        "pre_template.mol": "ecc798f1d61321611945bbed1b66cb03f343b33c0da7851e4543c03988bba9ec",
        "reaction_map.txt": "fa90ddb99d93350a8728adee35ed3cf32c1c14ee5d117cb10843699e7148a665",
        "report.json": "4487dc9a00df044a5927da86a14becbea1b59ae616d6ba3e2883076897dd8c57",
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

    def test_run_stages_unknown_stage(self):
        cfg = RunConfig(reactants=PC_REACTANTS, products=PC_PRODUCTS)
        with pytest.raises(UnknownStage, match="'graphs', 'report', 'templates'"):
            run_stages(cfg, through="template")


class Count(enum.IntEnum):
    ONE = 1
    HUGE = 2**70


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324, 1e-7]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from(list(Count)),
    st.text(),
    st.text(alphabet='"\\\x00\x07\x1f\x7f\n\t\u00e9\u2603\U0001f600'),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=25,
)


class TestReportJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == reference_json(value)

    @pytest.mark.parametrize("value", [[], {}, (), [[]], {"a": {}}, [{}, ()], "", 0])
    def test_empty_and_bare_values(self, value):
        assert _json_text(value) == reference_json(value)

    @pytest.mark.parametrize("value", [{1, 2}, {"atoms": {1}}, [frozenset()], {"a": b"x"}])
    def test_unsupported_value_raises_type_error(self, value):
        with pytest.raises(TypeError):
            reference_json(value)
        with pytest.raises(TypeError):
            _json_text(value)

    @pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}]])
    def test_non_string_key_raises_type_error(self, value):
        # json.dumps would write the first two keys as strings; a report has none.
        with pytest.raises(TypeError):
            _json_text(value)

    def test_case_study_payloads(self, case_states):
        for name, state in case_states.items():
            payload = report_to_dict(state.report)
            assert _json_text(payload) == reference_json(payload), name


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
