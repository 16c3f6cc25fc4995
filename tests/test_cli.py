import json
import logging
import os

import pytest

from conftest import CASE_STUDIES, fixture_path
from templater.cli import RunConfig, export_dot, main, run_pipeline
from templater.errors import UnknownStage

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
            assert ("path refinement: 1 sweep(s), 0 swap(s)" in caplog.messages) == at_info
            assert (
                "conserved search: iteration 1, molecules 1 -> 1: 23 pairs, 124 expansions"
                in caplog.messages
            ) == at_info
        assert reports[logging.INFO] == reports[logging.WARNING]


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
