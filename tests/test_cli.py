"""End-to-end tests for the command-line surface.

Commands run in-process through main(argv) so exit codes, stdout, and
stderr can be asserted directly.  One subprocess test confirms the
module is runnable as an installed entry point.
"""
import json
import subprocess
import sys

import pytest

from centerpole.cli import OUTPUT_DIR_ENV, main
from centerpole.tshape import moment_curve_points


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    return code, json.loads(out)


class TestSandwichCommand:
    def test_json_envelope(self, capsys):
        code, doc = run_json(["sandwich", "--k", "1", "--s", "-1"], capsys)
        assert code == 0
        assert set(doc) == {"config", "result", "meta"}
        assert doc["config"] == {
            "command": "sandwich",
            "k": 1,
            "s": -1,
            "format": "json",
        }
        assert doc["result"]["cardinality"] == 3
        assert doc["result"]["points"] == [[0, 0], [1, 0], [1, 1]]
        assert set(doc["meta"]) == {"generatedAt", "runtimeMs"}
        assert isinstance(doc["meta"]["runtimeMs"], int)
        assert doc["meta"]["runtimeMs"] >= 0

    def test_csv_is_raw_rows(self, capsys):
        code, out, err = run_cli(
            ["sandwich", "--k", "1", "--s", "-1", "--format", "csv"], capsys
        )
        assert code == 0
        assert err == ""
        assert out == "0,0\n1,0\n1,1\n"

    def test_pretty_header_and_rows(self, capsys):
        code, out, err = run_cli(
            ["sandwich", "--k", "1", "--s", "-1", "--format", "pretty"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sandwich k=1 s=-1: 3 points"
        assert lines[1:] == ["  (0, 0)", "  (1, 0)", "  (1, 1)"]

    def test_degenerate_singleton(self, capsys):
        code, doc = run_json(["sandwich", "--k", "0", "--s", "-2"], capsys)
        assert code == 0
        assert doc["result"]["points"] == [[1]]

    def test_negative_k_is_usage_error(self, capsys):
        code, out, err = run_cli(["sandwich", "--k", "-1", "--s", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestCoverVerifyCommand:
    def test_in_range_pair_reports_zero_failures(self, capsys):
        code, doc = run_json(["cover-verify", "--k", "2", "--s", "0"], capsys)
        assert code == 0
        assert doc["result"] == {"k": 2, "s": 0, "total": 24, "failures": []}

    def test_out_of_range_pair_is_usage_error(self, capsys):
        code, out, err = run_cli(["cover-verify", "--k", "2", "--s", "2"], capsys)
        assert code == 2
        assert "s <= k-2" in err


class TestTshapeCommand:
    def test_model_points_get_yes_with_certificate(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[1, 2, 0], [-3, 5, 0], [2, 0, 1]]))
        code, doc = run_json(["tshape", "--points", str(path)], capsys)
        assert code == 0
        assert doc["result"]["verdict"] == "yes"
        assert "certificate" in doc["result"]

    def test_moment_points_get_no_without_certificate(self, tmp_path, capsys):
        rows = [
            [str(c) for c in p.coords]
            for p in moment_curve_points(2, 3, (1, 2, 3))
        ]
        path = tmp_path / "moment.json"
        path.write_text(json.dumps(rows))
        code, doc = run_json(["tshape", "--points", str(path)], capsys)
        assert code == 0
        assert doc["result"]["verdict"] == "no"
        assert "certificate" not in doc["result"]

    def test_bound_trials_attach_a_report(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0]]))
        code, doc = run_json(
            ["tshape", "--points", str(path), "--trials", "2", "--seed", "7"],
            capsys,
        )
        assert code == 0
        bounds = doc["result"]["bounds"]
        assert bounds["ok"] is True
        assert bounds["t_value"] == 3

    def test_empty_points_with_trials_needs_a_bound_dim(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, out, err = run_cli(
            ["tshape", "--points", str(path), "--trials", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--bound-dim" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_float_coordinates_are_refused(self, tmp_path, capsys):
        path = tmp_path / "floats.json"
        path.write_text("[[0.1, 0], [1, 2]]")
        code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "floats" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_points_file(self, capsys):
        code, out, err = run_cli(
            ["tshape", "--points", "/nonexistent/pts.json"], capsys
        )
        assert code == 2
        assert err.startswith("error:")


class TestCertifyCommand:
    def test_forced_schedule_with_shorthand_centers(self, capsys):
        code, doc = run_json(
            [
                "certify",
                "--dim",
                "2",
                "--colors",
                "2",
                "--centers",
                "sandwich(1,-1)",
                "--r-list",
                "1",
            ],
            capsys,
        )
        assert code == 0
        assert doc["config"]["rList"] == [1]
        assert doc["config"]["rFactor"] == 3
        result = doc["result"]
        assert result["centers"] == [[0, 0], [1, 0], [1, 1]]
        (row,) = result["rows"]
        assert row["verdict"] == "Forced"
        assert row["inner"] == 1
        assert row["outer"] == 9
        assert row["provedAtOuter"] == 4
        assert row["witness"] is None
        assert set(row["stats"]) == {"vertices", "edges", "decisions"}

    def test_colorable_pair_from_centers_file(self, tmp_path, capsys):
        path = tmp_path / "centers.json"
        path.write_text(json.dumps([[0, 0], [3, 0]]))
        code, doc = run_json(
            [
                "certify",
                "--dim",
                "2",
                "--colors",
                "2",
                "--centers",
                str(path),
                "--r-list",
                "1",
                "--R-factor",
                "1",
            ],
            capsys,
        )
        assert code == 0
        (row,) = doc["result"]["rows"]
        assert row["verdict"] == "Colorable"
        assert row["outer"] == 5
        assert row["provedAtOuter"] == 5
        assert row["witness"] is not None

    def test_center_dimension_mismatch_is_usage_error(self, capsys):
        code, out, err = run_cli(
            [
                "certify",
                "--dim",
                "3",
                "--colors",
                "2",
                "--centers",
                "sandwich(1,-1)",
            ],
            capsys,
        )
        assert code == 2
        assert "dimension" in err

    def test_ragged_centers_file_reports_mixed_dimensions(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps([[0, 0], [1, 0, 0]]))
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: centers have mixed dimensions [2, 3]\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--R-factor", "0"], "R factor must be at least 1"),
            (["--budget", "-1"], "decision budget must be non-negative"),
        ],
    )
    def test_out_of_range_schedule_flags_are_usage_errors(self, flags, message, capsys):
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", "sandwich(1,-1)"]
            + flags,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err


class TestColoringScanCommand:
    def test_clean_cone_scan(self, tmp_path, capsys):
        centers = tmp_path / "origin.json"
        centers.write_text(json.dumps([[0, 0]]))
        code, doc = run_json(
            [
                "coloring-scan",
                "--rule",
                '{"kind": "cone", "dim": 2}',
                "--centers",
                str(centers),
                "--samples",
                "200",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert code == 0
        result = doc["result"]
        assert result["violations"] == []
        assert result["samples"] == 200
        assert result["centers"] == [["0", "0"]]

    def test_violations_flip_the_exit_code(self, tmp_path, capsys):
        centers = tmp_path / "centers.json"
        centers.write_text(json.dumps([[5, 5]]))
        code, doc = run_json(
            [
                "coloring-scan",
                "--rule",
                '{"kind": "halfspace", "center": [0, 0]}',
                "--centers",
                str(centers),
                "--samples",
                "40",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == 1
        violations = doc["result"]["violations"]
        assert violations
        assert all(set(v) == {"x", "mirror", "color"} for v in violations)

    def test_rule_loaded_from_at_file(self, tmp_path, capsys):
        rule = tmp_path / "rule.json"
        rule.write_text(json.dumps({"kind": "cone", "dim": 2}))
        centers = tmp_path / "origin.json"
        centers.write_text(json.dumps([[0, 0]]))
        code, doc = run_json(
            [
                "coloring-scan",
                "--rule",
                f"@{rule}",
                "--centers",
                str(centers),
                "--samples",
                "50",
                "--seed",
                "2",
            ],
            capsys,
        )
        assert code == 0
        assert doc["config"]["rule"] == {"kind": "cone", "dim": 2}

    def test_unknown_rule_kind(self, capsys):
        code, out, err = run_cli(
            [
                "coloring-scan",
                "--rule",
                '{"kind": "mystery"}',
                "--centers",
                "sandwich(1,-1)",
            ],
            capsys,
        )
        assert code == 2
        assert "mystery" in err

    @pytest.mark.parametrize(
        "rule,message",
        [
            ('{"kind": "cone"}', "rule kind 'cone' needs the key 'dim'"),
            ('{"kind": "plus2", "base": {"kind": "cone", "dim": 2}}',
             "rule kind 'plus2' needs the key 'A'"),
            ("[1]", "a rule must be a JSON object"),
            ('{"kind": "halfspace", "center": [0.5, 0]}', "bad point"),
        ],
    )
    def test_malformed_rule_specs_are_usage_errors(self, rule, message, capsys):
        code, out, err = run_cli(
            ["coloring-scan", "--rule", rule, "--centers", "sandwich(1,-1)"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_malformed_rule_json(self, capsys):
        code, out, err = run_cli(
            [
                "coloring-scan",
                "--rule",
                "{not json",
                "--centers",
                "sandwich(1,-1)",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")


class TestEnvelopeContract:
    def test_config_and_result_identical_across_reruns(self, capsys):
        argv = [
            "coloring-scan",
            "--rule",
            '{"kind": "cone", "dim": 2}',
            "--centers",
            "sandwich(1,-1)",
            "--samples",
            "300",
            "--seed",
            "5",
        ]
        code1, doc1 = run_json(argv, capsys)
        code2, doc2 = run_json(argv, capsys)
        assert code1 == code2
        stable1 = json.dumps(
            {"config": doc1["config"], "result": doc1["result"]}, sort_keys=True
        )
        stable2 = json.dumps(
            {"config": doc2["config"], "result": doc2["result"]}, sort_keys=True
        )
        assert stable1 == stable2

    def test_out_file_relative_to_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "reports"))
        code, out, err = run_cli(
            ["--out", "runs/sandwich.json", "sandwich", "--k", "2", "--s", "0"],
            capsys,
        )
        assert code == 0
        assert out == ""
        target = tmp_path / "reports" / "runs" / "sandwich.json"
        doc = json.loads(target.read_text())
        assert doc["result"]["cardinality"] == 6

    def test_absolute_out_ignores_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
        target = tmp_path / "direct.json"
        code, out, err = run_cli(
            ["--out", str(target), "sandwich", "--k", "1", "--s", "-1"], capsys
        )
        assert code == 0
        assert json.loads(target.read_text())["result"]["cardinality"] == 3
        assert not (tmp_path / "ignored").exists()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "s": 1}))
        code, doc = run_json(
            ["--config", str(cfg), "sandwich", "--k", "1", "--s", "-1"], capsys
        )
        assert code == 0
        assert doc["config"]["k"] == 3
        assert doc["config"]["s"] == 1
        assert doc["result"]["cardinality"] == 12

    def test_hyphenated_config_keys_map_to_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r-list": "1,2", "R-factor": 3}))
        code, doc = run_json(
            [
                "--config",
                str(cfg),
                "certify",
                "--dim",
                "2",
                "--colors",
                "2",
                "--centers",
                "sandwich(1,-1)",
                "--r-list",
                "1",
            ],
            capsys,
        )
        assert code == 0
        assert doc["config"]["rList"] == [1, 2]
        assert [row["inner"] for row in doc["result"]["rows"]] == [1, 2]

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1, 2, 3]))
        code, out, err = run_cli(
            ["--config", str(cfg), "sandwich", "--k", "1", "--s", "-1"], capsys
        )
        assert code == 2
        assert "JSON object" in err


class TestArgparseUsage:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sandwich"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def test_module_entry_point_runs_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "centerpole.cli", "sandwich", "--k", "2", "--s", "0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["cardinality"] == 6
