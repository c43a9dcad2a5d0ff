"""End-to-end tests for the command-line surface.

Commands run in-process through main(argv) so exit codes, stdout, and
stderr can be asserted directly.  One subprocess test confirms the
module is runnable as an installed entry point.
"""
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from enum import IntEnum
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centerpole import certifier, cli, covering, cube, geometry
from centerpole.certifier import MAX_WINDOW_POINTS
from centerpole.cli import (
    MAX_COVER_K,
    MAX_RULE_DIM,
    MAX_SANDWICH_POINTS,
    MAX_SCAN_SAMPLES,
    MAX_TSHAPE_CANDIDATES,
    MAX_TSHAPE_DIM,
    OUTPUT_DIR_ENV,
    main,
)
from centerpole.tshape import moment_curve_points
from test_scripts import load_script


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(argv, env=None):
    """``python -m centerpole.cli`` with ``argv`` in a child process, its
    environment ``env`` (the parent's by default) with this checkout's
    ``src/`` first on PYTHONPATH, so that the child imports the package
    under test whether or not it is installed."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "centerpole.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


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

    def test_oversized_sandwich_is_refused_before_it_is_built(
        self, monkeypatch, capsys
    ):
        def never(k, s):
            raise AssertionError("the sandwich was built")

        monkeypatch.setattr(cli, "build_sandwich", never)
        code, out, err = run_cli(["sandwich", "--k", "40", "--s", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: sandwich(40,3) has 2199023245671 points, more than the "
            f"limit of {MAX_SANDWICH_POINTS}\n"
        )
        code, out, err = run_cli(["sandwich", "--k", "100000", "--s", "-1"], capsys)
        assert code == 2
        assert err.startswith("error: sandwich(100000,-1) has at least 2^100000 points")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            # certify refuses a shorthand of another dimension than --dim
            # before it counts it, and at --dim 41 the window before it
            # reads the shorthand, so its size is never reached there
            (["certify", "--dim", "2", "--colors", "2", "--centers", "sandwich(40,3)"],
             "error: centers have dimension 41, but --dim is 2"),
            (["coloring-scan", "--rule", '{"kind": "cone", "dim": 41}',
              "--centers", "sandwich(40,3)"],
             "error: sandwich(40,3) has 2199023245671 points"),
        ],
        ids=["certify", "coloring-scan"],
    )
    def test_oversized_shorthand_is_refused(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_sandwich", None)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_the_limit_admits_every_sandwich_up_to_two_to_the_twenty(
        self, monkeypatch
    ):
        assert MAX_SANDWICH_POINTS == 2**20
        assert len(cli.bounded_sandwich(2, 0)) == 6
        monkeypatch.setattr(cli, "build_sandwich", lambda k, s: (k, s))
        # k = 19 stays below 2^20 points for every s; k = 20 never does
        for s in range(-2, 22):
            assert cli.bounded_sandwich(19, s) == (19, s)
            with pytest.raises(ValueError, match="more than the limit"):
                cli.bounded_sandwich(20, s)


class TestCoverVerifyCommand:
    def test_in_range_pair_reports_zero_failures(self, capsys):
        code, doc = run_json(["cover-verify", "--k", "2", "--s", "0"], capsys)
        assert code == 0
        assert doc["result"] == {"k": 2, "s": 0, "total": 24, "failures": []}

    def test_out_of_range_pair_is_usage_error(self, capsys):
        code, out, err = run_cli(["cover-verify", "--k", "2", "--s", "2"], capsys)
        assert code == 2
        assert "s <= k-2" in err

    @pytest.mark.parametrize("s", [-1, -2])
    def test_k_below_one_is_named_whatever_s_is(self, capsys, s):
        code, out, err = run_cli(["cover-verify", "--k", "0", "--s", str(s)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: k must be at least 1\n"

    def test_large_k_is_refused_before_any_set_is_built(self, monkeypatch, capsys):
        def never(k):
            raise AssertionError("the maximal sets were built")

        monkeypatch.setattr(covering, "enumerate_maximal_sigma0_sets", never)
        for k in (MAX_COVER_K + 1, 40, 10**6):
            argv = ["cover-verify", "--k", str(k), "--s", "0"]
            code, out, err = run_cli(argv, capsys)
            assert code == 2
            assert out == ""
            assert err == (
                f"error: cover-verify visits 4k(k+1)*2^k cube points; k={k} is "
                f"above the limit of {MAX_COVER_K}\n"
            )

    def test_the_limit_admits_every_k_up_to_ten(self, monkeypatch):
        # the README, the tests, the sweep script and the bench run k <= 8
        assert MAX_COVER_K == 10
        monkeypatch.setattr(
            cli, "verify_covering_lemma", lambda k, s: {"k": k, "failures": []}
        )
        for k in range(1, MAX_COVER_K + 1):
            assert cli.cmd_cover_verify(k, k - 2) == (0, {"k": k, "failures": []})
        with pytest.raises(ValueError, match="above the limit"):
            cli.cmd_cover_verify(MAX_COVER_K + 1, 0)


class TestTshapeCommand:
    def test_model_points_get_yes_with_certificate(self, tmp_path, capsys):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[1, 2, 0], [-3, 5, 0], [2, 0, 1]]))
        code, doc = run_json(["tshape", "--points", str(path)], capsys)
        assert code == 0
        assert doc["result"]["verdict"] == "yes"
        assert "certificate" in doc["result"]

    def test_moment_points_get_no_without_certificate(self, tmp_path, capsys):
        rows = [[str(c) for c in p] for p in moment_curve_points(2, 3, (1, 2, 3))]
        path = tmp_path / "moment.json"
        path.write_text(json.dumps(rows))
        code, doc = run_json(["tshape", "--points", str(path)], capsys)
        assert code == 0
        assert doc["result"]["verdict"] == "no"
        assert "certificate" not in doc["result"]

    @pytest.fixture
    def undecided(self, tmp_path, monkeypatch):
        """A points file that must not be decided."""

        def never(points):
            raise AssertionError("a decision ran")

        monkeypatch.setattr(cli, "is_t_shaped", never)
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0]]))
        return str(path)

    # tshape only decides its points file; the sampled t-value check runs
    # in scripts/run_tshape_survey.py
    @pytest.mark.parametrize(
        "flag,value", [("--trials", "1"), ("--seed", "0"), ("--bound-dim", "3")]
    )
    def test_a_deleted_trial_flag_exits_2_before_the_decision(
        self, flag, value, undecided, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["tshape", "--points", undecided, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_float_coordinates_are_refused(self, tmp_path, capsys):
        path = tmp_path / "floats.json"
        path.write_text("[[0.1, 0], [1, 2]]")
        code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "floats" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_an_exponent_string_is_refused_before_it_is_expanded(
        self, tmp_path, capsys
    ):
        # Fraction("1e10000000") would build a ten-million-digit integer
        path = tmp_path / "exponent.json"
        path.write_text('[["1e10000000", 0]]')
        started = time.perf_counter()
        code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad point ['1e10000000', 0]: exponent strings")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("null", "a points file must hold a list of coordinate rows"),
            ("7", "a points file must hold a list of coordinate rows"),
            ('{"a": [1, 0]}', "a points file must hold a list of coordinate rows"),
            ("[[1, 0], 3]", "bad point 3: a point is a list or tuple of coordinates"),
            ("[[], []]", "points must share one ambient dimension of at least 1"),
            ('[["1/0", 1]]', "bad point ['1/0', 1]: '1/0' has a zero denominator"),
            ("[[true, 0], [0, 1], [1, 1]]", "bad point [True, 0]: booleans"),
        ],
    )
    def test_malformed_points_files_are_usage_errors(
        self, text, message, tmp_path, capsys
    ):
        path = tmp_path / "pts.json"
        path.write_text(text)
        code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_points_file(self, capsys):
        code, out, err = run_cli(
            ["tshape", "--points", "/nonexistent/pts.json"], capsys
        )
        assert code == 2
        assert err.startswith("error:")

    def test_the_candidate_limit_boundary(self, tmp_path, monkeypatch, capsys):
        # the point sets of the tests, the scripts, the bench and the
        # README have at most C(13, 4) = 715 candidates
        class Reached(Exception):
            pass

        def reached(points):
            raise Reached

        monkeypatch.setattr(cli, "is_t_shaped", reached)
        assert MAX_TSHAPE_CANDIDATES == 2**12
        for dim in (1, 2, 3, 4):
            most = max(n for n in range(5000) if comb(n, dim) <= MAX_TSHAPE_CANDIDATES)
            for n in (most, most + 1):
                path = tmp_path / f"pts{dim}-{n}.json"
                rows = [[i**e for e in range(1, dim + 1)] for i in range(n)]
                path.write_text(json.dumps(rows))
                if n == most:
                    with pytest.raises(Reached):
                        cli.cmd_tshape(str(path))
                    continue
                code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
                assert code == 2
                assert out == ""
                assert err == (
                    f"error: {n} distinct points in dimension {dim} span more than "
                    f"the limit of {MAX_TSHAPE_CANDIDATES} candidate hyperplanes\n"
                )

    def test_repeated_rows_are_bounded_as_the_distinct_points(self, tmp_path, capsys):
        # 150 rows, 3 distinct points: at most C(3, 2) = 3 candidates
        path = tmp_path / "repeats.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [0, 1]] * 50))
        code, doc = run_json(["tshape", "--points", str(path)], capsys)
        assert code == 0
        assert doc["result"]["verdict"] == "no"
        assert len(doc["result"]["points"]) == 150

    def test_the_dimension_limit_boundary(self, tmp_path, monkeypatch, capsys):
        # d + 2 points span C(d + 2, 2) candidates, far below the
        # candidate limit, so only the dimension limit refuses them
        class Reached(Exception):
            pass

        def reached(points):
            raise Reached

        def no_elimination(rows):
            raise AssertionError("an elimination ran before the refusal")

        monkeypatch.setattr(cli, "is_t_shaped", reached)
        monkeypatch.setattr(geometry, "_bareiss", no_elimination)
        assert MAX_TSHAPE_DIM == 20
        for dim in (MAX_TSHAPE_DIM, MAX_TSHAPE_DIM + 1):
            path = tmp_path / f"pts{dim}.json"
            rows = [[i**e % 97 for e in range(1, dim + 1)] for i in range(dim + 2)]
            path.write_text(json.dumps(rows))
            if dim == MAX_TSHAPE_DIM:
                with pytest.raises(Reached):
                    cli.cmd_tshape(str(path))
                continue
            code, out, err = run_cli(["tshape", "--points", str(path)], capsys)
            assert code == 2
            assert out == ""
            assert err == (
                f"error: points of dimension {dim} are above the limit of "
                f"{MAX_TSHAPE_DIM}\n"
            )


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
        assert set(row["stats"]) == {"vertices", "edges", "decisions", "conflicts"}

    @pytest.mark.parametrize(
        "k,s,colors,r_list", [(1, -1, 2, [1, 2, 3]), (2, 0, 3, [1, 2])]
    )
    def test_a_certify_row_is_the_schedule_row(self, k, s, colors, r_list):
        # the planar and spatial nuclei: the certifier builds each row
        # once, and certify prints it as it is, as the evidence script
        # reads it
        code, result = cli.cmd_certify(k + 1, colors, f"sandwich({k},{s})", r_list)
        assert code == 0
        printed = json.loads(cli.indented_json(result))["rows"]
        centers = sorted(cube.build_sandwich(k, s))
        report = certifier.certify_schedule(centers, colors, r_list)
        assert printed == json.loads(json.dumps(report.rows))
        evidence = load_script("run_certifier_evidence")
        case = evidence.schedule_row("nucleus", centers, colors, r_list, [])
        assert case["windowsSolved"] == [row["windowsSolved"] for row in printed]
        assert case["conflicts"] == [row["stats"]["conflicts"] for row in printed]

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

    def test_each_center_row_is_checked_once(self, tmp_path, monkeypatch, capsys):
        # the CLI reads each row of the file once; the certifier adds one
        # call per window solved, for its +-outer, and none per center
        rows = [[0, 0], [3, 0], [-1, 2], [2, -2]]
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(rows))
        read = cube.checked_coordinates
        calls = {cli: [], certifier: []}
        for module, seen in calls.items():
            monkeypatch.setattr(
                module,
                "checked_coordinates",
                lambda values, seen=seen: seen.append(values) or read(values),
            )
        built = []
        build = certifier.build_symmetry_graph
        monkeypatch.setattr(
            certifier,
            "build_symmetry_graph",
            lambda spec: built.append(spec.outer) or build(spec),
        )
        code, doc = run_json(
            ["certify", "--dim", "2", "--colors", "2", "--centers", str(path),
             "--r-list", "0,1"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["centers"] == sorted(rows)
        assert calls[cli] == rows
        assert calls[certifier] == [(-outer, outer) for outer in built]
        assert len(built) >= 2

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
        "rows",
        [[[0.5, 0], [3, 0]], [["1/2", 0]], [[True, 0]], [[1, "2"]], {"a": [1, 0]}, [3]],
    )
    def test_non_integer_centers_are_refused(self, rows, tmp_path, capsys):
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(rows))
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "rows", [[[2**63, 0]], [[0, -(2**63) - 1]], [[1, 0], [2**64, 2**64]]]
    )
    def test_out_of_range_centers_are_refused(self, rows, tmp_path, capsys):
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(rows))
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad lattice point")
        assert "64-bit" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "rows,flags,outer",
        [
            ([[1000, 0]], [], 3006),
            ([[2**63 - 1, 0]], [], 3 * 2**63 + 3),
            # refused before the centers are read, from their least max-norm
            ([[0, 0]], ["--r-list", "1,300"], "at least 903"),
            ([[0, 0, 0, 0]], ["--r-list", "9"], "at least 30"),
        ],
        ids=["far-center", "edge-center", "large-r", "dim-4"],
    )
    def test_oversized_windows_are_refused_before_any_is_built(
        self, rows, flags, outer, tmp_path, monkeypatch, capsys
    ):
        def never(spec):
            raise AssertionError("a window was built")

        monkeypatch.setattr(certifier, "build_symmetry_graph", never)
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(rows))
        dim = str(len(rows[0]))
        code, out, err = run_cli(
            ["certify", "--dim", dim, "--colors", "2", "--centers", str(path)] + flags,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the largest window, outer radius {outer} in dimension {dim}, "
            f"has more than the limit of {MAX_WINDOW_POINTS} points\n"
        )

    def test_a_schedule_too_large_at_max_norm_0_reads_no_center(
        self, tmp_path, monkeypatch, capsys
    ):
        # R = 3 (1 + |c| + 1) >= 6, and 13^18 points are past the limit
        # whatever the centers are, so neither the sandwich nor a centers
        # file is read
        def never(*args):
            raise AssertionError("a center was read")

        monkeypatch.setattr(cli, "bounded_sandwich", never)
        monkeypatch.setattr(cli, "checked_coordinates", never)
        for centers in ("sandwich(17,0)", str(tmp_path / "missing.json")):
            code, out, err = run_cli(
                ["certify", "--dim", "18", "--colors", "2", "--centers", centers,
                 "--r-list", "1"],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert err == (
                "error: the largest window, outer radius at least 6 in dimension "
                f"18, has more than the limit of {MAX_WINDOW_POINTS} points\n"
            )
        # what the flags alone refuse is refused first, before the window
        # check and before any center, --R-factor 0 included
        for flags, message in (
            (["--colors", "0"], "color count must be positive, got 0"),
            (["--R-factor", "0"], "R factor must be at least 1, got 0"),
            (["--budget", "-1"], "decision budget must be non-negative, got -1"),
            (["--r-list", ","], "at least one inner radius is required"),
            (["--r-list", "1,-1"], "inner radius must be non-negative, got -1"),
        ):
            for centers in ("sandwich(17,0)", str(tmp_path / "missing.json")):
                code, out, err = run_cli(
                    ["certify", "--dim", "18", "--colors", "2", "--centers", centers,
                     "--r-list", "1"] + flags,
                    capsys,
                )
                assert (code, out, err) == (2, "", f"error: {message}\n")
        # a huge dimension is refused without its power being built
        with pytest.raises(ValueError, match="outer radius at least 3 in dimension"):
            cli.cmd_certify(10**12, 2, "sandwich(1,-1)", [0])

    def test_a_dimension_below_one_reads_no_center(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("a center was read")

        monkeypatch.setattr(cli, "bounded_sandwich", never)
        for dim in ("0", "-1"):
            code, out, err = run_cli(
                ["certify", "--dim", dim, "--colors", "2", "--centers",
                 "sandwich(17,0)", "--r-list", "1"],
                capsys,
            )
            assert (code, out, err) == (
                2, "", f"error: dimension must be positive, got {dim}\n"
            )

    def test_a_sandwich_of_another_dimension_is_not_built(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("the sandwich was built")

        monkeypatch.setattr(cli, "bounded_sandwich", never)
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers",
             "sandwich(17,0)", "--r-list", "1"],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: centers have dimension 18, but --dim is 2\n"
        )

    def test_the_window_limit_boundary(self, monkeypatch, tmp_path):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(certifier, "build_symmetry_graph", reached)
        assert MAX_WINDOW_POINTS == 2**18
        # with R-factor 1, R = r + |c| + 1; the largest R with
        # (2R + 1)^dim <= 2^18 is 131071 in dim 1, 255 in dim 2, 10 in dim 4
        for dim, r, norm in ((1, 0, 131070), (2, 254, 0), (4, 0, 9)):
            centers = _json_file(tmp_path, [[norm] + [0] * (dim - 1)])
            with pytest.raises(Reached):
                cli.cmd_certify(dim, 2, centers, [r], r_factor=1)
            with pytest.raises(ValueError, match="more than the limit"):
                cli.cmd_certify(dim, 2, centers, [r + 1], r_factor=1)
        # the largest windows in use: the documented 4D command (R = 6)
        # and sandwich(2,0) at inner radius 2 (R = 12, 25^3 points)
        with pytest.raises(Reached):
            cli.cmd_certify(4, 4, "sandwich(3,1)", [1], r_factor=2)
        with pytest.raises(Reached):
            cli.cmd_certify(3, 3, "sandwich(2,0)", [1, 2])

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

    def test_zero_colors_is_a_usage_error(self, monkeypatch, capsys):
        def never(spec):
            raise AssertionError("a window was built")

        monkeypatch.setattr(certifier, "build_symmetry_graph", never)
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "0", "--centers", "sandwich(1,-1)"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: color count must be positive, got 0\n"

    def test_a_negative_inner_radius_is_refused_before_any_window(
        self, monkeypatch, capsys
    ):
        def never(spec):
            raise AssertionError("a window was built")

        monkeypatch.setattr(certifier, "build_symmetry_graph", never)
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", "sandwich(1,-1)",
             "--r-list", "1,-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: inner radius must be non-negative, got -1\n"

    @pytest.mark.parametrize("r_list", [",", "", " , "])
    def test_an_empty_r_list_is_a_usage_error(self, r_list, capsys):
        code, out, err = run_cli(
            ["certify", "--dim", "2", "--colors", "2", "--centers", "sandwich(1,-1)",
             "--r-list", r_list],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: at least one inner radius is required\n"

    @pytest.mark.parametrize("centers", ["sandwich(1,-1)", [[0, 0], [3, 0]]])
    def test_a_repeated_inner_radius_is_solved_once(
        self, centers, tmp_path, monkeypatch, capsys
    ):
        if isinstance(centers, list):
            centers = _json_file(tmp_path, centers)
        built = []
        build = certifier.build_symmetry_graph

        def spy(spec):
            built.append(spec.outer)
            return build(spec)

        monkeypatch.setattr(certifier, "build_symmetry_graph", spy)
        runs = {}
        for r_list in ("1", "1,1"):
            argv = ["certify", "--dim", "2", "--colors", "2", "--centers", centers,
                    "--r-list", r_list]
            code, doc = run_json(argv, capsys)
            runs[r_list] = (doc["result"]["rows"], list(built))
            built.clear()
        (single, once), (repeated, twice) = runs["1"], runs["1,1"]
        assert twice == once
        assert repeated == single * 2


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

    @pytest.mark.parametrize("centers", ["sandwich(0,0)", "empty file"])
    def test_an_empty_center_set_is_refused_before_any_scan(
        self, centers, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(cli, "symmetric_pair_scan", never)
        if centers == "empty file":
            path = tmp_path / "none.json"
            path.write_text("[]")
            centers = str(path)
        code, out, err = run_cli(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 1}',
             "--centers", centers],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: at least one center is required\n"

    @pytest.mark.parametrize("radius", ["-1", "-1/2"])
    def test_a_negative_inner_radius_is_a_usage_error(self, radius, tmp_path, capsys):
        path = tmp_path / "origin.json"
        path.write_text("[[0]]")
        code, out, err = run_cli(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 1}',
             "--centers", str(path), f"--inner-radius={radius}", "--samples", "1000"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: inner radius must be non-negative, got {radius}\n"

    def test_a_zero_denominator_radius_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "origin.json"
        path.write_text("[[0]]")
        code, out, err = run_cli(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 1}',
             "--centers", str(path), "--inner-radius", "1/0"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: '1/0' has a zero denominator\n"

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
            ('{"kind": "halfspace", "center": [true, 0]}',
             "bad point [True, 0]: booleans"),
            ('{"kind": "cone", "dim": 2.5}', "rule key 'dim' must be of type int"),
            ('{"kind": "cone", "dim": true}', "rule key 'dim' must be of type int"),
            ('{"kind": "cone", "dim": 2, "note": [1.5]}',
             "a rule holds a float, which is inexact"),
            ('{"kind": "plus0", "base": {"kind": "cone", "dim": 1, "w": NaN}}',
             "a rule holds a float, which is inexact"),
            ('{"kind": "cone", "vertices": 5}',
             "rule key 'vertices' must be of type list"),
            ('{"kind": "pair", "a": [1], "b": [1, 5]}', "dimension mismatch: 1 vs 2"),
            ('{"kind": "pair", "a": [0, 0], "b": [1]}', "dimension mismatch: 2 vs 1"),
            ('{"kind": "plus2", "base": {"kind": "cone", "dim": 3}, "A": 5}',
             "rule key 'A' must be of type list"),
            ('{"kind": "plus2", "base": {"kind": "cone", "dim": 3}, '
             '"A": [[1, 0, 0, 1], [0, 1, 0, 2]], "auxes": []}',
             "rule key 'auxes' must be of type dict"),
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

    @pytest.mark.parametrize("form", ["string", "object"])
    @pytest.mark.parametrize(
        "reader", ["centers", "halfspace center", "pair a", "pair b", "cone vertex",
                   "plus2 A"]
    )
    def test_a_point_that_is_not_a_list_is_a_usage_error(
        self, reader, form, tmp_path, capsys
    ):
        # iterating the string "12" read (1, 2); iterating an object read
        # its keys, so each rule below was built and scanned
        row = "12" if form == "string" else {"1": 0, "2": 5}
        rule = {"kind": "halfspace", "center": [1, 2]}
        centers = [[1, 2]]
        if reader == "centers":
            centers = [row]
        elif reader == "halfspace center":
            rule["center"] = row
        elif reader.startswith("pair"):
            rule = {"kind": "pair", "a": [0, 0], "b": [3, 4]}
            rule[reader[-1]] = row
        elif reader == "cone vertex":
            rule = {"kind": "cone", "vertices": [row, [-1, 0], [0, -2]]}
        else:
            row = "1001" if form == "string" else {"1": 0, "0": 0, "3": 0, "2": 0}
            rule = {"kind": "plus2", "base": {"kind": "cone", "dim": 3},
                    "A": [row, [0, 1, 0, 2]]}
            centers = [[0, 0, 0, 0]]
        path = tmp_path / "centers.json"
        path.write_text(json.dumps(centers))
        code, out, err = run_cli(
            ["coloring-scan", "--rule", json.dumps(rule), "--centers", str(path),
             "--samples", "5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad point {row!r}: a point is a list or tuple")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "rule,dim",
        [
            ({"kind": "cone", "dim": MAX_RULE_DIM + 1}, MAX_RULE_DIM + 1),
            ({"kind": "cone", "dim": 10**9}, 10**9),
            ({"kind": "cone", "vertices": [[0] * 65] * 66}, 65),
            ({"kind": "plus0", "base": {"kind": "cone", "dim": 100}}, 100),
        ],
        ids=["dim-65", "dim-1e9", "66-vertices", "plus0-base"],
    )
    def test_large_cone_rules_are_refused_before_any_simplex_is_built(
        self, rule, dim, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("a simplex was built")

        monkeypatch.setattr(cli, "standard_simplex", never)
        monkeypatch.setattr(cli, "cone_coloring", never)
        code, out, err = run_cli(
            ["coloring-scan", "--rule", json.dumps(rule), "--centers",
             "sandwich(1,-1)"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: a cone rule of dimension {dim} is above the limit of "
            f"{MAX_RULE_DIM}\n"
        )

    def test_the_rule_dim_limit_boundary(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "standard_simplex", reached)
        monkeypatch.setattr(cli, "cone_coloring", reached)
        # the rules of the tests, the scripts, the bench and the README
        # live in dims 1-4
        assert MAX_RULE_DIM == 64
        for dim in (1, 4, MAX_RULE_DIM):
            with pytest.raises(Reached):
                cli.build_rule({"kind": "cone", "dim": dim})
            with pytest.raises(Reached):
                cli.build_rule({"kind": "cone", "vertices": [[0] * dim] * (dim + 1)})
        with pytest.raises(ValueError, match="above the limit"):
            cli.build_rule({"kind": "cone", "dim": MAX_RULE_DIM + 1})
        with pytest.raises(ValueError, match="above the limit"):
            cli.build_rule({"kind": "cone", "vertices": [[0]] * (MAX_RULE_DIM + 2)})

    def test_lifts_past_the_rule_dim_limit_are_refused_before_building(
        self, monkeypatch
    ):
        def lifted(count, rule):
            for _ in range(count):
                rule = {"kind": "plus0", "base": rule}
            return rule

        cone = {"kind": "cone", "dim": 1}
        # each lift adds a dimension: cone(1) under 63 lifts is 64-dimensional
        assert cli.build_rule(lifted(MAX_RULE_DIM - 1, cone)).dim == MAX_RULE_DIM
        # an aux rule has its base's dimension, so its lifts count too
        for rule in (
            {"kind": "plus1", "base": cone, "aux2": lifted(MAX_RULE_DIM - 1, cone)},
            {
                "kind": "plus2",
                "base": cone,
                "A": [[0, 1], [0, 2]],
                "auxes": {"a": lifted(MAX_RULE_DIM - 1, cone)},
            },
        ):
            with pytest.raises(ValueError, match="64 or more lifts"):
                cli.build_rule(rule)

        def never(*args):
            raise AssertionError("the innermost rule was built")

        monkeypatch.setattr(cli, "cone_coloring", never)
        for count in (MAX_RULE_DIM, 5000):
            with pytest.raises(ValueError, match="64 or more lifts"):
                cli.build_rule(lifted(count, cone))

    def test_a_lift_is_refused_when_it_builds_a_rule_above_the_limit(
        self, tmp_path, monkeypatch, capsys
    ):
        # plus0 adds a dimension: over cone 63 it builds a rule of
        # dimension MAX_RULE_DIM, over cone 64 one above it
        def plus0(dim):
            return json.dumps({"kind": "plus0", "base": {"kind": "cone", "dim": dim}})

        centers = tmp_path / "origin.json"
        centers.write_text(json.dumps([[0] * MAX_RULE_DIM]))
        code, doc = run_json(
            ["coloring-scan", "--rule", plus0(MAX_RULE_DIM - 1), "--centers",
             str(centers), "--samples", "3"],
            capsys,
        )
        assert code == 0
        assert doc["result"]["violations"] == []

        def never(*args):
            raise AssertionError("a simplex was built")

        monkeypatch.setattr(cli, "standard_simplex", never)
        code, out, err = run_cli(
            ["coloring-scan", "--rule", plus0(MAX_RULE_DIM), "--centers",
             str(centers)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: a cone rule of dimension {MAX_RULE_DIM} under 1 lift(s) is of "
            f"dimension {MAX_RULE_DIM + 1}, above the limit of {MAX_RULE_DIM}\n"
        )

    def test_halfspace_and_pair_rules_count_toward_the_dimension_limit(self):
        def point(dim):
            return [1] + [0] * (dim - 1)

        def halfspace(dim):
            return {"kind": "halfspace", "center": point(dim)}

        def pair(dim):
            return {"kind": "pair", "a": point(dim), "b": [0] * dim}

        for base in (halfspace, pair):
            assert cli.build_rule(base(MAX_RULE_DIM)).dim == MAX_RULE_DIM
            lifted = {"kind": "plus0", "base": base(MAX_RULE_DIM - 1)}
            assert cli.build_rule(lifted).dim == MAX_RULE_DIM
            with pytest.raises(ValueError, match="above the limit"):
                cli.build_rule(base(MAX_RULE_DIM + 1))
            with pytest.raises(ValueError, match="under 1 lift"):
                cli.build_rule({"kind": "plus0", "base": base(MAX_RULE_DIM)})

    def test_a_halfspace_center_with_no_coordinates_is_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        # every base rule has dimension at least 1, so 63 lifts over one
        # stay within MAX_RULE_DIM and the 64th nested lift is above it
        message = "a halfspace center must have at least one coordinate"
        empty = {"kind": "halfspace", "center": []}
        for lifts in (0, 1, MAX_RULE_DIM - 1):
            rule = empty
            for _ in range(lifts):
                rule = {"kind": "plus0", "base": rule}
            with pytest.raises(ValueError, match=message):
                cli.build_rule(rule)

        def never(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(cli, "symmetric_pair_scan", never)
        code, out, err = run_cli(
            ["coloring-scan", "--rule", json.dumps(empty), "--centers",
             _json_file(tmp_path, [[]])],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_samples_above_the_limit_are_refused(self, monkeypatch, capsys):
        # acceptance scans 25 000 samples and the bench 3 000
        assert MAX_SCAN_SAMPLES == 2**20
        for samples in (MAX_SCAN_SAMPLES + 1, 10**12):
            code, out, err = run_cli(
                ["coloring-scan", "--rule", '{"kind": "cone", "dim": 1}',
                 "--centers", "sandwich(0,0)", "--samples", str(samples)],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert err == (
                f"error: {samples} samples are more than the limit of "
                f"{MAX_SCAN_SAMPLES}\n"
            )
        scanned = []
        monkeypatch.setattr(
            cli,
            "symmetric_pair_scan",
            lambda rule, centers, radius, samples, seed: scanned.append(samples)
            or {"violations": []},
        )
        assert cli.cmd_coloring_scan(
            {"kind": "cone", "dim": 1}, [[0]], MAX_SCAN_SAMPLES, 0
        ) == (0, {"violations": []})
        assert scanned == [MAX_SCAN_SAMPLES]

    @pytest.mark.parametrize("flag", ["--rule", "--points", "--centers"])
    def test_deeply_nested_json_is_a_usage_error(self, flag, tmp_path, capsys):
        path = tmp_path / "deep.json"
        if flag == "--rule":
            lifts = 1000
            path.write_text(
                '{"kind": "plus0", "base": ' * lifts + '{"kind": "cone", "dim": 1}'
                + "}" * lifts
            )
        else:
            path.write_text("[" * 5000 + "]" * 5000)
        argv = {
            "--rule": ["coloring-scan", "--rule", "@" + str(path), "--centers",
                       "sandwich(1,-1)"],
            "--points": ["tshape", "--points", str(path)],
            "--centers": ["certify", "--dim", "2", "--colors", "2", "--centers",
                          str(path)],
        }[flag]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["null", "7", '{"a": [0, 0]}'])
    def test_centers_file_must_hold_rows(self, text, tmp_path, capsys):
        path = tmp_path / "centers.json"
        path.write_text(text)
        code, out, err = run_cli(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 2}',
             "--centers", str(path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
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


def _rerun_argv(command, tmp_path):
    """An argv of ``command`` that sets every flag, each to a value that
    the result depends on where it can: the scan's violations on --seed,
    the certify verdict (Undecided) on --budget.  Only --format json
    prints an envelope."""
    if command == "tshape":
        return ["--points", _json_file(tmp_path, [[0, 0], [2, 0], [0, 2], [1, 1]])]
    if command == "certify":
        centers = _json_file(tmp_path, [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]])
        return ["--dim", "2", "--colors", "3", "--centers", centers,
                "--r-list", "0", "--R-factor", "2", "--budget", "40"]
    if command == "coloring-scan":
        return ["--rule", '{"kind": "halfspace", "center": [0, 0]}',
                "--centers", _json_file(tmp_path, [[5, 5]]), "--samples", "20",
                "--seed", "4", "--inner-radius", "1/2"]
    return {
        "sandwich": ["--k", "2", "--s", "0", "--format", "json"],
        "cover-verify": ["--k", "3", "--s", "1"],
    }[command]


_COMMANDS = ("sandwich", "cover-verify", "tshape", "certify", "coloring-scan")


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

    def test_config_names_every_flag_of_its_command(self, tmp_path, capsys):
        # flags are the only source of a run's parameters, so a flag that
        # config does not echo would leave the record incomplete
        flags = {
            "sandwich": ["--k", "1", "--s", "0"],
            "cover-verify": ["--k", "2", "--s", "0"],
            "tshape": ["--points", _json_file(tmp_path, [[0, 0], [1, 0], [0, 1]])],
            "certify": ["--dim", "2", "--colors", "2", "--centers", "sandwich(1,-1)"],
            "coloring-scan": ["--rule", '{"kind": "cone", "dim": 2}', "--centers",
                              "sandwich(1,-1)", "--samples", "3"],
        }
        echoed = {
            "sandwich": {"format", "k", "s"},
            "cover-verify": {"k", "s"},
            "tshape": {"points"},
            "certify": {"budget", "centers", "colors", "dim", "rFactor", "rList"},
            "coloring-scan": {"centers", "innerRadius", "rule", "samples", "seed"},
        }
        parser = cli._build_parser()
        commands = re.search(r"\{(.*?)\}", parser.format_usage()).group(1)
        assert sorted(flags) == sorted(echoed) == sorted(commands.split(","))
        for command, argv in flags.items():
            dests = set(vars(parser.parse_args([command, *argv]))) - {"command", "out"}
            camel = {re.sub(r"_(.)", lambda m: m.group(1).upper(), d) for d in dests}
            code, doc = run_json([command, *argv], capsys)
            assert code == 0
            assert set(doc["config"]) - {"command"} == camel == echoed[command]

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

    @pytest.mark.parametrize("under", ["file", "directory"])
    def test_an_unwritable_out_path_is_a_usage_error(self, under, tmp_path, capsys):
        # a path below an existing file, or an existing directory
        blocker = tmp_path / "f.json"
        if under == "file":
            blocker.write_text("{}")
            target = blocker / "r.json"
        else:
            blocker.mkdir()
            target = blocker
        argv = ["--out", str(target), "sandwich", "--k", "1", "--s", "0"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        proc = run_module(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
        assert under == "directory" or blocker.read_text() == "{}"

    def test_a_failed_out_leaves_no_new_directory(self, tmp_path, capsys):
        # "a/b/" names a directory: its missing ancestors are made, the
        # open fails, and both are removed again, deepest first
        (tmp_path / "kept").mkdir()
        for rel in ("a/b/", "kept/a/b/"):
            target = str(tmp_path / rel) + "/"
            argv = ["--out", target, "sandwich", "--k", "1", "--s", "0"]
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    def test_out_makes_its_missing_ancestors(self, tmp_path, capsys):
        target = tmp_path / "a" / "b" / ".." / "c" / "r.json"
        argv = ["--out", str(target), "sandwich", "--k", "1", "--s", "-1"]
        assert run_cli(argv, capsys) == (0, "", "")
        assert json.loads(target.read_text())["result"]["cardinality"] == 3
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "c"]

    def test_a_decimal_radius_as_text_is_exact(self, capsys):
        # the text "0.5" is 1/2
        code, doc = run_json(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 2}',
             "--centers", "sandwich(1,-1)", "--samples", "20",
             "--inner-radius", "0.5"],
            capsys,
        )
        assert code == 0
        assert doc["config"]["innerRadius"] == "0.5"
        assert doc["result"]["innerRadius"] == "1/2"

    @pytest.mark.parametrize(
        "radius,message",
        [
            ("1e3", "exponent strings such as '1e3' are not allowed"),
            ("True", "Invalid literal for Fraction: 'True'"),
            ("None", "Invalid literal for Fraction: 'None'"),
        ],
    )
    def test_an_inner_radius_that_is_no_exact_number_is_refused(
        self, radius, message, capsys
    ):
        code, out, err = run_cli(
            ["coloring-scan", "--rule", '{"kind": "cone", "dim": 2}',
             "--centers", "sandwich(1,-1)", "--inner-radius", radius],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_config_alone_reruns_the_result(self, command, tmp_path, capsys):
        # the config block is the whole record of a run: flags rebuilt
        # from it alone print the same config and result
        code, first = run_json([command, *_rerun_argv(command, tmp_path)], capsys)
        rerun = [command]
        for key, value in first["config"].items():
            if key == "command":
                continue
            if key == "rList":
                value = ",".join(map(str, value))
            elif isinstance(value, list):  # the rows a centers flag read
                value = str(tmp_path / "centers.json")
                Path(value).write_text(json.dumps(first["config"][key]))
            elif isinstance(value, dict):
                value = json.dumps(value)
            flag = "--R-factor" if key == "rFactor" else "--" + re.sub(
                r"[A-Z]", lambda m: "-" + m.group().lower(), key
            )
            rerun += [flag, str(value)]
        again, second = run_json(rerun, capsys)
        assert again == code
        assert second["config"] == first["config"]
        assert second["result"] == first["result"]

    def test_r_list_entries_must_be_integers(self, capsys):
        for r_list in ("1.5", "1,x"):
            code, out, err = run_cli(
                ["certify", "--dim", "2", "--colors", "2",
                 "--centers", "sandwich(1,-1)", "--r-list", r_list],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: invalid literal for int()")


def _json_file(tmp_path, value):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(value))
    return str(path)


_CERTIFY = ["certify", "--dim", "2", "--centers", "sandwich(1,-1)", "--r-list", "0,1"]


class TestEmittedLayout:
    """Every envelope is the stdlib's ``json.dumps(indent=2, sort_keys=True)``
    text, on stdout and in an --out file."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["sandwich", "--k", "2", "--s", "0"],
            lambda tmp: ["cover-verify", "--k", "3", "--s", "0"],
            lambda tmp: ["tshape", "--points",
                         _json_file(tmp, [[1, 2, 0], [-3, 5, 0], ["1/2", 0, 1]])],
            lambda tmp: _CERTIFY + ["--colors", "1"],
            lambda tmp: _CERTIFY + ["--colors", "2"],
            lambda tmp: _CERTIFY + ["--colors", "3"],
            lambda tmp: ["certify", "--dim", "2", "--colors", "2", "--centers",
                         _json_file(tmp, [[0, 0], [3, 0]]), "--R-factor", "1"],
            lambda tmp: ["coloring-scan", "--rule",
                         '{"kind": "plus0", "base": {"kind": "cone", "dim": 1}, '
                         '"note": "\\u00e9\\"\\\\\\n"}',
                         "--centers", "sandwich(1,-1)", "--samples", "20"],
        ],
        ids=["sandwich", "cover-verify", "tshape", "certify-1", "certify-2",
             "certify-3", "certify-witness", "coloring-scan"],
    )
    def test_stdout_and_out_file_are_the_stdlib_layout(self, argv, tmp_path, capsys):
        argv = argv(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert err == "" and code in (0, 1)
        target = tmp_path / "out.json"
        assert run_cli(["--out", str(target)] + argv, capsys) == (code, "", "")
        for text in (out, target.read_text(encoding="utf-8")):
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_a_script_document_is_the_stdlib_layout(self, tmp_path, capsys):
        # the experiment scripts write their one document through
        # emit_document: the same layout, floats allowed, and an
        # unwritable --out is one error line and False
        doc = {"rows": [{"seconds": 0.25, "k": 1}], "ok": True, "note": None}
        assert cli.emit_document(doc, None)
        captured = capsys.readouterr()
        assert captured.out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert captured.err == ""
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        assert not cli.emit_document(doc, str(blocker / "x.json"))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_a_deeply_nested_rule_is_echoed(self, capsys):
        # 600 levels under a key no rule reads: json.loads accepts them, and
        # the emitter must not run out of frames where the stdlib did not
        rule = '{"kind": "cone", "dim": 2, "note": ' + "[" * 600 + "]" * 600 + "}"
        argv = ["coloring-scan", "--rule", rule, "--centers", "sandwich(1,-1)",
                "--samples", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_plain_formats_are_written_as_they_are(self, tmp_path, capsys):
        for fmt in ("csv", "pretty"):
            argv = ["sandwich", "--k", "1", "--s", "-1", "--format", fmt]
            code, out, err = run_cli(argv, capsys)
            assert out == cli.cmd_sandwich(1, -1, fmt)[1]
            target = tmp_path / f"out.{fmt}"
            run_cli(["--out", str(target)] + argv, capsys)
            assert target.read_text(encoding="utf-8") == out


_STRINGS = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
              st.characters()),
    max_size=6,
)
_INTEGERS = st.one_of(
    st.integers(-300, 300),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**100, -(10**100)]),
)
_ATOMS = st.one_of(_INTEGERS, st.booleans(), st.none(), _STRINGS)
_DOCUMENTS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
        st.lists(_INTEGERS, max_size=5),
        st.lists(st.one_of(_INTEGERS, st.booleans()), max_size=5).map(tuple),
    ),
    max_leaves=24,
)


class _Level(IntEnum):
    LOW = 1


class TestIndentedJson:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    def test_it_is_the_stdlib_layout(self, doc):
        assert cli.indented_json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_a_bool_among_ints_is_written_as_a_bool(self):
        doc = [1, True, 0, False]
        assert cli.indented_json(doc) == "[\n  1,\n  true,\n  0,\n  false\n]"

    @pytest.mark.parametrize(
        "doc",
        [1.5, [1, 2.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 0}},
         _Level.LOW, [1, _Level.LOW], {"a": (0, _Level.LOW)}],
        ids=["float", "float-in-ints", "nan", "int-key", "none-key",
             "intenum", "intenum-in-ints", "intenum-in-tuple"],
    )
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            cli.indented_json(doc)


class TestArgparseUsage:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sandwich"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cover-verify", "--k", "2.5", "--s", "0"],
             "argument --k: invalid int value: '2.5'"),
            (["cover-verify", "--k", "2", "--s", "True"],
             "argument --s: invalid int value: 'True'"),
            (["sandwich", "--k", "1", "--s", "0", "--format", "xml"],
             "argument --format: invalid choice: 'xml'"),
            (["coloring-scan", "--rule", '{"kind": "cone", "dim": 1}',
              "--centers", "sandwich(0,0)", "--samples", "x"],
             "argument --samples: invalid int value: 'x'"),
            (["certify", "--dim", "2", "--colors", "2", "--centers",
              "sandwich(1,-1)", "--R-factor", "1.5"],
             "argument --R-factor: invalid int value: '1.5'"),
            (["certify", "--dim", "2", "--colors", "2", "--centers",
              "sandwich(1,-1)", "--budget", "[1]"],
             "argument --budget: invalid int value: '[1]'"),
            # --format is a flag of sandwich, not of cover-verify
            (["cover-verify", "--k", "2", "--s", "0", "--format", "json"],
             "unrecognized arguments: --format json"),
            (["certify", "--dim", "2", "--colors", "2", "--centers",
              "sandwich(1,-1)", "--R_factors", "5"],
             "unrecognized arguments: --R_factors 5"),
            # a flag given no value, where a JSON null stood in a file
            (["sandwich", "--k", "--s", "0"],
             "argument --k: expected one argument"),
            (["tshape", "--points"],
             "argument --points: expected one argument"),
            (["coloring-scan", "--rule", '{"kind": "cone", "dim": 2}',
              "--centers", "sandwich(1,-1)", "--inner-radius"],
             "argument --inner-radius: expected one argument"),
        ],
    )
    def test_flag_text_its_type_or_choices_refuse(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert message in captured.err

    def test_config_is_no_option(self, tmp_path, monkeypatch, capsys):
        # every parameter is a flag; --config FILE is refused like any
        # unknown flag, before a command runs
        def never(*args, **kwargs):
            raise AssertionError("a command ran")

        for name in ("cmd_sandwich", "cmd_cover_verify", "cmd_tshape",
                     "cmd_certify", "cmd_coloring_scan"):
            monkeypatch.setattr(cli, name, never)
        config = _json_file(tmp_path, {"k": 1, "s": 0})
        sandwich = ["sandwich", "--k", "1", "--s", "0"]
        for argv in (["--config", config, *sandwich], [*sandwich, "--config", config]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("error:") == 1


class TestReadmeExamples:
    def test_every_command_line_of_the_readme_parses(self):
        # each `centerpole ...` line of a sh block, its backslash
        # continuations joined, so a deleted flag cannot linger there
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(
            r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S
        )
        examples = [
            shlex.split(line, comments=True)[1:]
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("centerpole ")
        ]
        assert len(examples) >= 8
        parser = cli._build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"centerpole {shlex.join(argv)} does not parse")


class TestOneParserPerProcess:
    """``main`` builds its parser once and reuses it: a call after one
    that sets optional flags or a usage error prints what it prints alone."""

    @staticmethod
    def _alone(argv, env):
        proc = run_module(argv, env)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _here(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _contract(text):
        doc = json.loads(text)
        return json.dumps([doc["config"], doc["result"]], sort_keys=True)

    def test_every_call_prints_what_it_prints_alone(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "COLUMNS": "80"}
        # the first call sets flags that the later scan leaves at their
        # defaults, so a value kept in the parser would show there
        centers = tmp_path / "centers.json"
        centers.write_text(json.dumps([[0, 0], [1, 1]]))
        scan = ["coloring-scan", "--rule", '{"kind": "cone", "dim": 2}']
        calls = [
            [*scan, "--centers", str(centers), "--samples", "30", "--seed", "9",
             "--inner-radius", "1/2"],
            scan,
            [*scan, "--centers", str(centers)],
            ["sandwich", "--k", "2", "--s", "0"],
            ["cover-verify", "--k", "3", "--s", "1"],
            ["certify", "--dim", "2", "--colors", "2", "--centers", "sandwich(1,-1)",
             "--r-list", "1,2"],
        ]
        for argv in calls:
            code, out, err = self._here(argv)
            alone = self._alone(argv, env)
            assert code == alone[0], argv
            if code == 2:
                assert (out, err) == alone[1:], argv
                assert err.startswith("usage: centerpole coloring-scan")
            else:
                assert err == alone[2] == "", argv
                assert self._contract(out) == self._contract(alone[1]), argv
        assert self._here(["--help"]) == self._alone(["--help"], env)
        assert self._here(["certify", "--help"]) == self._alone(["certify", "--help"], env)
        assert cli._build_parser.cache_info().misses == 1


def test_module_entry_point_runs_in_subprocess():
    proc = run_module(["sandwich", "--k", "2", "--s", "0"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["cardinality"] == 6


# --- fuzzed argv -----------------------------------------------------
#
# Most flags are well formed, so that the commands run; the rest bend
# one input out of shape.  Half the points files are malformed.  Every draw
# stays cheap: sandwiches of at most 2^11 points or ones the size limit
# refuses, cover-verify at k <= 6 or above MAX_COVER_K, point sets of at
# most six points in at most three dimensions, certify windows in at most
# two dimensions with a small decision budget (or refused by the window
# limit), and coloring scans of at most 20 samples in at most two
# dimensions.

_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "-3/4", "x", "", "1/0", "1e3"]),
    st.booleans(),
    st.none(),
)
_MALFORMED_JSON = st.one_of(
    st.lists(st.lists(_SCALARS, max_size=3), max_size=6).map(json.dumps),
    st.sampled_from(
        [
            "", "[", "[[1, 2]", "{", "null", "7", '"pts"', '{"a": 1}', "[1, 2]",
            "[[[1]]]", "NaN", "[[1e400]]", "[[]]", "[[1], [1, 2]]",
        ]
    ),
)
_JUNK = st.sampled_from(["1.5", "x", "", "1e3"])


def _mostly(valid, odd):
    """``valid`` in seven draws of eight, ``odd`` in the eighth."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else valid)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def _rows(dim, coords, min_size=0):
    row = st.lists(coords, min_size=dim, max_size=dim)
    return st.lists(row, min_size=min_size, max_size=6).map(json.dumps)


_ANY_INT = st.integers(-(10**6), 10**6)


@st.composite
def _argv(draw, tmp):
    def json_file(text):
        path = tmp / f"input{draw(st.integers(0, 10**9))}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    command = draw(
        st.sampled_from(["sandwich", "cover-verify", "tshape", "certify", "coloring-scan"])
    )
    if command == "sandwich":
        refused = st.one_of(st.integers(-3, -1), st.integers(20, 10**6), _JUNK)
        k = draw(_mostly(st.integers(0, 10), refused))
        s = draw(_mostly(st.integers(-3, 12), st.one_of(_ANY_INT, _JUNK)))
        formats = _mostly(st.sampled_from(["json", "csv", "pretty"]), st.just("xml"))
        argv = ["sandwich", "--k", str(k), "--s", str(s)]
        return argv + draw(_flag("--format", formats))
    if command == "cover-verify":
        refused = st.one_of(
            st.integers(-3, 0), st.integers(MAX_COVER_K + 1, 10**6), _JUNK
        )
        k = draw(_mostly(st.integers(1, 6), refused))
        in_range = st.integers(-1, k - 2) if isinstance(k, int) and k > 0 else _ANY_INT
        s = draw(_mostly(in_range, st.one_of(_ANY_INT, _JUNK)))
        return ["cover-verify", "--k", str(k), "--s", str(s)]
    if command == "tshape":
        dim = draw(st.integers(1, 3))
        coords = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "5/4"]))
        points = json_file(draw(st.one_of(_rows(dim, coords), _MALFORMED_JSON)))
        return ["tshape", "--points", points]
    dim = draw(st.integers(1, 2))
    if command == "coloring-scan":
        return _scan_argv(draw, dim, json_file)
    centers = _mostly(
        st.one_of(
            st.builds("sandwich({},{})".format, st.just(dim - 1), st.integers(-3, 3)),
            _rows(dim, st.integers(-2, 2), min_size=1).map(json_file),
        ),
        st.one_of(
            _MALFORMED_JSON.map(json_file),
            st.sampled_from(
                ["sandwich(40,3)", "sandwich(-1,0)", "sandwich(x)", "/nonexistent.json"]
            ),
            st.sampled_from(
                [[[2**63, 0]], [[2**63 - 1, 0]], [[1000, 0]], [[0, 0], [-(2**63) - 1, 0]]]
            ).map(json.dumps).map(json_file),
        ),
    )
    r_lists = _mostly(
        st.sampled_from(["1", "0,1", "2"]), st.sampled_from(["-1", "", "a", "1.5"])
    )
    flags = {
        "--dim": _mostly(st.just(dim), st.one_of(st.integers(-1, 3), _JUNK)),
        "--colors": _mostly(st.integers(1, 3), st.integers(-2, 0)),
        "--centers": centers,
        "--budget": _mostly(st.integers(0, 40), st.integers(-3, -1)),
    }
    argv = ["certify"]
    for name, values in flags.items():
        argv += [name, str(draw(values))]
    return (
        argv
        + draw(_flag("--r-list", r_lists))
        + draw(_flag("--R-factor", _mostly(st.integers(1, 2), st.integers(-1, 0))))
    )


_RULES = [
    {"kind": "cone", "dim": 1},
    {"kind": "cone", "dim": 2},
    {"kind": "halfspace", "center": [0, 0]},
    {"kind": "pair", "a": [0, 0], "b": [2, 0]},
    {"kind": "plus0", "base": {"kind": "cone", "dim": 1}},
]
_MALFORMED_RULES = [
    {"kind": "cone"},
    {"kind": "cone", "dim": 2.5},
    {"kind": "cone", "dim": "2"},
    {"kind": "cone", "dim": 0},
    {"kind": "cone", "vertices": 5},
    {"kind": "cone", "vertices": [[1, 0], [0, 1]]},
    {"kind": "halfspace", "center": "x"},
    {"kind": "pair", "a": [0, 0], "b": [0, 0]},
    {"kind": "pair", "a": [0, 0], "b": [1]},
    {"kind": "plus1", "base": {"kind": "cone", "dim": 1}},
    {"kind": "plus2", "base": {"kind": "cone", "dim": 3}, "A": 5},
    {"kind": "plus2", "base": {"kind": "cone", "dim": 3},
     "A": [[1, 0, 0, 1], [0, 1, 0, 2]], "auxes": []},
    {"kind": 7},
    [1],
    None,
]


def _scan_argv(draw, dim, json_file):
    rule = draw(
        _mostly(
            st.sampled_from(_RULES).map(json.dumps),
            st.one_of(st.sampled_from(_MALFORMED_RULES).map(json.dumps), _MALFORMED_JSON),
        )
    )
    if draw(st.booleans()):
        rule = "@" + json_file(rule)
    coords = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3"]))
    centers = _mostly(
        st.one_of(
            st.builds("sandwich({},{})".format, st.just(dim - 1), st.integers(-3, 3)),
            _rows(dim, coords, min_size=1).map(json_file),
        ),
        st.one_of(
            _MALFORMED_JSON.map(json_file),
            st.sampled_from(["sandwich(40,3)", "sandwich(x)", "/nonexistent.json"]),
        ),
    )
    radii = _mostly(
        st.sampled_from(["0", "1/2", "3"]),
        st.sampled_from(["x", "1/0", "-1", "0.5", "1e3", ""]),
    )
    return (
        ["coloring-scan", "--rule", rule, "--centers", draw(centers)]
        + draw(_flag("--samples", _mostly(st.integers(1, 20), st.integers(-2, 0))))
        + draw(_flag("--seed", _mostly(st.integers(0, 9), _JUNK)))
        + draw(_flag("--inner-radius", radii))
    )


class TestFuzzedArgv:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_no_traceback(self, data, tmp_path_factory):
        tmp = tmp_path_factory.getbasetemp()
        argv = data.draw(_argv(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().count("error:") == 1, (argv, err.getvalue())
            return
        assert err.getvalue() == ""
        if "--format" in argv and argv[argv.index("--format") + 1] != "json":
            assert code == 0
            return
        result = json.loads(out.getvalue())["result"]
        if argv[0] == "cover-verify":
            failed = bool(result["failures"])
        elif argv[0] == "coloring-scan":
            failed = bool(result["violations"])
        else:
            failed = False
        assert code == (1 if failed else 0), (argv, result)
