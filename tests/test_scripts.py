"""The experiment scripts refuse inputs whose cost has no bound, write
--out as the CLI does, and report an unwritable --out as a usage error.
The T-shape survey's sampled check of the known t values lives in its
script, and its document is pinned by a digest."""
import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from centerpole.cli import MAX_COVER_K, OUTPUT_DIR_ENV

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL_RUNS = [
    ("run_covering_sweep", ["--k-max", "1"]),
    ("run_tshape_survey", ["--dims", "2", "--trials", "1"]),
    ("run_certifier_evidence", []),
]


@pytest.mark.parametrize("name,argv", SMALL_RUNS)
def test_an_unwritable_out_exits_2_with_one_error_line(name, argv, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    target = blocker / "sub" / "x.json"
    assert load_script(name).main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("name,argv", SMALL_RUNS)
def test_out_creates_missing_parents_under_the_output_dir(
    name, argv, tmp_path, monkeypatch, capsys
):
    # the scripts write --out as the CLI does: relative to
    # CENTERPOLE_OUT_DIR when it is set, and missing parents are made
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert load_script(name).main(argv + ["--out", "missing/deeper/x.json"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "missing" / "deeper" / "x.json").read_text())


class TestCoveringSweep:
    def test_k_max_above_the_cover_limit_is_refused(self, monkeypatch, capsys):
        sweep = load_script("run_covering_sweep")

        def reached(k, s):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(sweep, "verify_covering_lemma", reached)
        with pytest.raises(SystemExit) as exit_info:
            sweep.main(["--k-max", str(MAX_COVER_K + 1)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--k-max {MAX_COVER_K + 1} is above the limit" in captured.err

    def test_small_k_max_runs(self, capsys):
        assert load_script("run_covering_sweep").main(["--k-max", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kMax"] == 2
        assert doc["failureCount"] == 0
        assert doc["pairs"] == 3


def refused(main, argv, capsys) -> str:
    """The stderr of a run that must exit 2 through ``parser.error``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


class TestTShapeSurveyRefusals:
    """Malformed input exits 2 before any trial or draw runs."""

    @pytest.fixture
    def survey(self, monkeypatch):
        survey = load_script("run_tshape_survey")

        def never(*args):
            raise AssertionError("a trial or a draw ran")

        monkeypatch.setattr(survey, "verify_t_value_bounds", never)
        monkeypatch.setattr(survey, "is_t_shaped", never)
        return survey

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--dims", "5"], "--dims 5: known t values cover dimensions 1 through 4"),
            (["--dims", "0"], "--dims 0: known t values"),
            (["--dims", "2,-1"], "--dims -1: known t values"),
            (["--dims", "x"], "--dims must list integers, got 'x'"),
            (["--dims", "2,3.5"], "--dims must list integers"),
            (["--dims", ","], "--dims must name at least one dimension"),
            (["--dims", "2,2"], "--dims names 2 more than once"),
            (["--dims", "4,3,2,3,4"], "--dims names 3, 4 more than once"),
            (["--trials", "-3"], "--trials must be from 0 to 1024, got -3"),
            (["--trials", "1025"], "--trials must be from 0 to 1024, got 1025"),
            (["--trials", "1000000000"], "--trials must be from 0 to 1024"),
            (["--grid-draws", "-1"], "--grid-draws must be from 0 to 1024, got -1"),
            (["--grid-draws", "1025"], "--grid-draws must be from 0 to 1024, got 1025"),
            (["--grid-draws", "10000000"], "--grid-draws must be from 0 to 1024"),
        ],
    )
    def test_malformed_input_exits_2_before_any_trial(
        self, survey, argv, message, capsys
    ):
        assert survey.MAX_TSHAPE_TRIALS == survey.MAX_GRID_DRAWS == 1024
        assert message in refused(survey.main, argv, capsys)

    def test_counts_at_the_limits_run(self, monkeypatch, capsys):
        survey = load_script("run_tshape_survey")
        bounds, decided = [], []
        monkeypatch.setattr(
            survey,
            "verify_t_value_bounds",
            lambda n, trials, seed: bounds.append((n, trials)) or {"ok": True},
        )
        outcome = SimpleNamespace(t_shaped=True, detail="")
        monkeypatch.setattr(
            survey, "is_t_shaped", lambda points: decided.append(points) or outcome
        )
        trials = survey.MAX_TSHAPE_TRIALS
        argv = ["--dims", "1,4", "--trials", str(trials)]
        assert survey.main(argv + ["--grid-draws", str(survey.MAX_GRID_DRAWS)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        assert bounds == [(1, trials), (4, trials)]
        assert len(decided) == survey.MAX_GRID_DRAWS


class TestBoundsReport:
    def test_plane_report(self):
        survey = load_script("run_tshape_survey")
        report = survey.verify_t_value_bounds(2, trials=10, seed=7)
        assert report["ok"]
        assert report["t_value"] == survey.KNOWN_T_VALUES[2] == 3
        assert report["random_size"] == 2
        assert report["random_failures"] == []
        assert report["witness_size"] == 3
        assert not report["witness_t_shaped"]

    def test_space_report(self):
        report = load_script("run_tshape_survey").verify_t_value_bounds(
            3, trials=3, seed=11
        )
        assert report["ok"]
        assert report["witness_size"] == 7


# sha256 of the survey document below, each row's seconds and the
# gridTiming key dropped, as json.dumps(doc, sort_keys=True), computed at
# 2eff9f6, where the sampled check and its random sets still sat in
# tshape: a change to any verdict, set or key of the survey changes it
SURVEY_DIGEST = "ea6c1ddafd27288e8cdef3ec73fb5eb03be1ec6d8b6b4937c5473c729618d6a3"


class TestTShapeSurveyRows:
    def test_a_row_is_the_bound_check_at_the_seed_plus_its_dimension(self, capsys):
        # the survey is the one runner of the sampled t-value check: its
        # row of d at --seed S is verify_t_value_bounds(d, T, S + d) and
        # its seconds, so the report of the removed `tshape --trials T
        # --seed S --bound-dim d` is the row of d at --seed S - d
        survey = load_script("run_tshape_survey")
        assert survey.main(["--dims", "2", "--trials", "2", "--seed", "7"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert type(row.pop("seconds")) is float
        assert row == survey.verify_t_value_bounds(2, 2, 9)

    def test_the_survey_document_is_pinned(self, capsys):
        survey = load_script("run_tshape_survey")
        argv = ["--dims", "2,3,4", "--trials", "20", "--seed", "0", "--grid-draws", "3"]
        assert survey.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        for row in doc["rows"]:
            del row["seconds"]
        del doc["gridTiming"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SURVEY_DIGEST

    def test_a_failed_verification_in_a_trial_is_a_failure(self, monkeypatch, capsys):
        # only the random sets, two points each in the plane, fail their
        # verification: each trial is listed, the witness still decides
        survey = load_script("run_tshape_survey")
        decide = survey.is_t_shaped

        def failing_trials(points):
            if len(points) == 2:
                raise RuntimeError("certificate fails verification")
            return decide(points)

        monkeypatch.setattr(survey, "is_t_shaped", failing_trials)
        argv = ["--dims", "2", "--trials", "3", "--seed", "0"]
        assert survey.main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        (row,) = doc["rows"]
        assert len(row["random_failures"]) == 3
        assert all(len(points) == 2 for points in row["random_failures"])
        assert row["witness_t_shaped"] is False
        assert not row["ok"] and not doc["ok"]


class TestTShapeSurveyGridDraws:
    def test_two_grid_draws(self, capsys):
        survey = load_script("run_tshape_survey")
        assert survey.main(["--dims", "2", "--trials", "1", "--grid-draws", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
        grid = doc["gridDraws"]
        assert (grid["draws"], grid["dim"], grid["values"]) == (19, 4, [-1, 0, 1])
        # seed 1 is the 18-point draw no cover of at most 3 hyperplanes fits
        assert [(row["seed"], row["distinct"], row["verdict"]) for row in grid["seeds"]] == [
            (1, 18, "no"),
            (2, 17, "yes"),
        ]
        # timing sits apart from the verdicts, so reruns diff clean without it
        assert set(doc["gridTiming"]) == {"slowestSeed", "seconds"}
        assert doc["gridTiming"]["slowestSeed"] in (1, 2)
        assert "seconds" not in json.dumps(grid)

    def test_a_failed_verification_exits_1(self, monkeypatch, capsys):
        survey = load_script("run_tshape_survey")

        def failing(points):
            raise RuntimeError("search produced a certificate that fails verification")

        monkeypatch.setattr(survey, "is_t_shaped", failing)
        assert survey.main(["--dims", "2", "--trials", "1", "--grid-draws", "1"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        doc = json.loads(captured.out)
        assert not doc["ok"] and not doc["gridDraws"]["ok"]
        assert doc["gridDraws"]["seeds"][0]["verdict"] == "error"
        # the trial and the witness are reported too, not raised
        (row,) = doc["rows"]
        assert len(row["random_failures"]) == 1
        assert row["witness_t_shaped"] == "error"
        assert not row["ok"]

    def test_without_grid_draws_the_document_has_no_grid_keys(self, capsys):
        survey = load_script("run_tshape_survey")
        assert survey.main(["--dims", "2", "--trials", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "gridDraws" not in doc and "gridTiming" not in doc


class TestCertifierEvidenceFlags:
    @pytest.mark.parametrize(
        "argv", [["--skip-hard"], ["--with-4d"], ["--budget", "0"]]
    )
    def test_a_deleted_flag_exits_2_before_any_schedule(
        self, argv, monkeypatch, capsys
    ):
        # the script takes only --out: every row always runs, at the
        # default budget
        evidence = load_script("run_certifier_evidence")

        def never(*args, **kwargs):
            raise AssertionError("a schedule ran")

        monkeypatch.setattr(evidence, "certify_schedule", never)
        err = refused(evidence.main, argv, capsys)
        assert f"unrecognized arguments: {' '.join(argv)}" in err


class TestCertifierEvidence4d:
    def test_the_4d_nucleus_is_forced_at_outer_4(self, capsys):
        # the real schedule, certify_schedule(sandwich(3,1), 4, [1],
        # r_factor=2): outer 3 is Colorable and outer 4 Forced on parity
        # block 0
        evidence = load_script("run_certifier_evidence")
        assert evidence.main([]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["cases"][-1]
        assert row["name"] == "4d-nucleus"
        assert row["verdicts"] == row["expected"] == ["Forced"]
        assert row["provedAtOuter"] == [4]
        assert row["ok"] and doc["ok"]
        assert [case["name"] for case in doc["cases"]] == [
            "singleton-dim1",
            "singleton-dim2",
            "singleton-dim3",
            "generic-pair",
            "planar-nucleus",
            "spatial-nucleus",
            "4d-nucleus",
        ]
        # a one-color singleton is Forced at its first window; the first
        # Colorable two-color row solves its first two windows and then
        # the schedule's largest window at its inner radius, which holds
        # both rows' R, so the second row builds none; a nucleus row is
        # Forced at its second window, before R
        assert [case["windowsSolved"] for case in doc["cases"]] == [
            [1],
            [1],
            [1],
            [3, 0],
            [2, 2, 2],
            [2, 2],
            [2],
        ]
