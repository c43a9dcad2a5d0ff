"""The experiment scripts refuse inputs whose cost has no bound."""
import importlib.util
import json
from pathlib import Path

import pytest

from centerpole.cli import MAX_COVER_K

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"] and not doc["gridDraws"]["ok"]
        assert doc["gridDraws"]["seeds"][0]["verdict"] == "error"

    def test_without_grid_draws_the_document_has_no_grid_keys(self, capsys):
        survey = load_script("run_tshape_survey")
        assert survey.main(["--dims", "2", "--trials", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "gridDraws" not in doc and "gridTiming" not in doc
