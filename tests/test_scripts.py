"""The experiment scripts refuse inputs whose cost has no bound."""
import importlib.util
import json
from pathlib import Path

import pytest

from centerpole.cli import MAX_COVER_K

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "run_covering_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("run_covering_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCoveringSweep:
    def test_k_max_above_the_cover_limit_is_refused(self, monkeypatch, capsys):
        sweep = load_sweep()

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
        assert load_sweep().main(["--k-max", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kMax"] == 2
        assert doc["failureCount"] == 0
        assert doc["pairs"] == 3
