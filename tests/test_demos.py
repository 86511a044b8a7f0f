"""Smoke test: the quick demos run to completion against the current API.

``demos/04_desk_pipeline.py`` trains a desk model (~12 s) and is left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_mass_deviation_metrics.py",
    "02_spectrum_preprocessing.py",
    "03_reranker_model.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
