"""Golden outputs: sha256 digests of what the CLI writes for each stock file.

A change that moves any digest changes the program's output for a shipped
scenario; such a change must say why in CHANGES.md and update golden.json.
The compare digest covers the polynomial columns only, which do not depend on
the BLAS build. The corrector's column is pinned by value instead, at a
relative tolerance of 1e-6: its least-squares solve rounds differently with
the BLAS build and thread count (1 and 2 OpenBLAS threads differ by 3.5e-8).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from drsim import cli
from drsim.harness import load_study, run_comparison

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["run"]))
def test_run_outputs_match_golden(name, tmp_path, capsys):
    cli.main(["run", str(SCENARIO_DIR / f"{name}.yaml"), "--out", str(tmp_path)])
    capsys.readouterr()
    written = (tmp_path / "report.csv").read_text(encoding="utf-8") + (
        tmp_path / "errors.csv"
    ).read_text(encoding="utf-8")
    assert sha256(written) == GOLDEN["run"][name]


def test_every_stock_run_file_is_pinned():
    run_files = {
        p.stem for p in SCENARIO_DIR.glob("*.yaml") if p.stem not in GOLDEN["compare"]
    }
    assert run_files == set(GOLDEN["run"])


@pytest.mark.parametrize("name", sorted(GOLDEN["compare"]))
def test_compare_polynomial_columns_match_golden(name):
    study = load_study(SCENARIO_DIR / f"{name}.yaml")
    result = run_comparison(dataclasses.replace(study, predictors=("first", "second")))
    assert sha256(result.to_csv()) == GOLDEN["compare"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["compare_anfis"]))
def test_compare_anfis_column_matches_golden(name):
    study = load_study(SCENARIO_DIR / f"{name}.yaml")
    result = run_comparison(dataclasses.replace(study, predictors=("anfis",)))
    expected = GOLDEN["compare_anfis"][name]
    np.testing.assert_allclose(result.mae["anfis"], expected, rtol=1e-6, atol=0)
