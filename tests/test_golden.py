"""Golden outputs: sha256 digests of what the CLI writes for each stock file.

A change that moves any digest changes the program's output for a shipped
scenario; such a change must say why in CHANGES.md and update golden.json.
The compare digest covers the polynomial columns only, which do not depend on
the BLAS build. The corrector's column is pinned by value instead, at a
relative tolerance of 1e-6: the block Gram products of its consequent solve
round differently with the BLAS build and thread count (1 and 2 OpenBLAS threads
differ by about 1e-11). The gated anfis runs use a bundle with fixed
consequents, built here and trained by nothing, so no solve reaches their digest.

So the anfis column of `drsim compare` is byte-identical only at a pinned BLAS
thread count: its 9-digit text can differ between thread counts wherever a value
lies near a rounding boundary (README, "Golden outputs"). The tolerance covers
that rounding alone; a change that moves the column by more must re-pin it.

The bundle `drsim train` writes and the whole CSV `drsim compare` writes, anfis
column included, are pinned by digest, bit for bit, at one OpenBLAS thread:
each runs in a child process started with the thread count pinned, whatever
count the suite itself runs at. So is the stock run gated by a trained
corrector: the sim_anfis benchmark's bundle, trained and run through the CLI.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from drsim import cli
from drsim.anfis import AnfisBundle, build_network
from drsim.harness import load_study, run_comparison, scenario_from_dict, sweep, sweep_csv
from drsim.qos_metrics import NOTHING_DISPLAYED
from test_harness import bench_module

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(scenario_path: Path, out: Path) -> str:
    """sha256 of the report.csv + errors.csv that `drsim run --out` writes."""
    cli.main(["run", str(scenario_path), "--out", str(out)])
    written = (out / "report.csv").read_text(encoding="utf-8") + (
        out / "errors.csv"
    ).read_text(encoding="utf-8")
    return sha256(written)


@pytest.mark.parametrize("name", sorted(GOLDEN["run"]))
def test_run_outputs_match_golden(name, tmp_path, capsys):
    assert run_digest(SCENARIO_DIR / f"{name}.yaml", tmp_path) == GOLDEN["run"][name]
    capsys.readouterr()


def fixed_grid_bundle() -> AnfisBundle:
    """Three 7^3-grid networks with fixed nonzero consequents."""
    nets = []
    for axis in range(3):
        net = build_network(
            [("deviation", -1.0, 1.0), ("velocity", -12.0, 12.0), ("orientation", -4.0, 4.0)],
            n_terms=7,
        )
        net.z = np.linspace(-0.05, 0.05, net.n_rules) * (axis + 1)
        nets.append(net)
    return AnfisBundle(nets, h_ref=0.3, feature_tick=0.1)


def anfis_run_digest(name: str, tmp_path: Path) -> str:
    """The stock run file gated by the fixed grid bundle, saved and loaded as the CLI does."""
    fixed_grid_bundle().save(tmp_path / "bundle.json")
    cfg = yaml.safe_load((SCENARIO_DIR / f"{name}.yaml").read_text(encoding="utf-8"))
    cfg["dr"].update(predictor="anfis", anfis_net="bundle.json")
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return run_digest(path, tmp_path / "out")


@pytest.mark.parametrize("name", sorted(GOLDEN["run_anfis"]))
def test_gated_anfis_run_matches_golden(name, tmp_path, capsys):
    assert anfis_run_digest(name, tmp_path) == GOLDEN["run_anfis"][name]
    capsys.readouterr()


# A loss sweep of sinusoid_tight over the benchmark's jittery, reordering link
# with blend convergence: pins the channel's loss and jitter fates, and the
# stale discard and blend paths they reach, in tier 1.
SWEEP_LINK = {"base_delay": 1.0, "jitter": 0.9, "reorder_allowed": True}
SWEEP_LOSSES = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0]


def test_jittery_loss_sweep_matches_golden():
    cfg = yaml.safe_load((SCENARIO_DIR / "sinusoid_tight.yaml").read_text(encoding="utf-8"))
    cfg["channel"] = dict(cfg["channel"], **SWEEP_LINK)
    cfg["dr"] = dict(cfg["dr"], convergence="blend", blend_window=0.5)
    cfg["profile"] = {"name": "loosely-coupled"}
    rows = sweep(scenario_from_dict(cfg), "loss", SWEEP_LOSSES)
    assert [r.error for r in rows] == [""] * 5 + [NOTHING_DISPLAYED]  # loss 1 displays nothing
    assert sha256(sweep_csv("loss", rows)) == GOLDEN["sweep_csv"]["sinusoid_tight"]


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


def cli_at_one_thread(*args: str) -> None:
    """Runs `drsim <args>` in a child process with one OpenBLAS thread."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
    subprocess.run(
        [sys.executable, "-m", "drsim.cli", *args], env=env, check=True, capture_output=True
    )


@pytest.mark.parametrize("name", sorted(GOLDEN["compare_csv"]))
def test_compare_csv_matches_golden(name, tmp_path):
    """`drsim compare <study> --out` at one BLAS thread writes the pinned CSV,
    anfis column included."""
    out = tmp_path / "compare.csv"
    cli_at_one_thread("compare", str(SCENARIO_DIR / f"{name}.yaml"), "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["compare_csv"][name]


def test_trained_corrector_gated_run_matches_golden(tmp_path, monkeypatch):
    """The sim_anfis benchmark's bundle, trained by `drsim train` with its recipe
    (bench/workloads.py) at one BLAS thread, gates its stock run file through
    `drsim run --out` to the pinned report.csv + errors.csv."""
    workloads = bench_module(monkeypatch, "workloads")
    name = Path(workloads.ANFIS_SOURCE).stem
    src = yaml.safe_load((SCENARIO_DIR / workloads.ANFIS_SOURCE).read_text(encoding="utf-8"))
    study = {
        "seed": src["seed"],
        "tick": src["tick"],
        "duration": workloads.ANFIS_TRAIN_DURATION,
        "trajectory": src["trajectory"],
        "horizons": [workloads.ANFIS_HORIZON],
        "predictors": ["second", "anfis"],
        "train": workloads.ANFIS_TRAIN,
    }
    (tmp_path / "study.yaml").write_text(yaml.safe_dump(study), encoding="utf-8")
    run = dict(src, dr=dict(src["dr"], predictor="anfis", anfis_net="bundle.json"))
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(run), encoding="utf-8")
    horizon = str(workloads.ANFIS_HORIZON)
    cli_at_one_thread("train", str(tmp_path / "study.yaml"), "--save", str(tmp_path / "bundle.json"),
                      "--horizon", horizon)
    out = tmp_path / "out"
    cli_at_one_thread("run", str(tmp_path / "run.yaml"), "--out", str(out))
    written = (out / "report.csv").read_text(encoding="utf-8") + (
        out / "errors.csv"
    ).read_text(encoding="utf-8")
    assert sha256(written) == GOLDEN["run_trained"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["train"]))
def test_trained_bundle_matches_golden(name, tmp_path):
    """`drsim train <study> --save` at one BLAS thread writes the pinned bundle."""
    saved = tmp_path / "bundle.json"
    cli_at_one_thread("train", str(SCENARIO_DIR / f"{name}.yaml"), "--save", str(saved))
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == GOLDEN["train"][name]
