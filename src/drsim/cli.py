"""Command-line front end: run scenarios, train predictors, compare, sweep.

Exit codes: 0 for a pass-verdict run, 2 when the QoS verdict fails, 1 on any
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .anfis import AXIS_NAMES
from .harness import (
    SWEEP_AXES,
    load_scenario,
    load_study,
    run_comparison,
    run_scenario,
    sweep,
    sweep_csv,
    train_bundle,
)
from .qos_metrics import CoherenceReport


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    result = run_scenario(sc)
    report = result.report
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        (out / "report.csv").write_text(
            CoherenceReport.csv_header() + "\n" + report.to_csv_row() + "\n", encoding="utf-8"
        )
        (out / "errors.csv").write_text(result.series.to_csv(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 2


def _cmd_train(args) -> int:
    study = load_study(args.study)
    horizon = args.horizon if args.horizon is not None else max(study.horizons)
    bundle = train_bundle(study, horizon)
    bundle.save(args.save)
    print(f"trained corrector bundle at horizon {horizon} ticks -> {args.save}")
    for axis, net in zip(AXIS_NAMES, bundle.networks):
        terms = ", ".join(f"{spec.name} {spec.n_terms}" for spec in net.inputs)
        print(f"  {axis}: {net.n_rules} rules; terms {terms}")
    return 0


def _cmd_compare(args) -> int:
    study = load_study(args.study)
    result = run_comparison(study)
    csv_text = result.to_csv()
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    rows = sweep(sc, args.axis, values)
    csv_text = sweep_csv(args.axis, rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsim",
        description="Deterministic dead-reckoning testbed: state-update gating, "
        "lossy channels, coherence metrics and predictor comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="directory for report.txt/report.csv/errors.csv")
    p_run.set_defaults(func=_cmd_run)

    p_train = sub.add_parser(
        "train",
        help="train a corrector bundle from a study file",
        description="Train the corrector bundle of one horizon. It trains together with the "
        "study's own horizons, on the rows they all share: those whose target the longest "
        "horizon reaches before the split. If the split leaves too few such rows, training "
        "fails and names that longest horizon.",
    )
    p_train.add_argument("study")
    p_train.add_argument("--save", required=True, help="output bundle path (json)")
    p_train.add_argument(
        "--horizon", type=int, help="training horizon in ticks (default: the study's longest)"
    )
    p_train.set_defaults(func=_cmd_train)

    p_cmp = sub.add_parser("compare", help="horizon-vs-predictor error table")
    p_cmp.add_argument("study")
    p_cmp.add_argument("--out", help="output CSV path")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="re-run a scenario across one axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
