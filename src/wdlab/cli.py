"""Command-line entry points: training runs, eta/beta grids, oracle
verification, mechanism replication, and one-off checkpoint diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import config as config_mod
from . import errors, nn, replicate, training, verify

_USER_ERRORS = (
    errors.ShapeError, errors.DomainError, errors.CapacityError,
    errors.DegenerateError, errors.ContractError, errors.DataFormatError,
    errors.InstabilityError, errors.NumericalError, FileNotFoundError,
)


def _strict_json(payload):
    """`payload` as JSON data with every NaN or infinity replaced by None,
    which strict JSON writes as null."""
    return json.loads(json.dumps(payload), parse_constant=lambda _: None)


def _base_config(args) -> config_mod.ExperimentConfig:
    cfg = (config_mod.load_config(args.config) if args.config
           else config_mod.ExperimentConfig())
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"run.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"run.out={args.out}")
    if overrides:
        cfg = config_mod.apply_overrides(cfg, overrides)
    return cfg


def _add_config_flags(parser):
    parser.add_argument("--config", help="INI config file (defaults apply otherwise)")
    parser.add_argument("--seed", type=int, help="override run.seed")
    parser.add_argument("--out", help="override run.out (output directory)")
    parser.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override any config value; repeatable")


def _cmd_train(args) -> int:
    cfg = _base_config(args)
    try:
        result = training.train(cfg)
    except training.TrainingDiverged as exc:
        print(f"diverged: {exc.record}", file=sys.stderr)
        return 1
    final = result.final
    print(f"wrote {result.metrics_path}")
    print(f"epoch {final.epoch}: train loss {final.train_loss:.6f} "
          f"acc {final.train_acc:.4f} | test loss {final.test_loss:.6f} "
          f"acc {final.test_acc:.4f}")
    return 0


def _parse_axis(text):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise errors.DomainError(f"bad grid axis {text!r}: expected comma-separated floats")
    if not values:
        raise errors.DomainError(f"bad grid axis {text!r}: no values")
    return values


def _cmd_grid(args) -> int:
    cfg = _base_config(args)
    result = training.grid(cfg, _parse_axis(args.etas), _parse_axis(args.betas),
                           jobs=args.jobs)
    for cell in result.cells:
        acc = "-" if cell.status != "trained" else f"{cell.val_accuracy:.4f}"
        print(f"eta={cell.eta:g} beta={cell.beta:g}: {cell.status} val_acc={acc}")
    best = result.best
    print(f"best: eta={best.eta:g} beta={best.beta:g} "
          f"val_acc={best.val_accuracy:.4f}; retrained on train+val "
          f"-> {result.final.out_dir}")
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_all(seed=args.seed, trials=args.trials, only=args.only)
    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        print(f"{flag} {rep.name}: max rel err {rep.max_rel_error:.3g} "
              f"(tol {rep.tolerance:g}, {rep.trials} trials)")
    if args.json:
        payload = _strict_json([rep.to_dict() for rep in reports])
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_replicate(args) -> int:
    out = Path(args.out or "replication")
    runners = {"m1": replicate.mechanism1, "m2": replicate.mechanism2,
               "m3": replicate.mechanism3}
    if args.only is None:
        summary = replicate.replicate_all(out, make_plots=not args.no_plots)
        passed = summary["all_passed"]
        for key in ("m1", "m2", "m3"):
            state = "pass" if summary[key]["passed"] else "FAIL"
            print(f"{key} ({summary[key]['mechanism']}): {state}")
    else:
        summary = runners[args.only](out / args.only, make_plots=not args.no_plots)
        passed = summary["passed"]
        print(f"{args.only} ({summary['mechanism']}): "
              f"{'pass' if passed else 'FAIL'}")
    print(f"summaries under {out}")
    return 0 if passed else 1


def _cmd_diag(args) -> int:
    ckpt = Path(args.checkpoint)
    spec, params, bn_state, seed, epoch = nn.load_checkpoint(ckpt)
    if spec.has_bn and bn_state is None:
        print("warning: the checkpoint predates stored batch-norm statistics; "
              "evaluating with running mean 0 and variance 1", file=sys.stderr)
    cfg_path = Path(args.config) if args.config else ckpt.parent / "config.ini"
    cfg = config_mod.load_config(cfg_path)
    record = training.record_epoch(cfg, spec, training.build_dataset(cfg), epoch, params,
                                   bn_state)
    payload = dataclasses.asdict(record)
    payload["checkpoint"] = str(ckpt)
    payload["seed"] = seed
    text = json.dumps(_strict_json(payload), indent=2)
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdlab",
        description="weight-decay mechanism laboratory for small MLPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    _add_config_flags(p_train)
    p_train.set_defaults(fn=_cmd_train)

    p_grid = sub.add_parser("grid", help="eta/beta grid search with retraining")
    _add_config_flags(p_grid)
    p_grid.add_argument("--etas", required=True, help="comma-separated learning rates")
    p_grid.add_argument("--betas", required=True, help="comma-separated decay strengths")
    p_grid.add_argument("--jobs", type=int, default=1, help="parallel grid cells")
    p_grid.set_defaults(fn=_cmd_grid)

    p_verify = sub.add_parser(
        "verify", help="run the oracle checks (exit 1 on any failure)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100,
                          help="randomized trials per check")
    p_verify.add_argument("--only", choices=sorted(verify.CHECKS),
                          help="run a single check")
    p_verify.add_argument("--json", help="also write the reports as JSON")
    p_verify.set_defaults(fn=_cmd_verify)

    p_rep = sub.add_parser(
        "replicate", help="run the three mechanism experiment bundles")
    p_rep.add_argument("--out", help="report directory (default: replication)")
    p_rep.add_argument("--only", choices=("m1", "m2", "m3"),
                       help="run a single mechanism bundle")
    p_rep.add_argument("--no-plots", action="store_true",
                       help="skip the SVG plots")
    p_rep.set_defaults(fn=_cmd_replicate)

    p_diag = sub.add_parser(
        "diag",
        help="one-off diagnostics on a checkpoint",
        description="Recompute the metric record for a saved checkpoint "
                    "using the config.ini next to it (or --config), with "
                    "the batch-norm running statistics the checkpoint stores.  "
                    "A batch-norm checkpoint written before they were stored "
                    "is evaluated with running mean 0 and variance 1, with a "
                    "warning.")
    p_diag.add_argument("checkpoint", help="path to a checkpoint file")
    p_diag.add_argument("--config", help="config INI (default: beside the checkpoint)")
    p_diag.add_argument("--json", help="also write the record as JSON")
    p_diag.set_defaults(fn=_cmd_diag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
