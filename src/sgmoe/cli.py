"""Command-line workflows: simulate, fit, dendrogram, select, metrics,
rate-study, select-study.

Exit codes: 0 success, 1 input/usage error, 2 numeric failure. Every
file-producing run writes one manifest (<out base>.manifest.json) recording
the resolved configuration, the seed, and FNV-1a digests of inputs and
outputs. All randomness in a run flows from its single --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from .datagen import GenConfig, builtin_truths, sample
from .dendrogram import build_path
from .errors import InputError, NumericError
from .estimation import FitConfig, em_fit, make_init
from .experiments import (
    PRESET_NAMES,
    RATE_VALUES,
    RateStudyConfig,
    SelectionStudyConfig,
    preset,
    run_rate_study,
    run_selection_study,
    select_order,
)
from .metrics import loss_report
from .model import avg_log_likelihood
from .selection import METHODS
from .serialize import (
    TOOL_VERSION,
    RunManifest,
    file_digest,
    load_dataset_csv,
    load_model_or_fit,
    overwrite,
    save_dendrogram,
    save_fit,
    save_manifest,
    save_report,
    save_stamped,
    write_dataset_csv,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@contextmanager
def _run_record(args, argv, config: dict, seed: int | None, inputs=(),
                outputs=(), reads=()):
    """A command's declared files, checked before its body and recorded
    after it.

    Before the body, an InputError if any output, the manifest
    <--out>.manifest.json included, is the same file as an input or a file
    the command also reads (a study's checkpoint): by resolved path, or by
    os.path.samefile when both exist (hard links). After the body, the
    manifest with the digests of the inputs and outputs. Without --out
    there is nothing to check or record.
    """
    if args.out is None:
        yield
        return
    started = datetime.now(timezone.utc).isoformat()
    inputs, outputs = [Path(p) for p in inputs], [Path(p) for p in outputs]
    manifest = Path(args.out).with_suffix(".manifest.json")
    for out in [*outputs, manifest]:
        for inp in [*inputs, *map(Path, reads)]:
            if out.resolve() == inp.resolve() or (
                    out.exists() and inp.exists()
                    and os.path.samefile(out, inp)):
                raise InputError(f"output {out} would overwrite input {inp}")
    yield
    save_manifest(RunManifest(
        command=args.command, config=config, seed=seed, version=TOOL_VERSION,
        started=started, finished=datetime.now(timezone.utc).isoformat(),
        inputs={str(p): file_digest(p) for p in inputs},
        outputs={str(p): file_digest(p) for p in outputs},
        argv=argv), manifest)


def _given(args, cls, prefix: str = "") -> dict:
    """The fields of the dataclass `cls` that the command line sets: each
    from the flag whose dest is `prefix` + the field's name. Those flags
    default to None, so the dataclass (or a preset) holds every default."""
    values = {f.name: getattr(args, prefix + f.name, None)
              for f in fields(cls)}
    return {name: value for name, value in values.items()
            if value is not None}


def _lookup_truth(name: str):
    registry = builtin_truths()
    if name not in registry:
        raise InputError(f"unknown truth {name!r}; "
                         f"choices: {', '.join(sorted(registry))}")
    return registry[name]


def _parse_epsilon(text: str) -> float | None:
    if text == "logn":
        return None
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"--epsilon must be 'logn' or a number, got {text!r}")
    if value <= 0:
        raise InputError("--epsilon must be positive")
    return value


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args, argv):
    truth = _lookup_truth(args.truth)
    gen = GenConfig(**_given(args, GenConfig))
    config = {"truth": args.truth, **gen.to_dict()}
    out = Path(args.out)
    sidecar = out.with_suffix(".gen.json")
    with _run_record(args, argv, config, gen.seed, outputs=[out, sidecar]):
        data = sample(truth, gen)
        write_dataset_csv(data, out)
        save_stamped("genconfig", config, sidecar)
    print(f"wrote {data.n} rows (dim {data.dim}) to {out}")


def _fit_config(args, k: int) -> FitConfig:
    given = _given(args, FitConfig)
    if "gate_box" in given:
        lo0, hi0, lo1, hi1 = given["gate_box"]
        given["gate_box"] = ((lo0, hi0), (lo1, hi1))
    return FitConfig(K=k, **given)


def _cmd_fit(args, argv):
    cfg = _fit_config(args, args.k)
    inputs = [args.data] if args.reference is None else \
        [args.data, args.reference]
    with _run_record(args, argv, asdict(cfg), cfg.seed, inputs, [args.out]):
        data = load_dataset_csv(args.data, y_last=args.y_last)
        reference = None
        if args.reference is not None:
            reference = load_model_or_fit(args.reference)
        elif args.truth is not None:
            reference = _lookup_truth(args.truth)
        fit = em_fit(data, cfg, make_init(data, cfg, reference))
        save_fit(fit, Path(args.out))
    print(f"converged={fit.converged} iterations={fit.iterations} "
          f"avg_loglik={fit.loglik_trace[-1]:.6f}")


def _cmd_dendrogram(args, argv):
    base = Path(args.out)
    out_json, out_csv = base.with_suffix(".json"), base.with_suffix(".csv")
    with _run_record(args, argv, {"model": str(args.model),
                                  "data": str(args.data)}, None,
                     [args.model, args.data], [out_json, out_csv]):
        model = load_model_or_fit(args.model)
        data = load_dataset_csv(args.data, y_last=args.y_last)
        dg = build_path(model)
        save_dendrogram(dg, out_json)
        k_top = dg.levels[0].n_atoms
        rows = [[kappa, repr(dg.height_at(kappa)) if kappa >= 2 else "",
                 repr(avg_log_likelihood(dg.level(kappa), data))]
                for kappa in range(k_top, 0, -1)]
        _write_table(out_csv, [["level", "height", "avg_loglik"], *rows])
    print(f"levels {k_top}..1, heights "
          + " ".join(f"{h:.4g}" for h in dg.heights))


def _cmd_select(args, argv):
    methods = METHODS if args.method == "all" else (args.method,)
    outputs = {m: Path(args.out).with_suffix(f".{m}.json") for m in methods}
    epsilon = _parse_epsilon(args.epsilon)
    cfg = _fit_config(args, args.kmax)
    config = {**asdict(cfg), "kmax": args.kmax, "methods": list(methods),
              "epsilon": args.epsilon}
    with _run_record(args, argv, config, cfg.seed, [args.data],
                     outputs.values()):
        data = load_dataset_csv(args.data, y_last=args.y_last)
        reports = select_order(data, args.kmax, methods, cfg,
                               lambda k: make_init(data, replace(cfg, K=k)),
                               epsilon)
        for m, rep in reports.items():
            save_report(rep, outputs[m])
    print(_selection_table(reports, args.kmax))


def _selection_table(reports: dict, kmax: int) -> str:
    header = "method  chosen  " + "  ".join(f"k={k}" for k in
                                            range(1, kmax + 1))
    lines = [header, "-" * len(header)]
    for m, rep in reports.items():
        cells = []
        for k in range(1, kmax + 1):
            score = rep.per_level.get(k)
            cells.append("-" if score is None else f"{score:.6g}")
        lines.append(f"{m:<7} {rep.chosen:<7} " + "  ".join(cells))
    return "\n".join(lines)


def _cmd_metrics(args, argv):
    with _run_record(args, argv, {"fitted": str(args.fitted),
                                  "reference": str(args.reference)}, None,
                     [args.fitted, args.reference], [args.out]):
        fitted = load_model_or_fit(args.fitted)
        reference = load_model_or_fit(args.reference)
        report = loss_report(fitted, reference)
        doc = {key: report[key] for key in ("vde", "vdo", "vdfra", "cells",
                                            "t0", "t1")}
        print(json.dumps(doc, indent=2, sort_keys=True))
        if args.out is not None:
            save_stamped("metrics", doc, Path(args.out))


def _study_config(args):
    """The preset, or the study dataclass's defaults, with every given
    flag applied over it."""
    kind, cls = ("rate", RateStudyConfig) if args.command == "rate-study" \
        else ("selection", SelectionStudyConfig)
    cfg = cls() if args.preset is None else preset(args.preset)
    if not isinstance(cfg, cls):
        raise InputError(f"preset {args.preset!r} is not a {kind} study")
    given = _given(args, cls)
    if "epsilon_n" in given:
        given["epsilon_n"] = _parse_epsilon(given["epsilon_n"])
    return replace(cfg, em=replace(cfg.em, **_given(args, FitConfig, "em_")),
                   **given)


def _write_table(path, rows, **dialect) -> None:
    """Write CSV rows (or, with a dialect, other tables)."""
    with overwrite(path, newline="") as fh:
        csv.writer(fh, **dialect).writerows(rows)


def _write_curve(path, points) -> None:
    """One 'N value' line per point, for plotting tools."""
    _write_table(path, [[n, repr(value)] for n, value in points],
                 delimiter=" ", lineterminator="\n")


def _rate_outputs(cfg, result):
    """Value and summary columns, summary rows (kind, n, cells), the curves
    (the loss, then the raw loss when merged) and the status line of a
    rate study."""
    def agg(kind, rows):
        return [(kind, r.n, [repr(r.mean_loss), repr(r.std_loss),
                             r.reps_used, "", "", ""]) for r in rows]

    def curve(rows):
        return [(r.n, r.mean_loss) for r in rows if r.reps_used > 0]

    summary = agg("agg", result.rows) + agg("agg_raw", result.raw_rows)
    summary.append(("study", "", ["", "", "", repr(result.slope),
                                  repr(result.intercept), result.skipped]))
    curves = [curve(result.rows)]
    if cfg.setting == "merged":
        summary.append(("study_raw", "", [
            "", "", "", repr(result.raw_slope), repr(result.raw_intercept),
            result.skipped]))
        curves.append(curve(result.raw_rows))
    status = (f"slope={result.slope:.4f} intercept={result.intercept:.4f} "
              f"skipped={result.skipped}")
    return (RATE_VALUES, ("mean_loss", "std_loss", "reps_used", "slope",
                          "intercept", "skipped"), summary, curves, status)


def _selection_outputs(cfg, result):
    """As `_rate_outputs`, for a selection study: one curve per method."""
    summary = [("agg", r.n, [r.method, repr(r.proportion_correct),
                             repr(r.mean_chosen), r.reps_used])
               for r in result.rows]
    curves = [[(r.n, r.proportion_correct) for r in result.rows
               if r.method == m and r.reps_used > 0] for m in cfg.methods]
    lines = [f"true size {result.true_k}, skipped {result.skipped}"]
    for row in result.rows:
        lines.append(f"N={row.n:<7} {row.method:<4} "
                     f"correct={row.proportion_correct:.2f} "
                     f"mean_chosen={row.mean_chosen:.2f}")
    return (cfg.methods, ("method", "proportion_correct", "mean_chosen",
                          "reps_used"), summary, curves, "\n".join(lines))


def _cmd_study(args, argv):
    """rate-study and select-study: run the study, then write the results
    CSV (one `rep` row per checkpoint record, then the summary rows) and
    the curves, and print the status line."""
    cfg = _study_config(args)
    base = Path(args.out)
    checkpoint = Path(args.checkpoint) if args.checkpoint else \
        base.with_suffix(".checkpoint.csv")
    if isinstance(cfg, RateStudyConfig):
        run, report = run_rate_study, _rate_outputs
        suffixes = [".dat", ".raw.dat"] if cfg.setting == "merged" else \
            [".dat"]
    else:
        run, report = run_selection_study, _selection_outputs
        suffixes = [f".{m}.dat" for m in cfg.methods]
    out_csv = base.with_suffix(".csv")
    curve_paths = [base.with_suffix(s) for s in suffixes]
    with _run_record(args, argv, asdict(cfg), cfg.seed,
                     outputs=[out_csv, *curve_paths], reads=[checkpoint]):
        result = run(cfg, checkpoint=checkpoint)
        values, columns, summary, curves, status = report(cfg, result)
        blank_values, blank_summary = [""] * len(values), [""] * len(columns)
        _write_table(out_csv, [
            ["record", "n", "rep", "status", *values, *columns],
            *(["rep", *rec[1:], *blank_summary] for rec in result.records),
            *([kind, n, "", "", *blank_values, *cells]
              for kind, n, cells in summary)])
        for path, points in zip(curve_paths, curves, strict=True):
            _write_curve(path, points)
    print(status)


# ---------------------------------------------------------------------------
# parser

def _add_fit_flags(p, init_choices=("kmeans", "perturbed_truth", "random")):
    """Flags named after FitConfig fields; unset ones keep its defaults."""
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--init", choices=init_choices)
    p.add_argument("--init-scale", type=float)
    p.add_argument("--init-gate-scale", type=float,
                   help="perturbation scale for the gating block only "
                        "(default: --init-scale)")
    p.add_argument("--newton-max-iter", type=int)
    p.add_argument("--newton-tol", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--sigma-floor", type=float)
    p.add_argument("--gate-box", type=float, nargs=4,
                   metavar=("LO0", "HI0", "LO1", "HI1"),
                   help="compact bounds on the gating bias (LO0..HI0) and "
                        "each gating slope coordinate (LO1..HI1), in the "
                        "baseline gauge; both intervals must contain 0")


def _add_study_flags(p):
    """Flags named after study-config fields, and em_<field> after the
    FitConfig fields of its `em`; unset ones keep the preset's values,
    or the dataclass defaults."""
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--truth")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--n-count", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--em-tol", type=float)
    p.add_argument("--em-max-iter", type=int)
    p.add_argument("--init-scale", type=float, dest="em_init_scale",
                   metavar="INIT_SCALE")
    p.add_argument("--init-gate-scale", type=float,
                   dest="em_init_gate_scale", metavar="INIT_GATE_SCALE")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--checkpoint",
                   help="per-replication progress CSV "
                        "(default <out>.checkpoint.csv)")
    p.add_argument("--out", required=True,
                   help="output base name; writes <out>.csv, <out>*.dat, "
                        "<out>.manifest.json")


def build_parser() -> _Parser:
    parser = _Parser(prog="sgmoe", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="draw a dataset from a built-in truth")
    p.add_argument("--truth", required=True,
                   choices=sorted(builtin_truths()))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float, dest="contamination_eps",
                   metavar="EPS", help="contamination fraction")
    p.add_argument("--x-low", type=float)
    p.add_argument("--x-high", type=float)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a mixture of experts by EM")
    p.add_argument("--data", required=True)
    p.add_argument("--y-last", action="store_true",
                   help="accept any header; response is the last column")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--reference",
                   help="model/fit JSON used by perturbed_truth init")
    p.add_argument("--truth", choices=sorted(builtin_truths()),
                   help="built-in truth used by perturbed_truth init")
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="fit JSON path")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("dendrogram",
                       help="aggregation path of a fitted model")
    p.add_argument("--model", required=True, help="model or fit JSON")
    p.add_argument("--data", required=True,
                   help="dataset CSV for level log-likelihoods")
    p.add_argument("--y-last", action="store_true")
    p.add_argument("--out", required=True,
                   help="output base name; writes <out>.json and <out>.csv")
    p.set_defaults(handler=_cmd_dendrogram)

    p = sub.add_parser("select", help="choose the number of experts")
    p.add_argument("--data", required=True)
    p.add_argument("--y-last", action="store_true")
    p.add_argument("--method", choices=METHODS + ("all",), default="dsc")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--epsilon", default="logn",
                   help="dendrogram criterion weight: 'logn' or a number")
    p.add_argument("--seed", type=int)
    _add_fit_flags(p, init_choices=("kmeans", "random"))
    p.add_argument("--out", required=True,
                   help="output base name; writes <out>.<method>.json")
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("metrics",
                       help="Voronoi losses between two models")
    p.add_argument("--fitted", required=True, help="model or fit JSON")
    p.add_argument("--reference", required=True, help="model or fit JSON")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("rate-study",
                       help="loss-vs-N convergence study")
    _add_study_flags(p)
    p.add_argument("--setting", choices=("exact", "overfit", "merged"))
    p.add_argument("--fit-k", type=int)
    p.add_argument("--loss", choices=("vde", "vdo", "vdfra"))
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser("select-study",
                       help="selection-frequency study")
    _add_study_flags(p)
    p.add_argument("--kmax", type=int)
    p.add_argument("--methods", type=lambda text: tuple(text.split(",")),
                   help="comma-separated subset of dsc,aic,bic,icl")
    p.add_argument("--eps", type=float, dest="contamination_eps",
                   metavar="EPS", help="contamination fraction")
    p.add_argument("--epsilon", dest="epsilon_n", metavar="EPSILON",
                   help="dendrogram criterion weight: 'logn' or a number")
    p.set_defaults(handler=_cmd_study)

    return parser


def run_cli(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        args.handler(args, tuple(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
