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
import math
import os
import sys
from dataclasses import asdict, replace
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


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(command: str, config: dict, seed: int | None,
                    started: str, inputs: list, outputs: list,
                    argv: tuple[str, ...], path) -> None:
    manifest = RunManifest(
        command=command, config=config, seed=seed, version=TOOL_VERSION,
        started=started, finished=_now(),
        inputs={str(p): file_digest(p) for p in inputs},
        outputs={str(p): file_digest(p) for p in outputs},
        argv=argv)
    save_manifest(manifest, path)


def _refuse_overwrite(inputs: list, outputs: list) -> None:
    """An InputError if an output (manifest and sidecars included) is the
    same file as an input: by resolved path, or by os.path.samefile when
    both exist (hard links)."""
    for out in outputs:
        for inp in inputs:
            if Path(out).resolve() == Path(inp).resolve() or (
                    os.path.exists(out) and os.path.exists(inp)
                    and os.path.samefile(out, inp)):
                raise InputError(f"output {out} would overwrite input {inp}")


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
    started = _now()
    truth = _lookup_truth(args.truth)
    gen = GenConfig(n=args.n, seed=args.seed, x_low=args.x_low,
                    x_high=args.x_high, contamination_eps=args.eps)
    data = sample(truth, gen)
    out = Path(args.out)
    write_dataset_csv(data, out)
    sidecar = out.with_suffix(".gen.json")
    save_stamped("genconfig", {"truth": args.truth, **gen.to_dict()}, sidecar)
    _write_manifest("simulate", {"truth": args.truth, **gen.to_dict()},
                    args.seed, started, [], [out, sidecar], argv,
                    out.with_suffix(".manifest.json"))
    print(f"wrote {data.n} rows (dim {data.dim}) to {out}")


def _fit_config(args, k: int) -> FitConfig:
    box = None
    if args.gate_box is not None:
        lo0, hi0, lo1, hi1 = args.gate_box
        box = ((lo0, hi0), (lo1, hi1))
    return FitConfig(K=k, tol=args.tol, max_iter=args.max_iter,
                     init=args.init, init_scale=args.init_scale,
                     init_gate_scale=args.init_gate_scale,
                     newton_max_iter=args.newton_max_iter,
                     newton_tol=args.newton_tol, ridge=args.ridge,
                     sigma_floor=args.sigma_floor, seed=args.seed,
                     gate_box=box)


def _cmd_fit(args, argv):
    started = _now()
    inputs = [Path(args.data)]
    if args.reference is not None:
        inputs.append(Path(args.reference))
    out = Path(args.out)
    manifest = out.with_suffix(".manifest.json")
    _refuse_overwrite(inputs, [out, manifest])
    data = load_dataset_csv(args.data, y_last=args.y_last)
    cfg = _fit_config(args, args.k)
    reference = None
    if args.reference is not None:
        reference = load_model_or_fit(args.reference)
    elif args.truth is not None:
        reference = _lookup_truth(args.truth)
    fit = em_fit(data, cfg, make_init(data, cfg, reference))
    save_fit(fit, out)
    _write_manifest("fit", asdict(cfg), args.seed, started, inputs, [out],
                    argv, manifest)
    print(f"converged={fit.converged} iterations={fit.iterations} "
          f"avg_loglik={fit.loglik_trace[-1]:.6f}")


def _cmd_dendrogram(args, argv):
    started = _now()
    inputs = [Path(args.model), Path(args.data)]
    base = Path(args.out)
    out_json = base.with_suffix(".json")
    out_csv = base.with_suffix(".csv")
    manifest = base.with_suffix(".manifest.json")
    _refuse_overwrite(inputs, [out_json, out_csv, manifest])
    model = load_model_or_fit(args.model)
    data = load_dataset_csv(args.data, y_last=args.y_last)
    dg = build_path(model)
    save_dendrogram(dg, out_json)
    k_top = dg.levels[0].n_atoms
    rows = [[kappa, repr(dg.height_at(kappa)) if kappa >= 2 else "",
             repr(avg_log_likelihood(dg.level(kappa), data))]
            for kappa in range(k_top, 0, -1)]
    _write_table(out_csv, [["level", "height", "avg_loglik"], *rows])
    _write_manifest("dendrogram", {"model": str(args.model),
                                   "data": str(args.data)},
                    None, started, inputs, [out_json, out_csv], argv,
                    manifest)
    print(f"levels {k_top}..1, heights "
          + " ".join(f"{h:.4g}" for h in dg.heights))


def _cmd_select(args, argv):
    started = _now()
    methods = METHODS if args.method == "all" else (args.method,)
    base = Path(args.out)
    outputs = {m: base.with_suffix(f".{m}.json") for m in methods}
    manifest = base.with_suffix(".manifest.json")
    _refuse_overwrite([Path(args.data)], [*outputs.values(), manifest])
    data = load_dataset_csv(args.data, y_last=args.y_last)
    epsilon = _parse_epsilon(args.epsilon)
    cfg = _fit_config(args, args.kmax)
    reports = select_order(data, args.kmax, methods, cfg,
                           lambda k: make_init(data, replace(cfg, K=k)),
                           epsilon)
    for m, rep in reports.items():
        save_report(rep, outputs[m])
    _write_manifest("select", {**asdict(cfg), "kmax": args.kmax,
                               "methods": list(methods),
                               "epsilon": args.epsilon},
                    args.seed, started, [Path(args.data)],
                    list(outputs.values()), argv, manifest)
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
    started = _now()
    inputs = [Path(args.fitted), Path(args.reference)]
    if args.out is not None:
        out = Path(args.out)
        manifest = out.with_suffix(".manifest.json")
        _refuse_overwrite(inputs, [out, manifest])
    fitted = load_model_or_fit(args.fitted)
    reference = load_model_or_fit(args.reference)
    report = loss_report(fitted, reference)
    doc = {key: report[key] for key in ("vde", "vdo", "vdfra", "cells",
                                        "t0", "t1")}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out is not None:
        save_stamped("metrics", doc, out)
        _write_manifest("metrics", {"fitted": str(args.fitted),
                                    "reference": str(args.reference)},
                        None, started, inputs, [out], argv, manifest)


def _study_config(args):
    kind = "rate" if args.command == "rate-study" else "selection"
    if args.preset is not None:
        cfg = preset(args.preset)
        want = RateStudyConfig if kind == "rate" else SelectionStudyConfig
        if not isinstance(cfg, want):
            raise InputError(
                f"preset {args.preset!r} is not a {kind} study")
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
        return cfg
    em = FitConfig(tol=args.em_tol, max_iter=args.em_max_iter,
                   init_scale=args.init_scale,
                   init_gate_scale=args.init_gate_scale)
    common = dict(truth=args.truth, em=em,
                  seed=args.seed if args.seed is not None else 0,
                  workers=args.workers)
    # unset grid flags fall back to the study dataclass defaults
    for name in ("n_min", "n_max", "n_count", "reps"):
        value = getattr(args, name)
        if value is not None:
            common[name] = value
    if kind == "rate":
        return RateStudyConfig(setting=args.setting, fit_k=args.fit_k,
                               loss=args.loss, **common)
    return SelectionStudyConfig(
        kmax=args.kmax, methods=tuple(args.methods.split(",")),
        contamination_eps=args.eps, epsilon_n=_parse_epsilon(args.epsilon),
        **common)


def _write_table(path, rows, **dialect) -> None:
    """Write CSV rows (or, with a dialect, other tables)."""
    with overwrite(path, newline="") as fh:
        csv.writer(fh, **dialect).writerows(rows)


def _write_curve(path, points) -> None:
    """One 'N value' line per point, for plotting tools."""
    _write_table(path, [[n, repr(value)] for n, value in points],
                 delimiter=" ", lineterminator="\n")


def _rate_outputs(result):
    """Value and summary columns, summary rows (kind, n, cells), curves by
    file suffix and the status line of a rate study."""
    def agg(kind, rows):
        return [(kind, r.n, [repr(r.mean_loss), repr(r.std_loss),
                             r.reps_used, "", "", ""]) for r in rows]

    def curve(rows):
        return [(r.n, r.mean_loss) for r in rows if r.reps_used > 0]

    summary = agg("agg", result.rows) + agg("agg_raw", result.raw_rows)
    summary.append(("study", "", ["", "", "", repr(result.slope),
                                  repr(result.intercept), result.skipped]))
    curves = {".dat": curve(result.rows)}
    if result.raw_rows:
        summary.append(("study_raw", "", [
            "", "", "", repr(result.raw_slope), repr(result.raw_intercept),
            result.skipped]))
        curves[".raw.dat"] = curve(result.raw_rows)
    status = (f"slope={result.slope:.4f} intercept={result.intercept:.4f} "
              f"skipped={result.skipped}")
    return (RATE_VALUES, ("mean_loss", "std_loss", "reps_used", "slope",
                          "intercept", "skipped"), summary, curves, status)


def _selection_outputs(cfg, result):
    """As `_rate_outputs`, for a selection study."""
    summary = [("agg", r.n, [r.method, repr(r.proportion_correct),
                             repr(r.mean_chosen), r.reps_used])
               for r in result.rows]
    curves = {f".{m}.dat": [(r.n, r.proportion_correct) for r in result.rows
                            if r.method == m and r.reps_used > 0]
              for m in cfg.methods}
    lines = [f"true size {result.true_k}, skipped {result.skipped}"]
    for row in result.rows:
        lines.append(f"N={row.n:<7} {row.method:<4} "
                     f"correct={row.proportion_correct:.2f} "
                     f"mean_chosen={row.mean_chosen:.2f}")
    return (cfg.methods, ("method", "proportion_correct", "mean_chosen",
                          "reps_used"), summary, curves, "\n".join(lines))


def _cmd_study(args, argv):
    """rate-study and select-study: run the study, then write the results
    CSV (one `rep` row per checkpoint record, then the summary rows), the
    curves and the manifest, and print the status line."""
    started = _now()
    cfg = _study_config(args)
    base = Path(args.out)
    checkpoint = Path(args.checkpoint) if args.checkpoint else \
        base.with_suffix(".checkpoint.csv")
    if isinstance(cfg, RateStudyConfig):
        result = run_rate_study(cfg, checkpoint=checkpoint)
        report = _rate_outputs(result)
    else:
        result = run_selection_study(cfg, checkpoint=checkpoint)
        report = _selection_outputs(cfg, result)
    values, columns, summary, curves, status = report

    out_csv = base.with_suffix(".csv")
    blank_values, blank_summary = [""] * len(values), [""] * len(columns)
    _write_table(out_csv, [
        ["record", "n", "rep", "status", *values, *columns],
        *(["rep", *rec[1:], *blank_summary] for rec in result.records),
        *([kind, n, "", "", *blank_values, *cells]
          for kind, n, cells in summary)])
    outputs = [out_csv]
    for suffix, points in curves.items():
        outputs.append(base.with_suffix(suffix))
        _write_curve(outputs[-1], points)
    _write_manifest(args.command, asdict(cfg), cfg.seed, started, [],
                    outputs, argv, base.with_suffix(".manifest.json"))
    print(status)


# ---------------------------------------------------------------------------
# parser

def _add_fit_flags(p, init_choices=("kmeans", "perturbed_truth", "random")):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--init", choices=init_choices, default="kmeans")
    p.add_argument("--init-scale", type=float, default=0.5)
    p.add_argument("--init-gate-scale", type=float, default=None,
                   help="perturbation scale for the gating block only "
                        "(default: --init-scale)")
    p.add_argument("--newton-max-iter", type=int, default=25)
    p.add_argument("--newton-tol", type=float, default=1e-8)
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--sigma-floor", type=float, default=1e-8)
    p.add_argument("--gate-box", type=float, nargs=4, default=None,
                   metavar=("LO0", "HI0", "LO1", "HI1"),
                   help="compact bounds on the gating bias (LO0..HI0) and "
                        "each gating slope coordinate (LO1..HI1), in the "
                        "baseline gauge; both intervals must contain 0")


def _add_study_flags(p):
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--truth", default="g0_2")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-count", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--em-tol", type=float, default=1e-6)
    p.add_argument("--em-max-iter", type=int, default=2000)
    p.add_argument("--init-scale", type=float, default=0.5)
    p.add_argument("--init-gate-scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0,
                   help="contamination fraction")
    p.add_argument("--x-low", type=float, default=0.0)
    p.add_argument("--x-high", type=float, default=1.0)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a mixture of experts by EM")
    p.add_argument("--data", required=True)
    p.add_argument("--y-last", action="store_true",
                   help="accept any header; response is the last column")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--setting", choices=("exact", "overfit", "merged"),
                   default="exact")
    p.add_argument("--fit-k", type=int, default=4)
    p.add_argument("--loss", choices=("vde", "vdo", "vdfra"), default="vde")
    p.set_defaults(handler=_cmd_study)

    p = sub.add_parser("select-study",
                       help="selection-frequency study")
    _add_study_flags(p)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--methods", default="dsc,aic,bic,icl",
                   help="comma-separated subset of dsc,aic,bic,icl")
    p.add_argument("--eps", type=float, default=0.0,
                   help="contamination fraction")
    p.add_argument("--epsilon", default="logn",
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
