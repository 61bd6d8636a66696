"""End-to-end command-line workflows, exit codes, and rerun determinism."""

import csv
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from sgmoe.cli import run_cli
from sgmoe.datagen import builtin_truths
from sgmoe.experiments import preset
from sgmoe.serialize import (
    load_dataset_csv,
    load_dendrogram,
    load_fit,
    load_manifest,
    load_report,
    save_fit,
    save_model,
    save_stamped,
)

from helpers import separated_fit


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated dataset shared by the read-only commands."""
    root = tmp_path_factory.mktemp("cli")
    rc = run_cli(["simulate", "--truth", "g0_2", "--n", "400",
                  "--seed", "7", "--out", str(root / "data.csv")])
    assert rc == 0
    rc = run_cli(["fit", "--data", str(root / "data.csv"), "--k", "2",
                  "--seed", "3", "--out", str(root / "fit.json")])
    assert rc == 0
    return root


def test_simulate_outputs(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = run_cli(["simulate", "--truth", "g0_3", "--n", "50",
                  "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert "wrote 50 rows" in capsys.readouterr().out
    data = load_dataset_csv(out)
    assert data.n == 50 and data.dim == 1
    sidecar = json.loads((tmp_path / "d.gen.json").read_text())
    assert sidecar["format"] == "sgmoe/genconfig/v1"
    assert sidecar["truth"] == "g0_3"
    assert sidecar["n"] == 50
    manifest = load_manifest(tmp_path / "d.manifest.json")
    assert manifest.command == "simulate"
    assert manifest.seed == 1
    assert str(out) in manifest.outputs


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--truth", "g0_2", "--n", "120", "--seed", "9",
            "--eps", "0.05"]
    assert run_cli(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.gen.json").read_bytes() == \
        (tmp_path / "b.gen.json").read_bytes()


def _run_chain(root):
    """simulate -> fit -> dendrogram -> metrics into `root`."""
    save_model(builtin_truths()["g0_2"], root / "truth.json")
    for argv in (
            ["simulate", "--truth", "g0_2", "--n", "300", "--seed", "4",
             "--out", str(root / "data.csv")],
            ["fit", "--data", str(root / "data.csv"), "--k", "3",
             "--seed", "5", "--out", str(root / "fit.json")],
            ["dendrogram", "--model", str(root / "fit.json"),
             "--data", str(root / "data.csv"), "--out", str(root / "dendro")],
            ["metrics", "--fitted", str(root / "fit.json"),
             "--reference", str(root / "truth.json"),
             "--out", str(root / "m.json")]):
        assert run_cli(argv) == 0


def _manifest_without_times_and_paths(path, root):
    doc = json.loads(path.read_text().replace(str(root), "<root>"))
    del doc["started"], doc["finished"]
    return doc


def test_chain_rerun_over_longer_files_is_byte_identical(tmp_path):
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    fresh.mkdir()
    used.mkdir()
    _run_chain(fresh)
    names = sorted(p.name for p in fresh.iterdir())
    for name in names:
        # junk 10 KB longer than what the chain will write there
        size = (fresh / name).stat().st_size + 10_000
        (used / name).write_bytes(b"\x00junk" * (size // 5 + 1))
    _run_chain(used)
    assert sorted(p.name for p in used.iterdir()) == names
    for name in names:
        if name.endswith(".manifest.json"):
            a = _manifest_without_times_and_paths(fresh / name, fresh)
            b = _manifest_without_times_and_paths(used / name, used)
            assert a == b and a["outputs"], name
        else:
            assert (used / name).read_bytes() == \
                (fresh / name).read_bytes(), name


def test_fit_output(workdir, capsys):
    fit = load_fit(workdir / "fit.json")
    assert fit.converged
    assert fit.model.n_atoms == 2
    # last gating atom pinned at zero by the output convention
    assert fit.model.atoms[-1].omega0 == 0.0


def test_fit_perturbed_truth_init(workdir, tmp_path, capsys):
    rc = run_cli(["fit", "--data", str(workdir / "data.csv"), "--k", "2",
                  "--init", "perturbed_truth", "--truth", "g0_2",
                  "--seed", "2", "--out", str(tmp_path / "f.json")])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out


def test_fit_perturbed_without_reference_fails(workdir, tmp_path, capsys):
    rc = run_cli(["fit", "--data", str(workdir / "data.csv"), "--k", "2",
                  "--init", "perturbed_truth",
                  "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_fit_y_last_header(workdir, tmp_path):
    renamed = tmp_path / "renamed.csv"
    lines = (workdir / "data.csv").read_text().splitlines()
    renamed.write_text("\n".join(["covariate,response"] + lines[1:]) + "\n")
    rc = run_cli(["fit", "--data", str(renamed), "--y-last", "--k", "2",
                  "--seed", "3", "--out", str(tmp_path / "f.json")])
    assert rc == 0
    # same rows, same seed: identical fit
    a = (tmp_path / "f.json").read_bytes()
    b = (workdir / "fit.json").read_bytes()
    assert a == b


def test_dendrogram_outputs(workdir, tmp_path, capsys):
    base = tmp_path / "dg"
    rc = run_cli(["dendrogram", "--model", str(workdir / "fit.json"),
                  "--data", str(workdir / "data.csv"), "--out", str(base)])
    assert rc == 0
    dg = load_dendrogram(tmp_path / "dg.json")
    assert dg.levels[0].n_atoms == 2
    rows = (tmp_path / "dg.csv").read_text().splitlines()
    assert rows[0] == "level,height,avg_loglik"
    assert rows[1].startswith("2,")
    assert rows[2].startswith("1,,")  # no merge height below two atoms
    assert len(rows) == 3


def test_select_all_methods(workdir, tmp_path, capsys):
    base = tmp_path / "sel"
    rc = run_cli(["select", "--data", str(workdir / "data.csv"),
                  "--kmax", "3", "--method", "all", "--seed", "5",
                  "--out", str(base)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "method" in out and "chosen" in out
    for m in ("dsc", "aic", "bic", "icl"):
        rep = load_report(tmp_path / f"sel.{m}.json")
        assert rep.method == m
        assert rep.chosen in rep.per_level
    dsc = load_report(tmp_path / "sel.dsc.json")
    assert set(dsc.per_level) == {2, 3}
    aic = load_report(tmp_path / "sel.aic.json")
    assert set(aic.per_level) == {1, 2, 3}


def test_select_dsc_only_writes_one_report(workdir, tmp_path):
    base = tmp_path / "only"
    rc = run_cli(["select", "--data", str(workdir / "data.csv"),
                  "--kmax", "2", "--method", "dsc", "--seed", "5",
                  "--out", str(base)])
    assert rc == 0
    assert (tmp_path / "only.dsc.json").exists()
    assert not (tmp_path / "only.aic.json").exists()


def test_select_bad_epsilon(workdir, tmp_path, capsys):
    rc = run_cli(["select", "--data", str(workdir / "data.csv"),
                  "--epsilon", "banana", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "--epsilon" in capsys.readouterr().err


def test_metrics_stdout_contract(workdir, tmp_path, capsys):
    rc = run_cli(["metrics", "--fitted", str(workdir / "fit.json"),
                  "--reference", str(workdir / "fit.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"vde", "vdo", "vdfra", "cells", "t0", "t1"}
    assert doc["vde"] == pytest.approx(0.0, abs=1e-9)
    assert doc["vdfra"] == pytest.approx(0.0, abs=1e-9)
    assert doc["cells"] == {"0": [0], "1": [1]}


def test_metrics_optional_file(workdir, tmp_path):
    out = tmp_path / "m.json"
    rc = run_cli(["metrics", "--fitted", str(workdir / "fit.json"),
                  "--reference", str(workdir / "fit.json"),
                  "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "sgmoe/metrics/v1"
    assert (tmp_path / "m.manifest.json").exists()


# ---------------------------------------------------------------------------
# exit codes

def test_metrics_overflowing_fit_exits_two(tmp_path, capsys):
    save_fit(separated_fit(), tmp_path / "fit.json")
    save_model(builtin_truths()["g0_2"], tmp_path / "truth.json")
    rc = run_cli(["metrics", "--fitted", str(tmp_path / "fit.json"),
                  "--reference", str(tmp_path / "truth.json")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    rc = run_cli(["fit", "--data", "x.csv", "--k", "2", "--out", "y",
                  "--bogus"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    rc = run_cli(["fit", "--data", str(tmp_path / "nope.csv"), "--k", "2",
                  "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "metrics", "dendrogram"])
def test_directory_input_exits_one(workdir, tmp_path, capsys, command):
    argv = {
        "fit": ["fit", "--data", str(tmp_path), "--k", "2",
                "--out", str(tmp_path / "f.json")],
        "metrics": ["metrics", "--fitted", str(tmp_path),
                    "--reference", str(workdir / "fit.json")],
        "dendrogram": ["dendrogram", "--model", str(workdir / "fit.json"),
                       "--data", str(tmp_path), "--out", str(tmp_path / "d")],
    }[command]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


@pytest.mark.parametrize("case", ["early-line", "late-line",
                                  "after-quoted-field", "json"])
def test_undecodable_input_exits_one(workdir, tmp_path, capsys, case):
    # a 0xff byte read by the header read, numpy's C reader, the csv
    # fallback scan (a quoted field sends the body there) or the JSON loader
    lines = (workdir / "data.csv").read_bytes().split(b"\r\n")
    if case == "after-quoted-field":
        lines[2] = b'"' + lines[2].replace(b",", b'",', 1)
    at = 3 if case == "early-line" else 350
    lines[at] = b"\xff" + lines[at]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\r\n".join(lines))
    argv = ["fit", "--data", str(bad), "--k", "1",
            "--out", str(tmp_path / "f.json")]
    if case == "json":
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "sgmoe/fit/v1", "x": "\xff"}')
        argv = ["metrics", "--fitted", str(bad), "--reference", str(bad)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")


@pytest.mark.parametrize("command", ["simulate", "fit", "dendrogram",
                                     "rate-study", "select-study",
                                     "missing-directory"])
def test_directory_output_exits_one(workdir, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    study = ["--truth", "g0_2", "--n-min", "100", "--n-max", "100",
             "--n-count", "1", "--reps", "1", "--em-max-iter", "50",
             "--workers", "1", "--out", str(taken)]
    argv = {
        "simulate": ["simulate", "--truth", "g0_2", "--n", "50",
                     "--out", str(taken)],
        "fit": ["fit", "--data", str(workdir / "data.csv"), "--k", "1",
                "--out", str(taken)],
        "dendrogram": ["dendrogram", "--model", str(workdir / "fit.json"),
                       "--data", str(workdir / "data.csv"),
                       "--out", str(tmp_path / "taken")],
        "rate-study": ["rate-study", *study],
        "select-study": ["select-study", "--kmax", "2", *study],
        "missing-directory": ["select-study", "--kmax", "2", *study[:-1],
                              str(tmp_path / "nodir" / "x")],
    }[command]
    if command in ("dendrogram", "rate-study", "select-study"):
        taken = tmp_path / "taken.csv"   # the level or results table's path
    if command == "missing-directory":
        # the checkpoint is opened before any replication runs
        taken = tmp_path / "nodir" / "x.checkpoint.csv"
    else:
        taken.mkdir()
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}:")
    assert "Traceback" not in err


TINY_STUDY = ["--truth", "g0_2", "--n-min", "100", "--n-max", "100",
              "--n-count", "1", "--reps", "2", "--em-max-iter", "50",
              "--workers", "1"]


@pytest.mark.parametrize("case", ["fit-out", "fit-manifest",
                                  "dendrogram-out", "dendrogram-hard-link",
                                  "select-report", "metrics-symlink",
                                  "study-csv", "study-curve",
                                  "study-method-curve", "study-manifest",
                                  "study-hard-link"])
def test_output_over_an_input_exits_one(workdir, tmp_path, capsys, case):
    data, fit = tmp_path / "data.csv", tmp_path / "fit.json"
    data.write_bytes((workdir / "data.csv").read_bytes())
    fit.write_bytes((workdir / "fit.json").read_bytes())
    if case == "fit-out":
        argv, inp, out = ["fit", "--data", str(data), "--k", "1",
                          "--out", str(data)], data, data
    elif case == "fit-manifest":
        inp = tmp_path / "f.manifest.json"
        os.replace(data, inp)
        out = inp
        argv = ["fit", "--data", str(inp), "--k", "1",
                "--out", str(tmp_path / "f.json")]
    elif case == "dendrogram-out":
        argv, inp, out = ["dendrogram", "--model", str(fit), "--data",
                          str(data), "--out", str(tmp_path / "fit")], fit, fit
    elif case == "dendrogram-hard-link":
        inp, out = data, tmp_path / "d.csv"
        os.link(data, out)
        argv = ["dendrogram", "--model", str(fit), "--data", str(data),
                "--out", str(tmp_path / "d")]
    elif case == "select-report":
        inp = out = tmp_path / "s.dsc.json"
        os.replace(data, inp)
        argv = ["select", "--data", str(inp), "--method", "dsc",
                "--kmax", "2", "--out", str(tmp_path / "s")]
    elif case == "metrics-symlink":
        inp, out = fit, tmp_path / "m.json"
        out.symlink_to(fit)
        argv = ["metrics", "--fitted", str(fit), "--reference", str(fit),
                "--out", str(out)]
    else:
        # a finished study's checkpoint, passed as --checkpoint to a study
        # whose --out r would write over it
        study = ["select-study", "--kmax", "2", "--methods", "dsc"] \
            if case == "study-method-curve" else ["rate-study"]
        inp = tmp_path / {"study-csv": "r.csv", "study-curve": "r.dat",
                          "study-method-curve": "r.dsc.dat",
                          "study-manifest": "r.manifest.json",
                          "study-hard-link": "ck.csv"}[case]
        argv = [*study, *TINY_STUDY, "--checkpoint", str(inp), "--out"]
        assert run_cli([*argv, str(tmp_path / "first")]) == 0
        capsys.readouterr()
        out = inp
        if case == "study-hard-link":
            out = tmp_path / "r.csv"
            os.link(inp, out)
        argv.append(str(tmp_path / "r"))
    before = inp.read_bytes()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: output {out} would overwrite input {inp}\n"
    assert captured.out == ""
    assert inp.read_bytes() == before
    if case.startswith("study-"):
        # the checkpoint still resumes, into a free --out
        assert run_cli([*argv[:-1], str(tmp_path / "free")]) == 0
        assert inp.read_bytes() == before


@pytest.mark.parametrize("command", ["simulate", "fit", "dendrogram",
                                     "select-all", "metrics-out",
                                     "rate-study-merged", "select-study"])
def test_declared_files_are_the_written_files(workdir, tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    data, fit = str(workdir / "data.csv"), str(workdir / "fit.json")
    argv = {
        "simulate": ["simulate", "--truth", "g0_2", "--n", "50",
                     "--out", str(out / "d.csv")],
        "fit": ["fit", "--data", data, "--k", "2", "--out",
                str(out / "f.json")],
        "dendrogram": ["dendrogram", "--model", fit, "--data", data,
                       "--out", str(out / "d")],
        "select-all": ["select", "--data", data, "--kmax", "2",
                       "--method", "all", "--out", str(out / "s")],
        "metrics-out": ["metrics", "--fitted", fit, "--reference", fit,
                        "--out", str(out / "m.json")],
        "rate-study-merged": ["rate-study", "--setting", "merged",
                              "--fit-k", "3", "--truth", "g0_2",
                              "--n-min", "400", "--n-max", "400",
                              "--n-count", "1", "--reps", "2",
                              "--em-max-iter", "200", "--seed", "6",
                              "--out", str(out / "s")],
        "select-study": SELECT_ARGS + ["--out", str(out / "s")],
    }[command]
    assert run_cli(argv) == 0
    manifest = out / f"{Path(argv[-1]).stem}.manifest.json"
    declared = {Path(p) for p in load_manifest(manifest).outputs}
    declared.add(manifest)
    if "study" in command:
        declared.add(out / "s.checkpoint.csv")
    assert set(out.iterdir()) == declared


def test_fit_accepts_trailing_blank_line(tmp_path, capsys):
    p = tmp_path / "ext.csv"
    rows = "".join(f"{i / 10},{(-1) ** i * 2.5 + i / 50}\n"
                   for i in range(40))
    p.write_text("dose,response\n" + rows + "\n")
    assert run_cli(["fit", "--data", str(p), "--y-last", "--k", "1",
                    "--seed", "0", "--out", str(tmp_path / "f.json")]) == 0
    manifest = load_manifest(tmp_path / "f.manifest.json")
    assert str(p) in manifest.inputs


def test_numeric_failure_exits_two(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("x1,y\n0.1,1.0\n0.2,2.0\n0.3,3.0\n")
    rc = run_cli(["select", "--data", str(data), "--kmax", "4",
                  "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_newer_format_major_rejected(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "fit.json").read_text())
    doc["format"] = "sgmoe/fit/v2"
    future = tmp_path / "future.json"
    future.write_text(json.dumps(doc))
    rc = run_cli(["metrics", "--fitted", str(future),
                  "--reference", str(workdir / "fit.json")])
    assert rc == 1
    assert "major version" in capsys.readouterr().err


def test_dataset_error_names_line(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    lines = (workdir / "data.csv").read_text().splitlines()
    lines[2] = "0.5,nan"
    bad.write_text("\n".join(lines) + "\n")
    rc = run_cli(["fit", "--data", str(bad), "--k", "2",
                  "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# studies

RATE_ARGS = ["rate-study", "--truth", "g0_2", "--n-min", "100",
             "--n-max", "200", "--n-count", "2", "--reps", "2",
             "--em-max-iter", "200", "--seed", "4"]


def test_rate_study_outputs(tmp_path, capsys):
    base = tmp_path / "rs"
    rc = run_cli(RATE_ARGS + ["--out", str(base)])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out
    rows = (tmp_path / "rs.csv").read_text().splitlines()
    assert rows[0].startswith("record,n,rep,status,loss")
    kinds = [r.split(",", 1)[0] for r in rows[1:]]
    assert kinds == ["rep"] * 4 + ["agg"] * 2 + ["study"]
    curve = (tmp_path / "rs.dat").read_text().splitlines()
    assert len(curve) == 2 and curve[0].startswith("100 ")
    manifest = load_manifest(tmp_path / "rs.manifest.json")
    assert manifest.config["setting"] == "exact"
    assert str(tmp_path / "rs.dat") in manifest.outputs


def test_rate_study_rerun_identical_and_resumable(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_cli(RATE_ARGS + ["--out", str(a / "r")]) == 0
    assert run_cli(RATE_ARGS + ["--out", str(b / "r")]) == 0
    for name in ("r.csv", "r.dat", "r.checkpoint.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # rerun over the finished checkpoint only re-aggregates
    before = (a / "r.csv").read_bytes()
    assert run_cli(RATE_ARGS + ["--out", str(a / "r")]) == 0
    assert (a / "r.csv").read_bytes() == before


def test_rate_study_merged_emits_raw_curve(tmp_path):
    rc = run_cli(["rate-study", "--setting", "merged", "--fit-k", "3",
                  "--truth", "g0_2", "--n-min", "400", "--n-max", "400",
                  "--n-count", "1", "--reps", "2", "--em-max-iter", "200",
                  "--seed", "6", "--out", str(tmp_path / "m")])
    assert rc == 0
    assert (tmp_path / "m.raw.dat").exists()
    kinds = {r.split(",", 1)[0]
             for r in (tmp_path / "m.csv").read_text().splitlines()[1:]}
    assert kinds == {"rep", "agg", "agg_raw", "study", "study_raw"}


def test_rate_study_aborts_when_too_many_fits_diverge(tmp_path, capsys):
    # 100 points split over 3 experts reliably blows up one gate; the
    # unmeasurable replication must abort the study, not crash it
    rc = run_cli(["rate-study", "--setting", "merged", "--fit-k", "3",
                  "--truth", "g0_2", "--n-min", "100", "--n-max", "100",
                  "--n-count", "1", "--reps", "2", "--em-max-iter", "200",
                  "--seed", "6", "--out", str(tmp_path / "m")])
    assert rc == 2
    assert "replications failed" in capsys.readouterr().err


def test_select_study_outputs(tmp_path, capsys):
    rc = run_cli(["select-study", "--truth", "g0_2", "--n-min", "500",
                  "--n-max", "500", "--n-count", "1", "--reps", "2",
                  "--kmax", "2", "--em-max-iter", "200", "--seed", "21",
                  "--out", str(tmp_path / "ss")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "true size 2" in out
    for m in ("dsc", "aic", "bic", "icl"):
        assert (tmp_path / f"ss.{m}.dat").exists()
    rows = (tmp_path / "ss.csv").read_text().splitlines()
    assert rows[0] == ("record,n,rep,status,dsc,aic,bic,icl,"
                      "method,proportion_correct,mean_chosen,reps_used")
    assert sum(r.startswith("agg,") for r in rows) == 4


def test_select_study_method_subset(tmp_path):
    rc = run_cli(["select-study", "--truth", "g0_2", "--n-min", "400",
                  "--n-max", "400", "--n-count", "1", "--reps", "1",
                  "--kmax", "2", "--methods", "dsc,bic",
                  "--em-max-iter", "200", "--seed", "2",
                  "--out", str(tmp_path / "s")])
    assert rc == 0
    assert (tmp_path / "s.dsc.dat").exists()
    assert (tmp_path / "s.bic.dat").exists()
    assert not (tmp_path / "s.aic.dat").exists()


SELECT_ARGS = ["select-study", "--truth", "g0_2", "--n-min", "300",
               "--n-max", "300", "--n-count", "1", "--reps", "2",
               "--kmax", "2", "--em-max-iter", "200", "--seed", "21"]


@pytest.mark.parametrize("study", ["rate", "selection"])
def test_study_rep_rows_are_the_records(tmp_path, monkeypatch, study):
    import sgmoe.cli as cli
    name = f"run_{study}_study"
    real, results = getattr(cli, name), []

    def spy(cfg, checkpoint):
        results.append(real(cfg, checkpoint=checkpoint))
        return results[-1]

    monkeypatch.setattr(cli, name, spy)
    argv = RATE_ARGS if study == "rate" else SELECT_ARGS
    assert run_cli(argv + ["--out", str(tmp_path / "s")]) == 0
    (result,) = results
    with open(tmp_path / "s.csv", newline="") as fh:
        table = list(csv.reader(fh))
    width = len(result.records[0])
    reps = table[1:1 + len(result.records)]
    assert [tuple(row[1:width]) for row in reps] == \
        [rec[1:] for rec in result.records]
    assert all(row[0] == "rep" and set(row[width:]) == {""} for row in reps)
    assert "rep" not in {row[0] for row in table[1 + len(reps):]}


def test_select_study_identical_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.delenv("SGMOE_THREADS", raising=False)
    written = {}
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert run_cli(SELECT_ARGS + ["--workers", workers,
                                      "--out", str(out / "s")]) == 0
        written[workers] = {p.name: p.read_bytes() for p in out.iterdir()
                            if p.suffix != ".json"}
    assert {"s.checkpoint.csv", "s.csv", "s.dsc.dat"} <= set(written["1"])
    assert written["1"] == written["2"]


@pytest.mark.parametrize("case", ["directory", "undecodable", "bad-n-index",
                                  "bad-selection-value", "bad-loss",
                                  "empty-ok-loss", "unknown-status"])
def test_malformed_checkpoint_exits_one(tmp_path, capsys, case):
    header = b"n_index,n,rep,status,loss,raw_loss\r\n"
    content = {
        "undecodable": header + b"0,100,0,ok,0.5\xff,\r\n",
        "bad-n-index": header + b"zz,100,0,ok,0.5,\r\n",
        "bad-selection-value": b"n_index,n,rep,status,dsc\r\n0,100,0,ok,two\r\n",
        "bad-loss": header + b"0,100,0,ok,abc,\r\n",
        "empty-ok-loss": header + b"0,100,0,ok,,\r\n",
        "unknown-status": header + b"0,100,0,maybe,,\r\n",
    }
    ckpt = tmp_path / "c.csv"
    if case == "directory":
        ckpt.mkdir()
    else:
        ckpt.write_bytes(content[case])
    study = ["select-study", "--kmax", "2", "--methods", "dsc"] \
        if case == "bad-selection-value" else ["rate-study"]
    rc = run_cli(study + ["--truth", "g0_2", "--n-min", "100",
                          "--n-max", "100", "--n-count", "1", "--reps", "1",
                          "--workers", "1", "--checkpoint", str(ckpt),
                          "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err
    assert "Traceback" not in err
    if case not in ("directory", "undecodable"):
        assert f"{ckpt} line 2" in err


def test_preset_kind_mismatch(tmp_path, capsys):
    rc = run_cli(["rate-study", "--preset", "fig4",
                  "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "not a rate study" in capsys.readouterr().err
    rc = run_cli(["select-study", "--preset", "fig3a",
                  "--out", str(tmp_path / "x")])
    assert rc == 1


class _StudyCalled(Exception):
    pass


def test_flags_given_with_a_preset_override_it(tmp_path, monkeypatch):
    import sgmoe.cli as cli
    configs = []

    def capture(cfg, checkpoint):
        configs.append(cfg)
        raise _StudyCalled   # the preset grids are far too big to run

    monkeypatch.setattr(cli, "run_rate_study", capture)
    monkeypatch.setattr(cli, "run_selection_study", capture)
    for argv in (["rate-study", "--preset", "fig3a", "--reps", "2",
                  "--n-min", "100", "--n-max", "300", "--n-count", "3",
                  "--init-scale", "0.5"],
                 ["select-study", "--preset", "fig4", "--kmax", "3",
                  "--methods", "dsc", "--eps", "0.1", "--epsilon", "2"]):
        with pytest.raises(_StudyCalled):
            run_cli(argv + ["--out", str(tmp_path / "s")])
    fig3a, fig4 = preset("fig3a"), preset("fig4")
    assert configs == [
        replace(fig3a, reps=2, n_min=100, n_max=300, n_count=3,
                em=replace(fig3a.em, init_scale=0.5)),
        replace(fig4, kmax=3, methods=("dsc",), contamination_eps=0.1,
                epsilon_n=2.0)]


def test_unknown_preset_rejected(tmp_path, capsys):
    rc = run_cli(["rate-study", "--preset", "fig9",
                  "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "usage" in capsys.readouterr().err
