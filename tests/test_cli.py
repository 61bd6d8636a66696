"""End-to-end command-line workflows, exit codes, and rerun determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

import sgmoe
from sgmoe import cli
from sgmoe.cli import run_cli
from sgmoe.datagen import GenConfig, builtin_truths
from sgmoe.estimation import FitConfig
from sgmoe.experiments import (
    RateStudyConfig,
    SelectionStudyConfig,
    preset,
    record_path,
)
from sgmoe.serialize import (
    file_digest,
    load_dataset_csv,
    load_dendrogram,
    load_fit,
    load_manifest,
    load_report,
    save_fit,
    save_model,
    save_stamped,
    table_path,
)

from helpers import separated_fit, v1_table


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
    assert (tmp_path / "a.csv.f64").read_bytes() == \
        (tmp_path / "b.csv.f64").read_bytes()


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


@pytest.mark.parametrize("flags, message", [
    (["--truth", "g0_2"], "error: --init kmeans does not read --truth"),
    (["--reference", "fit.json"],
     "error: --init kmeans does not read --reference"),
    (["--init-scale", "0"], "error: --init kmeans does not read --init-scale"),
    (["--init-gate-scale", "0.1"],
     "error: --init kmeans does not read --init-gate-scale"),
    (["--init", "random", "--truth", "g0_2", "--init-scale", "1"],
     "error: --init random does not read --truth, --init-scale"),
    (["--init", "perturbed_truth", "--truth", "g0_2", "--reference",
      "fit.json"], "not allowed with argument --truth"),
], ids=["truth", "reference", "init-scale", "init-gate-scale", "random",
        "truth-and-reference"])
def test_fit_refuses_start_flags_its_init_does_not_read(workdir, tmp_path,
                                                       capsys, flags,
                                                       message):
    # such a flag would change no byte of the fit; only perturbed_truth
    # reads a start model and its scales, and it reads one start model
    flags = [str(workdir / f) if f == "fit.json" else f for f in flags]
    rc = run_cli(["fit", "--data", str(workdir / "data.csv"), "--k", "2",
                  *flags, "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("epsilon", ["0", "inf", "nan"])
def test_select_non_finite_epsilon(workdir, tmp_path, capsys, epsilon):
    rc = run_cli(["select", "--data", str(workdir / "data.csv"),
                  "--epsilon", epsilon, "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "--epsilon must be finite and positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_select_study_non_finite_epsilon(tmp_path, capsys, epsilon):
    rc = run_cli([*SELECT_ARGS, "--epsilon", epsilon,
                  "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "--epsilon must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--tol", "--init-scale",
                                  "--init-gate-scale"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_non_finite_setting_exits_one(workdir, tmp_path, capsys, flag,
                                          value):
    rc = run_cli(["fit", "--data", str(workdir / "data.csv"), "--k", "2",
                  flag, value, "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--newton-max-iter", "--newton-tol",
                                  "--ridge", "--sigma-floor"])
@pytest.mark.parametrize("command", [["fit", "--k", "2"],
                                     ["select", "--kmax", "2"]],
                         ids=["fit", "select"])
def test_retired_solver_flag_exits_one(workdir, tmp_path, capsys, command,
                                       flag):
    # the Newton cap and tolerance, the ridge and the variance floor are
    # estimation constants; their flags are gone, not ignored
    rc = run_cli([*command, "--data", str(workdir / "data.csv"), flag, "1",
                  "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_fit_without_the_binary_table_writes_the_same_bytes(tmp_path):
    _run_chain(tmp_path)
    table = tmp_path / "data.csv.f64"
    assert table.exists()
    table.unlink()
    argv = ["fit", "--data", str(tmp_path / "data.csv"), "--k", "3",
            "--seed", "5", "--out", str(tmp_path / "fit2.json")]
    assert run_cli(argv) == 0
    assert (tmp_path / "fit2.json").read_bytes() == \
        (tmp_path / "fit.json").read_bytes()
    assert load_manifest(tmp_path / "fit2.manifest.json").inputs == \
        load_manifest(tmp_path / "fit.manifest.json").inputs


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    rc = run_cli(["fit", "--data", str(tmp_path / "nope.csv"), "--k", "2",
                  "--out", str(tmp_path / "f.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fit", "--k", "0"],
                                  ["select", "--kmax", "0"]])
def test_size_below_one_is_refused_before_data_is_read(tmp_path, capsys,
                                                       argv):
    # the size is refused before --data (which does not exist) is read,
    # by the flag's name, and nothing is written
    out = tmp_path / "z"
    rc = run_cli([*argv, "--data", str(tmp_path / "nosuch.csv"),
                  "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {argv[1]} must be >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("command", ["metrics", "dendrogram", "fit"])
@pytest.mark.parametrize("edit", ["dim", "atoms", "atom"])
def test_malformed_model_exits_one(workdir, tmp_path, capsys, command, edit):
    doc = {"format": "sgmoe/model/v1",
           **json.loads((workdir / "fit.json").read_text())["model"]}
    if edit == "dim":
        doc["dim"] = "x"
    elif edit == "atoms":
        doc["atoms"] = 5
    else:
        doc["atoms"][0] = 5
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(json.dumps(doc))
    data, fit = str(workdir / "data.csv"), str(workdir / "fit.json")
    argv = {
        "metrics": ["metrics", "--fitted", str(bad), "--reference", fit,
                    "--out", f"{out}.json"],
        "dendrogram": ["dendrogram", "--model", str(bad), "--data", data,
                       "--out", str(out)],
        "fit": ["fit", "--data", data, "--k", "2", "--init",
                "perturbed_truth", "--reference", str(bad),
                "--out", f"{out}.json"],
    }[command]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    kind = "atom" if edit == "atom" else "model"
    assert captured.err.startswith(f"error: {kind} record is malformed: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

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


@pytest.mark.parametrize("case", ["fit-out", "fit-manifest", "fit-table",
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
    elif case == "fit-table":
        # the binary table beside --data, which the loader would read
        inp = out = tmp_path / "data.csv.f64"
        inp.write_bytes((workdir / "data.csv.f64").read_bytes())
        argv = ["fit", "--data", str(data), "--k", "1", "--out", str(out)]
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


def test_select_study_identical_across_worker_counts(tmp_path):
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


# per command: the dataclass whose fields its flags set, whether FitConfig
# fields come as em_<field>, and the flags that set no config field
_CONFIG_FLAGS = {
    "simulate": (GenConfig, False, {"truth", "out"}),
    "fit": (FitConfig, False, {"data", "out", "y_last", "k", "reference",
                               "truth"}),
    "select": (FitConfig, False, {"data", "out", "y_last", "kmax", "method",
                                  "epsilon"}),
    "rate-study": (RateStudyConfig, True, {"preset", "checkpoint", "out"}),
    "select-study": (SelectionStudyConfig, True,
                     {"preset", "checkpoint", "out"}),
}


@pytest.mark.parametrize("command", sorted(_CONFIG_FLAGS))
def test_every_flag_sets_a_config_field(command):
    # `_given` reads a flag by its field's name, so a flag whose field is
    # gone would parse and do nothing
    cls, em, own = _CONFIG_FLAGS[command]
    names = {f.name for f in fields(cls)}
    if em:
        names |= {f"em_{f.name}" for f in fields(FitConfig)}
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions
             if not isinstance(a, argparse._HelpAction)}
    assert dests - names - own == set()
    assert own - dests == set()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An N = 200 dataset and a model file other than its truth."""
    root = tmp_path_factory.mktemp("small")
    assert run_cli(["simulate", "--truth", "g0_2", "--n", "200",
                    "--seed", "4", "--out", str(root / "data.csv")]) == 0
    save_model(builtin_truths()["g0_3"], root / "g0_3.json")
    return root


_PERTURBED = ["--init", "perturbed_truth", "--init-scale", "0.2"]
_TRUTH = [*_PERTURBED, "--truth", "g0_2"]

# per flag: the command, a base run's flags and the same run's flags with
# that flag set away from the base; "REF" names the model file of `small`.
# k-means finds the same clusters from any seed here, so the seeds vary
# random starts
_READ_FLAGS = {
    "fit --tol": ("fit", [], ["--tol", "1e-2"]),
    "fit --max-iter": ("fit", [], ["--max-iter", "3"]),
    "fit --init": ("fit", [], ["--init", "random"]),
    "fit --seed": ("fit", ["--init", "random"],
                   ["--init", "random", "--seed", "1"]),
    "fit --init-scale": ("fit", _TRUTH, [*_TRUTH, "--init-scale", "0.4"]),
    "fit --init-gate-scale": ("fit", _TRUTH,
                              [*_TRUTH, "--init-gate-scale", "0"]),
    "fit --truth": ("fit", _TRUTH, [*_PERTURBED, "--truth", "g0_3"]),
    "fit --reference": ("fit", _TRUTH, [*_PERTURBED, "--reference", "REF"]),
    "select --tol": ("select", [], ["--tol", "1e-2"]),
    "select --max-iter": ("select", [], ["--max-iter", "3"]),
    "select --init": ("select", [], ["--init", "random"]),
    "select --seed": ("select", ["--init", "random"],
                      ["--init", "random", "--seed", "1"]),
    "select --epsilon": ("select", [], ["--epsilon", "0.5"]),
}


def _written(small, out, command, flags):
    """The bytes `command` writes with `flags` on the `small` data: the
    fit, or the reports of every method."""
    argv = {"fit": ["fit", "--k", "3"],
            "select": ["select", "--kmax", "3", "--method", "all"]}[command]
    flags = [str(small / "g0_3.json") if f == "REF" else f for f in flags]
    assert run_cli([*argv, "--data", str(small / "data.csv"), *flags,
                    "--out", str(out / "f.json")]) == 0
    return [p.read_bytes() for p in sorted(out.iterdir())
            if not p.name.endswith(".manifest.json")]


@pytest.mark.parametrize("case", sorted(_READ_FLAGS))
def test_every_flag_changes_what_is_written(small, tmp_path, case):
    # a flag that parses and changes no byte is a setting nothing reads
    command, base, changed = _READ_FLAGS[case]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert _written(small, tmp_path / "a", command, base) != \
        _written(small, tmp_path / "b", command, changed)


@pytest.mark.parametrize("command", ["fit", "select"])
def test_every_setting_flag_is_checked_for_being_read(command):
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    flags = {a.option_strings[0] for a in sub.choices[command]._actions
             if not isinstance(a, argparse._HelpAction)}
    inputs = {"--data", "--out", "--y-last", "--k", "--kmax", "--method"}
    assert flags - inputs == {case.split()[1] for case in _READ_FLAGS
                              if case.startswith(f"{command} ")}


@pytest.mark.parametrize("n, seed, csv_size", [
    (6670, 24, 262143), (6674, 9, 262144), (6673, 46, 262145),
    (20000, 0, None)])
def test_simulate_digests_what_it_writes(tmp_path, monkeypatch, n, seed,
                                         csv_size):
    # the CSV ends one byte short of, at and one byte past a whole 256 KiB
    # digest chunk; at N = 20000 the table spans two chunks too
    monkeypatch.setattr(cli, "file_digest",
                        lambda path: pytest.fail(f"{path} was read back"))
    out = tmp_path / "d.csv"
    assert run_cli(["simulate", "--truth", "g0_2", "--n", str(n),
                    "--seed", str(seed), "--out", str(out)]) == 0
    if csv_size is not None:
        assert out.stat().st_size == csv_size
    outputs = load_manifest(tmp_path / "d.manifest.json").outputs
    assert set(outputs) == {str(out), str(table_path(out)),
                            str(tmp_path / "d.gen.json")}
    for path, digest in outputs.items():
        assert digest == file_digest(path)
    # the table is keyed to the written CSV: an edit at the same length
    # is parsed, not matched to the table
    before = load_dataset_csv(out)
    text = out.read_bytes()
    at = text.index(b"1", text.index(b"\n"))
    out.write_bytes(text[:at] + b"2" + text[at + 1:])
    edited = load_dataset_csv(out)
    table_path(out).unlink()
    parsed = load_dataset_csv(out)
    assert edited.ys.tobytes() == parsed.ys.tobytes()
    assert edited.xs.tobytes() == parsed.xs.tobytes()
    assert (edited.xs.tobytes(), edited.ys.tobytes()) != \
        (before.xs.tobytes(), before.ys.tobytes())


def test_simulate_refuses_outputs_that_are_one_file(tmp_path, capsys):
    out = tmp_path / "d.csv"
    out.write_bytes(b"old")
    os.link(out, table_path(out))
    assert run_cli(["simulate", "--truth", "g0_2", "--n", "50",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: outputs {out} and {table_path(out)} are one file\n")
    assert out.read_bytes() == b"old"


def test_calls_in_one_process_record_their_own_flags(workdir, tmp_path):
    data = str(workdir / "data.csv")
    assert cli._parser() is cli._parser()
    assert run_cli(["fit", "--data", data, "--k", "2", "--max-iter", "7",
                    "--tol", "1e-3", "--init", "random",
                    "--out", str(tmp_path / "a.json")]) == 0
    assert run_cli(["fit", "--data", data, "--k", "1",
                    "--out", str(tmp_path / "b.json")]) == 0
    first = load_manifest(tmp_path / "a.manifest.json").config
    second = load_manifest(tmp_path / "b.manifest.json").config
    assert (first["K"], first["max_iter"], first["tol"], first["init"]) == \
        (2, 7, 1e-3, "random")
    assert second == json.loads(json.dumps({"K": 1, **asdict(FitConfig())}))


TINY_SELECT = ["select-study", "--truth", "g0_2", "--n-min", "300",
               "--n-max", "300", "--n-count", "1", "--reps", "1",
               "--kmax", "2", "--methods", "dsc", "--em-max-iter", "50",
               "--workers", "1"]


@pytest.mark.parametrize("command", ["dendrogram", "select", "rate-study",
                                     "select-study"])
def test_dotted_out_base_keeps_its_tail(workdir, tmp_path, command):
    data, fit = str(workdir / "data.csv"), str(workdir / "fit.json")
    argv = {
        "dendrogram": ["dendrogram", "--model", fit, "--data", data],
        "select": ["select", "--data", data, "--kmax", "2",
                   "--method", "all"],
        "rate-study": ["rate-study", *TINY_STUDY],
        "select-study": TINY_SELECT,
    }[command]
    written = []
    for name in ("a", "a.5"):
        before = set(tmp_path.iterdir())
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
        written.append({p.name for p in set(tmp_path.iterdir()) - before})
    plain, dotted = written
    assert "a.manifest.json" in plain
    assert dotted == {"a.5" + name[1:] for name in plain}


@pytest.mark.parametrize("command, own", [("simulate", ".csv"),
                                          ("fit", ".json"),
                                          ("metrics", ".json")])
def test_file_out_replaces_only_its_own_suffix(workdir, tmp_path, command,
                                               own):
    data, fit = str(workdir / "data.csv"), str(workdir / "fit.json")
    argv = {
        "simulate": ["simulate", "--truth", "g0_2", "--n", "50"],
        "fit": ["fit", "--data", data, "--k", "1"],
        "metrics": ["metrics", "--fitted", fit, "--reference", fit],
    }[command]
    for name in ("a.5", "a.6", f"a{own}"):
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
    # one manifest per run, each naming only its own output
    for name, manifest in [("a.5", "a.5"), ("a.6", "a.6"), (f"a{own}", "a")]:
        outputs = load_manifest(tmp_path / f"{manifest}.manifest.json").outputs
        assert str(tmp_path / name) in outputs
        if command == "simulate":
            assert str(tmp_path / f"{manifest}.gen.json") in outputs
    assert len(list(tmp_path.glob("*.manifest.json"))) == 3


@pytest.mark.parametrize("table", ["kept", "removed", "csv-edited",
                                   "fnv-field", "v1"])
@pytest.mark.parametrize("command", ["fit", "dendrogram", "select"])
def test_data_digest_is_the_file_digest(workdir, tmp_path, monkeypatch,
                                        command, table):
    data = tmp_path / "data.csv"
    assert run_cli(["simulate", "--truth", "g0_2", "--n", "300", "--seed",
                    "2", "--out", str(data)]) == 0
    if table == "removed":
        table_path(data).unlink()
    elif table == "csv-edited":
        # an edit of the same length: the table's key no longer holds
        text = data.read_bytes()
        at = text.index(b"1", text.index(b"\n"))
        data.write_bytes(text[:at] + b"2" + text[at + 1:])
    elif table == "fnv-field":
        raw = bytearray(table_path(data).read_bytes())
        raw[48] ^= 0x01   # the stored FNV-1a digest; the CRC catches it
        table_path(data).write_bytes(raw)
    elif table == "v1":
        table_path(data).write_bytes(v1_table(data))
    argv = {
        "fit": ["fit", "--data", str(data), "--k", "2", "--seed", "1",
                "--out", str(tmp_path / "f.json")],
        "dendrogram": ["dendrogram", "--model", str(workdir / "fit.json"),
                       "--data", str(data), "--out", str(tmp_path / "f")],
        "select": ["select", "--data", str(data), "--kmax", "2",
                   "--method", "bic", "--out", str(tmp_path / "f")],
    }[command]
    hashed = []
    monkeypatch.setattr(cli, "file_digest", lambda path: hashed.append(
        Path(path)) or file_digest(path))
    assert run_cli(argv) == 0
    inputs = load_manifest(tmp_path / "f.manifest.json").inputs
    assert inputs[str(data)] == file_digest(data)
    # the CSV is FNV-hashed only when its table is not used
    assert (data in hashed) == (table != "kept")


@pytest.mark.parametrize("study, flags, field", [
    ("rate", ["--seed", "1"], "seed"),
    ("rate", ["--init-scale", "0.25"], "em.init_scale"),
    ("rate", ["--em-tol", "1e-4"], "em.tol"),
    ("selection", ["--eps", "0.05"], "contamination_eps")])
def test_resume_under_another_config_exits_one(tmp_path, capsys, study,
                                               flags, field):
    ckpt = tmp_path / "ck.csv"
    argv = [*(["rate-study", *TINY_STUDY] if study == "rate"
              else TINY_SELECT), "--checkpoint", str(ckpt)]
    assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
    before = ckpt.read_bytes(), record_path(ckpt).read_bytes()
    capsys.readouterr()
    assert run_cli(argv + flags + ["--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt} was written with "
                          f"another config: {field} is ")
    assert (ckpt.read_bytes(), record_path(ckpt).read_bytes()) == before
    assert not (tmp_path / "b.csv").exists()
    # the worker count is not part of the record
    assert run_cli(argv + ["--workers", "2",
                           "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == \
        (tmp_path / "a.csv").read_bytes()


def test_import_loads_no_openssl_or_multiprocessing():
    # hashlib (OpenSSL) and the process pool are imported where a command
    # hashes or a study starts workers, so importing the commands costs
    # neither's memory
    code = ("import sys, sgmoe.cli, sgmoe.experiments; "
            "print(sorted({'hashlib', '_hashlib', 'multiprocessing'} "
            "& set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(sgmoe.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
