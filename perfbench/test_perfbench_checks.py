"""The benchmark's output checks accept the program's outputs and reject tampered ones.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import relucx.cli  # noqa: E402
from checks import CheckFailed  # noqa: E402

BOX = (-20.0, 20.0)


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = relucx.cli.main([str(a) for a in argv])
    assert rc == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """A (2,6,6,1) net whose boundary has several components, built once."""
    root = tmp_path_factory.mktemp("build")
    model = checks.random_model((2, 6, 6, 1), 1)
    (root / "model.json").write_text(json.dumps(model))
    run_cli(["build", "--model", root / "model.json", "--out", root / "out"])
    return model, root / "out"


@pytest.fixture
def copy(build, tmp_path):
    model, out = build
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return model, dst


def edit_jsonl(path: Path, index: int, change) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    change(rows[index])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def test_untampered_build_passes(build):
    model, out = build
    report = checks.check_build(model, out)
    assert report["betti"][0] >= 2  # the union-find tamper below needs a nontrivial beta0


def test_moved_vertex_fails(copy):
    model, out = copy
    edit_jsonl(out / "vertices.jsonl", 0, lambda r: r["coords"].__setitem__(0, r["coords"][0] + 1e-3))
    with pytest.raises(CheckFailed, match="not 0"):
        checks.check_build(model, out)


def test_flipped_vertex_sign_fails(copy):
    model, out = copy

    def flip(row):
        signs = checks.parse_signs(row["signs"])
        i = next(i for i, s in enumerate(signs) if s != 0)
        row["signs"] = "(" + ",".join(str(-s if j == i else s) for j, s in enumerate(signs)) + ")"

    edit_jsonl(out / "vertices.jsonl", 0, flip)
    with pytest.raises(CheckFailed, match="map"):
        checks.check_build(model, out)


def test_missing_cell_fails_euler(copy):
    model, out = copy
    lines = (out / "complex.jsonl").read_text().splitlines()
    edge = next(i for i, line in enumerate(lines) if json.loads(line)["dim"] == 1)
    del lines[edge]
    (out / "complex.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="sum of"):
        checks.check_build(model, out)


def test_wrong_cell_dim_fails(copy):
    model, out = copy
    edit_jsonl(out / "complex.jsonl", 0, lambda r: r.__setitem__("dim", r["dim"] + 1))
    with pytest.raises(CheckFailed, match="has dim"):
        checks.check_build(model, out)


def test_betti_off_by_one_fails_euler_poincare(copy):
    model, out = copy
    edit_json(out / "betti.json", lambda b: b["betti"].__setitem__(1, b["betti"][1] + 1))
    with pytest.raises(CheckFailed, match="Euler-Poincare"):
        checks.check_build(model, out)


def test_beta0_with_matching_euler_fails_union_find(copy):
    model, out = copy

    def shift(b):
        b["betti"] = [b["betti"][0] + 1, b["betti"][1] + 1]
        b["bounded"] += 1

    edit_json(out / "betti.json", shift)
    with pytest.raises(CheckFailed, match="union-find"):
        checks.check_build(model, out)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    root = tmp_path_factory.mktemp("oracle")
    model = checks.random_model((2, 5, 1), 4)
    (root / "model.json").write_text(json.dumps(model))
    stdout = run_cli(["oracle-check", "--model", root / "model.json",
                      f"--box={BOX[0]},{BOX[1]}", "--resolution", 200])
    return model, json.loads(stdout)


def test_untampered_oracle_passes(oracle):
    model, report = oracle
    checks.check_oracle(model, json.dumps(report), BOX, 200)


@pytest.mark.parametrize("tamper, match", [
    (lambda r: r["violations"].append("(1,1,1,1,1,1)"), "violations"),
    (lambda r: r.__setitem__("regions_sampled", r["regions_sampled"] + 1), "the grid has"),
    (lambda r: r["missing"].append("(1,1,1,1,1,1)"), "missing"),
])
def test_tampered_oracle_report_fails(oracle, tamper, match):
    model, report = oracle
    report = json.loads(json.dumps(report))
    tamper(report)
    with pytest.raises(CheckFailed, match=match):
        checks.check_oracle(model, json.dumps(report), BOX, 200)


ARCH, BASE, TRIALS = (2, 5, 1), 7, 4


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    run_cli(["experiment", "--arch", "2,5,1", "--trials", TRIALS, "--seed", BASE, "--out", root])
    return root / "stats.csv"


def tampered_csv(src: Path, dst: Path, line_no: int, column: str, change) -> Path:
    """Copy of stats.csv with one field changed; line 0 is the timestamp comment."""
    lines = src.read_text().splitlines()
    head = next(csv.reader([lines[1] if line_no == 2 else lines[3]]))
    cells = next(csv.reader([lines[line_no]]))
    i = head.index(column)
    cells[i] = change(cells[i])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    lines[line_no] = buf.getvalue()
    dst.write_text("\n".join(lines) + "\n")
    return dst


def test_untampered_stats_pass(experiment):
    rows = checks.check_stats_csv(experiment, ARCH, BASE, TRIALS)
    assert [r["trial"] for r in rows] == list(range(TRIALS))


@pytest.mark.parametrize("line_no, column, change, match", [
    (2, "beta0_mean", lambda c: str(float(c) + 0.25), "beta0_mean"),
    (2, "beta1_se", lambda c: str(float(c) + 0.01), "beta1_se"),
    (4, "seed", lambda c: str(int(c) + 1), "rule gives"),
    (5, "redraws", lambda c: str(int(c) + 1), "redraws"),
])
def test_tampered_stats_fail(experiment, tmp_path, line_no, column, change, match):
    bad = tampered_csv(experiment, tmp_path / "stats.csv", line_no, column, change)
    with pytest.raises(CheckFailed, match=match):
        checks.check_stats_csv(bad, ARCH, BASE, TRIALS)


def test_trial_rebuild_matches_and_rejects_a_wrong_row(experiment, tmp_path):
    rows = checks.check_stats_csv(experiment, ARCH, BASE, TRIALS)
    model = checks.random_model(ARCH, rows[0]["seed"])
    (tmp_path / "model.json").write_text(json.dumps(model))
    run_cli(["build", "--model", tmp_path / "model.json", "--out", tmp_path / "out"])
    checks.check_trial_rebuild(rows[0], model, tmp_path / "out")
    wrong = dict(rows[0], beta1=rows[0]["beta1"] + 1)
    with pytest.raises(CheckFailed, match="its rebuild gives"):
        checks.check_trial_rebuild(wrong, model, tmp_path / "out")
