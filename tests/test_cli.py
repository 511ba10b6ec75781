"""End-to-end command tests: exit codes, artifacts, determinism, fault injection."""

import hashlib
import json

import numpy as np
import pytest

from conftest import make_hand_net
from relucx import DegenerateNetwork, random_init, write_model
from relucx.cli import (
    EXIT_BAD_MODEL,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_ORACLE_VIOLATION,
    EXIT_UNSUPPORTED,
    ExperimentConfig,
    _box_pair,
    _REDRAW_STRIDE,
    build_parser,
    cmd_oracle_check,
    main,
    run_experiment,
)
from relucx.model import network_to_dict
import relucx.cli


@pytest.fixture
def hand_model(tmp_path):
    path = tmp_path / "hand.json"
    write_model(make_hand_net(), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# build


def test_build_hand_model(hand_model, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build", "--model", hand_model, "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "vertices": 3,
        "cells": 19,
        "regions": 7,
        "betti": [1, 1],
        "bounded": 0,
        "unbounded": 1,
    }
    betti = json.loads((out / "betti.json").read_text())
    assert betti == {"betti": [1, 1], "bounded": 0, "unbounded": 1}

    vert_rows = [json.loads(l) for l in (out / "vertices.jsonl").read_text().splitlines()]
    assert [r["signs"] for r in vert_rows] == ["(0,0,-1)", "(0,1,0)", "(1,0,0)"]
    assert vert_rows[1]["coords"] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert vert_rows[1]["zero_set"] == [0, 2]
    assert all(r["residual"] <= 1e-6 for r in vert_rows)

    cell_rows = [json.loads(l) for l in (out / "complex.jsonl").read_text().splitlines()]
    assert len(cell_rows) == 19
    assert sorted(r["dim"] for r in cell_rows).count(1) == 9
    texts = [r["signs"] for r in cell_rows]
    assert texts == sorted(texts, key=lambda t: [int(x) for x in t.strip("()").split(",")])


def test_build_svg_output(hand_model, tmp_path):
    out = tmp_path / "out"
    code = main(["build", "--model", hand_model, "--out", str(out), "--svg", "--box=-3,3"])
    assert code == EXIT_OK
    svg = (out / "db.svg").read_text()
    assert svg.count("<line") == 3 and svg.count("<circle") == 2


def test_build_svg_skipped_off_plane(tmp_path, capsys):
    path = tmp_path / "m3.json"
    write_model(random_init((3, 4, 1), 1), str(path))
    out = tmp_path / "out"
    assert main(["build", "--model", str(path), "--out", str(out), "--svg"]) == EXIT_OK
    assert not (out / "db.svg").exists()
    assert "n_0 = 2" in capsys.readouterr().err


def test_build_missing_file(tmp_path, capsys):
    code = main(["build", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_BAD_MODEL
    assert "nope.json" in capsys.readouterr().err


def test_build_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ definitely not json")
    assert main(["build", "--model", str(path), "--out", str(tmp_path)]) == EXIT_BAD_MODEL
    assert "invalid JSON" in capsys.readouterr().err


def test_build_bad_field_named(tmp_path, capsys):
    data = network_to_dict(make_hand_net())
    data["layers"][0]["bias"] = [0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["build", "--model", str(path), "--out", str(tmp_path)]) == EXIT_BAD_MODEL
    assert "layers[0].bias" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "oracle-check"])
@pytest.mark.parametrize(
    "field,value",
    [
        ("weights", [["a", 1.0], [0.0, 1.0]]),
        ("weights", [[[1.0], 1.0], [0.0, 1.0]]),
        ("bias", [True, 0.0]),
        ("bias", ["1.5", 0.0]),
    ],
    ids=["string-weight", "nested-weight", "bool-bias", "string-bias"],
)
def test_non_number_entry_named(tmp_path, capsys, command, field, value):
    data = network_to_dict(make_hand_net())
    data["layers"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    flags = ["--out", str(tmp_path / "out")] if command == "build" else []
    assert main([command, "--model", str(path), *flags]) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: layers[0].{field} must hold only numbers")
    assert captured.err.count("\n") == 1


def test_build_degenerate_model(tmp_path, capsys):
    data = {
        "architecture": [2, 3, 1],
        "layers": [
            {"weights": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0, 0.0]},
            {"weights": [[1.0, 1.0, 1.0]], "bias": [1.0]},
        ],
    }
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(data))
    assert main(["build", "--model", str(path), "--out", str(tmp_path)]) == EXIT_DEGENERATE
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "degenerate_network"
    assert report["detail"]


def test_build_unsupported_architecture(tmp_path, capsys):
    path = tmp_path / "narrow.json"
    write_model(random_init((3, 2, 1), 0), str(path))
    assert main(["build", "--model", str(path), "--out", str(tmp_path)]) == EXIT_UNSUPPORTED
    assert "first hidden layer" in capsys.readouterr().err


def test_build_constant_positive_output(tmp_path, capsys):
    data = {
        "architecture": [2, 2, 1],
        "layers": [
            {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
            {"weights": [[0.01, 0.01]], "bias": [10.0]},
        ],
    }
    path = tmp_path / "pos.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["build", "--model", str(path), "--out", str(out)]) == EXIT_OK
    betti = json.loads((out / "betti.json").read_text())
    assert betti == {"betti": [1, 0], "bounded": 0, "unbounded": 0}


def test_build_out_is_a_file(hand_model, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["build", "--model", hand_model, "--out", str(out)]) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# SHA-256 of complex.jsonl, betti.json and the sorted vertex sign texts of
# `relucx build` on random_init nets.  None of them holds a coordinate, so a
# changed digest means changed combinatorics, not changed float printing.
BUILD_DIGESTS = {
    ((2, 8, 8, 1), 0): (
        "58fd0acf805e039f4ca9267ea6dacc96132b6d7ef007911073c0b90e51d7ec91",
        "5ceb953962fa2091b2dfe8aa3cf0e1624680e781b8bb9bd7db42565b4b8432c6",
        "61f6355b86ed33f534265ec8b698ca81d8f745267ff80d807f4bd25540520fab",
    ),
    ((2, 8, 8, 1), 1): (
        "c1cd7d401a3b5548a42718faad92971bed258a00fd0ed9805a33428252b78bc9",
        "5ceb953962fa2091b2dfe8aa3cf0e1624680e781b8bb9bd7db42565b4b8432c6",
        "2d7056d10785e7d9d30e18ac8e02c2a6113de4a579a82fd5dbe9b64d0fde6b93",
    ),
    ((3, 6, 6, 1), 0): (
        "ed50b57f209806372c8285868adf93eb1acd38d52df26d9befddc36b93767d70",
        "c21cb23d19654f11636c89b0d9d8a8f0e415a87636d090f0e93517928018de3b",
        "b79468691ee18756e633fec9f8a9c6f990048a8398e45254f51d8e0c4e656f6d",
    ),
    ((3, 6, 6, 1), 1): (
        "69636ca56877b00aa34de01eda41bf2f5c73d4f3fd2ec73409182b34b71a8386",
        "e32b9cf18952aadfb2f7921fc9b030da7786bd778a0f8c0b05a8f6865f3fe504",
        "65e192bf4b633a11a2f60c88a5d4cba4b647077d09db6029c007689d2302870e",
    ),
    ((2, 6, 6, 6, 1), 0): (
        "3e04328c35410fee247c6668220d70d32bb8f59748ce3f97f4bf9d7d0eba896f",
        "26952e36760ecdeb8e4847cacd6f16b942488ab74d732101ad317e0b3db8420f",
        "bc064c82bb859bf9b91d3cb434d8b517e564fb0d01e93c724a3be9c0a3a109bf",
    ),
    ((2, 6, 6, 6, 1), 1): (
        "0bded874ed811684fc10f4f6324badfab21c08aac7220137f552ed5ae618c2b7",
        "283ae6ea37ef8f9ff16dfc550a19eafaf216940e40af60443f3cebf0886c8b34",
        "e3f4051ec768d6d9e8ccc341ebf8cb6a5518e7d091862f745d2d3827754a5d4f",
    ),
    ((4, 8, 8, 1), 0): (
        "57797199ed5a3e99552ad8ced6a224528402fd45abfc132cf47ab9b57bb1dcc1",
        "3b49dc3596fe214449cf0d12d4d78c8997cca8f22b4ecd173754325c819b7920",
        "7c7c24f90c31e7ba8b52c3927fb6a29c1c74366f1e67250f012960b2b32b798c",
    ),
    ((5, 8, 1), 1): (
        "49fdfc423ac247212b75f606e9d56f294cfec723a0bec9be2fd2b1526c616ce7",
        "0553a894c2225df4e2e94a4fa9213c5c3e4c2676d5a0fafb38af7601e9190595",
        "827817159e569c4d5ead097f89e0fe78b1c1ba7a6d78374cd393705ed61fc345",
    ),
    ((6, 7, 1), 2): (
        "731819e8f3782f15f3337a4738f5f9a887fb782db371b03edadb09a9b692ed22",
        "9254a65ffd8b642a025b5474ffe3a4b90c468788b67de366af1292b23733b11a",
        "1b2126cdde50bcfa7a4322c8d365d3518b428b9ae95cf3b5436ae7d2ecc33a5a",
    ),
}


@pytest.mark.parametrize("arch,seed", sorted(BUILD_DIGESTS))
def test_build_outputs_locked(arch, seed, tmp_path):
    model, out = tmp_path / "m.json", tmp_path / "out"
    write_model(random_init(arch, seed), str(model))
    assert main(["build", "--model", str(model), "--out", str(out)]) == EXIT_OK
    signs = sorted(json.loads(l)["signs"] for l in (out / "vertices.jsonl").read_text().splitlines())
    got = (
        hashlib.sha256((out / "complex.jsonl").read_bytes()).hexdigest(),
        hashlib.sha256((out / "betti.json").read_bytes()).hexdigest(),
        hashlib.sha256("\n".join(signs).encode()).hexdigest(),
    )
    assert got == BUILD_DIGESTS[arch, seed]


# ---------------------------------------------------------------------------
# experiment


def test_experiment_writes_stats(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(
        ["experiment", "--arch", "2,3,1", "--trials", "4", "--seed", "11", "--out", str(out)]
    )
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["architecture"] == "(2,3,1)"
    assert summary["trials"] == 4
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1].split(",")[:3] == ["architecture", "trials", "redraws"]
    assert "beta0_mean" in lines[1] and "unbounded_se" in lines[1]
    assert lines[2].startswith('"(2,3,1)",4,')
    assert lines[3] == "trial,seed,redraws,beta0,beta1,bounded,unbounded"
    raw = [l.split(",") for l in lines[4:]]
    assert [r[0] for r in raw] == ["0", "1", "2", "3"]
    assert [r[1] for r in raw] == ["11", "12", "13", "14"]  # seed = base + trial


# SHA-256 of stats.csv without its "# generated" timestamp line, from
# `relucx experiment --arch 2,8,8,1 --trials 8 --seed 0`.
STATS_DIGEST = "67bf00f5b2d2b67b608de0a19819d1a9884cdc36bbd4d953aae00ef994d5c108"


def test_experiment_stats_locked(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "--arch", "2,8,8,1", "--trials", "8", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "stats.csv").read_text().splitlines()
    assert lines[0].startswith("# generated ")
    assert hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest() == STATS_DIGEST


def test_experiment_deterministic_and_thread_independent(tmp_path):
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        code = main(
            [
                "experiment",
                "--arch",
                "2,4,1",
                "--trials",
                "6",
                "--seed",
                "77",
                "--out",
                str(out),
                "--threads",
                threads,
            ]
        )
        assert code == EXIT_OK
        outputs.append((out / "stats.csv").read_text().splitlines()[1:])
    assert outputs[0] == outputs[1] == outputs[2]


def test_experiment_redraws_on_degeneracy(tmp_path, monkeypatch):
    import relucx.cli as cli

    poison = random_init((2, 3, 1), 50 + 1)  # the net trial 1 draws first
    real_build = cli.build_complex

    def fake_build(net, tol):
        if np.array_equal(net.layers[0].weights, poison.layers[0].weights):
            raise DegenerateNetwork("injected")
        return real_build(net, tol)

    monkeypatch.setattr(cli, "build_complex", fake_build)
    config = ExperimentConfig((2, 3, 1), trials=3, seed=50, out_dir=str(tmp_path))
    summary, rows = run_experiment(config)
    assert summary.redraws == 1
    assert [r[0] for r in rows] == [0, 1, 2]
    assert rows[1][2] == 1
    assert rows[1][1] == 50 + 1 + _REDRAW_STRIDE
    assert rows[0][1] == 50 and rows[2][1] == 52


def test_experiment_single_trial_flags_se(tmp_path, capsys):
    config = ExperimentConfig((2, 3, 1), trials=1, seed=5, out_dir=str(tmp_path))
    summary, rows = run_experiment(config)
    assert "standard errors" in capsys.readouterr().err
    assert summary.betti_se == (0.0, 0.0)
    assert summary.bounded_se == 0.0
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig((2, 3, 1), trials=0, seed=5, out_dir=str(tmp_path)))


def test_experiment_out_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    argv = ["experiment", "--arch", "2,3,1", "--trials", "2", "--out", str(out)]
    assert main(argv) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any trial ran
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_experiment_bad_arch(tmp_path, capsys):
    code = main(["experiment", "--arch", "2,x,1", "--trials", "2", "--out", str(tmp_path)])
    assert code == EXIT_BAD_MODEL
    assert "architecture" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arch,trials,expected",
    [("2,0,1", "2", EXIT_BAD_MODEL), ("2,3,1", "0", EXIT_BAD_MODEL), ("1,3,1", "2", EXIT_UNSUPPORTED)],
)
def test_experiment_input_errors(tmp_path, capsys, arch, trials, expected):
    argv = ["experiment", "--arch", arch, "--trials", trials, "--out", str(tmp_path)]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "stats.csv").exists()


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_hand_model(hand_model, capsys):
    code = main(["oracle-check", "--model", hand_model, "--box=-3,3", "--resolution", "200"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["regions_builder"] == 7
    assert report["regions_sampled"] == 7
    assert report["violations"] == []
    assert report["missing"] == []
    assert report["counts_ok"] is True


def test_oracle_check_fault_injection(hand_model, capsys):
    from relucx import build_complex, read_model

    state = build_complex(read_model(hand_model))
    broken = sorted(state.regions)[:-1]  # drop one region record
    args = build_parser().parse_args(
        ["oracle-check", "--model", hand_model, "--box=-3,3", "--resolution", "200"]
    )
    code = cmd_oracle_check(args, built_regions=broken)
    assert code == EXIT_ORACLE_VIOLATION
    report = json.loads(capsys.readouterr().out)
    assert len(report["violations"]) == 1
    assert report["counts_ok"] is False


def test_oracle_check_degenerate_model(tmp_path, capsys):
    data = {
        "architecture": [2, 3, 1],
        "layers": [
            {"weights": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0, 0.0]},
            {"weights": [[1.0, 1.0, 1.0]], "bias": [1.0]},
        ],
    }
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(data))
    assert main(["oracle-check", "--model", str(path)]) == EXIT_DEGENERATE


def test_oracle_check_grid_too_large(tmp_path, capsys, monkeypatch):
    # 400^8 points exceed the largest array index; refused before any build
    path = tmp_path / "wide.json"
    write_model(random_init((8, 8, 1), 0), str(path))

    def refuse(net, tol):
        raise AssertionError("oracle-check built the complex of an unsampleable grid")

    monkeypatch.setattr(relucx.cli, "build_complex", refuse)
    assert main(["oracle-check", "--model", str(path)]) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: grid of 400^8 points exceeds")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# flag plumbing


def test_box_pair_parsing():
    assert _box_pair("-2,2") == (-2.0, 2.0)
    with pytest.raises(Exception):
        _box_pair("3")
    with pytest.raises(Exception):
        _box_pair("5,1")


@pytest.mark.parametrize(
    "flags", [["--box=-1e308,1e308", "--resolution", "50"], ["--resolution", "1"]]
)
def test_oracle_check_rejects_bad_grid(hand_model, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", "--model", hand_model, *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument" in captured.err


def test_tolerance_flags_forwarded(hand_model, tmp_path):
    # an absurd cond_max makes every solve look degenerate
    code = main(
        ["build", "--model", hand_model, "--out", str(tmp_path), "--cond-max", "0.5"]
    )
    assert code == EXIT_DEGENERATE
