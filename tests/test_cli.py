"""End-to-end command tests: exit codes, artifacts, determinism, fault injection."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import key_of, make_hand_net
from relucx import AffineLayer, DegenerateNetwork, ReluNetwork, random_init, write_model
from relucx.cli import (
    EXIT_BAD_MODEL,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_ORACLE_VIOLATION,
    EXIT_UNSUPPORTED,
    ExperimentConfig,
    _box_pair,
    _REDRAW_STRIDE,
    main,
    run_experiment,
)
from relucx.model import network_to_dict
from relucx.topology import ChainComplexGF2, CubicalComplex
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


def test_parser_is_built_once_and_keeps_no_flags(hand_model, tmp_path):
    assert relucx.cli.build_parser() is relucx.cli.build_parser()
    with_svg, without = tmp_path / "with", tmp_path / "without"
    assert main(["build", "--model", hand_model, "--out", str(with_svg), "--svg"]) == EXIT_OK
    assert main(["build", "--model", hand_model, "--out", str(without)]) == EXIT_OK
    assert (with_svg / "db.svg").exists() and not (without / "db.svg").exists()
    assert (without / "betti.json").exists()


# SHA-256 of db.svg from `relucx build --svg` on random_init nets.  Unlike
# BUILD_DIGESTS these hold coordinates, printed to three decimals.
SVG_DIGESTS = {
    ((2, 8, 8, 1), 3): "c3657a05420819e15fd859051af43b281bd808302391fafe3f01774fbf74ba55",
    ((2, 6, 6, 6, 1), 1): "23671d6586770b7a4449fa19cfd3e0bbfb6b6c31f76b604e2c8a35b0be6cd76a",
}


@pytest.mark.parametrize("arch,seed", sorted(SVG_DIGESTS))
def test_build_svg_locked(arch, seed, tmp_path):
    model, out = tmp_path / "m.json", tmp_path / "out"
    write_model(random_init(arch, seed), str(model))
    assert main(["build", "--model", str(model), "--out", str(out), "--svg"]) == EXIT_OK
    svg = (out / "db.svg").read_bytes()
    assert svg.count(b"<line") > 20
    assert hashlib.sha256(svg).hexdigest() == SVG_DIGESTS[arch, seed]


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
    for body in (
        b"{ definitely not json",
        b'{"architecture": [2, 1, 1], "layers": "\xff"}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the parser recurses
    ):
        path.write_bytes(body)
        assert main(["build", "--model", str(path), "--out", str(tmp_path)]) == EXIT_BAD_MODEL
        assert main(["oracle-check", "--model", str(path)]) == EXIT_BAD_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and all(l.startswith("error: invalid JSON in ") for l in lines)


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


def scaled_net(arch, seed) -> ReluNetwork:
    """Random net whose units are scaled by 10^U(-4, 4), so that its numbers span 8 decades."""
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(arch, arch[1:]):
        s = 10 ** rng.uniform(-4, 4, n_out)
        w = rng.standard_normal((n_out, n_in)) * s[:, None]
        b = rng.standard_normal(n_out) * s
        layers.append(AffineLayer(w, b))
    return ReluNetwork(arch, tuple(layers))


@pytest.mark.parametrize(
    "arch,seed,commands,error",
    [
        ((2, 3, 3, 1), 27, ["build"], "closure_violation"),  # Euler characteristic 0, not 1
        ((2, 4, 4, 1), 535, ["build", "oracle-check"], "duplicate_mismatch"),
    ],
)
def test_inconsistent_build_exits_degenerate(tmp_path, capsys, arch, seed, commands, error):
    path = tmp_path / "scaled.json"
    write_model(scaled_net(arch, seed), str(path))
    for command in commands:
        flags = ["--out", str(tmp_path / "out")] if command == "build" else []
        assert main([command, "--model", str(path), *flags]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error


def test_build_near_float_max_first_layer_is_quiet(tmp_path, capsys):
    # orthogonal, well-conditioned first-layer rows of size 1e308: their
    # determinant overflows, and the build reports only its one JSON line
    data = {
        "architecture": [2, 2, 1],
        "layers": [
            {"weights": [[1e308, 1e308], [1e308, -1e308]], "bias": [0.0, 0.0]},
            {"weights": [[1.0, 1.0]], "bias": [0.5]},
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["build", "--model", str(path), "--out", str(tmp_path / "out")]) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "degenerate_network"


def three_vertex_edge(cx):
    # edge (1,1,1,0) with its three vertex facets, one more than an edge can have
    vertices = tuple(key_of(v) for v in ([0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0]))
    return CubicalComplex(2, 4, (vertices, (key_of([1, 1, 1, 0]),), ()))


def nonzero_dd(db):
    # one vertex, one edge ending at it, one face bounded by the edge: d_1 . d_2 != 0
    return ChainComplexGF2((1, 1, 1), ((0b1,), (0b1,)))


@pytest.mark.parametrize(
    "name,fake,error,detail",
    [
        ("decision_boundary", three_vertex_edge, "closure_violation",
         "edge (1,1,1,0) has 3 vertex facets"),
        ("compactify", nonzero_dd, "boundary_inconsistent",
         "d_1 . d_2 has a nonzero column over GF(2)"),
    ],
)
def test_topology_inconsistency_exits_degenerate(
    hand_model, tmp_path, capsys, monkeypatch, name, fake, error, detail
):
    monkeypatch.setattr(relucx.cli, name, fake)
    argv = ["build", "--model", hand_model, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": error, "detail": detail}


OVERFLOWING_MODELS = [
    # layer 3's values at the vertices carried over from layer 2 overflow to inf
    (
        {
            "architecture": [2, 3, 3, 1],
            "layers": [
                {"weights": [[1, 0.5], [0.3, 1], [1, -1]], "bias": [0.1, 0.2, 0.3]},
                {"weights": [[1e300, 1e300, 1e300], [1, 2, 3], [3, -1, 2]], "bias": [1e300, 1, 2]},
                {"weights": [[1e300, 1, 1]], "bias": [1]},
            ],
        },
        r"^layer 3 at existing vertex \([-01,]+\): node map value inf is not finite$",
    ),
    # those values stay finite, but layer 3's composed region maps overflow
    (
        {
            "architecture": [2, 3, 1, 1],
            "layers": [
                {"weights": [[1, 0.5], [0.3, 1], [1, -1]], "bias": [1e-3, 2e-3, 3e-3]},
                {"weights": [[1e200, 1e200, 1e200]], "bias": [1e194]},
                {"weights": [[1e110]], "bias": [1]},
            ],
        },
        r"^layer 3, region \([-1,]+\): region map has a non-finite entry$",
    ),
]


@pytest.mark.parametrize("model,detail", OVERFLOWING_MODELS, ids=["values", "region-maps"])
def test_overflowing_model_exits_degenerate(tmp_path, capsys, model, detail):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(model))
    for command in ("build", "oracle-check"):
        flags = ["--out", str(tmp_path / "out")] if command == "build" else []
        assert main([command, "--model", str(path), *flags]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.err == ""
        (line,) = captured.out.splitlines()
        report = json.loads(line)
        assert report["error"] == "degenerate_network"
        assert re.match(detail, report["detail"])


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
    signs = sorted(
        json.loads(l)["signs"] for l in (out / "vertices.jsonl").read_text().splitlines()
    )
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
    code = main(
        ["experiment", "--arch", "2,8,8,1", "--trials", "8", "--seed", "0", "--out", str(out)]
    )
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


def test_experiment_leaves_numpy_ma_unimported(tmp_path):
    # A bare np.unique(x) imports numpy.ma on numpy 2.4, through its masked-array
    # check, and so raises the peak RSS of every run; a fresh interpreter shows it.
    script = (
        "import sys\n"
        "from relucx.cli import main\n"
        "argv = ['experiment', '--arch', '2,8,8,1', '--trials', '4', '--out', sys.argv[1]]\n"
        "assert main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(relucx.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines()[-1] == "False"


def test_experiment_redraws_on_degeneracy(monkeypatch):
    import relucx.cli as cli

    poison = random_init((2, 3, 1), 50 + 1)  # the net trial 1 draws first
    real_build = cli.build_complex

    def fake_build(net):
        if np.array_equal(net.layers[0].weights, poison.layers[0].weights):
            raise DegenerateNetwork("injected")
        return real_build(net)

    monkeypatch.setattr(cli, "build_complex", fake_build)
    config = ExperimentConfig((2, 3, 1), trials=3, seed=50)
    summary, rows = run_experiment(config)
    assert summary.redraws == 1
    assert [r[0] for r in rows] == [0, 1, 2]
    assert rows[1][2] == 1
    assert rows[1][1] == 50 + 1 + _REDRAW_STRIDE
    assert rows[0][1] == 50 and rows[2][1] == 52


def test_experiment_single_trial_flags_se(capsys):
    config = ExperimentConfig((2, 3, 1), trials=1, seed=5)
    summary, rows = run_experiment(config)
    assert "standard errors" in capsys.readouterr().err
    assert summary.betti_se == (0.0, 0.0)
    assert summary.bounded_se == 0.0
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig((2, 3, 1), trials=0, seed=5))


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
    "arch,trials,seed,expected",
    [
        ("2,0,1", "2", "0", EXIT_BAD_MODEL),
        ("2,3,1", "0", "0", EXIT_BAD_MODEL),
        ("1,3,1", "2", "0", EXIT_UNSUPPORTED),
        ("2,3,1", "2", "-5", EXIT_BAD_MODEL),
    ],
    ids=["2,0,1-2-1", "2,3,1-0-1", "1,3,1-2-3", "2,3,1-2-seed-5-1"],
)
def test_experiment_input_errors(tmp_path, capsys, arch, trials, seed, expected):
    out = tmp_path / "out"
    argv = ["experiment", "--arch", arch, "--trials", trials, "--seed", seed, "--out", str(out)]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "stats.csv").exists()
    # input errors are refused before --out is made; n0 = 1 only when building
    assert out.exists() == (expected == EXIT_UNSUPPORTED)


# ---------------------------------------------------------------------------
# experiment trials in forked processes


@pytest.fixture
def cpus(monkeypatch):
    """Make the process appear to run on `n` CPUs, and bound each test's time
    by an alarm so that a child that never answers fails the test, not hangs it."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    def on_alarm(signum, frame):
        raise TimeoutError("experiment did not finish in time")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    try:
        yield set_cpus
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fork_calls(monkeypatch):
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def experiment_argv(out, threads, arch="2,3,1", trials=4, seed=21):
    return ["experiment", "--arch", arch, "--trials", str(trials), "--seed", str(seed),
            "--out", str(out), "--threads", str(threads)]


def test_trial_spans_cover_trials_in_order():
    assert relucx.cli._trial_spans(7, 3) == [range(0, 3), range(3, 5), range(5, 7)]
    assert relucx.cli._trial_spans(2, 2) == [range(0, 1), range(1, 2)]
    assert relucx.cli._trial_spans(5, 1) == [range(0, 5)]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, capsys, fork_calls, threads):
    out = tmp_path / "new"
    assert main(experiment_argv(out, threads)) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --threads") and captured.err.count("\n") == 1
    assert not out.exists()  # refused before --out was made
    assert fork_calls == []
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig((2, 3, 1), trials=2, seed=0), 0)


def test_threads_capped_by_cpus_and_trials(tmp_path, cpus, fork_calls):
    assert main(experiment_argv(tmp_path / "trials", 1_000_000, trials=2)) == EXIT_OK
    assert len(fork_calls) == min(2, len(os.sched_getaffinity(0))) - 1
    cpus(2)
    fork_calls.clear()
    assert main(experiment_argv(tmp_path / "cpus", 1_000_000, trials=4)) == EXIT_OK
    assert len(fork_calls) == 1
    assert_no_children()


@pytest.mark.parametrize("threads,trials", [(4, 1), (1, 4)])
def test_no_child_for_one_trial_or_one_worker(tmp_path, cpus, fork_calls, threads, trials):
    cpus(4)
    assert main(experiment_argv(tmp_path, threads, trials=trials)) == EXIT_OK
    assert fork_calls == []


def test_serial_without_fork(tmp_path, cpus, monkeypatch):
    cpus(2)
    assert main(experiment_argv(tmp_path / "fork", 2)) == EXIT_OK
    monkeypatch.delattr(os, "fork")
    assert main(experiment_argv(tmp_path / "serial", 2)) == EXIT_OK
    forked, serial = (
        (tmp_path / n / "stats.csv").read_text().splitlines()[1:] for n in ("fork", "serial")
    )
    assert forked == serial


def test_processes_match_serial_rows(cpus):
    cpus(3)
    config = ExperimentConfig((2, 4, 1), trials=7, seed=3)
    assert run_experiment(config, 3) == run_experiment(config)
    assert_no_children()


def test_parallel_run_leaves_no_child_and_one_json_line(tmp_path, cpus, fork_calls, capfd):
    cpus(2)
    assert main(experiment_argv(tmp_path, 2)) == EXIT_OK
    assert len(fork_calls) == 1
    assert_no_children()
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["trials"] == 4


def run_both(tmp_path, capsys, argv_for):
    """Exit code, stdout and stderr of a serial and a 3-process run of the same command."""
    outcomes = []
    for threads in (1, 3):
        code = main(argv_for(tmp_path / f"t{threads}", threads))
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
        assert_no_children()
    return outcomes


def test_child_degenerate_trial_exits_as_serial(tmp_path, capsys, cpus, monkeypatch):
    # trials 0-1 run in this process, 2-3 and 4-5 in two children; trials 3
    # and 5 stay degenerate, and the earlier one, 3, must decide
    cpus(3)
    monkeypatch.setattr(relucx.cli, "_MAX_REDRAWS", 2)
    arch, seed = (2, 3, 1), 40
    poison = {
        random_init(arch, seed + t + a * _REDRAW_STRIDE).layers[0].weights.tobytes()
        for t in (3, 5)
        for a in range(3)
    }
    real_build = relucx.cli.build_complex

    def fake_build(net):
        if net.layers[0].weights.tobytes() in poison:
            raise DegenerateNetwork("injected")
        return real_build(net)

    monkeypatch.setattr(relucx.cli, "build_complex", fake_build)
    serial, forked = run_both(
        tmp_path, capsys, lambda out, k: experiment_argv(out, k, trials=6, seed=seed)
    )
    assert serial == forked
    code, out, _ = forked
    assert code == EXIT_DEGENERATE
    assert json.loads(out) == {
        "error": "degenerate_network",
        "detail": "trial 3: still degenerate after 2 redraws",
    }


def test_child_unsupported_architecture_exits_as_serial(tmp_path, capsys, cpus, monkeypatch):
    # trials 0-1, this process's span, run a supported net, so the n0 = 1
    # refusal comes from a child
    cpus(3)
    real_trial = relucx.cli._run_trial

    def run_trial(arch, base_seed, trial):
        if trial < 2:
            arch = (2,) + arch[1:]
        return real_trial(arch, base_seed, trial)

    monkeypatch.setattr(relucx.cli, "_run_trial", run_trial)
    serial, forked = run_both(
        tmp_path, capsys, lambda out, k: experiment_argv(out, k, arch="1,3,1", trials=6)
    )
    code, out, err = forked
    assert code == EXIT_UNSUPPORTED
    assert out == ""
    assert err == serial[2] and err.startswith("error: ") and err.count("\n") == 1


def test_child_exception_reaches_caller(cpus, monkeypatch):
    cpus(2)
    real_trial = relucx.cli._run_trial

    def run_trial(arch, base_seed, trial):
        if trial == 3:
            raise ZeroDivisionError("injected in trial 3")
        return real_trial(arch, base_seed, trial)

    monkeypatch.setattr(relucx.cli, "_run_trial", run_trial)
    config = ExperimentConfig((2, 3, 1), trials=4, seed=0)
    for workers in (1, 2):
        with pytest.raises(ZeroDivisionError, match="^injected in trial 3$"):
            run_experiment(config, workers)
        assert_no_children()


def test_child_exception_that_cannot_be_pickled(tmp_path, capsys, cpus, monkeypatch):
    cpus(2)

    class LocalError(Exception):
        pass

    def run_trial(arch, base_seed, trial):
        raise LocalError(f"trial {trial}")

    monkeypatch.setattr(relucx.cli, "_run_trial", run_trial)
    monkeypatch.setattr(relucx.cli, "_trial_spans", lambda trials, workers: [range(0), range(2)])
    assert main(experiment_argv(tmp_path, 2, trials=2)) == EXIT_BAD_MODEL
    assert capsys.readouterr().err == (
        "error: the process running trials 0-1 ended without a result (exit status 1)\n"
    )
    assert_no_children()


@pytest.mark.parametrize(
    "die,how",
    [
        (lambda: os._exit(7), "exit status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
    ],
)
def test_child_dying_without_result(tmp_path, capsys, cpus, monkeypatch, die, how):
    cpus(2)
    parent = os.getpid()
    real_trial = relucx.cli._run_trial

    def run_trial(arch, base_seed, trial):
        if os.getpid() != parent:
            die()
        return real_trial(arch, base_seed, trial)

    monkeypatch.setattr(relucx.cli, "_run_trial", run_trial)
    assert main(experiment_argv(tmp_path, 2)) == EXIT_BAD_MODEL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the process running trials 2-3 ended without a result ({how})\n"
    )
    assert not (tmp_path / "stats.csv").exists()
    assert_no_children()


def test_parent_failure_stops_children(cpus, monkeypatch):
    cpus(2)
    parent = os.getpid()
    real_trial = relucx.cli._run_trial

    def run_trial(arch, base_seed, trial):
        if os.getpid() != parent:
            time.sleep(30)  # a child far slower than this process's span
        if trial == 1:
            raise DegenerateNetwork("trial 1: injected")
        return real_trial(arch, base_seed, trial)

    monkeypatch.setattr(relucx.cli, "_run_trial", run_trial)
    config = ExperimentConfig((2, 3, 1), trials=4, seed=0)
    started = time.monotonic()
    with pytest.raises(DegenerateNetwork, match="trial 1: injected"):
        run_experiment(config, 2)
    assert time.monotonic() - started < 20  # the child was stopped, not waited for
    assert_no_children()


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


def test_oracle_check_fault_injection(hand_model, capsys, monkeypatch):
    real_build = relucx.cli.build_complex

    def build_missing_one_region(net):
        state = real_build(net)
        regions, owners, members = state.incidence
        kept = owners < len(regions) - 1  # every region but the one of the largest key
        state.incidence = regions[:-1], owners[kept], members[kept]
        return state

    monkeypatch.setattr(relucx.cli, "build_complex", build_missing_one_region)
    argv = ["oracle-check", "--model", hand_model, "--box=-3,3", "--resolution", "200"]
    assert main(argv) == EXIT_ORACLE_VIOLATION
    report = json.loads(capsys.readouterr().out)
    assert len(report["violations"]) == 1
    assert report["counts_ok"] is False


def test_oracle_check_overflowing_net(tmp_path, capsys):
    # on this box the net's node maps overflow to +-inf and NaN; a grid point with
    # a value that is not finite samples no region, and the rest match the build
    path = tmp_path / "big.json"
    write_model(random_init((2, 8, 8, 1), 0), str(path))
    argv = ["oracle-check", "--model", str(path), "--box=-7.5e307,7.5e307", "--resolution", "64"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []


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

    def refuse(net):
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


def test_tolerance_flags_rejected(tmp_path, capsys):
    # the tolerances are fixed; flags that once set them (and switched the
    # checks off with nan) are refused before anything runs
    out = tmp_path / "exp"
    argv = ["experiment", "--arch", "2,3,1", "--trials", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--deg-tol", "nan", "--cond-max", "nan"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: unrecognized arguments" in captured.err
    assert not out.exists()

