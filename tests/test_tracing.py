"""The benchmark's tracer still finds, and sees through, every name it patches.

`perfbench/tracing.py` wraps the program's functions by module attribute, so
renaming one of them in `src/` would silently blind the benchmark's per-layer
metrics.  This test installs the tracer, runs one small `experiment`, one
small `build` and one small `oracle-check`, and checks that the builder's
and the sampler's spans were recorded with the attributes their hooks read.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import relucx.cli
from relucx import random_init, write_model

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_and_record_builder_spans(tracing, tmp_path, capsys):
    traced = tracing._traced_functions()
    assert [f"{o.__name__}.{a}" for o, a, _, _ in traced if not hasattr(o, a)] == []
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in traced]
    solve = np.linalg.solve
    model = tmp_path / "m.json"
    write_model(random_init((3, 5, 1), 0), str(model))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        exp = ["experiment", "--arch", "2,4,4,1", "--trials", "2", "--seed", "5"]
        assert relucx.cli.main([*exp, "--out", str(tmp_path / "exp")]) == 0
        assert relucx.cli.main(["build", "--model", str(model), "--out", str(tmp_path / "b")]) == 0
        oracle = ["oracle-check", "--model", str(model), "--resolution", "20"]
        assert relucx.cli.main(oracle) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    assert np.linalg.solve is solve
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    assert len(spans[tracing.ROOT]) == 3
    for name in ("builder.cube_closure", "builder.first_layer_vertices", "builder.extend_layer"):
        assert name in spans
    # one closure per assembled network, and the builder's solves are counted
    assert len(spans["builder.cube_closure"]) == len(spans["topology.assemble"]) >= 3
    assert sum(s.attrs.get("solve_calls", 0) for s in spans["builder.first_layer_vertices"]) > 0
    assert sum(s.attrs.get("solve_calls", 0) for s in spans["builder.extend_layer"]) > 0
    assert all(s.attrs["regions"] > 0 for s in spans["builder.extend_layer"])
    [sample] = spans["oracle.sample_region_signs"]
    assert sample.attrs["points"] == 20**3
    assert 0 < sample.attrs["regions_sampled"] <= sample.attrs["points"]
