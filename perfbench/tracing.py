"""Spans around the program's public functions, recorded from outside it.

Each traced function is replaced, under the name its callers look it up by,
with a wrapper that records a span: name, start, end, parent span and
thread.  No file of the program changes.  `numpy.linalg.solve` is called tens
of thousands of times per network, so it gets no spans of its own: each call
adds to the `solve_calls` and `solve_systems` counters of the span it runs
in, and its time stays in that span.

A span's self time is its duration minus the part of it that its child spans
cover.  Spans begun on a thread-pool thread take the open `cli.main` span as
their parent, so parallel trials count once in the parent's covered time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

ROOT = "cli.main"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.attrs = {}

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, **self.attrs}


def _after_extend(span, args, kwargs, result):
    state = args[2] if len(args) > 2 else kwargs["state"]
    span.attrs["regions"] = len(state.regions)
    span.attrs["new_vertices"] = len(result.vertices) - len(state.vertices)


def _after_first_layer(span, args, kwargs, result):
    span.attrs["new_vertices"] = len(result.vertices)


def _after_sample(span, args, kwargs, result):
    net, grid = args[0], args[1]
    points = grid.resolution ** len(grid.lower)
    span.attrs["points"] = points
    span.attrs["regions_sampled"] = len(result)
    span.attrs["value_matrix_mb"] = points * sum(net.architecture[1:]) * 8 / 1e6


def _set_len(key, of):
    return lambda span, args, kwargs, result: span.attrs.__setitem__(key, len(of(result)))


def _traced_functions():
    """(module, attribute, span name, hook) for every traced lookup name."""
    import relucx.builder as builder
    import relucx.cli as cli
    import relucx.oracle as oracle
    import relucx.topology as topology

    def boundary_nnz(span, args, kwargs, result):
        span.attrs["boundary_nnz"] = sum(c.bit_count() for cols in result.boundaries for c in cols)

    return [
        (cli, "main", ROOT, None),
        (cli, "random_init", "model.random_init", None),
        (cli, "read_model", "model.read_model", None),
        (cli, "build_complex", "builder.build_complex", _set_len("vertices", lambda r: r.vertices)),
        (cli, "assemble", "topology.assemble", _set_len("cells", lambda r: r.cells)),
        (cli, "decision_boundary", "topology.decision_boundary", _set_len("db_cells", lambda r: r.cells)),
        (cli, "compactify", "topology.compactify", boundary_nnz),
        (cli, "betti_gf2", "topology.betti", None),
        (cli, "sample_region_signs", "oracle.sample_region_signs", _after_sample),
        (builder, "first_layer_vertices", "builder.first_layer_vertices", _after_first_layer),
        (builder, "extend_layer", "builder.extend_layer", _after_extend),
        (builder, "cube_closure", "builder.cube_closure", None),
        (topology, "cube_closure", "builder.cube_closure", None),
        (builder, "region_affine_maps", "model.region_affine_maps", None),
        (builder, "node_map_value_matrix", "model.node_map_value_matrix", None),
        (oracle, "node_map_value_matrix", "model.node_map_value_matrix", None),
        (topology, "gf2_rank", "topology.gf2_rank", None),
    ]


class Tracer:
    """Installs the wrappers, keeps spans in memory, and takes the wrappers out again."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Span | None = None
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span = Span(next(tracer._ids), name, parent.id if parent else None,
                        threading.get_ident())
            stack.append(span)
            if name == ROOT:
                tracer._root = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == ROOT:
                    tracer._root = None
                tracer.spans.append(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    def _count_solves(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            stack = tracer._stack()
            if stack:
                attrs = stack[-1].attrs
                attrs["solve_calls"] = attrs.get("solve_calls", 0) + 1
                batch = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
                attrs["solve_systems"] = attrs.get("solve_systems", 0) + batch
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name, hook in _traced_functions():
            fn = getattr(owner, attr)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))
        self._patches.append((np.linalg, "solve", np.linalg.solve))
        np.linalg.solve = self._count_solves(np.linalg.solve)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


# per-layer time metric -> span whose self time it sums
_SELF_TIME = {
    "builder.first_layer_s": "builder.first_layer_vertices",
    "builder.extend_layer_s": "builder.extend_layer",
    "builder.cube_closure_s": "builder.cube_closure",
    "model.region_affine_maps_s": "model.region_affine_maps",
    "model.node_map_value_matrix_s": "model.node_map_value_matrix",
    "model.random_init_s": "model.random_init",
    "model.read_model_s": "model.read_model",
    "topology.assemble_s": "topology.assemble",
    "topology.decision_boundary_s": "topology.decision_boundary",
    "topology.compactify_s": "topology.compactify",
    "topology.betti_s": "topology.betti",
    "topology.gf2_rank_s": "topology.gf2_rank",
    "oracle.sample_s": "oracle.sample_region_signs",
    "cli.self_s": ROOT,
}


def layer_metrics(spans, rounds: int, ops: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run of `rounds` rounds.

    `ops` holds totals read from the program's own outputs: output bytes,
    trials, redraws and the builder's region count of every oracle check.
    Times and counts are per round; ratios are taken over the whole run.
    """
    selfs = self_times(spans)
    total = dict.fromkeys(_SELF_TIME.values(), 0.0)
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    sample_wall = 0.0
    value_matrix_mb = 0.0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "oracle.sample_region_signs":
            sample_wall += s.end - s.start
            value_matrix_mb = max(value_matrix_mb, s.attrs.get("value_matrix_mb", 0.0))
        for key, value in s.attrs.items():
            if key.startswith("solve_") and not s.name.startswith("builder."):
                continue
            if key != "value_matrix_mb":
                attrs[key] = attrs.get(key, 0) + value

    def per_round(x):
        return x / rounds

    m = {name: per_round(total[span]) for name, span in _SELF_TIME.items()}
    m["builder.cube_closure_calls"] = per_round(calls.get("builder.cube_closure", 0))
    m["model.region_affine_maps_calls"] = per_round(calls.get("model.region_affine_maps", 0))
    for name, key in (
        ("builder.region_visits", "regions"),
        ("builder.new_vertices", "new_vertices"),
        ("builder.vertices", "vertices"),
        ("builder.solve_calls", "solve_calls"),
        ("builder.solve_systems", "solve_systems"),
        ("topology.cells", "cells"),
        ("topology.db_cells", "db_cells"),
        ("topology.boundary_nnz", "boundary_nnz"),
        ("oracle.points", "points"),
        ("oracle.regions_sampled", "regions_sampled"),
    ):
        m[name] = per_round(attrs.get(key, 0))
    systems = attrs.get("solve_systems", 0)
    m["builder.accept_ratio"] = attrs.get("new_vertices", 0) / systems if systems else 0.0
    m["oracle.points_per_s"] = attrs.get("points", 0) / sample_wall if sample_wall else 0.0
    built = ops["oracle_regions_builder"]
    m["oracle.coverage"] = attrs.get("regions_sampled", 0) / built if built else 0.0
    m["oracle.value_matrix_mb"] = value_matrix_mb
    m["cli.output_mb"] = per_round(ops["output_bytes"] / 1e6)
    m["cli.trials"] = per_round(ops["trials"])
    m["cli.redraws"] = per_round(ops["redraws"])
    return m
