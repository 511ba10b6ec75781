"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test registers a CRITERION n PASS/FAIL line that the conftest hook
prints in the terminal summary.  Expensive builds are session-scoped and
shared between criteria.
"""

import itertools
import time
from math import comb

import numpy as np
import pytest

from conftest import key_of, make_hand_net, register_criterion
from relucx import (
    BoundaryInconsistent,
    SampleGrid,
    assemble,
    betti_gf2,
    boundary_matrices,
    build_complex,
    compactify,
    decision_boundary,
    first_layer_vertices,
    node_map_value_matrix,
    product,
    random_init,
    sample_region_signs,
)
from relucx.builder import DegenerateNetwork
from relucx.cli import ExperimentConfig, main, run_experiment
from relucx.signs import unpack
from relucx.topology import _check_dd_zero

ARRANGEMENT_SIZES = ((2, 3), (2, 5), (2, 8), (3, 4), (3, 6))
EXPERIMENTS = (((2, 5, 1), 4200), ((3, 5, 1), 4300), ((2, 5, 5, 1), 4400))


def _finish(number: int, ok: bool, detail: str = "") -> None:
    register_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# shared builds


@pytest.fixture(scope="session")
def crit1_states():
    t0 = time.perf_counter()
    out = {}
    for n0, n1 in ARRANGEMENT_SIZES:
        runs = []
        for seed in range(100):
            net = random_init((n0, n1, 1), seed)
            runs.append((net, first_layer_vertices(net)))
        out[(n0, n1)] = runs
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def crit2_analysis():
    net = make_hand_net()
    state = build_complex(net)
    cx = assemble(state.vertices, state.covered)
    db = decision_boundary(cx)
    return net, state, cx, db, betti_gf2(compactify(db))


@pytest.fixture(scope="session")
def crit3_builds():
    def walk(arch, base, count):
        picked = []
        seed = base
        while len(picked) < count:
            net = random_init(arch, seed)
            seed += 1
            try:
                state = build_complex(net)
            except DegenerateNetwork:
                continue
            grid = SampleGrid.square(-20.0, 20.0, arch[0], 400)
            picked.append((net, state, sample_region_signs(net, grid)))
        return picked

    return walk((2, 5, 1), 1000, 50) + walk((2, 5, 5, 1), 2000, 20)


@pytest.fixture(scope="session")
def crit7_results():
    t0 = time.perf_counter()
    out = {}
    for arch, seed in EXPERIMENTS:
        config = ExperimentConfig(arch, trials=50, seed=seed)
        out[arch] = run_experiment(config)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_arrangement_counts(crit1_states):
    states, elapsed = crit1_states
    mismatches = 0
    for (n0, n1), runs in states.items():
        want_v = comb(n1, n0)
        want_r = sum(comb(n1, i) for i in range(n0 + 1))
        for _, state in runs:
            if len(state.vertices) != want_v or len(state.regions) != want_r:
                mismatches += 1
    _finish(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"500 single-layer builds, {mismatches} count mismatches, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_hand_example(crit2_analysis):
    _, state, _, db, report = crit2_analysis
    ok = (
        len(state.vertices) == 3
        and db.dim_counts() == (2, 3, 0)
        and report.betti == (1, 1)
        and report.bounded == 0
        and report.unbounded == 1
    )
    _finish(
        2,
        ok,
        f"vertices={len(state.vertices)}, db={db.dim_counts()[:2]}, "
        f"betti={report.betti}, bounded={report.bounded}, unbounded={report.unbounded}",
    )


def test_criterion_3_sampling_soundness(crit3_builds):
    violations = 0
    saturated = 0
    unequal_when_saturated = 0
    for _, state, sampled in crit3_builds:
        if not sampled <= state.regions:
            violations += 1
        if state.regions <= sampled:
            saturated += 1
            if sampled != state.regions:
                unequal_when_saturated += 1
    ok = violations == 0 and unequal_when_saturated == 0 and saturated >= 1
    _finish(
        3,
        ok,
        f"{len(crit3_builds)} nets, {violations} subset violations, "
        f"{saturated} fully sampled (all equal)",
    )


def test_criterion_4_semigroup_laws():
    # exhaustive N=4: every pairwise product computed, composition by table
    seqs = [key_of(e) for e in itertools.product((-1, 0, 1), repeat=4)]
    index = {s: i for i, s in enumerate(seqs)}
    idempotent = all(product(s, s) == s for s in seqs)
    table = np.array([[index[product(a, b)] for b in seqs] for a in seqs])
    exhaustive = all(
        np.array_equal(table[i][table], table[table[i]]) for i in range(len(seqs))
    )
    # 10^6 random triples at N=20 through the implementation directly
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 3, size=(1_000_000, 3, 20))
    keys = codes @ 4 ** np.arange(19, -1, -1)  # 40 bits: int64 is exact
    random_bad = 0
    for a, b, c in keys.tolist():
        if product(a, product(b, c)) != product(product(a, b), c):
            random_bad += 1
    ok = idempotent and exhaustive and random_bad == 0
    _finish(
        4,
        ok,
        f"idempotence + 531441 exhaustive N=4 triples, "
        f"{1_000_000 - random_bad}/1000000 random N=20 triples associative",
    )


def test_criterion_5_chain_complex_guard(crit1_states, crit2_analysis, crit3_builds):
    states, _ = crit1_states
    complexes = []
    boundaries = []
    for runs in states.values():
        for _, st in runs:
            complexes.append(assemble(st.vertices, st.covered))
    _, _, hand_cx, hand_db, _ = crit2_analysis
    complexes.append(hand_cx)
    boundaries.append(hand_db)
    for _, st, _ in crit3_builds:
        cx = assemble(st.vertices, st.covered)
        complexes.append(cx)
        boundaries.append(decision_boundary(cx))
    bad = 0
    for cx in complexes:
        try:
            _check_dd_zero(boundary_matrices(cx))
        except BoundaryInconsistent:
            bad += 1
    for db in boundaries:
        try:
            _check_dd_zero(compactify(db))
        except BoundaryInconsistent:
            bad += 1
    _finish(
        5,
        bad == 0,
        f"{len(complexes)} complexes + {len(boundaries)} compactified boundaries, "
        f"{bad} dd!=0",
    )


def test_criterion_6_product_table_values():
    v = key_of([1, 1, 0, 0])
    ok = (
        product(v, key_of([1, 1, 1, -1])) == key_of([1, 1, 1, -1])
        and product(v, key_of([1, 1, -1, 0])) == key_of([1, 1, -1, 0])
    )
    _finish(6, ok, "both published products reproduced")


def test_criterion_7_statistics(crit7_results):
    results, elapsed = crit7_results
    s1 = results[(2, 5, 1)][0]
    s2 = results[(3, 5, 1)][0]
    s3 = results[(2, 5, 5, 1)][0]
    checks = [
        0.92 <= s1.betti_mean[0] <= 1.20,
        0.82 <= s1.betti_mean[1] <= 1.30,
        0.72 <= s1.unbounded_mean <= 1.28,
        0.94 <= s2.betti_mean[0] <= 1.10,
        0.85 <= s2.betti_mean[2] <= 1.25,
        0.96 <= s3.betti_mean[0] <= 1.36,
        elapsed < 300.0,
    ]
    _finish(
        7,
        all(checks),
        f"(2,5,1) b0={s1.betti_mean[0]:.2f} b1={s1.betti_mean[1]:.2f} "
        f"unb={s1.unbounded_mean:.2f}; (3,5,1) b0={s2.betti_mean[0]:.2f} "
        f"b2={s2.betti_mean[2]:.2f}; (2,5,5,1) b0={s3.betti_mean[0]:.2f}; "
        f"50 trials each, {elapsed:.0f}s (< 300s)",
    )


def test_criterion_8_numerical_stability(
    crit1_states, crit2_analysis, crit3_builds, crit7_results
):
    states, _ = crit1_states
    jobs = []
    for runs in states.values():
        jobs.extend(runs)
    hand_net, hand_state, _, _, _ = crit2_analysis
    jobs.append((hand_net, hand_state))
    jobs.extend((net, st) for net, st, _ in crit3_builds)
    results, _ = crit7_results
    for arch, (_, rows) in results.items():
        for _, seed, *_ in rows:
            net = random_init(arch, seed)
            jobs.append((net, build_complex(net)))
    checked = 0
    outside = 0
    for net, st in jobs:
        if not st.vertices:
            continue
        vals = node_map_value_matrix(net, st.coords)[:, : st.covered]
        for row, key in zip(vals, st.vertices):
            mask = unpack([key], st.covered)[0] == 0
            checked += 1
            if float(np.max(np.abs(row[mask]))) > 1e-6:
                outside += 1
            elif (~mask).any() and float(np.min(np.abs(row[~mask]))) < 1e-8:
                outside += 1
    _finish(
        8,
        checked > 0 and outside == 0,
        f"{checked} vertices evaluated, {outside} outside [1e-8, 1e-6] separation",
    )


def test_criterion_9_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    bodies = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("t4", "4")):
        out = base / name
        code = main(
            [
                "experiment",
                "--arch",
                "2,5,1",
                "--trials",
                "10",
                "--seed",
                "99",
                "--out",
                str(out),
                "--threads",
                threads,
            ]
        )
        assert code == 0
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0].startswith("# generated ")
        bodies.append("\n".join(lines[1:]))
    ok = bodies[0] == bodies[1] == bodies[2]
    _finish(9, ok, "repeat run and --threads {1,4} byte-identical modulo timestamp line")
