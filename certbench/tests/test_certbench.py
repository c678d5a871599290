"""Checks of the benchmark's own input generators, oracles and tracing."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer
from workloads import WORKLOADS

# one small certificate per workload
SMALL = {
    "curves-sn5": ["g_5(r,t)@r=1,t=1;free=t"],
    "rigidity-q": ["g_{5,3}#0", "g_{137A}#0"],
    "rigidity-qi": ["g_{5,1}#0"],
    "ideal-membership": ["Q13-out", "Q5", "seeded-d4-0"],
}


@pytest.fixture(scope="module")
def batches(nc):
    out = {}
    for name, wl in WORKLOADS.items():
        ctx = wl.setup(nc)
        out[name] = (ctx, wl.inputs(nc, ctx, 7))
    return out


def _cert(batches, workload, cid):
    return next(c for c in batches[workload][1] if c.cid == cid)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(nc, batches, name):
    wl = WORKLOADS[name]
    ctx, certs = batches[name]
    again = wl.inputs(nc, ctx, 7)
    assert run.inputs_digest(again) == run.inputs_digest(certs)
    assert run.inputs_digest(wl.inputs(nc, ctx, 8)) != run.inputs_digest(certs)


def test_rigidity_qi_inputs_are_gaussian(nc, batches):
    for cert in batches["rigidity-qi"][1]:
        mu, _ = cert.args
        assert mu.field == nc.scalars.FIELD_QI
        assert any(v.im for coeffs in mu.c.values() for v in coeffs.values())


@pytest.mark.parametrize("name", ["rigidity-q", "rigidity-qi"])
def test_rigidity_inputs_are_inside_their_density_windows(batches, name):
    for cert in batches[name][1]:
        lo, hi = WORKLOADS[name].nnz_window[cert.cid.split("#")[0]]
        assert lo <= workloads.table_nnz(cert.args[0]) <= hi


@pytest.mark.parametrize("seed", range(5))
def test_integer_basis_change_is_invertible(nc, seed):
    rng = random.Random(seed)
    mu = nc.catalog.Catalog().structure("g_{247H}")
    g = workloads._transvection_basis(mu.n, rng, 8, (-1, 1), 1)
    ginv = nc.linalg.inverse(nc.linalg.ExactMatrix.from_dense(g))
    assert all(v.denominator == 1 for v in ginv.entries.values())  # det = +-1
    moved = nc.liealg.change_basis(mu, g)
    assert nc.liealg.change_basis(moved, ginv) == mu


@pytest.mark.parametrize("seed", range(5))
def test_gaussian_basis_change_is_invertible(nc, seed):
    rng = random.Random(seed)
    qi = nc.scalars.QI
    mu = nc.catalog.Catalog().structure("g_{5,6}")
    g = workloads._transvection_basis(mu.n, rng, 2, (qi(0, 1), qi(1, -1)), qi(1))
    cols = lambda m: [[m[r][c] for r in range(mu.n)] for c in range(mu.n)]  # noqa: E731
    ginv = nc.linalg.inverse(nc.linalg.ExactMatrix.from_dense(g, nc.scalars.FIELD_QI))
    ginv_rows = [[ginv.entries.get((r, c), 0) for c in range(mu.n)] for r in range(mu.n)]
    moved = nc.liealg.table_in_basis(mu, cols(g))
    assert nc.liealg.table_in_basis(moved, cols(ginv_rows)) == mu


def test_seeded_members_are_multihomogeneous(batches):
    seeded = [c for c in batches["ideal-membership"][1] if c.cid.startswith("seeded")]
    assert len(seeded) == sum(count for count, _ in WORKLOADS["ideal-membership"].SEEDED.values())
    for cert in seeded:
        f, degree = cert.args
        assert {sum(e for _, e in mono) for mono in f.terms} == {degree}
        assert len({workloads.torus_weight(mono) for mono in f.terms}) == 1


@pytest.mark.parametrize("workload,cid", [(w, c) for w, cids in SMALL.items() for c in cids])
def test_traced_decomposition_equals_untraced_report(nc, batches, workload, cid):
    wl = WORKLOADS[workload]
    ctx = batches[workload][0]
    cert = _cert(batches, workload, cid)
    untraced = wl.run(nc, ctx, cert)
    tracers = [Tracer(), Tracer()]
    traced = [wl.run_traced(nc, ctx, cert, tr) for tr in tracers]
    assert traced[0] == traced[1] == untraced == cert.expect
    # the exact counters repeat bit for bit
    assert tracers[0].counters == tracers[1].counters
    assert tracers[0].spans and all(s[2] >= s[1] for s in tracers[0].spans)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["cert", 0.0, 10.0, -1, "a"], ["x", 1.0, 4.0, 0, "a"], ["y", 5.0, 6.0, 0, "a"]]
    assert tr.self_times() == {"cert": 6.0, "x": 3.0, "y": 1.0}


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail(list(range(40)))
    assert (value, beyond) == (29, 10) and pct == 75.0


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    e2e = run.end_to_end_metrics([1.0], [2.0], list(range(1, 30)))
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in e2e.values()] == [m["unit"] for m in spec["end_to_end"]]
    layers = run.per_layer_metrics([{}], [{}], {}, [1.0], [1.5])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layers.items())


def test_traced_run_end_to_end():
    """A whole traced run: one untraced and one traced batch, every
    per-layer metric printed, and the report written."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "ideal-membership",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(m["name"] for m in _benchmark_json()["per_layer"])
    assert last["metrics"]["ideals.member_bounded_s"]["value"] > 0
    assert last["metrics"]["ideals.multiplier_terms"]["value"] > 0
    report = json.loads((run.RESULTS / "ideal-membership-seed3-trace1.json").read_text())
    assert report["stamps"]["seed"] == 3 and report["stamps"]["backend"] in ("python", "compiled")
    assert last["attempted"] == 2 * report["stamps"]["batch_size"]
    assert {s["cert"] for s in report["spans"]} >= {"Q13-out", "Q13^2"}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "certbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((run.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "curves-sn5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not Path(tmp_path / "certbench" / "results").exists()
