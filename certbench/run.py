#!/usr/bin/env python3
"""Certificate benchmark for nilcohom: one workload, one seed, one process.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One thread drives the package through a closed loop: each certificate is
issued only after the previous one returns.  The workload's batch is run
``round(--seconds / nominal_batch_s)`` times (at least once), which takes
about ``--seconds`` seconds, and every certificate is checked against its
known answer.  A wrong answer, an exception or a
resource cap counts as a failure and the run carries on.

Times are host-normalized: the host's speed drifts by up to 40% over tens
of seconds, so a fixed pure-Python calibration loop that does not use the
package runs after every certificate, and each certificate's wall time is
scaled by CAL_REF_S over the mean of the 21 calibrations nearest it.  The raw
wall-clock figures are printed on a ``# raw`` line and kept in the report.
See README.md for how well the correction works.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the time
between untraced batches and batches computed as per-module calls with a
span around each, and prints the per-layer metrics and the tracing overhead.
Each metric is printed as ``name = value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full report,
with the run's stamps, per-certificate times and (traced) spans, is written
to ``certbench/results/``.  The exit code is 1 when any certificate failed,
2 when the package sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("catalog", "cohomology", "errors", "ideals", "liealg", "linalg", "polynomials", "scalars")
SETUP_REPS = 5
OVERRUN = 2.5  # a run stops starting batches after OVERRUN * --seconds
# Typical time of calibrate() on the reference host (2-vCPU VM, Python
# 3.11); reported times are scaled to the host speed at which it takes this.
CAL_REF_S = 1.7e-3

TIME_LAYERS = (
    "cohomology.word_rows",
    "cohomology.d1_d2",
    "linalg.reduce",
    "linalg.d1_rank",
    "linalg.in_kernel",
    "liealg.guard",
    "ideals.member_bounded",
    "ideals.nonmember",
    "ideals.groebner",
    "polynomials.verify",
    "catalog.evaluate",
)
SETUP_LAYERS = ("catalog.load", "ideals.generators")
COUNTERS = {
    "cohomology.word_rows": "count",
    "cohomology.word_rows_distinct": "count",
    "cohomology.word_rows_nominal": "count",
    "linalg.rows_in": "count",
    "linalg.rank": "count",
    "linalg.max_coeff_bits": "bits",
    "linalg.in_kernel_dots": "count",
    "liealg.table_nnz": "count",
    "ideals.multiplier_terms": "count",
    "ideals.groebner_basis_size": "count",
}


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "nilcohom" or m.startswith("nilcohom.")]:
        del sys.modules[name]
    importlib.import_module("nilcohom")
    return SimpleNamespace(**{m: importlib.import_module(f"nilcohom.{m}") for m in MODULES})


def canonical(x):
    """Stable text of a generated input, for the inputs' sha256."""
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(canonical(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in sorted(x.items())) + "}"
    if hasattr(x, "terms"):  # MultiPoly
        return "P" + canonical(x.terms)
    if hasattr(x, "c") and hasattr(x, "field"):  # StructureConstants
        return f"L{x.n}{x.field}" + canonical(x.c)
    return str(x)


def inputs_digest(certs):
    h = hashlib.sha256()
    for cert in certs:
        h.update(f"{cert.cid}|{cert.kind}|{canonical(cert.args)}|{canonical(cert.expect)}\n".encode())
    return h.hexdigest()


def git_sha():
    """HEAD commit from .git, or None where the checkout has no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "nilcohom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(samples):
    """(value, percentile, samples beyond): the highest order statistic with
    at least ten samples above it (the minimum when there are fewer)."""
    xs = sorted(samples)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def calibrate():
    """Seconds taken by a fixed piece of pure-Python exact arithmetic that
    does not use the package: it tracks how fast the host runs Python now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i)
    return time.perf_counter() - t0


def host_factor(cals):
    """Scale from the host speed seen by the calibrations ``cals`` to the
    reference speed."""
    return CAL_REF_S / statistics.mean(cals)


def run_batch(wl, nc, ctx, certs, tracer=None):
    """One pass over the batch, with a calibration after every certificate.

    Returns the raw and the host-normalized seconds of every certificate,
    the failures and, when tracing, the normalized self time per layer.
    Certificate i runs between cals[i] and cals[i+1]; its scale comes from
    the 21 calibrations nearest it, which average over the host's faster
    sub-second swings and follow its slower drift."""
    raw, cals, failures, cert_layers = [], [calibrate()], [], []
    for cert in certs:
        first = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                got = wl.run(nc, ctx, cert)
            else:
                tracer.cert = cert.cid
                with tracer.span("cert"):
                    got = wl.run_traced(nc, ctx, cert, tracer)
            err = None if got == cert.expect else f"got {got}, expected {cert.expect}"
        except nc.errors.ResourceCapExceeded as exc:
            err = f"resource cap: {exc}"
        except Exception:
            err = traceback.format_exc(limit=4)
        raw.append(time.perf_counter() - t0)
        cals.append(calibrate())
        if tracer is not None:
            cert_layers.append(tracer.self_times(first))
        if err is not None:
            failures.append({"cert": cert.cid, "error": err})
    factors = [host_factor(cals[max(0, i - 10) : i + 11]) for i in range(len(raw))]
    layers = {}
    for factor, self_times in zip(factors, cert_layers):
        for name, sec in self_times.items():
            layers[name] = layers.get(name, 0.0) + sec * factor
    times = [r * f for r, f in zip(raw, factors)]
    return {"raw": raw, "times": times, "cals": cals, "failures": failures, "layers": layers}


def timed_batches(count, one_batch, deadline):
    """``count`` batches, or fewer if the run passes ``deadline``."""
    batches = []
    for _ in range(count):
        gc.collect()
        t0 = time.perf_counter()
        batches.append(one_batch())
        batches[-1]["wall"] = time.perf_counter() - t0
        if time.perf_counter() > deadline:
            break
    return batches


def set_up(wl, trace):
    """Set the workload up SETUP_REPS times, each from a fresh import.

    Returns the last (modules, context), the raw and the host-normalized
    seconds of each set-up and, when tracing, the per-layer self times."""
    raw, times, layers = [], [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        tracer = Tracer() if trace else None
        before = calibrate()
        t0 = time.perf_counter()
        nc = fresh_import()
        ctx = wl.setup(nc, tracer)
        raw.append(time.perf_counter() - t0)
        factor = host_factor([before, calibrate()])
        times.append(raw[-1] * factor)
        if tracer is not None:
            layers.append({name: sec * factor for name, sec in tracer.self_times().items()})
    if Path(nc.linalg.__file__).resolve().parent != (SRC / "nilcohom").resolve():
        raise SystemExit(f"error: nilcohom imported from {nc.linalg.__file__}, not {SRC}")
    return nc, ctx, {"raw": raw, "times": times, "layers": layers}


def end_to_end_metrics(setup_times, batch_times, cert_times):
    tail_s, _, _ = tail(cert_times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "batch_s": (statistics.median(batch_times), "s"),
        "cert_p50_s": (statistics.median(cert_times), "s"),
        "cert_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(setup_layers, layer_times, counters, batch_times, traced_times):
    med = statistics.median
    metrics = {f"{n}_s": (med(lt.get(n, 0.0) for lt in layer_times), "s") for n in TIME_LAYERS}
    for name in SETUP_LAYERS:
        metrics[f"{name}_s"] = (med(sl.get(name, 0.0) for sl in setup_layers), "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (counters.get(name, 0), unit)
    rows_in = counters.get("linalg.rows_in", 0)
    metrics["linalg.useful_ratio"] = (counters.get("linalg.rank", 0) / rows_in if rows_in else 0.0, "ratio")
    metrics["trace.glue_s"] = (med(lt.get("cert", 0.0) for lt in layer_times), "s")
    metrics["trace.batch_s"] = (med(traced_times), "s")
    metrics["trace.overhead_s"] = (med(traced_times) - med(batch_times), "s")
    return metrics


def measure(wl, seed, seconds, trace):
    """Set up, generate the batch, run it; returns (report, metrics)."""
    nc, ctx, setup = set_up(wl, trace)
    batch = wl.inputs(nc, ctx, seed)
    report = {
        "stamps": {
            "workload": wl.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "backend": nc.linalg.backend(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "inputs_sha256": inputs_digest(batch),
            "batch_size": len(batch),
        },
        "setup": {"raw": setup["raw"], "times": setup["times"]},
    }
    # A fixed number of batches gives every run the same number of samples;
    # the workload's nominal batch time sizes it to --seconds.
    count = max(1, round(seconds / wl.nominal_batch_s))
    untraced_count = max(1, count // 2) if trace else count
    deadline = time.perf_counter() + OVERRUN * seconds
    batches = timed_batches(untraced_count, lambda: run_batch(wl, nc, ctx, batch), deadline)
    if trace:
        tracer = Tracer()

        def traced():
            tracer.counters = {}
            out = run_batch(wl, nc, ctx, batch, tracer)
            out["counters"] = dict(tracer.counters)
            return out

        traced_batches = timed_batches(max(1, count - untraced_count), traced, deadline)
    else:
        traced_batches = []

    failures = [f for b in batches + traced_batches for f in b["failures"]]
    attempted = len(batch) * len(batches + traced_batches)
    batch_times = [sum(b["times"]) for b in batches]
    cert_times = [t for b in batches for t in b["times"]]
    report["batches"] = [{k: b[k] for k in ("wall", "raw", "times", "cals")} for b in batches]
    report["cert_ids"] = [c.cid for c in batch]
    if not trace:
        metrics = end_to_end_metrics(setup["times"], batch_times, cert_times)
        _, pct, beyond = tail(cert_times)
        report["tail"] = {"percentile": pct, "samples": len(cert_times), "beyond": beyond}
    else:
        counters = [b["counters"] for b in traced_batches]
        if any(c != counters[0] for c in counters):
            failures.append({"cert": "*", "error": f"counters differ between batches: {counters}"})
        traced_times = [sum(b["times"]) for b in traced_batches]
        metrics = per_layer_metrics(
            setup["layers"], [b["layers"] for b in traced_batches], counters[0], batch_times, traced_times
        )
        report.update(
            traced_batches=[{k: b[k] for k in ("wall", "raw", "times", "cals")} for b in traced_batches],
            counters=counters[0],
            spans=tracer.to_json(),
        )
    report["raw"] = {
        "setup_s": statistics.median(setup["raw"]),
        "batch_s": statistics.median(b["wall"] for b in batches),
        "cert_p50_s": statistics.median(t for b in batches for t in b["raw"]),
        "host_factor": host_factor([c for b in batches for c in b["cals"]]),
    }
    report.update(metrics=metrics, attempted=attempted, failures=failures)
    return report, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    if not (SRC / "nilcohom" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, metrics = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    failures, attempted = report["failures"], report["attempted"]

    for key, value in report["stamps"].items():
        print(f"# {key}: {value}")
    print("# raw (not host-normalized): " + ", ".join(f"{k} = {v:.6g}" for k, v in report["raw"].items()))
    if "tail" in report:
        t = report["tail"]
        print(f"# cert_tail_s: p{t['percentile']:.1f} of {t['samples']} certificate times, {t['beyond']} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for f in failures[:10]:
        print(f"FAILED {f['cert']}: {f['error']}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
