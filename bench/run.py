"""The wallcross benchmark.

    python3 bench/run.py --workload exact-random --seed 1 --seconds 20 --trace 0

Runs from the root of a wallcross checkout.  Set-up writes the workload's
inputs under .bench_out/ and times fresh interpreters that import the CLI and
load the configs (setup_s).  Passes over the workload's fixed op list then
run, each in its own process, while the --seconds window has room for one
more; two at least where exact outputs are compared across passes.  Times
are CPU seconds scaled by a reference kernel (refclock.py).  --trace 1 adds
one traced pass for the per-layer metrics.  Every output is checked, the
summary is printed by metric name and unit, and the last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import refclock  # noqa: E402
import workloads as wl  # noqa: E402
from worker import BOX_ORACLE_MAX_POINTS  # noqa: E402

MARGIN_CAP = 12.0  # digits; also the reading when a workload has no residual check
SETUP_RUNS = 5
TRACE_IMPORT_RUNS = 3
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"), ("pass_ref_s", "s"), ("op_ref_p50_s", "s"), ("op_ref_p95_s", "s"),
    ("pass_share", "share"), ("peak_rss_mb", "MB"), ("margin_digits", "digits"),
)

# Per-layer metrics the runner measures itself; the traced pass gives the rest.
RUNNER_LAYERS = ("cli.import_s", "cli.scipy_import_s", "cli.load_config.s", "trace.overhead_s")

SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import refclock
with refclock.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    import wallcross.cli as cli
    t1 = time.perf_counter()
    for path in sys.argv[3:]:
        cli.load_config(path)
    t2 = time.perf_counter()
cpu = time.process_time()
sampler.top_up()
_n, k_cpu, k_wall = sampler.inside(0.0, cpu)
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1, "cpu_s": cpu - k_cpu,
                  "ref_s": sampler.unit_s(0.0, cpu), "kernel_wall_s": k_wall}))
"""

SCIPY_CODE = """
import time
t0 = time.perf_counter()
try:
    import scipy.integrate
except ImportError:
    pass
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    pass


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    noise swaps the ranks of neighbouring ops."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total, below = 0.0, 0.0
    for i, x in enumerate(ordered, 1):
        upto = beta_cdf(a, b, i / n)
        total += (upto - below) * x
        below = upto
    return total


def samples_beyond(n, q):
    """How many of n samples lie above the q-quantile's rank."""
    return n - max(1, math.ceil(q * n))


def highest_percentile(n, beyond=10):
    """The highest whole percentile with at least `beyond` samples above it,
    or None when n is too small for any."""
    for pct in range(99, 0, -1):
        if samples_beyond(n, pct / 100) >= beyond:
            return pct
    return None


def margin_digits(checks):
    """Minimum of log10(tolerance / residual) over all checks, capped."""
    margin = MARGIN_CAP
    for residual, tol in checks:
        if residual > 0:
            margin = min(margin, math.log10(tol / residual))
    return margin


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _python(args, stdin=None, timeout=120):
    """Run a fresh interpreter in the checkout; return its stdout."""
    proc = subprocess.run([sys.executable] + args, input=stdin, capture_output=True, text=True,
                          cwd=ROOT, env=_env(), timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("python %s failed:\n%s" % (args[0][:40], proc.stderr[-2000:]))
    return proc.stdout


def measure_setup(config_paths, runs):
    """Fresh interpreters that import wallcross.cli and load every config.
    Returns the CPU time of each whole interpreter, less the reference
    kernel's and scaled by it (see refclock.py); their wall times, less the
    kernel's; and the import / load_config split each reports."""
    scaled, walls, splits = [], [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        split = json.loads(_python(["-c", SETUP_CODE, HERE, os.path.join(ROOT, "src")] + config_paths))
        walls.append(time.perf_counter() - t0 - split["kernel_wall_s"])
        scaled.append(refclock.scaled(split["cpu_s"], split["ref_s"]))
        splits.append(split)
    return scaled, walls, splits


def run_worker(spec, timeout=WORKER_TIMEOUT_S):
    out = _python([os.path.join(HERE, "worker.py")], stdin=json.dumps(spec), timeout=timeout)
    return json.loads(out)


def stamp(workload, seed, n_ops, passes):
    commit = None  # a checkout without .git has no commit to name; src_sha256 still does
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "wallcross")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "ops_per_pass": n_ops,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "scipy": version("scipy"),
        "numpy": version("numpy"),
    }


def check_passes(workload, ops, passes, golden):
    """Classify every op of every pass.  Returns (failures, unexpected):
    failures lists each failed op once per pass; unexpected is the subset
    that is not a known defect."""
    failures = []
    exact = {k for k, op in enumerate(ops) if op["command"] in wl.EXACT_COMMANDS}
    first = passes[0]["ops"]
    for p, rec_pass in enumerate(passes):
        for k, rec in enumerate(rec_pass["ops"]):
            op = ops[k]
            reason = None
            if rec["status"] != "ok":
                reason = rec["status"] + (" " + rec["error"] if rec["error"] else "")
            elif str(k) in rec_pass["mismatches"]:
                reason = rec_pass["mismatches"][str(k)]
            elif k in exact and rec["digest"] != first[k]["digest"]:
                reason = "canonical JSON differs from pass 1"
            elif k in exact and golden.get("%s %s" % (op["command"], op["config"]), rec["digest"]) != rec["digest"]:
                reason = "canonical JSON differs from the recorded digest"
            if reason is not None:
                known = wl.is_known_defect(workload, op, rec["status"], rec["where"])
                failures.append({"pass": p + 1, "command": op["command"], "config": op["config"],
                                 "reason": reason, "where": rec["where"], "known": known})
    return failures, [f for f in failures if not f["known"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.LIMIT_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in ("src/wallcross/cli.py", "tests/helpers.py", "configs/conifold.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write("error: %s is missing: run from a wallcross checkout\n" % need)
            return 2
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("error: %s\n" % err)
        return 1


def run(args):
    workload, seed = args.workload, args.seed
    os.makedirs(OUT, exist_ok=True)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

    # set-up: inputs, then fresh-interpreter start-up; neither is timed as a pass
    paths = {}
    if workload == "exact-random":
        paths = wl.write_random_configs(seed, os.path.join(OUT, "inputs", "%s-s%d" % (workload, seed)))
    ops = wl.operations(workload, seed, tuple(paths))
    for op in ops:
        paths.setdefault(op["config"], wl.config_path(ROOT, op["config"]))
    setup_times, setup_walls, setup_splits = measure_setup(sorted(set(paths.values())),
                                              TRACE_IMPORT_RUNS if args.trace else SETUP_RUNS)

    base = {"root": ROOT, "ops": ops, "paths": paths, "limit_s": wl.LIMIT_S[workload],
            "trace": False, "gates": False}
    # two passes at least where there are exact outputs to compare across passes
    min_passes = 2 if any(op["command"] in wl.EXACT_COMMANDS for op in ops) else 1
    passes = []
    t_window = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_worker(dict(base, gates=not passes and workload == "exact-random")))
        last = time.perf_counter() - t0
        if len(passes) >= min_passes and time.perf_counter() - t_window + last > args.seconds:
            break

    golden_path = os.path.join(HERE, "golden.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    failures, unexpected = check_passes(workload, ops, passes, golden)

    walls = [p["wall_s"] for p in passes]
    op_scaled = [[refclock.scaled(rec["cpu_s"], rec["ref_s"]) for rec in p["ops"]] for p in passes]
    attempted = sum(len(p) for p in op_scaled)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_ref_s": statistics.median(sum(p) for p in op_scaled),
        # per pass, then the median over passes, so that the estimate does not
        # move with the number of passes the window held
        "op_ref_p50_s": statistics.median(quantile(p, 0.50) for p in op_scaled),
        "op_ref_p95_s": statistics.median(quantile(p, 0.95) for p in op_scaled),
        "pass_share": 1.0 - len(failures) / attempted,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "margin_digits": margin_digits([c for p in passes for rec in p["ops"] for c in rec["checks"]]),
    }
    units = dict(END_TO_END)
    layers = None
    if args.trace:
        traced = run_worker(dict(base, trace=True,
                                 spans_path=os.path.join(OUT, "spans-%s.npz" % workload)))
        scipy_s = [float(_python(["-c", SCIPY_CODE])) for _ in range(TRACE_IMPORT_RUNS)]
        layers = dict(traced["layers"])
        layers.update({
            "cli.import_s": statistics.median(s["import_s"] for s in setup_splits),
            "cli.scipy_import_s": statistics.median(scipy_s),
            "cli.load_config.s": statistics.median(s["load_config_s"] for s in setup_splits),
            "trace.overhead_s": sum(refclock.scaled(rec["cpu_s"], rec["ref_s"]) for rec in traced["ops"])
                                - metrics["pass_ref_s"],
        })

    info = stamp(workload, seed, len(ops), len(passes))
    record = {"stamp": info, "metrics": metrics, "layers": layers, "failures": failures,
              "pass_walls_s": walls, "pass_cpus_s": [p["cpu_s"] for p in passes],
              "setup_s": setup_times, "setup_walls_s": setup_walls,
              "op_seconds": [[rec["seconds"] for rec in p["ops"]] for p in passes],
              "op_cpu_seconds": [[rec["cpu_s"] for rec in p["ops"]] for p in passes],
              "op_ref_seconds": op_scaled,
              "op_kernel_seconds": [[rec["ref_s"] for rec in p["ops"]] for p in passes]}
    with open(os.path.join(OUT, "result-%s-s%d-trace%d.json" % (workload, seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("wallcross bench | %s | seed %d | commit %s | src %s | nproc %s | python %s scipy %s numpy %s"
          % (workload, seed, info["commit"], info["src_sha256"], info["nproc"], info["python"],
             info["scipy"], info["numpy"]))
    print("%d ops per pass x %d passes: attempted %d, failed %d, fail_share %.4f"
          % (len(ops), len(passes), attempted, len(failures), len(failures) / attempted))
    op_walls = [rec["seconds"] for p in passes for rec in p["ops"]]
    print("wall clock, unscaled (it drifts with the host's load): setup %.6g s, pass %.6g s, "
          "op p50 %.6g s, op p95 %.6g s" % (statistics.median(setup_walls), statistics.median(walls),
                                           quantile(op_walls, 0.50), quantile(op_walls, 0.95)))
    for name, value in metrics.items():
        note = ""
        if name == "op_ref_p95_s":
            beyond = samples_beyond(len(ops), 0.95)
            note = "  (n=%d per pass, %d beyond)" % (len(ops), beyond)
            if beyond < 10:
                top = highest_percentile(len(ops))
                note += ": fewer than 10, so it reads as the slowest ops; %s" % (
                    "p%d is the highest percentile with 10 beyond" % top if top else
                    "no percentile has 10 beyond")
        print("  %-14s %12.6g %s%s" % (name, value, units[name], note))
    if workload == "exact-random":
        print("  oracle gates: %d box checks skipped (scan over %d points)"
              % (passes[0]["box_checks_skipped"], BOX_ORACLE_MAX_POINTS))
    for f in failures:
        print("  failed: pass %d %s %s: %s%s" % (f["pass"], f["command"], f["config"], f["reason"],
                                                  " (known defect)" if f["known"] else ""))
    if layers is not None:
        for name in sorted(layers):
            print("  %-46s %12.6g" % (name, layers[name]))
        per_layer = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": per_layer if layers is not None else
        {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
