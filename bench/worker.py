"""Run one pass of a workload in a fresh interpreter and print its record.

Reads a JSON spec on stdin (written by run.py) and prints one JSON object on
stdout.  Each pass gets its own process, so no pass sees caches that an
earlier pass warmed, just as each CLI call starts cold.  Configs are loaded
before the pass and every check runs after it, outside every timed window.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

import refclock

COMMANDS = {
    "analyze": "cmd_analyze",
    "boxes": "cmd_boxes",
    "fixed-points": "cmd_fixed_points",
    "continuation": "cmd_continuation",
    "fm": "cmd_fm",
    "series": "cmd_series",
}


def run_command(cli, command, cfg):
    if command.startswith("verify "):
        return cli.cmd_verify(cfg, command.split(" ", 1)[1])
    return getattr(cli, COMMANDS[command])(cfg)


def _where(tb):
    """The wallcross frames an exception passed through, outermost first."""
    frames = []
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("wallcross."):
            frames.append("%s.%s" % (module.split(".", 1)[1], tb.tb_frame.f_code.co_name))
        tb = tb.tb_next
    return " > ".join(frames)


def load_configs(cli, paths, ops):
    cfgs = {name: cli.load_config(path) for name, path in paths.items()}
    out = {}
    for op in ops:
        key = (op["config"], op["samples"])
        if key not in out:
            cfg = dict(cfgs[op["config"]])
            if op["samples"] is not None:
                cfg["samples"] = op["samples"]
                cfg["raw"] = dict(cfg["raw"], samples=op["samples"])
            out[key] = cfg
    return out


def run_pass(cli, ops, cfgs, limit_s, tracer=None):
    """Run every op once; return per-op records, the raw results of the exact
    commands, and the pass's wall and CPU time.  The reference kernel runs
    throughout (see refclock.py); each record holds the op's wall and CPU
    seconds less the kernel's, and ``ref_s``, the kernel's unit time around
    the op.  An op times out after ``limit_s`` scaled CPU seconds."""
    records, results_by_op, spans = [], {}, []
    with refclock.Sampler() as sampler:
        t_pass, c_pass = time.perf_counter(), time.process_time()
        for k, op in enumerate(ops):
            cfg = cfgs[(op["config"], op["samples"])]
            if tracer is not None:
                tracer.op_id = k
            rec = {"status": "ok", "error": "", "where": "", "digest": None, "checks": []}
            t0, c0 = time.perf_counter(), time.process_time()
            sampler.arm(limit_s)
            try:
                try:
                    results, ok = run_command(cli, op["command"], cfg)
                    report = cli.make_report(op["command"], cfg, results, ok)
                    buf = io.StringIO()
                    cli.emit(report, True, buf)
                finally:
                    sampler.disarm()
            except refclock.Deadline as err:
                rec.update(status="timeout", where=_where(err.__traceback__))
            except Exception as err:  # an op that raises is a failed op, not a stopped run
                rec.update(status="error", error="%s: %s" % (type(err).__name__, err),
                           where=_where(err.__traceback__))
            spans.append((t0, time.perf_counter(), c0, time.process_time()))
            if rec["status"] == "ok":
                rec["digest"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
                if not ok:
                    rec["status"] = "FAIL"
                if "max_residual" in results and "tolerance" in results:
                    rec["checks"].append([results["max_residual"], results["tolerance"]])
                if op["command"] in ("analyze", "boxes"):
                    results_by_op[k] = results
            records.append(rec)
        t_end, c_end = time.perf_counter(), time.process_time()
    sampler.top_up()
    for rec, (t0, t1, c0, c1) in zip(records, spans):
        _n, k_cpu, k_wall = sampler.inside(c0, c1)
        rec["seconds"] = t1 - t0 - k_wall
        rec["cpu_s"] = c1 - c0 - k_cpu
        rec["ref_s"] = sampler.unit_s(c0, c1)
    _n, k_cpu, k_wall = sampler.inside(c_pass, c_end)
    return records, results_by_op, t_end - t_pass - k_wall, c_end - c_pass - k_cpu


def _minimal(anticones):
    sets = [set(I) for I in anticones]
    return sorted(tuple(sorted(I)) for I in sets if not any(J < I for J in sets))


# The box oracle scans N^r points, N the lcm of the minimal anticones'
# determinants; larger scans (up to 10^11 on the rank-3 draws) are skipped.
BOX_ORACLE_MAX_POINTS = 20000


def box_scan_points(git, A):
    from wallcross.lattice import _det

    N = 1
    for delta in A.minimal:
        d = abs(int(_det([[Fraction(git.D[i][k]) for k in range(git.r)] for i in delta])))
        N = N * d // math.gcd(N, d)
    return N ** git.r


def oracle_gates(ops, cfgs, results_by_op):
    """Check minimal anticones and box classes against the independent
    Fourier-Motzkin cone oracle and the brute-force box oracle of the tests.
    Returns ({op index: reason} for every mismatch, box checks skipped)."""
    from helpers import oracle_anticones, oracle_box
    from wallcross.gitfan import wall_crossing

    by_config = {}
    for k, results in results_by_op.items():
        by_config.setdefault(ops[k]["config"], []).append(k)
    mismatches, skipped = {}, 0
    for name, ks in by_config.items():
        cfg = cfgs[(name, None)]
        wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
        for side, omega, A in (("plus", wc.omega_plus, wc.A_plus), ("minus", wc.omega_minus, wc.A_minus)):
            anticones = _minimal(oracle_anticones(wc.git, omega))
            boxes = None
            if anticones == sorted(A.minimal) and box_scan_points(wc.git, A) <= BOX_ORACLE_MAX_POINTS:
                boxes = oracle_box(wc.git, A)
            for k in ks:
                results = results_by_op[k]
                if ops[k]["command"] == "analyze":
                    got = sorted(tuple(I) for I in results["minimal_anticones_" + side])
                    if got != anticones:
                        mismatches[k] = "minimal anticones (%s) differ from the cone oracle" % side
                elif boxes is None:
                    skipped += 1
                elif sorted(tuple(s["f"]) for s in results[side]) != boxes:
                    mismatches[k] = "box classes (%s) differ from the box oracle" % side
    return mismatches, skipped


def main():
    spec = json.load(sys.stdin)
    root = spec["root"]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    import wallcross.cli as cli

    ops = spec["ops"]
    cfgs = load_configs(cli, spec["paths"], ops)
    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            records, results_by_op, wall, cpu = run_pass(cli, ops, cfgs, spec["limit_s"], tracer)
    else:
        records, results_by_op, wall, cpu = run_pass(cli, ops, cfgs, spec["limit_s"])
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "mismatches": {},
        "box_checks_skipped": 0,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        if spec.get("spans_path"):
            write_spans(tracer, spec["spans_path"])
    if spec["gates"]:
        out["mismatches"], out["box_checks_skipped"] = oracle_gates(ops, cfgs, results_by_op)
    json.dump(out, sys.stdout)


def write_spans(tracer, path):
    """Write the pass's spans: one row per span, names as a table."""
    import numpy as np

    np.savez(path, names=np.array(tracer.names), name=np.asarray(tracer.name_ix),
             start=np.asarray(tracer.start), end=np.asarray(tracer.end),
             parent=np.asarray(tracer.parent), op=np.asarray(tracer.op))


if __name__ == "__main__":
    main()
