"""One-shot scale-ladder probe: the baseline table of the ROADMAP.

    python3 bench/ladder.py [--limit 300]

Runs verify uhfm and verify pairing at their default 20 samples on local
P^4, the 3-3 flop, the 4-4 flop and the rank-2 2-2 flop x line, and analyze
on the rank-3 crossing, each in a fresh process under the stated limit.
Prints seconds or "exceeded limit" with the verdict of every case, and writes
the table to .bench_out/ladder.json.  It is not one of the repeated
workloads: at the default limit it can run for over half an hour.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

CASES = [(command, config)
         for config in ("local_p4", "flop_3_3", "flop_4_4", "flop_2_2_line")
         for command in ("verify uhfm", "verify pairing")] + [("analyze", "rank3_s5_d27")]

VERDICTS = {"ok": "PASS", "FAIL": "FAIL", "timeout": "-"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=float, default=300.0,
                        help="scaled CPU seconds allowed per case (see refclock.py)")
    args = parser.parse_args(argv)

    rows = []
    print("%-16s %-16s %-26s %s" % ("crossing", "command", "seconds", "verdict"))
    for command, config in CASES:
        op = {"command": command, "config": config, "samples": None}
        record = run.run_worker({"root": run.ROOT, "ops": [op],
                                 "paths": {config: wl.config_path(run.ROOT, config)},
                                 "limit_s": args.limit, "trace": False, "gates": False},
                                timeout=args.limit + 120)
        rec = record["ops"][0]
        seconds = ("exceeded %g s limit" % args.limit if rec["status"] == "timeout"
                   else "%.2f" % rec["seconds"])
        verdict = VERDICTS.get(rec["status"], rec["error"])
        rows.append({"crossing": config, "command": command, "status": rec["status"],
                     "seconds": rec["seconds"], "verdict": verdict, "limit_s": args.limit})
        print("%-16s %-16s %-26s %s" % (config, command, seconds, verdict), flush=True)
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "ladder.json"), "w") as fh:
        json.dump({"stamp": run.stamp("ladder", None, len(CASES), 1), "cases": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
