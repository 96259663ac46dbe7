"""Record the digests of the exact commands' canonical JSON on the fixed
crossings of exact-random, which run.py then checks every pass against.

    python3 bench/record_golden.py

Exact outputs are meant to stay byte-identical, so rerun this only for a
change that alters them on purpose, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main():
    ops = [op for op in wl.operations("exact-random", 0) if op["command"] in wl.EXACT_COMMANDS]
    paths = {op["config"]: wl.config_path(run.ROOT, op["config"]) for op in ops}
    record = run.run_worker({"root": run.ROOT, "ops": ops, "paths": paths,
                             "limit_s": wl.LIMIT_S["exact-random"],
                             "trace": False, "gates": False})
    golden = {"%s %s" % (op["command"], op["config"]): rec["digest"]
              for op, rec in zip(ops, record["ops"]) if rec["status"] == "ok"}
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests" % len(golden))


if __name__ == "__main__":
    main()
