"""The benchmark's workloads: their inputs, operation lists and known answers.

Every op is one CLI command run in process through the CLI's own functions
(``cmd_*`` plus ``make_report`` and the canonical JSON ``emit``).  Every
crossing used is valid and crepant, so every verdict's known answer is PASS.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_CONFIGS = os.path.join(HERE, "configs")

BUNDLED = ("conifold", "resolution", "gerbe_flop")
EXACT_COMMANDS = ("analyze", "boxes", "fixed-points", "fm")

# The rank-3 draws among the first 40 of random_crepant_crossing with
# random.Random(5) and random.Random(11).  They are fixed, not seeded: a
# rank-3 crossing costs 0.1 s to 5 s and a third of them fail in wall_frame,
# so a seeded handful would make pass_ref_s depend on the seed more than on the
# code.  s5_d27 is the rank-3 crossing of the ROADMAP baseline (it hangs);
# s11_d31 raises ValueError.
RANK3 = ("rank3_s5_d06", "rank3_s5_d27", "rank3_s11_d10", "rank3_s11_d14",
         "rank3_s11_d20", "rank3_s11_d21", "rank3_s11_d31")

# Seeded random crossings of exact-random, by (rank, number of characters).
# Fixed quotas keep the mix, and so the pass time, the same from seed to seed.
RANDOM_QUOTA = {(1, m): 10 for m in range(3, 8)}
RANDOM_QUOTA.update({(2, m): 6 for m in range(4, 8)})
# Within each (rank, m), the quota is picked from POOL times as many draws at
# evenly spaced ranks of the size proxy below, rather than as the first
# draws: an op's time grows with the crossing's size (the proxy's log
# correlates 0.83 with the log of a crossing's op time within a stratum), so
# the picked crossings' sizes spread like the generator's, seed after seed.
POOL = 4

# Sample counts of kclass-ladder's larger crossings, sized to the run length.
# Neither flips a verdict: local P^2 passes uhfm from 7 samples on, as at the
# default 20, and the m=5 flop fails uhfm at every count up to 20 (at 2
# samples: residual 7.8e-15 as at 20, sensitivity 2.3e-5 against 4.0e-5).
LADDER_SAMPLES = {"local_p2": 8, "flop_m5": 2}

CONTINUATION_CONFIGS = BUNDLED + ("local_p2", "local_p3", "flop_2_2_line")

# Per-op time limit of each workload, in scaled CPU seconds (refclock.py):
# five to eight times its slowest passing op.  Being scaled, an op that hits
# it counts the same time however busy the host is.
# Why each workload was chosen is recorded in BENCHMARK.json.
LIMIT_S = {"exact-random": 4.0, "kclass-ladder": 40.0, "continuation": 20.0}


def is_known_defect(workload, op, status, where):
    """The failures the benchmark expects today.  They count as failed ops,
    but only a failure of another kind makes a run incorrect:

    - kclass-ladder: verify uhfm on the m=5 flop gives FAIL, because its
      sensitivity falls below the absolute floor;
    - exact-random: analyze raises, or exceeds the limit, inside
      gitfan.wall_frame's bounded search.
    """
    if workload == "kclass-ladder":
        return op["command"] == "verify uhfm" and op["config"] == "flop_m5" and status == "FAIL"
    if workload == "exact-random":
        return op["command"] == "analyze" and status in ("error", "timeout") and "gitfan.wall_frame" in where
    return False


def config_path(root, name):
    if name in BUNDLED:
        return os.path.join(root, "configs", name + ".json")
    return os.path.join(BENCH_CONFIGS, name + ".json")


def _frac(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def crossing_config(wc):
    """A CLI config for a crossing, with the bundled configs' settings."""
    return {
        "schema": "wallcross-config/1",
        "git": {"r": wc.git.r, "m": wc.git.m, "D": [list(row) for row in wc.git.D]},
        "omega_plus": [_frac(x) for x in wc.omega_plus],
        "omega_minus": [_frac(x) for x in wc.omega_minus],
        "seed": 7,
        "samples": 20,
        "z": {"re": [1, 1], "im": [0, 1]},
        "truncation": {"series_order": 40, "base_exponent_bound": 10},
    }


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)))


def size_proxy(D):
    """Sum of the absolute maximal minors of the weight matrix D."""
    r = len(D[0])
    return sum(abs(_det([list(D[i]) for i in I])) for I in itertools.combinations(range(len(D)), r))


def random_configs(seed, quota=RANDOM_QUOTA, pool=POOL):
    """Seeded crossings, drawn with the tests' generator until each (rank, m)
    has ``pool`` times its quota; then the quota is picked at evenly spaced
    ranks of size_proxy.  The same seed gives the same configs, in order."""
    from helpers import random_crepant_crossing

    rng = random.Random(seed)
    drawn = {key: [] for key in quota}
    while any(len(drawn[key]) < pool * n for key, n in quota.items()):
        wc = random_crepant_crossing(rng, max_r=max(r for r, _m in quota))
        key = (wc.git.r, wc.git.m)
        if key in drawn and len(drawn[key]) < pool * quota[key]:
            drawn[key].append(wc)
    out = []
    for key in sorted(quota):
        ranked = sorted(drawn[key], key=lambda wc: size_proxy(wc.git.D))  # stable: ties keep draw order
        out += [crossing_config(ranked[(2 * i + 1) * len(ranked) // (2 * quota[key])])
                for i in range(quota[key])]
    return out


def write_random_configs(seed, directory):
    """Write the seeded configs as files; return their names and paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for k, cfg in enumerate(random_configs(seed)):
        name = "random_s%d_%02d" % (seed, k)
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
    return paths


def _op(command, config, samples=None):
    return {"command": command, "config": config, "samples": samples}


def operations(workload, seed, random_names=()):
    """The fixed op list of one pass, in a seeded order.  The order spreads
    the small ops over the whole pass, so their percentiles sample the
    machine's speed over all of it rather than over one stretch.  Besides
    drawing exact-random's crossings, the seed only sets this order: the
    other workloads' verdicts rest on the configs' own lambda samples."""
    if workload == "exact-random":
        crossings = BUNDLED + RANK3 + tuple(random_names)
        ops = [_op(c, x) for x in crossings for c in EXACT_COMMANDS + ("continuation",)]
    elif workload == "kclass-ladder":
        ops = [_op("verify " + s, x, LADDER_SAMPLES.get(x))
               for x in BUNDLED + tuple(LADDER_SAMPLES) for s in ("uhfm", "pairing")]
    elif workload == "continuation":
        ops = [_op(c, x) for x in CONTINUATION_CONFIGS
               for c in ("verify mb", "verify ode", "verify lifts", "series")]
    else:
        raise KeyError(workload)
    random.Random(seed).shuffle(ops)
    return ops
