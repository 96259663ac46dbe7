"""Exact outputs against the digests recorded in bench/golden.json.

Each exact command runs in process on the committed crossings, and its
canonical JSON report is hashed the way the benchmark worker hashes it.  The
digest file is only read here; it is rewritten by ``bench/record_golden.py``
alone.
"""

import hashlib
import io
import json
import pathlib

import pytest

from wallcross import cli

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())
BUNDLED = ("conifold", "gerbe_flop", "resolution")
COMMANDS = {
    "analyze": cli.cmd_analyze,
    "boxes": cli.cmd_boxes,
    "fixed-points": cli.cmd_fixed_points,
    "fm": cli.cmd_fm,
}
CASES = sorted(GOLDEN)


def _config_path(name):
    if name in BUNDLED:
        return ROOT / "configs" / (name + ".json")
    return ROOT / "bench" / "configs" / (name + ".json")


def test_golden_case_count():
    assert len(CASES) == 38


@pytest.mark.parametrize("key", CASES)
def test_exact_output_matches_golden_digest(key):
    command, name = key.split(" ", 1)
    cfg = cli.load_config(str(_config_path(name)))
    results, ok = COMMANDS[command](cfg)
    buf = io.StringIO()
    cli.emit(cli.make_report(command, cfg, results, ok), True, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[key]
