"""Command-line driver: config ingestion, dispatch, and reporting.

Configs are JSON with every rational encoded losslessly as a [numerator,
denominator] pair.  Reports are emitted as fixed-width text or as canonical
JSON; identical config and seed produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .gitfan import (
    box_elements,
    make_git,
    next_to_pairs,
    plus_labels_across,
    ratio_text,
    wall_crossing,
    wall_frame,
)
from .hypergeom import (
    conifold_point,
    generic_lambdas,
    gkz_ode_residual,
    inner_series,
    lambda_matrix,
    make_inner_spec,
    w_constant,
)
from .ktheory import (
    fm_images,
    pairing_residuals,
    verify_uhfm,
)
from .localization import normal_weights
from .mellinbarnes import (
    LEFT_TERMS,
    RIGHT_TERMS,
    ContourSpec,
    coefficient_values,
    continuation_matrix,
    lift_invariance_checks,
    verify_residue_identity,
)

SCHEMA = "wallcross-config/1"

DEFAULT_TOLERANCES = {
    "residual": 1e-9,
    "pairing": 1e-8,
    "mb": 1e-7,
    "ode": 1e-12,
    "lifts": 1e-12,
    "sensitivity_floor": 1e-4,
    "pole_clearance": 1e-3,
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing


def _is_int(node):
    """Whether node is a JSON integer; true and false are not."""
    return type(node) is int


def _parse_rational(node, where):
    if isinstance(node, list) and len(node) == 2 and all(_is_int(x) for x in node):
        if node[1] == 0:
            raise ConfigError("%s: zero denominator" % where)
        return Fraction(node[0], node[1])
    if _is_int(node):
        return Fraction(node)
    raise ConfigError("%s: expected [num, den] pair, got %r" % (where, node))


def _parse_rational_vector(node, where, dim):
    if not isinstance(node, list):
        raise ConfigError("%s: expected a list" % where)
    if len(node) != dim:
        raise ConfigError("%s has length %d, expected %d" % (where, len(node), dim))
    return tuple(_parse_rational(x, "%s[%d]" % (where, i)) for i, x in enumerate(node))


def _object(node, where):
    if not isinstance(node, dict):
        raise ConfigError("%s must be a JSON object" % where)
    return node


def _fields(node, where, keys):
    """The JSON object node, each of whose keys is one of keys."""
    unknown = sorted(set(_object(node, where)) - set(keys))
    if unknown:
        raise ConfigError("%s has no key %r" % (where, unknown[0]))
    return node


def _count(node, where):
    if not _is_int(node) or node < 1:
        raise ConfigError("%s must be a positive integer, got %r" % (where, node))
    return node


def _number(node, where):
    """A finite JSON number; json reads Infinity and NaN, which are not."""
    if not (type(node) is int or type(node) is float and math.isfinite(node)):
        raise ConfigError("%s must be a finite number, got %r" % (where, node))
    return node


def parse_config(raw):
    """The config from its JSON object."""
    if _object(raw, "config").get("schema") != SCHEMA:
        raise ConfigError("config schema must be %r" % SCHEMA)
    gitnode = _fields(raw.get("git"), "git", ("r", "m", "D", "labels"))  # labels only name the columns
    r = _count(gitnode.get("r"), "git.r")
    m = _count(gitnode.get("m"), "git.m")
    D = gitnode.get("D")
    if not isinstance(D, list) or len(D) != m:
        raise ConfigError("git.D must be a list of %s rows" % m)
    rows = []
    for i, row in enumerate(D):
        if not isinstance(row, list) or len(row) != r:
            raise ConfigError("git.D row %d has length %s, expected %d" % (i, len(row) if isinstance(row, list) else "?", r))
        if not all(_is_int(x) for x in row):
            raise ConfigError("git.D row %d must be integers" % i)
        rows.append(tuple(row))
    git = make_git(rows)
    omega_plus = _parse_rational_vector(raw.get("omega_plus"), "omega_plus", dim=r)
    omega_minus = _parse_rational_vector(raw.get("omega_minus"), "omega_minus", dim=r)

    # the retired base_exponent_bound, which every bundled config carries, and
    # quadrature, the tolerance of a retired Barnes-line rule, still load
    trunc = _fields(raw.get("truncation", {}), "truncation", ("series_order", "base_exponent_bound"))
    tols = dict(DEFAULT_TOLERANCES, **_fields(raw.get("tolerances", {}), "tolerances",
                                              [*DEFAULT_TOLERANCES, "quadrature"]))
    for key, tol in tols.items():
        # a zero floor turns the sensitivity check off; a zero tolerance would
        # FAIL every check, and a negative pole clearance admit every sample
        _number(tol, "tolerances." + key)
        floor = key == "sensitivity_floor"
        if not (tol >= 0 if floor else tol > 0):
            raise ConfigError("tolerances.%s must be %s, got %r"
                              % (key, "nonnegative" if floor else "positive", tol))
    contour_node = _fields(raw.get("contour", {}), "contour", ("abscissa", "t_max"))
    abscissa = contour_node.get("abscissa")
    # the Barnes line keeps the pole at s = 0 on its right
    if abscissa is not None and not _number(abscissa, "contour.abscissa") < 0:
        raise ConfigError("contour.abscissa must be negative, got %r" % abscissa)
    t_max = _number(contour_node.get("t_max", 40.0), "contour.t_max")
    if not t_max > 0:
        raise ConfigError("contour.t_max must be positive, got %r" % t_max)
    znode = {} if raw.get("z") is None else _fields(raw["z"], "z", ("re", "im"))
    z = complex(float(_parse_rational(znode.get("re", 1), "z.re")),
                float(_parse_rational(znode.get("im", 0), "z.im")))
    if z == 0:  # the modified pairing divides by z
        raise ConfigError("z must be nonzero")
    seed = raw.get("seed", 7)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer, got %r" % (seed,))
    return {
        "raw": raw,
        "git": git,
        "omega_plus": omega_plus,
        "omega_minus": omega_minus,
        "seed": seed,
        "samples": _count(raw.get("samples", 20), "samples"),
        "series_order": _count(trunc.get("series_order", 40), "truncation.series_order"),
        "z": z,
        "tolerances": tols,
        "contour": ContourSpec(
            abscissa=abscissa,
            t_max=t_max,
            clearance=tols["pole_clearance"],
        ),
    }


def load_config(path):
    with open(path) as fh:
        return parse_config(json.load(fh))


def config_hash(raw):
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# report assembly

def _encode(x):
    """A report leaf that JSON has no type for: a Fraction as [num, den], a
    complex number as [re, im].  The JSON encoder calls it for every leaf it
    has no type for, and the text writer for every leaf that is not a JSON
    scalar; any other type raises TypeError."""
    if type(x) is Fraction or isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


_JSON = dict(sort_keys=True, separators=(",", ":"), default=_encode, allow_nan=False)


def make_report(command, cfg, results, ok):
    return {
        "tool": "wallcross",
        "version": __version__,
        "command": command,
        "config_hash": config_hash(cfg["raw"]),
        "seed": cfg["seed"],
        "results": results,
        "pass": bool(ok),
    }


def emit(report, as_json, stream=None):
    """Write the report to ``stream``, by default the current sys.stdout."""
    if stream is None:
        stream = sys.stdout
    if as_json:
        try:
            text = json.dumps(report, **_JSON)
        except ValueError:  # a non-finite float, which strict JSON has no token for
            text = json.dumps(_finite(report), **_JSON)
        stream.write(text + "\n")
        return
    stream.write("wallcross %s | %s | config %s | seed %s\n" % (
        report["version"], report["command"], report["config_hash"], report["seed"]))
    _emit_tree(report["results"], stream, indent=2)
    stream.write("result: %s\n" % ("PASS" if report["pass"] else "FAIL"))


def _finite(node):
    """The report tree with every non-finite float as the text report prints
    it: "nan", "inf" or "-inf"."""
    v = _node(node)
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_finite(x) for x in v]
    return _fmt_flat(v) if isinstance(v, float) and not math.isfinite(v) else v


def _node(v):
    """v as the JSON encoder writes it, one level deep: a tuple as a list,
    and a leaf that is not a JSON scalar through _encode."""
    if isinstance(v, (dict, list, str, int, float)) or v is None:
        return v
    if isinstance(v, tuple):
        return list(v)
    return _encode(v)


def _emit_tree(node, stream, indent):
    pad = " " * indent
    if isinstance(node, dict):
        for k in node:
            v = _node(node[k])
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                stream.write("%s%s:\n" % (pad, k))
                _emit_tree(v, stream, indent + 2)
            else:
                stream.write("%s%-28s %s\n" % (pad, k + ":", _fmt_flat(v)))
    elif isinstance(node, list):
        for v in map(_node, node):
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                _emit_tree(v, stream, indent)
                stream.write("%s--\n" % pad)
            else:
                stream.write("%s- %s\n" % (pad, _fmt_flat(v)))


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(_node(x), (dict, list)) for x in v) and len(v) <= 8
    return False


def _fmt_flat(v):
    if isinstance(v, float):
        return "%.6g" % v
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_flat(_node(x)) for x in v) + "]"
    return str(v)


def _sector_dict(sec):
    return {"f": list(sec.f), "isotropy": list(sec.I_f), "age": sec.age}


def _basis_name(delta, rho):
    return "e(delta=%s, rho=%s)" % (list(delta), list(rho))


def _gate(checks, tol):
    """Gate (where, residual) checks: the gated report fields, where the
    first largest residual is (None if all are 0), and the verdict.  A NaN
    counts as largest and fails; its margin, like an underflowed one, is None."""
    worst, worst_at = 0.0, None
    for where, resid in checks:
        if resid > worst or math.isnan(resid) and not math.isnan(worst):
            worst, worst_at = resid, where
    margin = math.log10(tol / worst) if worst > 0 and tol / worst > 0 else None
    gated = {"max_residual": worst, "tolerance": tol, "margin_digits": margin}
    return gated, worst_at, worst < tol


def _lambdas(cfg, wc, count):
    """count generic samples for the crossing, clear of its poles."""
    return generic_lambdas(wc, count, cfg["seed"], clearance=cfg["tolerances"]["pole_clearance"])


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(cfg):
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    frame = wall_frame(wc)
    results = {
        "case": wc.case,
        "wall_normal": list(wc.e),
        "M_plus": list(wc.M_plus),
        "M_minus": list(wc.M_minus),
        "M_zero": list(wc.M_zero),
        "S_plus": list(wc.S_plus),
        "S_minus": list(wc.S_minus),
        "minimal_anticones_plus": [list(d) for d in wc.A_plus.minimal],
        "minimal_anticones_minus": [list(d) for d in wc.A_minus.minimal],
        "box_plus": [_sector_dict(s) for s in box_elements(wc.git, wc.A_plus)],
        "box_minus": [_sector_dict(s) for s in box_elements(wc.git, wc.A_minus)],
        "fixed_points": {"plus": len(wc.labels_plus), "minus": len(wc.labels_minus)},
        "next_to_pairs": len(next_to_pairs(wc)),
        "conifold_point": conifold_point(wc),
        "w": w_constant(wc),
        "coordinate_change": {
            "c": frame.change.c,
            "c_i": list(frame.change.c_i),
            "A": frame.change.A,
            "B": frame.change.B,
        },
        "crepant": True,
    }
    return results, True


def cmd_boxes(cfg):
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    return {
        "plus": [_sector_dict(s) for s in box_elements(wc.git, wc.A_plus)],
        "minus": [_sector_dict(s) for s in box_elements(wc.git, wc.A_minus)],
    }, True


def cmd_fixed_points(cfg):
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    out = {}
    for side, labels in (("plus", wc.labels_plus), ("minus", wc.labels_minus)):
        rows = []
        for label in labels:
            nw = normal_weights(wc.git, label)
            rows.append({
                "label": str(label),
                "age": label.sector.age,
                "tangent_weights": [str(form) for _j, form in nw.fixed],
                "moving_weights": ["%s (age %s)" % (form, ratio_text(*age)) for _j, form, age in nw.moving],
            })
        out[side] = rows
    return out, True


def cmd_continuation(cfg):
    """The continuation matrix's identity and coefficient cells, row-major;
    every other cell is zero.  row_labels and col_labels name the rows and
    columns in matrix order."""
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    lams = _lambdas(cfg, wc, min(cfg["samples"], 3))
    matrix = continuation_matrix(wc)
    coeffs = matrix.coefficients
    values = dict(zip(coeffs, coefficient_values(list(coeffs.values()), lambda_matrix(lams)).tolist()))
    row_labels = [str(lp) for lp in matrix.rows]
    col_labels = [str(lm) for lm in matrix.cols]
    entries = []
    for (i, j), kind in matrix.kinds.items():
        entry = {"row": row_labels[i], "col": col_labels[j], "kind": kind}
        if kind == "coefficient":
            entry["closed_form"] = coeffs[i, j].describe()
            entry["values"] = values[i, j]
        entries.append(entry)
    return {"rows": len(matrix.rows), "cols": len(matrix.cols), "row_labels": row_labels,
            "col_labels": col_labels, "entries": entries}, True


def cmd_fm(cfg):
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    rows = [{"basis": _basis_name(delta, rho), "image": image.describe(), "terms": len(image.terms)}
            for delta, rho, image in fm_images(wc)]
    return {"basis_size": len(rows), "images": rows}, True


def cmd_series(cfg):
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    lam = _lambdas(cfg, wc, 1)[0]
    specs = [make_inner_spec(wc, label) for label in plus_labels_across(wc)]
    out = []
    for spec, ser in zip(specs, inner_series(specs, min(cfg["series_order"], 8), [lam])):
        entry = {
            "label": str(spec.label),
            "base_exponent": [ratio_text(x, spec.det) for x in spec.d_plus],
            "coefficients": [c for c in ser.coeffs],
        }
        if ser.exponent:  # the coefficients are divided by 2**exponent
            entry["exponent"] = ser.exponent
        out.append(entry)
    return {"lambda": list(lam), "series": out}, True


# ---------------------------------------------------------------------------
# verification suites


def _suite_uhfm(cfg, wc, tol):
    floor = cfg["tolerances"]["sensitivity_floor"]
    rep = verify_uhfm(wc, _lambdas(cfg, wc, cfg["samples"]))
    sens = rep.sensitivity(1e-3)
    # the report reduces its table to its first largest entry
    gated, worst, ok = _gate([(rep.worst, rep.max_residual)], tol)
    if worst is not None:
        (delta, rho), label = worst
        worst = "%s at %s" % (_basis_name(delta, rho), label)
    return {
        **gated,
        "checked": rep.n_checked,
        "worst": worst,
        "sensitivity_residual": sens,
        "sensitivity_floor": floor,
    }, ok and sens > floor


def _suite_pairing(cfg, wc, tol):
    lams = _lambdas(cfg, wc, cfg["samples"])
    zs = [cfg["z"] * (1.0 + 0.07 * (i % 5)) for i in range(len(lams))]
    rep = pairing_residuals(wc, lams, zs)
    checks = [(i, float(resid)) for i, (resid, resonant) in enumerate(zip(rep.residuals, rep.resonant))
              if not resonant]
    gated, worst_sample, ok = _gate(checks, tol)
    worst = None if worst_sample is None else "%s x %s at sample %d" % (
        *(_basis_name(*label) for label in rep.worst[worst_sample]), worst_sample)
    used = len(checks)
    return ({**gated, "samples_used": used, "worst_sample": worst_sample, "worst": worst},
            ok and used >= max(1, cfg["samples"] // 2))


def _suite_mb(cfg, wc, tol):
    c = abs(float(conifold_point(wc)))
    w = w_constant(wc)
    x_in = 0.3 * c * cmath.exp(1j * math.pi * w)
    x_out = 3.0 * c * cmath.exp(1j * math.pi * w)
    lams = _lambdas(cfg, wc, min(cfg["samples"], 5))
    labels = plus_labels_across(wc)
    rows, checks = [], []
    # one report per sample for each label in turn
    for c, rep in enumerate(verify_residue_identity(wc, labels, x_in, x_out, lams, cfg["contour"])):
        name, i = str(labels[c // len(lams)]), c % len(lams)
        # a check whose residue sum was cut before its stop rule fired says so
        for side, resid, cut, terms in (("inside", rep.residual_inside, rep.cut_inside, RIGHT_TERMS),
                                        ("outside", rep.residual_outside, rep.cut_outside, LEFT_TERMS)):
            note = ", residue sum cut at %d terms" % terms if cut else ""
            checks.append(("%s at sample %d, %s%s" % (name, i, side, note), resid))
        rows.append({"label": name, "inside": rep.residual_inside, "outside": rep.residual_outside})
    gated, worst, ok = _gate(checks, tol)
    return {**gated, "worst": worst, "checks": rows}, ok


def _suite_ode(cfg, wc, tol):
    rows, checks = [], []
    swapped = wall_crossing(cfg["git"], cfg["omega_minus"], cfg["omega_plus"])
    for side, crossing in (("plus", wc), ("minus", swapped)):
        lams = _lambdas(cfg, crossing, 2)
        specs = [make_inner_spec(crossing, label) for label in plus_labels_across(crossing)]
        series = inner_series(specs, cfg["series_order"], lams)
        # one residual per sample for each label in turn
        for c, resid in enumerate(gkz_ode_residual(series, specs, lams)):
            name, i = str(specs[c // len(lams)].label), c % len(lams)
            checks.append(("%s side, %s at sample %d" % (side, name, i), resid))
            rows.append({"side": side, "label": name, "residual": resid})
    gated, worst, ok = _gate(checks, tol)
    return {**gated, "worst": worst, "checks": rows}, ok


def _suite_lifts(cfg, wc, tol):
    lams = _lambdas(cfg, wc, min(cfg["samples"], 5))
    pairs = next_to_pairs(wc)
    rows = [{"pair": "%s | %s" % (pair[0], pair[1]), "invariant": good}
            for pair, checks in zip(pairs, lift_invariance_checks(wc, pairs, lams, tol=tol)) for good in checks]
    return {"tolerance": tol, "checks": rows}, all(row["invariant"] for row in rows)


# each suite and the tolerance key that gates it, which --tol sets
SUITES = {"uhfm": (_suite_uhfm, "residual"), "pairing": (_suite_pairing, "pairing"),
          "mb": (_suite_mb, "mb"), "ode": (_suite_ode, "ode"), "lifts": (_suite_lifts, "lifts")}


def cmd_verify(cfg, suite):
    run, tol_key = SUITES[suite]
    wc = wall_crossing(cfg["git"], cfg["omega_plus"], cfg["omega_minus"])
    results, ok = run(cfg, wc, cfg["tolerances"][tol_key])
    results["suite"] = suite
    return results, ok


# the commands in the order that --help lists them
COMMANDS = {"analyze": cmd_analyze, "boxes": cmd_boxes, "fixed-points": cmd_fixed_points,
            "continuation": cmd_continuation, "fm": cmd_fm, "series": cmd_series, "verify": cmd_verify}


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wallcross",
        description="Wall-crossing calculator for toric GIT data: chamber "
        "combinatorics, localization data, analytic continuation, and the "
        "pull-push transform on localized K-theory.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("suite", nargs="?", choices=sorted(SUITES), default=None,
                        help="verification suite (for the verify command)")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the sample seed")
    parser.add_argument("--samples", type=int, default=None, help="override the sample count")
    parser.add_argument("--trunc", type=int, default=None, help="override the series order")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the residual tolerance of the invoked suite")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.suite:
        parser.error("verify requires a suite name")
    if args.command != "verify" and (args.suite or args.tol is not None):
        parser.error("a suite name and --tol go only with verify")
    try:
        with open(args.config) as fh:
            raw = _object(json.load(fh), "config")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.samples is not None:
            raw["samples"] = args.samples
        if args.trunc is not None:
            trunc = _object(raw.get("truncation", {}), "truncation")
            raw["truncation"] = dict(trunc, series_order=args.trunc)
        if args.tol is not None:
            tols = _object(raw.get("tolerances", {}), "tolerances")
            raw["tolerances"] = dict(tols, **{SUITES[args.suite][1]: args.tol})
        cfg = parse_config(raw)
    except (OSError, ValueError) as err:  # ConfigError, JSONDecodeError, invalid GIT data
        sys.stderr.write("config error: %s\n" % err)
        return 2

    run = COMMANDS[args.command]
    try:
        results, ok = run(cfg, args.suite) if args.suite else run(cfg)
    except ValueError as err:  # every library error subclasses ValueError
        sys.stderr.write("error: %s: %s\n" % (type(err).__name__, err))
        return 1

    command = "verify %s" % args.suite if args.suite else args.command
    report = make_report(command, cfg, results, ok)
    emit(report, args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
