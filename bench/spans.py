"""Span tracer for the benchmark's traced pass.

The tracer works from outside the library: it replaces the public functions
of the wallcross modules with wrappers, in every module namespace that binds
them, and puts the originals back afterwards.  Each call records a span
(name, start, end, parent span, op id) in flat arrays kept in memory, so a
pass with a million calls costs tens of megabytes, not hundreds.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

# The functions traced, by the module that defines them.  Small vector
# helpers (vdot, vadd, ratvec, ...) are left out: they are called millions
# of times and their cost belongs to the caller.
TRACED = {
    "cli": ("load_config", "make_report", "emit", "cmd_analyze", "cmd_boxes",
            "cmd_fixed_points", "cmd_continuation", "cmd_fm", "cmd_series", "cmd_verify"),
    "lattice": ("matrix_rank", "solve_square", "solve_rectangular", "right_kernel",
                "hermite_row_form", "hermite_with_transform", "integer_kernel_basis",
                "quotient_transversal", "lattice_from_generators", "extended_lattice",
                "express_in_anticone_basis", "primitive_wall_normal"),
    "gitfan": ("make_git", "validate_stability", "box_elements", "fixed_point_labels",
               "wall_crossing", "next_to_pairs", "anticones_next_to",
               "compatible_minus_lift", "wall_frame"),
    "localization": ("restrict_u", "theta_restrict", "rho_restrict", "sigma_restrict",
                     "normal_weights", "verify_weight_transition"),
    "ktheory": ("minus_basis", "canonical_rho_lifts", "basis_e", "fm_transform",
                "restriction_terms", "eval_terms", "chern_restrict", "gamma_restrict",
                "framing_restrict", "euler_pairing", "verify_uhfm", "uhfm_sensitivity",
                "verify_pairing_preserved"),
    "hypergeom": ("log_gamma", "log_sin_pi", "conifold_point", "w_constant",
                  "generic_lambdas", "canonical_d_plus", "make_inner_spec",
                  "inner_series", "gkz_ode_residual"),
    "mellinbarnes": ("continuation_coefficient", "continuation_matrix",
                     "lift_invariance_check", "mb_integral", "mb_integral_with_error",
                     "verify_residue_identity", "right_residue_sum", "left_residue_sum"),
}

LAYERS = tuple(TRACED)


def _hashable(x):
    if isinstance(x, (list, tuple)):
        return tuple(_hashable(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in x.items()))
    return x


def _input_key(args, kwargs):
    return hash(_hashable((args, kwargs)))


# Functions whose distinct inputs are counted, and whose output size is summed.
DISTINCT = ("gitfan.box_elements", "ktheory.restriction_terms")
SIZED = ("ktheory.restriction_terms",)


class Tracer:
    """Spans of one traced pass, kept in parallel arrays.

    Spans are appended when they open, so siblings appear in start order.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts = Counter()  # "<name>.failed", "<name>.terms_out", quad evaluations
        self.inputs = {name: set() for name in DISTINCT}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        inputs = self.inputs.get(name)
        sized = name in SIZED
        clock = time.perf_counter
        tr = self

        def traced(*args, **kwargs):
            if inputs is not None:
                inputs.add(_input_key(args, kwargs))
            i = len(tr.start)
            tr.name_ix.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            tr.stack.append(i)
            tr.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.counts[name + ".failed"] += 1
                raise
            finally:
                tr.end[i] = clock()
                tr.stack.pop()
            if sized:
                tr.counts[name + ".terms_out"] += len(out)
            return out

        return traced

    def wrap_quad(self, quad):
        """Span around scipy's quad that also counts integrand evaluations."""
        counts = self.counts

        def counting_quad(func, *args, **kwargs):
            def integrand(*a):
                counts["mellinbarnes.quad_evals"] += 1
                return func(*a)

            return quad(integrand, *args, **kwargs)

        return self.wrap("mellinbarnes.quad", counting_quad)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore every original on exit."""
        patches = []
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("wallcross.") and mod is not None}
        try:
            for layer, fnames in TRACED.items():
                home = modules["wallcross." + layer]
                for fname in fnames:
                    _patch_everywhere(modules, getattr(home, fname),
                                      self.wrap("%s.%s" % (layer, fname), getattr(home, fname)),
                                      patches)
            mb = modules["wallcross.mellinbarnes"]
            _patch_everywhere(modules, mb.quad, self.wrap_quad(mb.quad), patches)
            cls = mb.ContinuationCoefficient
            value = cls.__dict__["value"]
            patches.append((cls, "value", value))
            setattr(cls, "value", self.wrap("mellinbarnes.coefficient_value", value))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _patch_everywhere(modules, original, wrapper, patches):
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def self_times(start, end, parent):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.

    Spans must be given in the order they opened, so each parent's children
    arrive sorted by start; overlapping and adjacent children are merged,
    and a child's own children are not subtracted from the grandparent.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n  # end of the union of children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json uses."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = Counter()
    inclusive = Counter()
    layer_self = Counter()
    for n, s, e, own in zip(tracer.name_ix, tracer.start, tracer.end, selfs):
        name = tracer.names[n]
        calls[name] += 1
        inclusive[name] += e - s
        layer_self[name.split(".", 1)[0]] += own

    def ratio(name):
        return len(tracer.inputs[name]) / calls[name] if calls[name] else 1.0

    out = {"%s.self_s" % layer: layer_self[layer] for layer in LAYERS}
    out.update({
        "cli.report.s": inclusive["cli.make_report"] + inclusive["cli.emit"],
        "lattice.solve_square.calls": calls["lattice.solve_square"],
        "lattice.matrix_rank.calls": calls["lattice.matrix_rank"],
        "gitfan.wall_crossing.s": inclusive["gitfan.wall_crossing"],
        "gitfan.validate_stability.calls": calls["gitfan.validate_stability"],
        "gitfan.wall_frame.s": inclusive["gitfan.wall_frame"],
        "gitfan.wall_frame.failed": tracer.counts["gitfan.wall_frame.failed"],
        "gitfan.box_elements.calls": calls["gitfan.box_elements"],
        "gitfan.box_elements.s": inclusive["gitfan.box_elements"],
        "gitfan.box_elements.distinct_ratio": ratio("gitfan.box_elements"),
        "localization.theta_restrict.calls": calls["localization.theta_restrict"],
        "localization.restrict_u.calls": calls["localization.restrict_u"],
        "ktheory.restriction_terms.calls": calls["ktheory.restriction_terms"],
        "ktheory.restriction_terms.s": inclusive["ktheory.restriction_terms"],
        "ktheory.restriction_terms.terms_out": tracer.counts["ktheory.restriction_terms.terms_out"],
        "ktheory.restriction_terms.distinct_ratio": ratio("ktheory.restriction_terms"),
        "ktheory.verify_uhfm.calls": calls["ktheory.verify_uhfm"],
        "ktheory.euler_pairing.calls": calls["ktheory.euler_pairing"],
        "ktheory.fm_transform.s": inclusive["ktheory.fm_transform"],
        "hypergeom.log_gamma.calls": calls["hypergeom.log_gamma"],
        "hypergeom.inner_series.s": inclusive["hypergeom.inner_series"],
        "hypergeom.gkz_ode_residual.s": inclusive["hypergeom.gkz_ode_residual"],
        # every Barnes integral goes through mb_integral_with_error, which
        # mb_integral only wraps
        "mellinbarnes.mb_integral.calls": calls["mellinbarnes.mb_integral_with_error"],
        "mellinbarnes.mb_integral.s": inclusive["mellinbarnes.mb_integral_with_error"],
        "mellinbarnes.quad_evals": tracer.counts["mellinbarnes.quad_evals"],
        "mellinbarnes.coefficient_value.calls": calls["mellinbarnes.coefficient_value"],
        "mellinbarnes.continuation_coefficient.calls": calls["mellinbarnes.continuation_coefficient"],
    })
    return out
