"""Every definition in the library serves a command, a suite or a pinned name.

Each function, class and method defined in src/wallcross (dunders exempt)
must be referenced in src/wallcross outside its own definition and outside
annotations, or be named in bench/*.py, whose tracer pins some library
names: as a string that is the name or a dotted name with it as one
component, as an attribute, or as a name imported from wallcross.  A
definition that only the tests call belongs in tests/helpers.py.

The oracles in tests/helpers.py take their ranks, determinants and solves
from their own Fraction elimination, the wall-frame oracle its dual
lattices, coordinates and sublattice vectors, and the restriction and lift
oracles their forms and line multiples, and the Gamma oracles their
log-Gamma values and raise at their own poles, never from the integer
kernel, wall-frame set-up, restrictions, lifts, log-Gamma kernel and Barnes
pole check they check; the Fraction route of
next-to pairs and connection coefficients takes its line classes, lift
multiples and restrictions from its own Fraction arithmetic, never from
the integer line helpers, the matching or the coefficient it checks; the box
and restriction oracles build their classes and triples in Fractions, never
from the box enumeration or the restriction they check; the pull-push oracle
builds its point classes and root filter, never from the basis, the
transform or the continuation matrix it checks; the Barnes-line set-up and
exact-part oracles scan their poles and multiply their Gamma ratios
themselves, never through the array set-up or the integer products they
check; the Barnes-line cut oracle probes the line itself, never through the
outward evaluation it checks; the restricted-basis and Gram oracles rebuild
every row of a fixed point from the Fraction forms, never through the
per-anticone plans, the Gram or the uhfm table they check.

Library code builds a Fraction only in the functions FRACTION_SITES names.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wallcross"
KERNEL_NAMES = {"_det", "matrix_rank", "solve_square", "solve_rectangular", "right_kernel",
                "primitive_wall_normal", "_dual_of_extended", "_constrained_sublattice",
                "_coords_in", "_combination", "restrict_u", "theta_restrict",
                "compatible_minus_lift", "log_gamma", "log_sin_pi", "line_split",
                "_line_key", "next_to_cells", "minus_lift_numerators",
                "continuation_coefficient", "validate_stability", "_chamber_table",
                "_wall_hyperplanes", "_in_wall_cone", "_saturated", "box_elements",
                "_box_classes", "_extended_rows", "restriction_terms", "RestrictedBasis",
                "_anticone_plan", "localization_gram", "verify_uhfm",
                "basis_e", "fm_transform", "continuation_matrix", "_anticone_pair",
                "_coefficient", "coefficient_values", "_line_setup", "_exact_part",
                "mb_integral_with_error", "quad", "_check_poles"}

# The library functions that may build a Fraction, by what they build.  A box
# class, a lift, a phase, a splitting vector, a base exponent, a coefficient's
# shift and an exact Gamma ratio are integer numerators over a denominator
# everywhere else.
FRACTION_SITES = {
    # config parsing and the rationals a caller hands in
    "cli._parse_rational", "lattice._q", "lattice.vdot",
    # report views: a box class's f and age, the framing's power of z
    "gitfan.SectorLabel.f", "gitfan.SectorLabel.age", "ktheory.framing_restrict",
    # the compatible minus lift as a rational vector
    "gitfan.compatible_minus_lift",
    # solves, (c, c_i) among them, and lattices of rational generators
    "lattice._det", "lattice.solve_square", "lattice.solve_rectangular",
    "lattice.anticone_coords", "lattice.lattice_from_generators", "lattice.extended_lattice",
    # the conifold point
    "hypergeom.conifold_point",
    # the reduced phases of restricted K-class terms
    "ktheory.restriction_terms",
}


def _definitions(tree):
    """(name, first line, last line) of every function, class and method."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno


def _annotations(tree):
    """Every node inside an annotation of an argument, a return or a field."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            roots = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            roots += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        else:
            continue
        for root in roots:
            if root is not None:
                yield from ast.walk(root)


def _references(tree):
    """(name, line) of every name read or written and every attribute,
    outside annotations: a name that only annotates serves nothing."""
    skip = {id(node) for node in _annotations(tree)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _bench_names():
    """The library names bench/*.py can reach: the components of a string
    that is a dotted name, attributes, and names imported from wallcross.
    A bench definition or variable of the same name reaches nothing."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+(\.\w+)*", node.value):
                    names.update(node.value.split("."))
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wallcross":
                names.update(alias.name for alias in node.names)
    return names


def test_every_library_definition_is_reached():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    bench = _bench_names()
    unreached = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            if any(n == name and not (m == module and first <= line <= last) for m, n, line in refs):
                continue
            if name in bench:
                continue
            unreached.append("%s:%d %s" % (module, first, name))
    assert unreached == []


def test_oracles_do_not_import_the_kernel_they_check():
    tree = ast.parse((ROOT / "tests" / "helpers.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wallcross")
                for alias in node.names}
    assert imported & KERNEL_NAMES == set()


def _fraction_calls(tree, scope=()):
    """The dotted name of the function around every call of Fraction."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _fraction_calls(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction":
            yield ".".join(scope)
        yield from _fraction_calls(node, scope)


def test_fraction_is_built_only_where_it_is_allowed():
    sites = {"%s.%s" % (path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in _fraction_calls(ast.parse(path.read_text()))}
    assert sites - FRACTION_SITES == set(), "new Fraction call sites"
    assert FRACTION_SITES - sites == set(), "allowed sites that build no Fraction any more"
