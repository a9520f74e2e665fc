"""Every module-level function and every method of heckeb is used somewhere.

A private helper (a leading underscore, not a dunder) is no API: when nothing
in the package refers to it outside its own definition, it is dead code.  A
public function is dead when nothing in the package or its tests refers to
it.  A public function that only the tests call is a reference implementation
or test set-up, and must be named in REFERENCE; the package reads none of
those.  A read made inside a REFERENCE function is no package read, so a
function only they read is test-only too.  The same holds for methods, read
as attributes (x.name, HeckeElement.one alike): one that no package code
outside its own body reads is dead, or test-only and named in REFERENCE.  A
bare name of the same spelling, such as a local variable, is no read of it.
"""

import ast
from pathlib import Path

import heckeb

SRC = Path(heckeb.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# the public functions and methods only the tests call: reference
# implementations the tests compare against (minimal_polynomial over
# Fraction, the oracle of the spectra over Z, with its polynomial arithmetic
# and Subspace.contains), the two acceptance claims no CLI row runs yet (08
# and 12) and the helpers only they read (Subspace.coordinates),
# acceptance-test set-up, and ExactMatrix.transpose
REFERENCE = {
    "minimal_polynomial",
    "poly_trim",
    "poly_mul",
    "poly_divmod",
    "poly_monic",
    "poly_gcd_monic",
    "poly_lcm",
    "poly_derivative",
    "poly_is_squarefree",
    "poly_eval_matrix",
    "u_plus",
    "u_minus",
    "young_idempotent",
    "from_word",
    "irreducibility_report",
    "e_hecke_rank1_eigenvalue_count",
    "restrict_to_subspace",
    "default_specialization",
    "dominant_representative",
    "composition_to_index",
    "shift_center",
    "transpose",
    "contains",
    "coordinates",
}

# methods called by a name the scan cannot see: argparse calls _Parser.error,
# and exactlinalg._term_count (as does perfbench's tracer) reads term_count
# through getattr by its name as a string
CALLED_FROM_OUTSIDE = {"error", "term_count"}


def _referenced(node):
    """The names a syntax tree reads, as bare names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _attributes(node):
    """The names a syntax tree reads as attributes: the reads of a method."""
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _statements(directory, reads=_referenced):
    """(module, statement, the names it reads) for each top-level statement of
    the Python files in directory."""
    return [
        (path.name, stmt, set(reads(stmt)))
        for path in sorted(directory.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]


def _functions(statements, keep):
    """The module-level functions whose name keep accepts, with their module."""
    return [
        (module, stmt)
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and keep(stmt.name)
    ]


def _units(directory, reads=_referenced):
    """_statements with each top-level class split into the statements of its
    body, so that each method is a unit of its own."""
    return [
        (module, sub, set(reads(sub)))
        for module, stmt, _ in _statements(directory)
        for sub in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]


def _methods(statements):
    """The methods of the top-level classes that are no dunder, with their
    module."""
    return [
        (module, fn)
        for module, stmt, _ in statements
        if isinstance(stmt, ast.ClassDef)
        for fn in stmt.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]


def _package(statements):
    """The statements outside the REFERENCE functions: the reads of the
    package proper."""
    return [s for s in statements if getattr(s[1], "name", None) not in REFERENCE]


def _dead(functions, statements):
    """The functions that no statement but their own definition reads."""
    return [
        "%s:%d %s" % (module, fn.lineno, fn.name)
        for module, fn in functions
        if not any(fn.name in names for _, stmt, names in statements if stmt is not fn)
    ]


def test_no_dead_private_helpers():
    statements = _statements(SRC)
    helpers = _functions(
        statements,
        lambda name: name.startswith("_") and not (name.startswith("__") and name.endswith("__")),
    )
    assert any(fn.name == "_eliminate" for _, fn in helpers)  # the scan sees heckeb
    assert _dead(helpers, statements) == []


def test_no_dead_public_functions():
    statements = _statements(SRC)
    public = _functions(statements, lambda name: not name.startswith("_"))
    assert any(fn.name == "main" for _, fn in public)  # the scan sees heckeb
    assert _dead(public, statements + _statements(TESTS)) == []


def test_test_only_functions_are_named():
    statements = _statements(SRC)
    public = _functions(statements, lambda name: not name.startswith("_"))
    assert REFERENCE <= {fn.name for _, fn in public + _methods(statements)}
    test_only = {entry.split()[-1] for entry in _dead(public, _package(statements))}
    assert test_only - REFERENCE == set()


def test_package_reads_no_reference_function():
    reads = [
        "%s:%d %s" % (module, stmt.lineno, name)
        for module, stmt, names in _package(_units(SRC))
        for name in sorted(names & REFERENCE)
    ]
    assert reads == []


def test_methods_are_read_or_named():
    methods = _methods(_statements(SRC))
    assert any(fn.name == "reduced_word" for _, fn in methods)  # the scan sees the classes
    unread = {entry.split()[-1] for entry in _dead(methods, _package(_units(SRC, _attributes)))}
    unread -= CALLED_FROM_OUTSIDE
    tests = set().union(*(names for _, _, names in _statements(TESTS, _attributes)))
    assert unread - tests == set()  # dead
    assert unread - REFERENCE == set()  # test-only, but not named
