"""Every exported name of the public modules resolves, the monomial
encoding and the coefficient types stay private to ``supercalc.algebra``,
no module expands over permutations, only the command line imports
click, the operator complex does not lean on the differential
operators, and the values stored as one polynomial share one module
arithmetic."""

import ast
import importlib
import pathlib
import re

import pytest

import supercalc


@pytest.mark.parametrize("module", ["supercalc", "supercalc.integration",
                                    "supercalc.pseudoforms"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# The encoding helpers of GeneratorTable, a SuperPoly key unpacked into its
# (even exponents, odd positions) halves, a key indexed by hand, or a bit
# operation (a shift, a mask or a popcount) on a key.
_KEY = r"\b(?:mono|mu|m|key)\b"
_BIT_OP = r"(?:>>|<<|&|\|)"
_PRIVATE_ENCODING = re.compile(
    r"even_slot|zero_exponents|\(ev, od\)|\(ev, _\)|\(_, od\)|\b(mono|mu|m)\[\d"
    rf"|{_KEY}\s*{_BIT_OP}|{_BIT_OP}=?\s*{_KEY}|{_KEY}\)?\.bit_count")


def test_only_algebra_reads_the_monomial_encoding():
    src = pathlib.Path(supercalc.__file__).parent
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "algebra.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if _PRIVATE_ENCODING.search(line)]
    assert not offenders, "\n".join(offenders)


# A type test on a RationalFunction: what a coefficient is gets decided in
# algebra.py alone.  Building one (the conic chart does) is allowed.
_COEFFICIENT_TYPE_TEST = re.compile(
    r"isinstance\(.*RationalFunction|type\(.*\)\s*(?:is|==)\s*RationalFunction")


def test_only_algebra_tells_coefficient_types_apart():
    src = pathlib.Path(supercalc.__file__).parent
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "algebra.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if _COEFFICIENT_TYPE_TEST.search(line)]
    assert not offenders, "\n".join(offenders)


def _imports_permutations(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                return True
        if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                and isinstance(node.value, ast.Name)
                and node.value.id == "itertools"):
            return True
    return False


def test_no_module_expands_over_permutations():
    # Determinants are Berkowitz characteristic polynomials; an n!
    # expansion (the Leibniz formula) belongs only to the tests' oracle.
    src = pathlib.Path(supercalc.__file__).parent
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if _imports_permutations(ast.parse(path.read_text()))]
    assert not offenders


def _imports_click(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "click" for alias in node.names):
                return True
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "click":
            return True
    return False


def test_only_the_command_line_imports_click():
    # The expression language (supercalc.expr) and everything below it
    # must be usable, and testable, without the command line toolkit.
    src = pathlib.Path(supercalc.__file__).parent
    importers = [path.name for path in sorted(src.glob("*.py"))
                 if _imports_click(ast.parse(path.read_text()))]
    assert importers == ["cli.py"]


def test_the_operator_complex_imports_nothing_from_diffops():
    # script_D and script_H are polynomial operations; DiffOp's private
    # word helpers must not come back as their sign rules.
    path = pathlib.Path(supercalc.__file__).parent / "derham.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "supercalc.diffops" not in imported


_MODULE_OPERATIONS = ("is_zero", "__bool__", "__add__", "__sub__", "__neg__",
                      "scale", "__eq__")


def _source_classes():
    src = pathlib.Path(supercalc.__file__).parent
    for path in sorted(src.glob("[!_]*.py")):
        module = importlib.import_module(f"supercalc.{path.stem}")
        yield from (v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == module.__name__)


def test_values_stored_as_one_polynomial_share_one_module_arithmetic():
    # A class holding a ``poly`` slot takes its sums, negation, scaling,
    # zero test and equality from PolyElement and redefines none of them.
    from supercalc.algebra import PolyElement
    classes = set(_source_classes())
    holders = {c for c in classes if "poly" in vars(c).get("__slots__", ())}
    assert holders and all(issubclass(c, PolyElement) for c in holders)
    elements = {c for c in classes if issubclass(c, PolyElement) and c is not PolyElement}
    assert {c.__name__ for c in elements} >= {
        "DiffOp", "UniversalElement", "IntegralForm", "DeltaForm"}
    redefined = [f"{c.__name__}.{name}" for c in sorted(elements, key=repr)
                 for name in _MODULE_OPERATIONS if name in vars(c)]
    assert not redefined


def test_the_two_polyvector_pictures_share_gradings_and_transform():
    from supercalc.integral_forms import IntegralForm, PolyvectorForm
    from supercalc.pseudoforms import DeltaForm
    for cls in (IntegralForm, DeltaForm):
        assert cls.__bases__ == (PolyvectorForm,)
        own = {"_of", "_with", "degrees", "degree", "parity",
               "transform"}.intersection(vars(cls))
        assert not own, (cls.__name__, own)
