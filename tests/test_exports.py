"""Every exported name of the public modules resolves, and the monomial
encoding stays private to ``supercalc.algebra``."""

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
