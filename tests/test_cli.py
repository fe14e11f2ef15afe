"""The command line's text format: printed values parse back, and bad
input is a usage error, never a traceback."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from supercalc.algebra import SuperPoly, transport
from supercalc.cli import ExpressionError, Poly, Ring, main, parse_value
from supercalc.diffops import DiffOp
from supercalc.randoms import random_superpoly

RING = Ring(2, 2)
SAMPLES = 300


def parse_poly(text: str, table) -> SuperPoly:
    """Parse printer text and read it as an element over ``table``."""
    value, markers = parse_value(text, RING)
    assert not markers
    if isinstance(value, Fraction):
        return SuperPoly.constant(table, value)
    assert isinstance(value, Poly)
    return value.poly if value.poly.table == table else transport(value.poly,
                                                                  table)


def random_diffop(rng: random.Random) -> DiffOp:
    table = RING.chart.table
    out = DiffOp.zero(table)
    for _ in range(rng.randint(1, 3)):
        word = DiffOp.multiplication(random_superpoly(rng, table, terms=2,
                                                      max_exp=2))
        for _k in range(rng.randint(0, 3)):
            word = word.compose(DiffOp.partial(
                table, rng.choice(RING.chart.coordinate_names)))
        out = out + word
    return out


@pytest.mark.parametrize("layer", ["base", "form"])
def test_printed_polynomials_parse_back(layer):
    table = RING.chart.table if layer == "base" else RING.ftab
    rng = random.Random(7)
    for _ in range(SAMPLES):
        v = random_superpoly(rng, table, terms=4, max_exp=2)
        assert parse_poly(str(v), table) == v, str(v)


def test_printed_diffops_parse_back():
    rng = random.Random(7)
    for _ in range(SAMPLES):
        op = random_diffop(rng)
        value, _ = parse_value(str(op), RING)
        if not isinstance(value, DiffOp):
            value = DiffOp.multiplication(parse_poly(str(op),
                                                     RING.chart.table))
        assert value == op, str(op)


def test_deep_nesting_is_an_expression_error():
    text = "(" * 3000 + "x1" + ")" * 3000
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_value(text, RING)
    result = CliRunner().invoke(main, ["d", "--", text])
    assert result.exit_code == 2
    assert "nested too deeply" in result.output
