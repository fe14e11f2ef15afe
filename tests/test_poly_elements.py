"""The module arithmetic that the values stored as one polynomial share
(``supercalc.algebra.PolyElement``): operators, elements of the operator
complex, integral forms and delta forms add, subtract and compare only
with their own type, over their own table, and keep their context."""

import itertools
from fractions import Fraction

import pytest

from supercalc.algebra import SuperPoly
from supercalc.charts import Chart
from supercalc.derham import UniversalElement, form_table
from supercalc.diffops import DiffOp
from supercalc.integral_forms import IntegralForm
from supercalc.pseudoforms import DeltaForm, from_integral_form, to_integral_form

R11 = Chart.standard(1, 1)
R12 = Chart.standard(1, 2)


def _samples(chart):
    """One nonzero value of each of the four types over ``chart``."""
    th = SuperPoly.generator(chart.table, "th1")
    return {
        "DiffOp": DiffOp.partial(chart.table, "x1").left_multiply(th),
        "UniversalElement": UniversalElement.monomial(form_table(chart.table),
                                                      ("dx1",), ("th1",)),
        "IntegralForm": IntegralForm(chart, th),
        "DeltaForm": DeltaForm.top(chart, th),
    }


ELEMENTS = _samples(R11)
OTHERS = {"int": 1, "Fraction": Fraction(1, 2),
          "SuperPoly": SuperPoly.generator(R11.table, "x1")}
VALUES = {**ELEMENTS, **OTHERS}
MIXED = [(a, b) for a, b in itertools.permutations(VALUES, 2)
         if a in ELEMENTS or b in ELEMENTS]


@pytest.mark.parametrize("left, right", MIXED)
def test_mixed_operands_are_refused(left, right):
    a, b = VALUES[left], VALUES[right]
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a - b
    assert not a == b
    assert a != b


@pytest.mark.parametrize("name", ELEMENTS)
def test_same_type_arithmetic_keeps_type_and_context(name):
    a = ELEMENTS[name]
    context = "chart" if isinstance(a, (IntegralForm, DeltaForm)) else "table"
    for out in (a + a, a - a, -a, a.scale(3)):
        assert type(out) is type(a)
        assert getattr(out, context) is getattr(a, context)
        assert out.poly.table is a.poly.table
    assert a + a == a.scale(2)
    assert (a - a).is_zero() and not (a - a) and a
    assert -a == a.scale(-1)
    assert a == a.scale(1)
    assert a != a.scale(2)
    with pytest.raises(TypeError):
        hash(a)


def test_delta_and_integral_pictures_do_not_mix():
    w = DeltaForm.top(R11)
    u = to_integral_form(w)
    for op in (lambda: w + u, lambda: w - u, lambda: u + w, lambda: u - w):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        w + 1
    assert not w == u and not u == w
    assert from_integral_form(u) == w


MISMATCH = {
    "DiffOp": "generator table mismatch",
    "UniversalElement": "generator table mismatch",
    "IntegralForm": "integral forms live on different charts",
    "DeltaForm": "delta forms live on different charts",
}


@pytest.mark.parametrize("name", MISMATCH)
def test_mismatched_tables_keep_each_refusal(name):
    a, b = ELEMENTS[name], _samples(R12)[name]
    assert type(a)._mismatch == MISMATCH[name]
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(ValueError) as info:
            op()
        assert str(info.value) == MISMATCH[name]
    assert not a == b
