"""Weyl superalgebra: normal ordering, composition, brackets, filtration."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.algebra import GeneratorTable, SuperPoly
from supercalc.diffops import DiffOp

T = GeneratorTable.chart(["x", "y"], ["th1", "th2"])


def gen(name):
    return SuperPoly.generator(T, name)


def dd(name):
    return DiffOp.partial(T, name)


def mult(f):
    return DiffOp.multiplication(f)


coeffs = st.integers(-3, 3).map(Fraction)
powers = st.fixed_dictionaries(
    {},
    optional={
        "x": st.integers(1, 2),
        "y": st.integers(1, 2),
        "th1": st.just(1),
        "th2": st.just(1),
    },
)


@st.composite
def polys(draw, max_terms=3):
    out = SuperPoly.zero(T)
    for _ in range(draw(st.integers(0, max_terms))):
        out = out + SuperPoly.from_monomial(T, draw(powers), draw(coeffs))
    return out


@st.composite
def ops(draw, max_terms=2):
    out = DiffOp.zero(T)
    for _ in range(draw(st.integers(1, max_terms))):
        ell = (draw(st.integers(0, 2)), draw(st.integers(0, 1)))
        eps_names = draw(st.sets(st.sampled_from(["th1", "th2"])))
        eps = tuple(sorted(T.index(n) for n in eps_names))
        coeff = draw(polys())
        out = out + DiffOp(T, {(ell, eps): coeff})
    return out


# ---------------------------------------------------------------------------
# action on the algebra

def test_apply_odd_word_right_to_left():
    op = dd("th1").compose(dd("th2"))
    assert op.apply(gen("th2") * gen("th1")) == SuperPoly.one(T)


def test_apply_euler_operator():
    op = mult(gen("x")).compose(dd("x"))
    assert op.apply(gen("x") ** 2) == 2 * gen("x") ** 2


def test_apply_identity():
    f = gen("x") * gen("th1") + 3
    assert DiffOp.identity(T).apply(f) == f


# ---------------------------------------------------------------------------
# composition: the defining relations

def test_compose_even_leibniz():
    got = dd("x").compose(mult(gen("x")))
    expected = DiffOp.identity(T) + mult(gen("x")).compose(dd("x"))
    assert got == expected


def test_compose_odd_anticommutation_same_index():
    got = dd("th1").compose(mult(gen("th1")))
    expected = DiffOp.identity(T) - mult(gen("th1")).compose(dd("th1"))
    assert got == expected


def test_compose_odd_cross_term():
    got = dd("th1").compose(mult(gen("th2")))
    assert got == -(mult(gen("th2")).compose(dd("th1")))


def test_odd_derivative_squares_to_zero_as_operator():
    assert dd("th1").compose(dd("th1")).is_zero()


@given(ops(), ops(), polys())
@settings(max_examples=60, deadline=None)
def test_compose_is_faithful(d, e, f):
    assert d.compose(e).apply(f) == d.apply(e.apply(f))


@given(ops(), ops(), ops())
@settings(max_examples=30, deadline=None)
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


# ---------------------------------------------------------------------------
# brackets

def test_canonical_commutator_even():
    assert dd("x").bracket(mult(gen("x"))) == DiffOp.identity(T)
    assert dd("x").bracket(mult(gen("y"))).is_zero()


def test_canonical_anticommutator_odd():
    for a in ("th1", "th2"):
        for b in ("th1", "th2"):
            got = dd(a).bracket(mult(gen(b)))
            if a == b:
                assert got == DiffOp.identity(T)
            else:
                assert got.is_zero()


def test_odd_derivatives_anticommute():
    assert dd("th1").bracket(dd("th2")).is_zero()


def test_bracket_of_vector_fields():
    e1 = mult(gen("x")).compose(dd("x"))
    e2 = mult(gen("x") ** 2).compose(dd("x"))
    assert e1.bracket(e2) == e2


@given(ops(), ops())
@settings(max_examples=40, deadline=None)
def test_filtration_under_compose(d, e):
    de = d.compose(e)
    if not (d.is_zero() or e.is_zero() or de.is_zero()):
        assert de.degree() <= d.degree() + e.degree()


def test_filtration_drop_under_bracket():
    # vector fields (degree 1): their bracket stays in degree 1, not 2
    fields = [mult(gen("x")).compose(dd("x")),
              mult(gen("th1") * gen("x")).compose(dd("th2")),
              mult(gen("th1")).compose(dd("x")) + dd("th1"),
              mult(gen("y") ** 2).compose(dd("y"))]
    for a in fields:
        for b in fields:
            br = a.bracket(b)
            if not br.is_zero():
                assert br.degree() <= a.degree() + b.degree() - 1


# ---------------------------------------------------------------------------
# structure

def test_parity_of_terms():
    assert dd("th1").parity() == 1
    assert dd("x").parity() == 0
    assert mult(gen("th1")).compose(dd("x")).parity() == 1
    assert (dd("x") + dd("th1")).parity() is None


def test_left_multiply_matches_compose():
    f = gen("x") + gen("th1") * gen("th2")
    d = dd("x").compose(dd("th1"))
    assert d.left_multiply(f) == mult(f).compose(d)


def test_degree_of_zero_operator():
    assert DiffOp.zero(T).degree() == -1
