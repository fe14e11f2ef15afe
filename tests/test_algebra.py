"""Core algebra: canonical form, signs, derivations, substitution."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.algebra import (
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    merge_odd_indices,
    sort_odd_indices,
)

T = GeneratorTable.chart(["x", "y"], ["th1", "th2", "th3"])


def gen(name):
    return SuperPoly.generator(T, name)


def const(c):
    return SuperPoly.constant(T, c)


# ---------------------------------------------------------------------------
# Reference oracle: elements as formal words of generator indices, products
# by concatenation, normalization only at the very end.  This is the
# brute-force expansion the fast path must agree with.

def _word_to_poly(table, words):
    terms = {}
    for word, coeff in words.items():
        exps = list(table.zero_exponents)
        odd_seq = []
        for idx in word:
            if table.parities[idx] == 0:
                exps[table.even_slot(idx)] += 1
            else:
                odd_seq.append(idx)
        sign, odds = sort_odd_indices(odd_seq)
        if sign == 0:
            continue
        mono = (tuple(exps), odds)
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
    return SuperPoly(table, terms)


def _poly_to_words(poly):
    words = {}
    for (ev, od), c in poly.terms.items():
        word = []
        for slot, k in enumerate(ev):
            word.extend([poly.table.even_positions[slot]] * k)
        word.extend(od)
        words[tuple(word)] = words.get(tuple(word), Fraction(0)) + c
    return words


def naive_mul(a, b):
    words = {}
    for wa, ca in _poly_to_words(a).items():
        for wb, cb in _poly_to_words(b).items():
            w = wa + wb
            words[w] = words.get(w, Fraction(0)) + ca * cb
    return _word_to_poly(a.table, words)


# ---------------------------------------------------------------------------
# sign normalization

def test_sort_two_transposed():
    assert sort_odd_indices([3, 2]) == (-1, (2, 3))


def test_sort_duplicate_vanishes():
    assert sort_odd_indices([2, 2]) == (0, None)


def test_sort_even_permutation():
    assert sort_odd_indices([4, 2, 3]) == (1, (2, 3, 4))


def test_merge_counts_crossings():
    assert merge_odd_indices((2, 4), (3,)) == (-1, (2, 3, 4))
    assert merge_odd_indices((2,), (3,)) == (1, (2, 3))
    assert merge_odd_indices((3,), (3,)) == (0, None)


# ---------------------------------------------------------------------------
# ring structure

def test_anticommutativity_of_odd_generators():
    th1, th2 = gen("th1"), gen("th2")
    assert (th1 * th2 + th2 * th1).is_zero()


def test_odd_square_is_zero():
    th1 = gen("th1")
    assert (th1 * th1).is_zero()


def test_square_of_mixed_element():
    x, th1, th2 = gen("x"), gen("th1"), gen("th2")
    e = x + th1 * th2
    expected = x * x + 2 * x * th1 * th2
    assert e * e == expected
    assert naive_mul(e, e) == expected


def test_canonical_form_is_order_independent():
    th1, th2, th3, x = gen("th1"), gen("th2"), gen("th3"), gen("x")
    a = th3 * x * th1
    b = x * th1 * th3 * -1
    assert a == b
    assert a == naive_mul(naive_mul(th3, x), th1)


coeffs = st.integers(-4, 4).map(Fraction)
powers = st.fixed_dictionaries(
    {},
    optional={
        "x": st.integers(1, 3),
        "y": st.integers(1, 2),
        "th1": st.just(1),
        "th2": st.just(1),
        "th3": st.just(1),
    },
)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    out = SuperPoly.zero(T)
    for _ in range(n):
        out = out + SuperPoly.from_monomial(T, draw(powers), draw(coeffs))
    return out


@given(polys(), polys())
@settings(max_examples=120, deadline=None)
def test_mul_matches_word_expansion(a, b):
    assert a * b == naive_mul(a, b)


@given(polys(), polys())
@settings(max_examples=120, deadline=None)
def test_supercommutativity(a, b):
    for pa, ea in zip((0, 1), a.homogeneous_parts()):
        for pb, eb in zip((0, 1), b.homogeneous_parts()):
            lhs = ea * eb
            rhs = eb * ea
            if pa * pb:
                rhs = -rhs
            assert lhs == rhs


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# derivations

def test_left_derivative_leading_factor():
    th1, th2 = gen("th1"), gen("th2")
    assert (th1 * th2).left_derivative("th1") == th2


def test_left_derivative_transposition_sign():
    th1, th2 = gen("th1"), gen("th2")
    assert (th1 * th2).left_derivative("th2") == -th1


def test_left_derivative_even_power():
    x, th1 = gen("x"), gen("th1")
    assert (x ** 3 * th1).left_derivative("x") == 3 * x ** 2 * th1


@given(polys())
@settings(max_examples=80, deadline=None)
def test_odd_derivative_squares_to_zero(e):
    assert e.left_derivative("th2").left_derivative("th2").is_zero()


@given(polys(), polys())
@settings(max_examples=80, deadline=None)
def test_graded_leibniz(f, g):
    for pf, fh in zip((0, 1), f.homogeneous_parts()):
        for name in ("x", "th1"):
            dp = T.parity(name)
            lhs = (fh * g).left_derivative(name)
            rhs = fh.left_derivative(name) * g + \
                (-1) ** (dp * pf) * fh * g.left_derivative(name)
            assert lhs == rhs


def test_right_derivative_removes_rightmost():
    th1, th2 = gen("th1"), gen("th2")
    assert (th1 * th2).right_derivative("th2") == th1
    assert gen("th1").right_derivative("th1") == const(1)
    assert gen("x").right_derivative("x") == const(1)


@given(polys())
@settings(max_examples=80, deadline=None)
def test_right_left_sign_relation(e):
    # (f) d^R = (-1)^{|d| (|f|+1)} d^L(f) on homogeneous f
    for pf, fh in zip((0, 1), e.homogeneous_parts()):
        for name in ("x", "th2"):
            dp = T.parity(name)
            sign = (-1) ** (dp * (pf + 1))
            assert fh.right_derivative(name) == sign * fh.left_derivative(name)


# ---------------------------------------------------------------------------
# substitution

def test_substitute_odd_square_collapses():
    th1, th2 = gen("th1"), gen("th2")
    assert (th1 * th2).substitute({"th1": th2}).is_zero()


def test_substitute_direct_image():
    x, th1, th2 = gen("x"), gen("th1"), gen("th2")
    assert x.substitute({"x": x + th1 * th2}) == x + th1 * th2


def test_substitute_composed_images():
    x, th1 = gen("x"), gen("th1")
    out = (x * th1).substitute({"x": x ** 2, "th1": x * th1})
    assert out == x ** 3 * th1


def test_substitute_rejects_parity_flip():
    with pytest.raises(ValueError):
        gen("x").substitute({"x": gen("th1")})
    with pytest.raises(ValueError):
        gen("th1").substitute({"th1": gen("x")})


@given(polys())
@settings(max_examples=60, deadline=None)
def test_substitute_functorial(e):
    sigma = {"x": gen("x") + gen("th1") * gen("th2"), "th3": gen("th2")}
    tau = {"x": gen("x") ** 2, "th1": gen("th2"), "th2": -gen("th1")}
    composed = {name: img.substitute(tau) for name, img in sigma.items()}
    for name, img in tau.items():
        composed.setdefault(name, img)
    assert e.substitute(sigma).substitute(tau) == e.substitute(composed)


def test_substitute_is_homomorphism():
    a = gen("x") * gen("th1") + 2
    b = gen("th2") * gen("th3") - gen("y")
    sigma = {"x": gen("y") ** 2, "th1": gen("th3"), "y": gen("x") + gen("th1") * gen("th2")}
    assert (a * b).substitute(sigma) == a.substitute(sigma) * b.substitute(sigma)


# ---------------------------------------------------------------------------
# parity bookkeeping

def test_parity_values():
    th1, th2, x = gen("th1"), gen("th2"), gen("x")
    assert (th1 * th2).parity() == 0
    assert (x * th1).parity() == 1
    assert (x + th1).parity() is None


# ---------------------------------------------------------------------------
# inversion

def test_inverse_of_one_plus_nilpotent():
    th1, th2 = gen("th1"), gen("th2")
    e = const(1) + th1 * th2
    assert e.inverse() == const(1) - th1 * th2


def test_inverse_multiplies_back():
    x, th1, th2, th3 = gen("x"), gen("th1"), gen("th2"), gen("th3")
    e = const(Fraction(2, 3)) + x * th1 * th2 + th2 * th3 - 5 * th1 * th3
    assert e * e.inverse() == const(1)
    assert e.inverse() * e == const(1)


def test_inverse_rejects_non_nilpotent_rest():
    with pytest.raises(ValueError):
        (const(1) + gen("x")).inverse()
    with pytest.raises(ZeroDivisionError):
        gen("th1").inverse()


# ---------------------------------------------------------------------------
# rational functions

def test_rational_function_reduces_monomial_content():
    z = SuperPoly.generator(T, "x")
    r = RationalFunction(z ** 2, z ** 5)
    assert r == RationalFunction(SuperPoly.one(T), z ** 3)
    assert str(r) == "1/(x^3)"


def test_rational_function_field_ops():
    z = SuperPoly.generator(T, "x")
    one = RationalFunction.from_scalar(T, 1)
    r = RationalFunction(SuperPoly.one(T), z)
    assert r * r.inverse() == one
    assert r + r == RationalFunction(SuperPoly.constant(T, 2), z)
    assert (r - r) == RationalFunction.from_scalar(T, 0)


def test_rational_function_euclid_cancellation():
    z = SuperPoly.generator(T, "x")
    num = z ** 2 - 1
    den = z - 1
    r = RationalFunction(num, den)
    assert r == RationalFunction(z + 1, SuperPoly.one(T))
    assert r.is_polynomial()


def test_rational_function_substitute_divides_exactly():
    z = SuperPoly.generator(T, "x")
    r = RationalFunction(SuperPoly.one(T), z)
    th1, th2 = gen("th1"), gen("th2")
    image = absorb_even_exponents(z + th1 * th2)
    out = r.substitute({"x": image})
    # 1/(z + th1 th2) = 1/z - th1 th2 / z^2
    expected = absorb_even_exponents(SuperPoly.one(T)).scale(RationalFunction(SuperPoly.one(T), z)) \
        - absorb_even_exponents(th1 * th2).scale(RationalFunction(SuperPoly.one(T), z * z))
    assert out == expected


def test_absorbed_form_has_no_even_exponents():
    x, th1 = gen("x"), gen("th1")
    e = absorb_even_exponents(x ** 2 * th1 + 3 * x)
    assert all(not any(ev) for (ev, _) in e.terms)


# ---------------------------------------------------------------------------
# printing

def test_str_is_stable():
    e = gen("x") * gen("th1") + 1
    assert str(e) == "1 + x*th1"
