"""Core algebra: canonical form, signs, derivations, substitution."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc.algebra import (
    DERIVE,
    EVEN_BASE,
    MULTIPLY,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    RIGHT_DERIVE,
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    _coeff_inverse,
    absorb_even_exponents,
    release_even_exponents,
    transport,
)
from supercalc.randoms import random_superpoly

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
        sign, mono = table.monomial((idx, 1) for idx in word)
        if sign == 0:
            continue
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
    return SuperPoly(table, terms)


def _poly_to_words(poly):
    words = {}
    for mono, c in poly.terms.items():
        word = tuple(pos for pos, k in poly.table.powers(mono) for _ in range(k))
        words[word] = words.get(word, Fraction(0)) + c
    return words


def naive_mul(a, b):
    words = {}
    for wa, ca in _poly_to_words(a).items():
        for wb, cb in _poly_to_words(b).items():
            w = wa + wb
            words[w] = words.get(w, Fraction(0)) + ca * cb
    return _word_to_poly(a.table, words)


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


# ---------------------------------------------------------------------------
# the monomial codec

def _codec_tables():
    from supercalc.charts import Chart
    from supercalc.derham import form_table
    from supercalc.integral_forms import polyvector_table
    from supercalc.koszul import KoszulAlgebra

    chart = Chart.standard(2, 2)
    return {"chart": chart.table, "form": form_table(chart.table),
            "polyvector": polyvector_table(chart),
            "koszul-dual": KoszulAlgebra(2, 2).dual_table}


@pytest.mark.parametrize("kind", ["chart", "form", "polyvector", "koszul-dual"])
def test_codec_round_trip(kind):
    from supercalc.randoms import random_superpoly

    table = _codec_tables()[kind]
    classes = sorted(set(table.classes))
    rng = random.Random(17)
    seen = 0
    for _ in range(100):
        poly = random_superpoly(rng, table, terms=4, max_exp=3)
        for mono, c in poly.terms.items():
            decoded = table.powers(mono)
            positions = [pos for pos, _ in decoded]
            # written order: even generators by slot, then odd ones ascending
            assert positions == sorted(positions,
                                       key=lambda pos: (table.parities[pos], pos))
            assert all(k >= 1 and (k == 1 or not table.parities[pos])
                       for pos, k in decoded)
            assert table.monomial(decoded) == (1, mono)
            named = {table.names[pos]: k for pos, k in decoded}
            assert SuperPoly.from_monomial(table, named, c) == SuperPoly(table, {mono: c})
            assert str(SuperPoly(table, {mono: Fraction(1)})) == ("*".join(
                table.names[pos] + (f"^{k}" if k > 1 else "") for pos, k in decoded)
                or "1")
            for cls in classes:
                assert table.degree(mono, cls) == sum(
                    k for pos, k in decoded if table.classes[pos] == cls)
            assert table.degree(mono, *classes) == sum(k for _, k in decoded)
            seen += 1
    assert seen > 200


def test_encoder_sorts_odd_factors_with_their_sign():
    x, th1, th2, th3 = (T.index(n) for n in ("x", "th1", "th2", "th3"))
    # th3 * x^2 * th1 * x = -x^3 * th1 * th3
    sign, mono = T.monomial([(th3, 1), (x, 2), (th1, 1), (x, 1)])
    assert SuperPoly(T, {mono: Fraction(sign)}) == gen("th3") * gen("x") ** 2 * gen("th1") * gen("x")
    assert sign == -1
    assert T.monomial([(th2, 1), (th1, 1)])[0] == -1
    assert T.monomial([(th1, 1), (th1, 1)]) == (0, None)
    assert T.monomial([(th1, 2)]) == (0, None)
    assert T.monomial([(th1, 0), (x, 0)]) == T.monomial([])


@pytest.mark.parametrize("kind", ["form", "polyvector"])
def test_transport_matches_encoding_by_name(kind):
    # A polyvector table begins with its chart's generators, so transport
    # moves each key by one shift, both ways; a form table does not.
    tables = _codec_tables()
    base, ext = tables["chart"], tables[kind]
    rng = random.Random(18)
    for _ in range(50):
        u = random_superpoly(rng, base, terms=4, max_exp=3)
        by_name = SuperPoly.zero(ext)
        for mono, c in u.terms.items():
            named = {base.names[pos]: k for pos, k in base.powers(mono)}
            by_name = by_name + SuperPoly.from_monomial(ext, named, c)
        moved = transport(u, ext)
        assert moved.terms == by_name.terms
        assert transport(moved, base).terms == u.terms
        assert transport(absorb_even_exponents(u), ext) == moved
    letter = next(name for name in ext.names if name not in base.names)
    with pytest.raises(KeyError, match="unknown generator"):
        transport(SuperPoly.generator(ext, letter), base)


def test_transport_between_tables_sharing_a_prefix():
    # A chart's polyvector and Weyl tables begin with the chart's
    # generators and then differ, so only keys in the chart's generators
    # move by the shift; a key with another letter goes by name.
    left = T.extend([("pdx", POLYVECTOR_ODD), ("pdth1", POLYVECTOR_EVEN)])
    right = T.extend([("dd_x", POLYVECTOR_EVEN), ("dd_th1", POLYVECTOR_ODD),
                      ("pdth1", POLYVECTOR_EVEN)])
    rng = random.Random(19)
    for _ in range(50):
        u = random_superpoly(rng, left, terms=4, max_exp=3)
        by_name = SuperPoly.zero(right)
        for mono, c in u.terms.items():
            named = {left.names[pos]: k for pos, k in left.powers(mono)}
            if "pdx" not in named:
                by_name = by_name + SuperPoly.from_monomial(right, named, c)
        kept = SuperPoly(left, {m: c for m, c in u.terms.items()
                                if left.degree(m, POLYVECTOR_ODD) == 0})
        moved = transport(kept, right)
        assert moved.terms == by_name.terms
        assert transport(moved, left).terms == kept.terms
    with pytest.raises(KeyError, match="unknown generator"):
        transport(SuperPoly.generator(left, "pdx"), right)


@pytest.mark.parametrize("kind", ["form", "polyvector"])
def test_collect_splits_off_the_chosen_generators(kind):
    tables = _codec_tables()
    base, table = tables["chart"], tables[kind]
    letters = [pos for pos, name in enumerate(table.names) if name not in base.names]
    # th1 sits left of th2 and the odd letters, so its grouping costs signs
    mixed = [table.index("th1"), letters[-1], letters[0]]
    rng = random.Random(19)
    for positions in (letters, mixed):
        for _ in range(50):
            u = random_superpoly(rng, table, terms=5, max_exp=2)
            total = SuperPoly.zero(table)
            for mono, c in u.collect(positions).items():
                assert {pos for pos, _ in table.powers(mono)} <= set(positions)
                assert not any(pos in positions for key in c.terms
                               for pos, _ in table.powers(key))
                total = total + c * SuperPoly(table, {mono: 1})
            assert total == u


@pytest.mark.parametrize("powers", [{"x": -1}, {"th1": -1}, {"th1": 2, "y": -2}],
                         ids=["even", "odd", "after-a-vanishing-odd-square"])
def test_from_monomial_refuses_negative_powers(powers):
    with pytest.raises(ValueError, match="negative power"):
        SuperPoly.from_monomial(T, powers)


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


def unbounded_inverse(f):
    """``SuperPoly.inverse`` with n = f - c by subtraction and the series
    run to w, the number of odd generators, stopping only at a zero term."""
    c0 = f.scalar_part()
    rest = f - SuperPoly.constant(f.table, c0)
    inv_c0 = _coeff_inverse(c0)
    out = power = SuperPoly.constant(f.table, inv_c0)
    step = rest.scale(inv_c0)
    for _ in range(len(f.table.odd_positions)):
        power = -(power * step)
        if power.is_zero():
            break
        out = out + power
    return out


def _in_order(poly):
    """The terms as stored, in order, a quotient as its typed pair."""
    return [(m, (type(c), [*c.num.terms.items()], [*c.den.terms.items()])
             if type(c) is RationalFunction else (type(c), c))
            for m, c in poly.terms.items()]


def _nilpotent(rng, table, fewest):
    """A random element whose terms have at least ``fewest`` odd factors,
    and one with exactly that many."""
    odds = [f"e{i}" for i in range(1, len(table.odd_positions) + 1)]
    out = SuperPoly.zero(table)
    for k in [fewest] + [rng.randint(fewest, len(odds)) for _ in range(rng.randint(0, 3))]:
        powers = {name: 1 for name in rng.sample(odds, k)}
        powers["x"] = rng.randint(0, 2)
        out = out + SuperPoly.from_monomial(table, powers, Fraction(rng.randint(-4, 4) or 1,
                                                                    rng.randint(1, 3)))
    return out


def test_bounded_inverse_stores_what_the_unbounded_series_stores():
    for w in range(1, 6):
        table = GeneratorTable.chart(["x"], [f"e{i}" for i in range(1, w + 1)])
        rng = random.Random(40 + w)
        x = SuperPoly.generator(table, "x")
        for fewest in range(1, min(w, 3) + 1):
            for _ in range(6):
                n = _nilpotent(rng, table, fewest)
                for c in (Fraction(rng.randint(1, 5), rng.randint(1, 3)), 1):
                    f = n + c
                    assert _in_order(f.inverse()) == _in_order(unbounded_inverse(f))
                # a quotient scalar part: 1 + x absorbed
                f = absorb_even_exponents(n * (x + 2) + 1 + x)
                assert _in_order(f.inverse()) == _in_order(unbounded_inverse(f))


@pytest.mark.parametrize("w, terms, products", [
    (3, [("e1",), ("e2", "e3")], 3),            # l = 1: n^2 = 2 e1 e2 e3
    (4, [("e1", "e2"), ("e3", "e4")], 2),       # l = 2
    (5, [("e1", "e2"), ("e3", "e4")], 2),
    (5, [("e1", "e2", "e3"), ("e2", "e4", "e5")], 1),   # l = 3
    (2, [], 0),
])
def test_inverse_multiplies_as_often_as_the_odd_count_allows(monkeypatch, w, terms,
                                                            products):
    table = GeneratorTable.chart([], [f"e{i}" for i in range(1, w + 1)])
    f = SuperPoly.one(table)
    for names in terms:
        f = f + SuperPoly.from_monomial(table, {name: 1 for name in names})
    calls = [0]
    mul = SuperPoly.__mul__

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(SuperPoly, "__mul__", counting)
    inv = f.inverse()
    assert calls[0] == products
    monkeypatch.undo()
    assert f * inv == SuperPoly.one(table)
    assert _in_order(inv) == _in_order(unbounded_inverse(f))


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


def test_rational_function_arithmetic_refuses_another_table():
    U = GeneratorTable.chart(["u1"], ["et1"])
    V = GeneratorTable.chart(["v1"], ["ps1"])
    u, v = SuperPoly.generator(U, "u1"), SuperPoly.generator(V, "v1")
    a, b = RationalFunction(u, u + 1), RationalFunction(v * v, v + 2)
    over_one = RationalFunction(v, SuperPoly.one(V))
    for left, right in ((a, b), (b, a), (a, over_one)):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(ValueError, match="generator table mismatch"):
                op(left, right)
    with pytest.raises(ValueError, match="generator table mismatch"):
        a / v
    assert a != b and not a == RationalFunction(v, v + 1)
    # an equal table built twice is the same table
    twin = GeneratorTable.chart(["u1"], ["et1"])
    w = SuperPoly.generator(twin, "u1")
    assert a + RationalFunction(w, w + 2) == RationalFunction(u, u + 1) + RationalFunction(u, u + 2)


def test_polynomial_refuses_a_quotient_scalar_from_another_table():
    # the quotient reaches SuperPoly as a constant coefficient, through
    # SuperPoly's own operators or their reflected forms
    U = GeneratorTable.chart(["u1"], ["et1"])
    V = GeneratorTable.chart(["v1"], ["ps1"])
    u, v = SuperPoly.generator(U, "u1"), SuperPoly.generator(V, "v1")
    rf = RationalFunction(u, u + 1)
    for left, right in ((rf, v), (v, rf)):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(ValueError, match="generator table mismatch"):
                op(left, right)
    with pytest.raises(ValueError, match="generator table mismatch"):
        v.scale(rf)
    assert v != rf and not v == rf and not rf == v
    # over its own table the quotient is an ordinary coefficient
    assert str(rf + u) == "u1/(1 + u1) + u1"
    assert u / rf == u + 1


def test_constructors_refuse_a_quotient_coefficient_from_another_table():
    U = GeneratorTable.chart(["u1"], ["et1"])
    V = GeneratorTable.chart(["v1"], ["ps1"])
    u = SuperPoly.generator(U, "u1")
    rf = RationalFunction(u, u + 1)
    with pytest.raises(ValueError, match="generator table mismatch"):
        SuperPoly.constant(V, rf)
    for powers in ({"v1": 1}, {"ps1": 2}):    # also when the monomial is zero
        with pytest.raises(ValueError, match="generator table mismatch"):
            SuperPoly.from_monomial(V, powers, rf)
    # over its own table, and over an equal copy of it, the quotient is kept
    assert str(SuperPoly.constant(U, rf)) == "u1/(1 + u1)"
    copy = GeneratorTable.chart(["u1"], ["et1"])
    assert SuperPoly.constant(copy, rf).terms == {0: rf}
    assert SuperPoly.from_monomial(U, {"et1": 1}, rf) == \
        SuperPoly.generator(U, "et1").scale(rf)


def test_rational_function_euclid_cancellation():
    z = SuperPoly.generator(T, "x")
    num = z ** 2 - 1
    den = z - 1
    r = RationalFunction(num, den)
    assert r == RationalFunction(z + 1, SuperPoly.one(T))
    assert set(r.den.terms) == {0}     # a constant denominator


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


def test_repeated_sum_keeps_the_shared_denominator():
    x, y = gen("x"), gen("y")
    r = RationalFunction(x, x + y)
    acc = r
    for _ in range(4):
        acc = acc + r
        acc = acc - r
    assert acc == r
    assert len(acc.den.terms) == 2


def test_negation_skips_the_reduction(monkeypatch):
    import supercalc.algebra as algebra

    x, y = gen("x"), gen("y")
    samples = [RationalFunction(x, x + y),
               RationalFunction(const(3) * x * x - y, const(2) * y + const(1)),
               RationalFunction(x ** 2 - 1, x - 1),
               RationalFunction.from_scalar(T, 0)]
    rebuilt = [RationalFunction(-r.num, r.den) for r in samples]
    calls = []
    real = algebra._reduce_fraction
    monkeypatch.setattr(algebra, "_reduce_fraction",
                        lambda num, den: calls.append(1) or real(num, den))
    for r, want in zip(samples, rebuilt):
        neg = -r
        assert neg.num == -r.num and neg.den == r.den
        assert neg.num == want.num and neg.den == want.den
    assert calls == []


def _random_bivariate(rng, with_constant=False):
    x, y = T.index("x"), T.index("y")
    terms = {T.monomial([(x, rng.randint(0, 2)), (y, rng.randint(0, 1))])[1]:
             Fraction(rng.randint(-4, 4)) for _ in range(3)}
    if with_constant:
        terms[T.monomial([])[1]] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    poly = SuperPoly(T, terms)
    return poly if poly else _random_bivariate(rng, with_constant)


def _rational_pair(rng, case):
    """Two rational functions over the even generators x, y of T.  The
    denominators carry a constant term and both variables, so no reduction
    step changes them and "equal" means one shared denominator."""
    den = _random_bivariate(rng, with_constant=True) * (const(1) + gen("x") * gen("y"))
    num = _random_bivariate(rng)
    a = RationalFunction(num, den)
    if case == "equal":
        b = RationalFunction(_random_bivariate(rng), den)
    elif case == "cancelling":
        b = RationalFunction(-num, den)
    else:
        other = _random_bivariate(rng, with_constant=True) * (const(1) + gen("y"))
        b = RationalFunction(_random_bivariate(rng), other)
    assert (a.den == b.den) == (case != "unequal")
    return a, b


@pytest.mark.parametrize("case", ["equal", "unequal", "cancelling"])
def test_rational_arithmetic_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y")

    symbols = {T.index("x"): sx, T.index("y"): sy}

    def poly(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(symbols[pos] ** k for pos, k in T.powers(mono)))
                    for mono, c in p.terms.items()), sympy.Integer(0))

    def agrees(got, want):
        num, den = sympy.fraction(sympy.cancel(want))
        return sympy.expand(poly(got.num) * den - num * poly(got.den)) == 0

    rng = random.Random(31)
    for _ in range(6):
        a, b = _rational_pair(rng, case)
        sa, sb = poly(a.num) / poly(a.den), poly(b.num) / poly(b.den)
        ops = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a / b, sa / sb)]
        for got, want in ops:
            assert agrees(got, want)
        assert (a == b) == (sympy.cancel(sa - sb) == 0)
        assert (a + b) - b == a
        if case == "cancelling":
            total = a + b
            assert total.num.is_zero() and total.den == SuperPoly.one(T)
        # the same values written over a multiplied-out denominator
        h = const(2) + gen("x") - gen("y")
        assert RationalFunction(a.num * h, a.den * h) == a


# ---------------------------------------------------------------------------
# the integer gcd of one-variable quotients

def _x_poly(coeffs):
    """The polynomial sum of coeffs[k] * x^k over T."""
    x = T.index("x")
    return SuperPoly(T, {T.monomial([(x, k)])[1]: c for k, c in enumerate(coeffs)})


def _x_coeffs(poly):
    """The coefficients of a polynomial in x alone, lowest degree first."""
    by_degree = {sum(k for _, k in T.powers(m)): c for m, c in poly.terms.items()}
    return [by_degree.get(k, 0) for k in range(1 + max(by_degree))]


def _int_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _int_poly(rng, degree, size):
    return ([rng.randint(-size, size) for _ in range(degree)]
            + [rng.choice([-3, -2, -1, 1, 2, 3])])


GCD_CASES = ["planted", "coprime", "content", "high-degree"]


def _gcd_draw(rng, case):
    """Two integer coefficient lists in x: with a planted common factor of
    degree 1-3, drawn apart, or planted and scaled by integer contents; or,
    past the degree 12 that the cocycle suites reach, a planted factor of
    degree 5-8 in sides of degree up to 23."""
    if case == "coprime":
        return _int_poly(rng, rng.randint(1, 4), 9), _int_poly(rng, rng.randint(1, 4), 9)
    if case == "high-degree":
        g = _int_poly(rng, rng.randint(5, 8), 9)
        return tuple(_int_mul(g, _int_poly(rng, rng.randint(0, 15), 9)) for _ in range(2))
    g = _int_poly(rng, rng.randint(1, 3), rng.choice([1, 5, 40]))
    a, b = (_int_mul(g, _int_poly(rng, rng.randint(0, 3), 9)) for _ in range(2))
    if case == "content":
        ka, kb = rng.choice([2, 6, 35]), rng.choice([3, 10, 12])
        a, b = [c * ka for c in a], [c * kb for c in b]
    return a, b


def _primitive(f):
    content = math.gcd(*f)
    return [c // content for c in f]


@pytest.mark.parametrize("case", GCD_CASES)
def test_integer_gcd_matches_sympy(case):
    import supercalc.algebra as algebra

    sympy = pytest.importorskip("sympy")
    sx = sympy.Symbol("x")

    def poly(f):
        return sympy.Poly(list(reversed(f)), sx)

    rng = random.Random(59 + GCD_CASES.index(case))
    for _ in range(40):
        a, b = _gcd_draw(rng, case)
        pa, pb = _primitive(a), _primitive(b)
        g = sympy.gcd(poly(pa), poly(pb))
        want = sympy.div(poly(pa), g)[0], sympy.div(poly(pb), g)[0]
        qa, qb = algebra._gcd_cofactors(pa, pb)
        assert (poly(qa), poly(qb)) in (want, (-want[0], -want[1])), (a, b)
        if case != "coprime":
            assert g.degree() >= 1
        elif g.degree() == 0:
            assert (qa, qb) == (pa, pb)
        # the stored pair of the quotient, contents included
        rf = RationalFunction(_x_poly(a), _x_poly(b))
        num, den = poly(_x_coeffs(rf.num)), poly(_x_coeffs(rf.den))
        assert sympy.gcd(num, den).degree() == 0
        assert num * poly(b) == den * poly(a)
        assert _normal(rf)


def test_sides_with_coprime_values_at_a_point_share_a_factor():
    import supercalc.algebra as algebra

    # (x - 3)(x + 1) and (x - 3)(x + 2): their values 5 and 6 at x = 4 are
    # coprime, yet the sides share x - 3.
    a, b = [-3, -2, 1], [-6, -1, 1]
    assert algebra._gcd_cofactors(a, b) == ([1, 1], [2, 1])
    assert str(RationalFunction(_x_poly(a), _x_poly(b))) == "(1 + x)/(2 + x)"


@pytest.mark.parametrize("f, g", [
    ([1, 0, 1], [1, 1]),        # x^2 + 1 = (x - 1)(x + 1) + 2
    ([1, 2, 1], [0, 2]),        # the leading coefficient 2 does not divide 1
    ([1, 3], [1, 2]),           # 2 does not divide 3, though 1 - 1 leaves no tail
    ([3, 1], [1, 1, 1]),        # g is longer than f
])
def test_divide_refuses_an_inexact_division(f, g):
    import supercalc.algebra as algebra

    assert algebra._divide(f, g) is None
    assert algebra._divide(_int_mul(f, g), g) == f


@pytest.mark.parametrize("num, den", [
    (gen("x"), SuperPoly.zero(T)),
    (SuperPoly.zero(T), SuperPoly.zero(T)),
])
def test_constructor_refuses_a_zero_denominator(num, den):
    with pytest.raises(ZeroDivisionError):
        RationalFunction(num, den)


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("names", [["th1"], ["x", "th2", "th3"]], ids=["th1", "x*th2*th3"])
def test_constructor_refuses_odd_generators(side, names):
    parts = {"num": gen("x") + 1, "den": gen("y") - 2}
    parts[side] = parts[side] + SuperPoly.from_monomial(T, dict.fromkeys(names, 1))
    with pytest.raises(ValueError, match="odd-free"):
        RationalFunction(parts["num"], parts["den"])


@pytest.mark.parametrize("side", ["num", "den"])
@pytest.mark.parametrize("coeff", [0.5, RationalFunction(gen("x"), gen("y"))],
                         ids=["float", "quotient"])
def test_constructor_refuses_non_rational_coefficients(side, coeff):
    parts = {"num": gen("x") + 1, "den": gen("y") - 2}
    parts[side] = parts[side] + SuperPoly.from_monomial(T, {"x": 1}, coeff)
    with pytest.raises(TypeError, match="rational coefficients"):
        RationalFunction(parts["num"], parts["den"])
    with pytest.raises(TypeError, match="rational coefficients"):
        RationalFunction.from_scalar(T, coeff)


# ---------------------------------------------------------------------------
# The reduction as it was before it skipped the steps that cannot cancel,
# written over the codec: cancel the common monomial factor unless a side
# has a constant term, run Euclid whenever one variable occurs, whatever the
# denominator, and make the denominator's leading coefficient 1.  Scaled to
# integers with no common factor and a positive denominator coefficient at
# its largest key, it gives the pair every quotient must store; divided by
# the leading coefficient, every stored pair must give it back.

def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _euclid(fa, fb):
    """Monic gcd of two trimmed coefficient lists, lowest degree first."""
    while fb:
        r = fa[:]
        while len(r) >= len(fb):
            factor = r[-1] / fb[-1]
            offset = len(r) - len(fb)
            for k, c in enumerate(fb):
                r[offset + k] -= factor * c
            _trim(r)
        fa, fb = fb, r
    return [c / fa[-1] for c in fa]


def _exact_quotient(fa, g):
    out = [Fraction(0)] * (len(fa) - len(g) + 1)
    r = fa[:]
    for k in reversed(range(len(out))):
        out[k] = r[k + len(g) - 1] / g[-1]
        for j, gc in enumerate(g):
            r[k + j] -= out[k] * gc
    return out


def _reduce_before(num, den):
    table = num.table
    if num.is_zero():
        return num, SuperPoly.one(table)
    sides = [[(dict(table.powers(m)), Fraction(c)) for m, c in poly.terms.items()]
             for poly in (num, den)]
    if all(p for side in sides for p, _ in side):
        common = {pos: min(p.get(pos, 0) for side in sides for p, _ in side)
                  for pos in table.even_positions}
        sides = [[({pos: k - common[pos] for pos, k in p.items()}, c) for p, c in side]
                 for side in sides]
    used = {pos for side in sides for p, _ in side for pos, k in p.items() if k}
    if len(used) == 1:
        (pos,) = used
        lists = []
        for side in sides:
            f = [Fraction(0)] * (1 + max(p.get(pos, 0) for p, _ in side))
            for p, c in side:
                f[p.get(pos, 0)] += c
            lists.append(_trim(f))
        g = _euclid(*lists)
        if len(g) > 1:
            sides = [[({pos: k}, c) for k, c in enumerate(_exact_quotient(f, g))]
                     for f in lists]
    num, den = (SuperPoly(table, {table.monomial(p.items())[1]: c for p, c in side})
                for side in sides)
    inv = 1 / Fraction(den.terms[max(den.terms, key=table.sort_key)])
    return num.scale(inv), den.scale(inv)


def _integral(num, den):
    """num/den scaled to int coefficients whose gcd, over both sides, is 1,
    with a positive denominator coefficient at the largest key."""
    values = [Fraction(c) for c in (*num.terms.values(), *den.terms.values())]
    scale = math.lcm(*(c.denominator for c in values))
    content = math.gcd(*(int(c * scale) for c in values))
    factor = Fraction(scale, content) * (1 if den.terms[max(den.terms)] > 0 else -1)
    return num.scale(factor), den.scale(factor)


def _monic(rf):
    """The stored pair divided by the denominator's leading coefficient:
    the pair a quotient stored before it stored integers."""
    inv = 1 / Fraction(rf.den.terms[max(rf.den.terms, key=rf.table.sort_key)])
    return rf.num.scale(inv), rf.den.scale(inv)


def _typed(poly):
    return {m: (type(c), c) for m, c in poly.terms.items()}


def _stored_as_before(rf, num, den):
    before = _reduce_before(num, den)
    want_num, want_den = _integral(*before)
    return ((_typed(rf.num), _typed(rf.den)) == (_typed(want_num), _typed(want_den))
            and [_typed(p) for p in _monic(rf)] == [_typed(p) for p in before])


def _random_side(rng, kind):
    """A numerator or denominator of the given shape over x, y, with
    non-unit coefficients and, often, a monomial or linear factor that a
    partner of the same draw shares."""
    x, y = gen("x"), gen("y")

    def coeff():
        return Fraction(rng.choice([-6, -3, -2, 2, 3, 5]), rng.choice([1, 1, 2, 7]))

    def poly(variables, terms):
        out = SuperPoly.zero(T)
        for _ in range(terms):
            mono = SuperPoly.one(T)
            for v in variables:
                mono = mono * v ** rng.randint(0, 2)
            out = out + mono * coeff()
        return out

    if kind == "zero":
        return SuperPoly.zero(T)
    if kind == "constant":
        return const(coeff())
    if kind == "monomial":
        return x ** rng.randint(1, 3) * y ** rng.randint(0, 2) * coeff()
    out = SuperPoly.zero(T)
    while out.is_zero():
        out = poly([x] if kind == "univariate" else [x, y], rng.randint(1, 3))
    return out


SIDE_KINDS = ["constant", "monomial", "univariate", "bivariate"]


@pytest.mark.parametrize("den_kind", SIDE_KINDS)
def test_stored_pairs_match_the_reduction_before_the_fast_paths(den_kind):
    rng = random.Random(41 + SIDE_KINDS.index(den_kind))
    extra = random.Random(141 + SIDE_KINDS.index(den_kind))   # for the sums over 1
    x = gen("x")
    # over a univariate denominator, numerators in x alone let Euclid cancel
    kinds = (["zero", "constant", "monomial", "univariate"] if den_kind == "univariate"
             else ["zero", *SIDE_KINDS])
    checked = set()
    for draw in range(60):
        num_kind = rng.choice(kinds)
        num, den = _random_side(rng, num_kind), _random_side(rng, den_kind)
        if den.is_zero():
            continue
        shared = rng.choice([SuperPoly.one(T), x, x ** 2, x + 3, 2 * x - 1,
                             x * x + x + 1, 3 - x])
        if den_kind in ("constant", "monomial") and len(shared.terms) > 1:
            shared = x
        for n, d in ((num, den), (num * shared, den * shared)):
            a = RationalFunction(n, d)
            assert _stored_as_before(a, n, d), (n, d)
            b = RationalFunction(_random_side(rng, rng.choice(SIDE_KINDS)),
                                 _random_side(rng, rng.choice(SIDE_KINDS)))
            # each operation's pair as it was formed from the monic pairs
            (an, ad), (bn, bd) = _monic(a), _monic(b)
            sum_pair = ((an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd))
            assert _stored_as_before(a + b, *sum_pair)
            assert _stored_as_before(a * b, an * bn, ad * bd)
            assert _stored_as_before(b.inverse(), bd, bn)
            cn, cd = _monic(b.inverse())
            assert _stored_as_before(a / b, an * cn, ad * cd)
            dn, dd = an.left_derivative("x"), ad.left_derivative("x")
            assert _stored_as_before(a.derivative("x"), dn * ad - an * dd, ad * ad)
            checked.add(num_kind)
        if draw % 2:
            continue
        # the paths for int factors, sums over 1 and substitution
        assert _pair(a * 1) == _pair(a) and _pair(a * -1) == _pair(-a)
        for k in (0, 1, -1, 6, -6, Fraction(-5, 6)):
            if k not in (1, -1):
                assert _stored_as_before(a * k, an * k, ad)
            assert _pair(k * a) == _pair(a * k)
        p = _over_one(n)
        for q in (_over_one(_random_side(extra, extra.choice(SIDE_KINDS))), -p):
            assert _stored_as_before(p + q, p.num + q.num, SuperPoly.one(T))
        images = {"x": absorb_even_exponents(gen("y") + 1 + gen("th1") * gen("th2")),
                  "y": absorb_even_exponents(2 * x - gen("y"))}
        assert _stored(a.substitute(images)) == _stored(
            reference_substitute(a.num, images) * reference_substitute(a.den, images).inverse())
    assert checked == set(kinds)


def _pair(rf):
    return _typed(rf.num), _typed(rf.den)


def _over_one(poly):
    """A quotient over 1 with poly's terms, each scaled to an integer."""
    one = SuperPoly.one(poly.table)
    return RationalFunction(RationalFunction(poly, one).num, one)


def _stored(poly):
    """Each coefficient as stored: its type and value, and for a quotient
    the typed terms of its pair."""
    return {m: _pair(c) if type(c) is RationalFunction else (type(c), c)
            for m, c in poly.terms.items()}


def reference_substitute(poly, assignment, table=None):
    """SuperPoly.substitute term by term, each term accumulating left to
    right as the fast path does: a quotient's numerator and denominator
    mapped afresh, a denominator of 1 too, and every image raised to every
    power anew."""
    images = {poly.table.index(name): img for name, img in assignment.items()}
    out = table or next(iter(images.values())).table
    result = SuperPoly.zero(out)
    for m, c in poly.terms.items():
        if isinstance(c, RationalFunction):
            piece = (reference_substitute(c.num, assignment, out)
                     * reference_substitute(c.den, assignment, out).inverse())
        else:
            piece = SuperPoly.constant(out, c)
        for pos, k in poly.table.powers(m):
            img = images[pos] if pos in images else SuperPoly.generator(out, poly.table.names[pos])
            piece = piece * (img if k == 1 else img ** k)
            if piece.is_zero():
                break
        result = result + piece
    return result


def _split_maps(p, q, count, seed):
    from supercalc.charts import Chart
    from supercalc.randoms import random_split_map

    rng = random.Random(seed)
    u, v, w = (Chart([f"{e}{i}" for i in range(1, p + 1)], [f"{o}{i}" for i in range(1, q + 1)])
               for e, o in (("u", "et"), ("v", "ps"), ("w", "ch")))
    for _ in range(count):
        yield random_split_map(rng, u, v), random_split_map(rng, v, w)


@pytest.mark.parametrize("p, q", [(2, 2), (3, 2)])
def test_chart_quotients_store_the_pairs_of_the_general_rules(p, q):
    # Absorbed split-map images, their powers and their Ber J: mostly
    # quotients over a constant, where the fast paths apply.
    constant = count = 0
    for m1, m2 in _split_maps(p, q, 4 - p, 60 + p):
        table = m1.source.table
        # on 3|2, pulling back (Ber J)^3 and (Ber J)^4 takes 0.1-0.3 s each
        tops = [(f, 4) for f in m2.images.values()] + [(m2.ber_jacobian(), 4 if p < 3 else 2)]
        for f, top in tops:
            for k in range(1, top + 1):
                g = f ** k
                assert _stored(m1.pullback(g)) == _stored(
                    reference_substitute(g, m1.images, table))
        elements = [*m1.images.values(), m1.ber_jacobian()]
        quotients = [c for f in elements for k in (1, 2) for c in (f ** k).terms.values()]
        count += len(quotients)
        x = table.names[0]
        for a in quotients:
            an, ad = _monic(a)
            constant += len(ad.terms) == 1 and 0 in ad.terms
            for k in (0, 1, -1, 6, -6):
                assert _stored_as_before(a * k, an * k, ad)
                assert _pair(k * a) == _pair(a * k)
            dn, dd = an.left_derivative(x), ad.left_derivative(x)
            assert _stored_as_before(a.derivative(x), dn * ad - an * dd, ad * ad)
            for b in quotients[1::4]:
                bn, bd = _monic(b)
                assert _stored_as_before(a * b, an * bn, ad * bd)
            # sums over 1, one of which cancels to 0
            over_one = _over_one(an)
            for b in (_over_one(_monic(quotients[0])[0]), -over_one):
                assert _stored_as_before(over_one + b, over_one.num + b.num, SuperPoly.one(table))
    assert count // 2 < constant < count


def test_a_constant_denominator_derivative_forms_no_products(monkeypatch):
    import supercalc.algebra as algebra

    calls = []
    products = algebra._products
    monkeypatch.setattr(algebra, "_products", lambda pairs: calls.append(None) or products(pairs))
    x, y = gen("x"), gen("y")
    over_six = RationalFunction(x ** 3 + 3 * x * y, const(6))
    got = over_six.derivative("x")
    assert not calls
    assert _pair(got) == _pair(RationalFunction(x * x + y, const(2)))
    RationalFunction(x, x + 1).derivative("x")
    assert calls     # the quotient rule forms its products there


def test_one_substitution_raises_each_image_to_each_power_once(monkeypatch):
    m1, m2 = next(_split_maps(2, 2, 1, 62))
    f = m2.ber_jacobian() ** 2 + sum(img ** 3 for img in m2.images.values())
    raised = []
    power = SuperPoly.__pow__
    monkeypatch.setattr(SuperPoly, "__pow__",
                        lambda self, n: raised.append((id(self), n)) or power(self, n))
    got = m1.pullback(f)
    assert raised and len(raised) == len(set(raised))
    raised.clear()
    want = reference_substitute(f, m1.images, m1.source.table)
    assert len(raised) > len(set(raised))   # term by term, the powers repeat
    assert _stored(got) == _stored(want)


def _normal(rf):
    """Whether rf stores int coefficients whose gcd is 1 over both sides,
    with a positive denominator coefficient at the largest key."""
    values = [*rf.num.terms.values(), *rf.den.terms.values()]
    return (all(type(c) is int for c in values) and math.gcd(*values) == 1
            and rf.den.terms[max(rf.den.terms)] > 0)


def _monic_text(rf):
    """The text of the monic pair: a numerator of two or more terms and a
    denominator other than one letter in parentheses, a denominator of 1
    left out."""
    num, den = _monic(rf)
    shown = str(num) if len(num.terms) <= 1 else f"({num})"
    if den == SuperPoly.one(den.table):
        return shown
    text = str(den)
    if len(den.terms) > 1 or "^" in text or "*" in text:
        text = f"({text})"
    return f"{shown}/{text}"


def test_every_result_stores_the_integer_normal_form():
    rng = random.Random(73)
    swapped = GeneratorTable.chart(["y", "x"], ["th1", "th2", "th3"])

    def draw(num_kinds=("zero", *SIDE_KINDS)):
        return RationalFunction(_random_side(rng, rng.choice(num_kinds)),
                                _random_side(rng, rng.choice(SIDE_KINDS)))

    seen = 0
    for _ in range(80):
        a, b = draw(), draw(SIDE_KINDS)
        # a denominator with a's primitive part and another content
        c = RationalFunction(_random_side(rng, rng.choice(SIDE_KINDS)),
                             a.den.scale(rng.choice([2, 3, -5, Fraction(1, 6)])))
        assert (a + c) - c == a and (a == c) == (a - c == 0)
        results = [a, b, c, a + b, a - b, a + c, a * b, a / b, b.inverse(), -a,
                   a.derivative("x"), b.derivative("y")]
        moved = transport(const(a) + const(b) * gen("th1") + const(c) * gen("th2"), swapped)
        results += moved.terms.values()
        for rf in results:
            assert _normal(rf), (rf.num.terms, rf.den.terms)
            assert str(rf) == _monic_text(rf)
            seen += 1
    assert seen > 1000


@pytest.mark.parametrize("name", ["x", "th1"])
def test_superpoly_plus_rational_function_is_a_constant_term(name):
    # A RationalFunction is a scalar to SuperPoly, in sums as in products,
    # whichever side it stands on.
    e = gen(name)
    rf = RationalFunction(SuperPoly.one(T), gen("x") + 1)
    c = const(rf)
    for got, want in ((e + rf, e + c), (rf + e, c + e), (e - rf, e - c),
                      (rf - e, c - e)):
        assert type(got) is SuperPoly
        assert got == want and str(got) == str(want)
    assert str(e + rf) == f"1/(1 + x) + {name}"
    assert str(rf - e) == f"1/(1 + x) - {name}"
    assert (e + rf) - rf == e and rf - (rf - e) == e


def test_absorbed_form_has_no_even_exponents():
    x, th1 = gen("x"), gen("th1")
    e = absorb_even_exponents(x ** 2 * th1 + 3 * x)
    assert all(T.degree(mono, EVEN_BASE) == 0 for mono in e.terms)


def test_absorbing_keeps_every_other_even_letter_in_the_keys():
    table = _codec_tables()["polyvector"]
    u = random_superpoly(random.Random(62), table, terms=6, max_exp=2)
    for mono, c in absorb_even_exponents(u).terms.items():
        assert table.degree(mono, EVEN_BASE) == 0
        assert c.num.table is table and all(
            table.degree(m, EVEN_BASE) == sum(k for _, k in table.powers(m))
            for m in (*c.num.terms, *c.den.terms))
    pdth = SuperPoly.generator(table, table.names_of_class(POLYVECTOR_EVEN)[0])
    with pytest.raises(ValueError, match="even base coordinates only"):
        RationalFunction(SuperPoly.one(table), pdth + 1)


def test_release_divides_a_shared_factor_out():
    x, y, th1 = gen("x"), gen("y"), gen("th1")
    d = x * y - 2 * x + y + 3
    p = x * x - 3 * y + 1
    rf = RationalFunction(p * d, d)
    assert set(rf.den.terms) != {0}    # two variables: the factor stays stored
    assert release_even_exponents(const(rf) * th1) == p * th1
    assert str(const(rf) * th1) == str(p * th1)
    inverse = RationalFunction(SuperPoly.one(T), 1 + x + y)
    with pytest.raises(ValueError, match="non-polynomial coefficient"):
        release_even_exponents(const(inverse) * th1)


def test_equality_ignores_where_even_powers_sit():
    x, th1, th2 = gen("x"), gen("th1"), gen("th2")
    for e in (x * th1, x ** 2 * th1 * th2 + 3 * x + gen("y") * th2):
        absorbed = absorb_even_exponents(e)
        assert str(e) == str(absorbed)
        assert e == absorbed and absorbed == e
        assert not (e != absorbed) and not (absorbed != e)
    doubled = absorb_even_exponents(2 * x * th1)
    assert x * th1 != doubled and doubled != x * th1
    assert not (x * th1 == doubled) and not (doubled == x * th1)


def test_equality_with_a_quotient_takes_it_as_a_constant():
    x, th1 = gen("x"), gen("th1")
    rf = RationalFunction(SuperPoly.one(T), x + 1)
    assert th1 != rf and rf != th1
    assert not (th1 == rf) and not (rf == th1)
    assert x + 1 == RationalFunction(x + 1, SuperPoly.one(T))
    assert RationalFunction(x + 1, SuperPoly.one(T)) == x + 1
    assert const(rf) == rf and rf == const(rf)
    assert not (const(rf) != rf) and not (rf != const(rf))


# ---------------------------------------------------------------------------
# printing

def test_str_is_stable():
    e = gen("x") * gen("th1") + 1
    assert str(e) == "1 + x*th1"


@pytest.mark.parametrize("layer", ["chart", "form", "polyvector"])
def test_absorbed_twins_print_alike(layer):
    table = _codec_tables()[layer]
    rng = random.Random(61)
    for _ in range(40):
        u = random_superpoly(rng, table, terms=4, max_exp=3)
        assert str(absorb_even_exponents(u)) == str(u)


def test_a_proper_quotient_prints_as_stored():
    rf = RationalFunction(SuperPoly.one(T), gen("x"))
    e = const(rf) * gen("th1") + gen("x") * gen("th2")
    assert str(e) == "1/x*th1 + x*th2"


# ---------------------------------------------------------------------------
# Reference oracle: the tuple-key arithmetic the packed keys replaced.  An
# element is a dict from (even exponents by slot, ascending odd positions)
# to a Fraction; products merge the odd tuples and count the crossings.

def _tuple_merge(a, b):
    sign, out, i, j = 1, [], 0, 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] > b[j]:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
        else:
            return 0, None
    return sign, tuple(out + list(a[i:]) + list(b[j:]))


def _to_tuples(poly):
    table = poly.table
    slot = {pos: s for s, pos in enumerate(table.even_positions)}
    out = {}
    for mono, c in poly.terms.items():
        ev = [0] * len(table.even_positions)
        od = []
        for pos, k in table.powers(mono):
            if pos in slot:
                ev[slot[pos]] = k
            else:
                od.append(pos)
        out[(tuple(ev), tuple(od))] = Fraction(c)
    return out


def _from_tuples(table, terms):
    evens = table.even_positions
    out = {}
    for (ev, od), c in terms.items():
        sign, mono = table.monomial([(evens[s], k) for s, k in enumerate(ev)]
                                    + [(pos, 1) for pos in od])
        assert sign == 1
        out[mono] = c
    return SuperPoly(table, out)


def _tuple_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _tuple_mul(a, b):
    out = {}
    for (ev1, od1), c1 in a.items():
        for (ev2, od2), c2 in b.items():
            sign, odds = _tuple_merge(od1, od2)
            if sign == 0:
                continue
            mono = (tuple(x + y for x, y in zip(ev1, ev2)), odds)
            out[mono] = out.get(mono, Fraction(0)) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def _tuple_left_derivative(table, a, pos):
    out = {}
    for (ev, od), c in a.items():
        if table.parities[pos] == 0:
            s = table.even_positions.index(pos)
            if ev[s]:
                mono = (ev[:s] + (ev[s] - 1,) + ev[s + 1:], od)
                out[mono] = out.get(mono, Fraction(0)) + c * ev[s]
        elif pos in od:
            j = od.index(pos)
            out[(ev, od[:j] + od[j + 1:])] = -c if j % 2 else c
    return {m: c for m, c in out.items() if c}


def _tuple_right_derivative(table, a, pos):
    if table.parities[pos] == 0:
        return _tuple_left_derivative(table, a, pos)
    out = {}
    for (ev, od), c in a.items():
        if pos in od:
            j = od.index(pos)
            out[(ev, od[:j] + od[j + 1:])] = -c if (len(od) - 1 - j) % 2 else c
    return out


def _tuple_substitute(table, a, images):
    one = {((0,) * len(table.even_positions), ()): Fraction(1)}
    out = {}
    for (ev, od), c in a.items():
        piece = {m: c * v for m, v in one.items()}
        factors = [table.even_positions[s] for s, k in enumerate(ev) for _ in range(k)]
        for pos in factors + list(od):
            image = images.get(pos)
            if image is None:
                image = _to_tuples(SuperPoly.generator(table, table.names[pos]))
            piece = _tuple_mul(piece, image)
        out = _tuple_add(out, piece)
    return out


def _tuple_str(table, terms):
    """The printer of the tuple keys: total degree, then odd positions,
    then even exponents."""
    if not terms:
        return "0"
    names, evens = table.names, table.even_positions
    chunks = []
    for (ev, od), c in sorted(terms.items(), key=lambda item: (
            sum(item[0][0]) + len(item[0][1]), item[0][1], item[0][0])):
        body = "*".join([names[evens[s]] if k == 1 else f"{names[evens[s]]}^{k}"
                         for s, k in enumerate(ev) if k] + [names[i] for i in od])
        cs = str(c)
        text = cs if not body else body if cs == "1" else "-" + body \
            if cs == "-1" else f"{cs}*{body}"
        if chunks:
            text = "- " + text[1:] if text.startswith("-") else "+ " + text
        chunks.append(text)
    return " ".join(chunks)


def _agrees(poly, table, terms):
    return poly == _from_tuples(table, terms) and str(poly) == _tuple_str(table, terms)


@pytest.mark.parametrize("kind", ["chart", "form", "polyvector", "koszul-dual"])
def test_packed_arithmetic_matches_the_tuple_keys(kind):
    from supercalc.randoms import random_superpoly

    table = _codec_tables()[kind]
    rng = random.Random(23)
    for _ in range(200):
        a = random_superpoly(rng, table, terms=5, max_exp=2)
        b = random_superpoly(rng, table, terms=5, max_exp=2)
        ta, tb = _to_tuples(a), _to_tuples(b)
        assert _agrees(a, table, ta) and str(a) == _tuple_str(table, ta)
        assert _agrees(a * b, table, _tuple_mul(ta, tb))
        pos = rng.randrange(len(table.names))
        name = table.names[pos]
        assert _agrees(a.left_derivative(name), table,
                       _tuple_left_derivative(table, ta, pos))
        assert _agrees(a.right_derivative(name), table,
                       _tuple_right_derivative(table, ta, pos))
        images = {p: random_superpoly(rng, table, parity=table.parities[p],
                                      terms=2, max_exp=1)
                  for p in rng.sample(range(len(table.names)), 2)}
        assert _agrees(a.substitute({table.names[p]: img for p, img in images.items()}),
                       table, _tuple_substitute(
                           table, ta, {p: _to_tuples(img) for p, img in images.items()}))


# ---------------------------------------------------------------------------
# Reference oracle for the quotient rule: the derivative loops that came
# before the compiled words, each with a RationalFunction branch of its own.
# They read keys through the codec only.  The tuple-key oracle above covers
# Fraction coefficients; these cover quotients.

def reference_left_derivative(poly, name):
    """The graded left derivative term by term: along an even base
    coordinate a RationalFunction coefficient is differentiated too, and
    each term adds into one map in the order of the terms."""
    table = poly.table
    pos = table.index(name)
    terms = {}

    def add(mono, c):
        acc = terms.get(mono)
        terms[mono] = c if acc is None else acc + c
    for m, c in poly.terms.items():
        pairs = table.powers(m)
        if table.parities[pos]:
            odds = [p for p, _ in pairs if table.parities[p]]
            if pos in odds:
                _, mono = table.monomial([(p, k) for p, k in pairs if p != pos])
                terms[mono] = -c if odds.index(pos) % 2 else c
            continue
        if table.classes[pos] == EVEN_BASE and isinstance(c, RationalFunction):
            dc = c.derivative(name)
            if dc:
                add(m, dc)
        k = dict(pairs).get(pos, 0)
        if k:
            add(table.monomial([(p, e - (p == pos)) for p, e in pairs])[1], c * k)
    return SuperPoly(table, terms)


def reference_right_derivative(poly, name):
    """The left derivative along an even generator; along an odd one each
    odd factor after it flips the sign."""
    table = poly.table
    pos = table.index(name)
    if not table.parities[pos]:
        return reference_left_derivative(poly, name)
    terms = {}
    for m, c in poly.terms.items():
        odds = [p for p, _ in table.powers(m) if table.parities[p]]
        if pos in odds:
            rest = [(p, k) for p, k in table.powers(m) if p != pos]
            terms[table.monomial(rest)[1]] = c if (len(odds) - 1 - odds.index(pos)) % 2 == 0 else -c
    return SuperPoly(table, terms)


def with_quotients(rng, poly):
    """poly with a third of its coefficients times a quotient in one of the
    table's even base coordinates, drawn afresh for each, and absorbed
    half the time."""
    table = poly.table
    bases = table.positions_of_class(EVEN_BASE)
    terms = {}
    for m, c in poly.terms.items():
        if bases and rng.randrange(3) == 0:
            z = SuperPoly.generator(table, table.names[rng.choice(bases)])
            c = c * RationalFunction(z + rng.randint(-2, 2), z * z + rng.randint(1, 3))
        terms[m] = c
    out = SuperPoly(table, terms)
    return absorb_even_exponents(out) if rng.randrange(2) else out


def _quotient_draws(table, count, seed=37):
    from supercalc.randoms import random_superpoly

    rng = random.Random(seed)
    return [with_quotients(rng, random_superpoly(rng, table, terms=4, max_exp=2))
            for _ in range(count)]


def _derivative_mismatches(draws):
    bad = 0
    for a in draws:
        for name in a.table.names:
            for got, want in ((a.left_derivative(name), reference_left_derivative(a, name)),
                              (a.right_derivative(name), reference_right_derivative(a, name))):
                bad += got != want or str(got) != str(want)
    return bad


@pytest.mark.parametrize("kind", ["chart", "form", "polyvector"])
def test_derivatives_match_the_reference_loops_on_quotients(kind):
    draws = _quotient_draws(_codec_tables()[kind], 120)
    assert _derivative_mismatches(draws) == 0
    # the quotient rule is hit: a base derivative of a quotient term
    table = draws[0].table
    bases = [table.names[pos] for pos in table.positions_of_class(EVEN_BASE)]
    hits = sum(any(isinstance(c, RationalFunction) and c.derivative(x)
                   for c in a.terms.values() for x in bases) for a in draws)
    assert hits >= 60


def _chained(poly, letters):
    """A word letter by letter, the last letter first, through the
    reference loops and left multiplication."""
    table = poly.table
    for pos, op in reversed(letters):
        name = table.names[pos]
        if op == MULTIPLY:
            poly = SuperPoly.generator(table, name) * poly
        elif op == DERIVE:
            poly = reference_left_derivative(poly, name)
        else:
            poly = reference_right_derivative(poly, name)
    return poly


def _word_cases(count, seed=41):
    """Quotient draws over the 2|2 polyvector table, each with a word of
    one to three letters, half of them derivatives along x1."""
    draws = _quotient_draws(_codec_tables()["polyvector"], count, seed)
    table = draws[0].table
    x1 = table.index("x1")
    rng = random.Random(seed)
    for a in draws:
        letters = [(x1, DERIVE) if rng.randrange(2) else
                   (rng.randrange(len(table.names)),
                    rng.choice((MULTIPLY, DERIVE, RIGHT_DERIVE)))
                   for _ in range(rng.randint(1, 3))]
        yield a, letters, rng.choice((1, -1, 2))


def test_words_match_the_chained_reference_on_quotients():
    # several quotient derivatives sum in another order than the chain's,
    # so the values agree and the printed forms may not
    cases = list(_word_cases(150))
    for a, letters, c in cases:
        got = a.apply_word(a.table.compile_word(letters, c))
        assert got == _chained(a, letters).scale(c), (str(a), letters)
    assert sum(sum(op != MULTIPLY and pos == a.table.index("x1") for pos, op in letters) >= 2
               for a, letters, _ in cases) >= 20


def test_a_left_sign_mask_on_a_right_derivative_is_caught(monkeypatch):
    letter = GeneratorTable._letter
    monkeypatch.setattr(GeneratorTable, "_letter", lambda self, pos, op: letter(
        self, pos, DERIVE if op == RIGHT_DERIVE else op))
    # a new table, so that no word is cached yet
    fresh = GeneratorTable.chart(["x", "y"], ["th1", "th2", "th3"])
    assert _derivative_mismatches(_quotient_draws(fresh, 40)) > 0


def test_words_without_their_quotient_passes_are_caught(monkeypatch):
    apply_word = SuperPoly.apply_word
    monkeypatch.setattr(SuperPoly, "apply_word",
                        lambda self, word: apply_word(self, (*word[:3], ())))
    assert _derivative_mismatches(_quotient_draws(_codec_tables()["chart"], 40)) > 0
    assert any(a.apply_word(a.table.compile_word(letters, c))
               != _chained(a, letters).scale(c) for a, letters, c in _word_cases(40))


def test_derivatives_and_quotient_pair_sums_go_through_apply_word(monkeypatch):
    from supercalc.derham import d, form_table

    words = []
    apply_word = SuperPoly.apply_word
    monkeypatch.setattr(SuperPoly, "apply_word",
                        lambda self, word: words.append(word) or apply_word(self, word))
    a = next(a for a in _quotient_draws(_codec_tables()["form"], 20)
             if any(isinstance(c, RationalFunction) for c in a.terms.values()))
    for name in ("x1", "th2", "dx1", "dth1"):
        for derivative, op in ((a.left_derivative, DERIVE), (a.right_derivative, RIGHT_DERIVE)):
            before = len(words)
            derivative(name)
            assert words[before] is a.table._words[name, op]
    x, th1 = (SuperPoly.generator(form_table(T), n) for n in ("x", "th1"))
    before = len(words)
    d(SuperPoly.constant(x.table, RationalFunction(x, x + 1)) * th1)
    assert len(words) > before
    before = len(words)
    d(x * th1)      # Fraction coefficients walk the integer loop
    assert len(words) == before


# ---------------------------------------------------------------------------
# the fused multiply-accumulate kernel

def _with_coefficients(poly, kind, rng):
    """The same monomials with int, Fraction or RationalFunction
    coefficients; the quotients are over the table's first even base
    coordinate, the only kind of letter a quotient may hold."""
    table = poly.table
    if kind == "int":
        return SuperPoly(table, {m: rng.randint(-5, 5) for m in poly.terms})
    if kind == "fraction":
        return poly
    z = SuperPoly.generator(table, table.names[table.positions_of_class(EVEN_BASE)[0]])
    return SuperPoly(table, {m: RationalFunction(z + c, z * z + rng.randint(1, 3))
                             for m, c in poly.terms.items()})


@pytest.mark.parametrize("coefficients", ["int", "fraction", "rational-function"])
@pytest.mark.parametrize("kind", ["chart", "form", "polyvector", "koszul-dual"])
def test_sum_of_products_matches_a_sum_of_single_products(kind, coefficients):
    from supercalc.randoms import random_superpoly

    table = _codec_tables()[kind]
    rng = random.Random(31)
    draws = 60 if coefficients == "rational-function" else 150
    for _ in range(draws):
        pairs = [tuple(_with_coefficients(random_superpoly(
            rng, table, terms=4, max_exp=2), coefficients, rng) for _ in "ab")
            for _ in range(rng.randint(1, 4))]
        want = SuperPoly.zero(table)
        for a, b in pairs:
            want = want + a * b
        got = SuperPoly.sum_of_products(table, pairs)
        assert got == want
        assert str(got) == str(want)
        if coefficients != "rational-function":
            assert got.terms == want.terms
            assert not _fractions_with_unit_denominator(got)


def test_sum_of_products_of_no_pairs_is_zero():
    assert SuperPoly.sum_of_products(T, []).is_zero()
    assert SuperPoly.sum_of_products(T, iter(())).table is T
    x = gen("x")
    assert SuperPoly.sum_of_products(T, [(x, -x), (x, x)]).terms == {}


def test_sum_of_products_refuses_another_table():
    other = GeneratorTable.chart(["x"], ["th1"])
    x, y = gen("x"), SuperPoly.generator(other, "x")
    twin = SuperPoly.generator(GeneratorTable.chart(["x", "y"], ["th1", "th2", "th3"]), "y")
    assert SuperPoly.sum_of_products(T, [(x, twin)]) == x * gen("y")
    for pairs in ([(x, y)], [(y, x)], [(x, x), (y, y)]):
        with pytest.raises(ValueError, match="generator table mismatch"):
            SuperPoly.sum_of_products(T, pairs)
    with pytest.raises(ValueError, match="generator table mismatch"):
        SuperPoly.sum_of_products(other, [(x, x)])


def test_sum_of_products_guards_the_exponent_fields():
    from supercalc.algebra import _EXPONENT

    x, y = gen("x"), gen("y")
    top = x ** _EXPONENT
    assert SuperPoly.sum_of_products(T, [(top, y), (y, top)]) == 2 * top * y
    with pytest.raises(OverflowError):
        SuperPoly.sum_of_products(T, [(y, y), (top, x)])
    # a product that overflows and then cancels still raises
    with pytest.raises(OverflowError):
        SuperPoly.sum_of_products(T, [(top, x), (-top, x)])


def test_quotient_products_guard_the_exponent_fields():
    # RationalFunction arithmetic multiplies its pairs through its own
    # product, which keeps the kernel's guard bit.
    from supercalc.algebra import _EXPONENT

    x, y, one = gen("x"), gen("y"), SuperPoly.one(T)
    top = RationalFunction(x ** _EXPONENT, y + 1)
    assert top * RationalFunction(one, x) == RationalFunction(x ** (_EXPONENT - 1), y + 1)
    for make in (lambda: top * RationalFunction(x, y + 2),
                 lambda: top == RationalFunction(one, x * y + 2),
                 lambda: RationalFunction(one, x ** _EXPONENT + y).derivative("x")):
        with pytest.raises(OverflowError):
            make()


# ---------------------------------------------------------------------------
# the exponent fields and the coefficient rule

def test_exponent_overflow_raises_at_the_field_boundary():
    from supercalc.algebra import _EXPONENT

    x, y, th1 = gen("x"), gen("y"), gen("th1")
    top = x ** _EXPONENT * th1
    assert T.powers(next(iter(top.terms))) == [(T.index("x"), _EXPONENT),
                                               (T.index("th1"), 1)]
    assert (top * y).left_derivative("y") == top        # the next field stays clean
    assert top.left_derivative("x") == _EXPONENT * x ** (_EXPONENT - 1) * th1
    for make in (lambda: top * x,
                 lambda: x ** (_EXPONENT + 1),
                 lambda: x ** (_EXPONENT // 2 + 1) * x ** (_EXPONENT // 2 + 1),
                 lambda: SuperPoly.from_monomial(T, {"x": _EXPONENT + 1}),
                 lambda: T.monomial([(T.index("x"), _EXPONENT), (T.index("x"), 1)])):
        with pytest.raises(OverflowError):
            make()


def _fractions_with_unit_denominator(poly):
    return [c for c in poly.terms.values()
            if isinstance(c, Fraction) and c.denominator == 1]


def test_integral_coefficients_are_stored_as_ints():
    from supercalc.randoms import random_superpoly

    half = gen("x") / 2
    assert list(half.terms.values()) == [Fraction(1, 2)]
    doubled = half * 2
    assert list(doubled.terms.values()) == [1] and type(*doubled.terms.values()) is int
    assert type(const(Fraction(4, 2)).scalar_part()) is int
    rng = random.Random(29)
    for _ in range(200):
        a = random_superpoly(rng, T, terms=4, max_exp=2)
        b = random_superpoly(rng, T, terms=4, max_exp=2)
        c = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        unit = const(c) + gen("th1") * gen("th2") * b.set_odd_to_zero()
        results = [a + b, a - b, a * b, a / c, a / 2, a.scale(c), a * c,
                   a.left_derivative("x"), a.left_derivative("th2"),
                   a.right_derivative("th1"),
                   a.substitute({"x": b.homogeneous_parts()[0], "th3": gen("th1")}),
                   unit.inverse(), a / unit]
        for r in results:
            assert not _fractions_with_unit_denominator(r), str(r)
