"""Weyl superalgebra: normal ordering, composition, brackets, filtration."""

from __future__ import annotations

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercalc import integral_forms
from supercalc.algebra import (
    DERIVE,
    EVEN_BASE,
    ODD_BASE,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    RIGHT_DERIVE,
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    transport,
)
from supercalc.charts import Chart
from supercalc.derham import DERIV_PREFIX, form_table
from supercalc.diffops import DiffOp
from supercalc.integral_forms import IntegralForm, right_action
from supercalc.randoms import random_superpoly
from test_algebra import reference_left_derivative

T = GeneratorTable.chart(["x", "y"], ["th1", "th2"])


def gen(name):
    return SuperPoly.generator(T, name)


def dd(name):
    return DiffOp.partial(T, name)


def mult(f):
    return DiffOp.multiplication(f)


def apply(op, f):
    """Act on an algebra element: the derivative-free part of op o f."""
    assert f.table == op.table
    composed = op.compose(DiffOp.multiplication(f)).poly
    words = composed.collect(composed.table.positions_of_class(POLYVECTOR_EVEN,
                                                               POLYVECTOR_ODD))
    return transport(words.get(0, SuperPoly.zero(composed.table)), op.table)


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
        word = ["x"] * draw(st.integers(0, 2)) + ["y"] * draw(st.integers(0, 1))
        word += sorted(draw(st.sets(st.sampled_from(["th1", "th2"]))))
        term = mult(draw(polys()))
        for name in word:
            term = term.compose(dd(name))
        out = out + term
    return out


# ---------------------------------------------------------------------------
# action on the algebra

def test_apply_odd_word_right_to_left():
    op = dd("th1").compose(dd("th2"))
    assert apply(op, gen("th2") * gen("th1")) == SuperPoly.one(T)


def test_apply_euler_operator():
    op = mult(gen("x")).compose(dd("x"))
    assert apply(op, gen("x") ** 2) == 2 * gen("x") ** 2


def test_apply_identity():
    f = gen("x") * gen("th1") + 3
    assert apply(DiffOp.identity(T), f) == f


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
    assert apply(d.compose(e), f) == apply(d, apply(e, f))


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


def test_an_operator_is_a_table_and_a_polynomial():
    assert DiffOp.__slots__ == ("table", "poly")
    assert str(dd("x").compose(mult(gen("th1")))) == "th1*dd_x"


# ---------------------------------------------------------------------------
# The word-based reference: an operator as a dict {(even exponents,
# ascending odd positions): coefficient} over its own table, each
# coefficient written left of the derivative word d_x^ell d_th^eps.
# Composition pushes the right factor's coefficient leftwards through the
# left factor's word one symbol at a time, and the right action pushes each
# symbol through the density: the per-symbol rules the polynomial ones are
# checked against.

def _evens(table):
    return table.positions_of_class(EVEN_BASE)


def ref_word(table, key):
    ell, eps = key
    return tuple(pos for pos, k in zip(_evens(table), ell) for _ in range(k)) + eps


def ref_key_of_word(table, word):
    """The key of a word whose odd symbols are already ascending."""
    ell = tuple(word.count(pos) for pos in _evens(table))
    return ell, tuple(pos for pos in word if table.parities[pos])


def merge_odd_indices(a, b):
    """Merge two ascending index tuples, tracking the interleaving sign:
    each element of b that ends up left of k trailing elements of a
    crossed k odd symbols on its way there."""
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


def ref_push(table, word, f):
    """(g, suffix) pairs with f moved left through the word: g * suffix.
    The rightmost symbol meets f first and either differentiates it or
    hops over it with the Koszul sign."""
    if f.is_zero():
        return []
    if not word:
        return [(f, ())]
    head, last = word[:-1], word[-1]
    out = []
    df = f.left_derivative(table.names[last])
    if not df.is_zero():
        out.extend(ref_push(table, head, df))
    if table.parities[last] and f.parity():
        f = -f
    out.extend((g, suffix + (last,)) for g, suffix in ref_push(table, head, f))
    return out


def _add_term(terms, key, coeff):
    acc = terms.get(key)
    terms[key] = coeff if acc is None else acc + coeff


def _nonzero(terms):
    return {key: c for key, c in terms.items() if not c.is_zero()}


def ref_compose(table, a, b):
    terms = {}
    for key1, c1 in a.items():
        word1 = ref_word(table, key1)
        for (ell2, eps2), c2 in b.items():
            for c2h in c2.homogeneous_parts():
                for g, suffix in ref_push(table, word1, c2h):
                    ell_s, eps_s = ref_key_of_word(table, suffix)
                    sign, eps = merge_odd_indices(eps_s, eps2)
                    if sign:
                        ell = tuple(x + y for x, y in zip(ell_s, ell2))
                        _add_term(terms, (ell, eps), (c1 * g).scale(sign))
    return _nonzero(terms)


def ref_add(a, b):
    terms = dict(a)
    for key, c in b.items():
        _add_term(terms, key, c)
    return _nonzero(terms)


def ref_mult(f):
    return _nonzero({((0,) * len(_evens(f.table)), ()): f})


def ref_partial(table, name):
    pos = table.index(name)
    return {ref_key_of_word(table, (pos,)): SuperPoly.one(table)}


def ref_right_action(chart, f, a):
    """Ber @ f acted on by a: each symbol of a word, leftmost first, takes
    (Ber @ g) . d/dz to Ber @ -(-1)^{|z||g|} (left d/dz g), through the
    reference loop of the left derivative and its quotient rule."""
    table = chart.table
    total = SuperPoly.zero(table)
    for key, coeff in a.items():
        cur = f * coeff
        for pos in ref_word(table, key):
            name = table.names[pos]
            if table.parities[pos]:
                even, odd = cur.homogeneous_parts()
                cur = (reference_left_derivative(odd, name)
                       - reference_left_derivative(even, name))
            else:
                cur = -reference_left_derivative(cur, name)
        total = total + cur
    return IntegralForm(chart, total)


def ref_str(table, a):
    chunks = []
    for (ell, eps), c in sorted(a.items(), key=lambda kv: (sum(kv[0][0]) + len(kv[0][1]),
                                                          kv[0])):
        symbols = [f"dd_{table.names[pos]}" + (f"^{k}" if k > 1 else "")
                   for pos, k in zip(_evens(table), ell) if k]
        symbols += [f"dd_{table.names[pos]}" for pos in eps]
        body = "*".join(symbols)
        cs = str(c)
        if " " in cs:
            cs = f"({cs})"
        chunks.append(f"{cs}*{body}" if body and cs != "1" else (body or cs))
    return " + ".join(chunks) or "0"


def ref_of(op):
    """Read an operator's polynomial back into the reference's dict."""
    table, weyl = op.table, op.poly.table
    out = {}
    # the Weyl table is the operator's table followed by the letters
    for word, c in op.poly.collect(range(len(table.names), len(weyl.names))).items():
        coords = tuple(table.index(weyl.names[pos][len(DERIV_PREFIX):])
                       for pos, k in weyl.powers(word) for _ in range(k))
        out[ref_key_of_word(table, coords)] = transport(c, table)
    return out


def _with_a_quotient(rng, f):
    """f times a quotient in one even base coordinate, a third of the time
    when the table has one."""
    bases = [n for n, c in f.table.gens if c == EVEN_BASE]
    if not bases or rng.randrange(3):
        return f
    z = SuperPoly.generator(f.table, rng.choice(bases))
    return f.scale(RationalFunction(z + rng.randint(-2, 2), z * z + rng.randint(1, 3)))


def _draw_pair(rng, table, coefficient=None, quotients=False):
    """One operator, drawn as a sum of coefficient * word products, built
    through DiffOp and through the reference alike; with ``quotients`` a
    third of the coefficients carry a quotient."""
    names = [n for n, c in table.gens if c in (EVEN_BASE, ODD_BASE)]
    op, ref = DiffOp.zero(table), {}
    for _ in range(rng.randint(1, 3)):
        c = coefficient or random_superpoly(rng, table, terms=2, max_exp=2)
        if quotients:
            c = _with_a_quotient(rng, c)
        term, ref_term = DiffOp.multiplication(c), ref_mult(c)
        for _k in range(rng.randint(0, 3)):
            name = rng.choice(names)
            term = term.compose(DiffOp.partial(table, name))
            ref_term = ref_compose(table, ref_term, ref_partial(table, name))
        op, ref = op + term, ref_add(ref, ref_term)
    return op, ref


_ORACLE_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (0, 2), (2, 0), (3, 2)]


def _seed(shape):
    return 100 + 10 * shape[0] + shape[1]


class TestAgainstWordReference:
    @pytest.mark.parametrize("shape", _ORACLE_SHAPES, ids=lambda s: "%d|%d" % s)
    def test_compose_and_printing_match(self, shape):
        table = Chart.standard(*shape).table
        rng = random.Random(_seed(shape))
        for _ in range(20):
            (a, ra), (b, rb) = _draw_pair(rng, table), _draw_pair(rng, table)
            for op, ref in ((a, ra), (b, rb)):
                assert ref_of(op) == ref
                assert str(op) == ref_str(table, ref)
            assert ref_of(a.compose(b)) == ref_compose(table, ra, rb)

    def test_printing_matches_on_3_3(self):
        # words print from a cache, per Weyl table and word
        table = Chart.standard(3, 3).table
        rng = random.Random(_seed((3, 3)))
        for _ in range(500):
            op = DiffOp.zero(table)
            for _ in range(rng.randint(1, 2)):
                term = DiffOp.multiplication(
                    random_superpoly(rng, table, terms=2, max_exp=1))
                for _k in range(rng.randint(0, 2)):
                    term = term.compose(DiffOp.partial(table, rng.choice(table.names)))
                op = op + term
            assert str(op) == ref_str(table, ref_of(op))

    @staticmethod
    def right_action_draws(shape, count=20):
        """Densities and operators on one chart, a third of the densities
        and of the operator coefficients carrying a quotient."""
        chart = Chart.standard(*shape)
        rng = random.Random(_seed(shape) + 1)
        for _ in range(count):
            a, ra = _draw_pair(rng, chart.table, quotients=True)
            f = _with_a_quotient(rng, random_superpoly(rng, chart.table, terms=3, max_exp=2))
            yield chart, f, a, ra

    @pytest.mark.parametrize("shape", _ORACLE_SHAPES, ids=lambda s: "%d|%d" % s)
    def test_right_action_matches(self, shape):
        draws = list(self.right_action_draws(shape))
        for chart, f, a, ra in draws:
            assert right_action(IntegralForm(chart, f), a) == ref_right_action(chart, f, ra)
        if shape[0]:
            quotients = [any(isinstance(c, RationalFunction)
                             for c in (*f.terms.values(), *a.poly.terms.values()))
                         for _, f, a, _ in draws]
            assert 5 <= sum(quotients) < len(draws)

    @pytest.mark.parametrize("mutant", ["left sign mask", "no quotient passes"])
    def test_a_broken_right_word_is_caught(self, monkeypatch, mutant):
        draws = [d for shape in ((1, 1), (2, 1), (2, 2)) for d in self.right_action_draws(shape)]
        if mutant == "left sign mask":
            letter = GeneratorTable._letter
            monkeypatch.setattr(GeneratorTable, "_letter", lambda self, pos, op: letter(
                self, pos, DERIVE if op == RIGHT_DERIVE else op))
        else:
            apply_word = SuperPoly.apply_word
            monkeypatch.setattr(SuperPoly, "apply_word",
                                lambda self, word: apply_word(self, (*word[:3], ())))
        integral_forms._right_word.cache_clear()
        try:
            assert any(right_action(IntegralForm(chart, f), a) != ref_right_action(chart, f, ra)
                       for chart, f, a, ra in draws)
        finally:
            integral_forms._right_word.cache_clear()

    def test_right_action_walks_one_word_per_derivative_word(self, monkeypatch):
        draws = list(self.right_action_draws((2, 2)))
        compiled, walked, chained = [], [], []
        right_word = integral_forms._right_word
        apply_word, right_derivative = SuperPoly.apply_word, SuperPoly.right_derivative
        monkeypatch.setattr(integral_forms, "_right_word",
                            lambda weyl, word: compiled.append(right_word(weyl, word))
                            or compiled[-1])
        monkeypatch.setattr(SuperPoly, "apply_word",
                            lambda self, word: walked.append(word) or apply_word(self, word))
        monkeypatch.setattr(SuperPoly, "right_derivative",
                            lambda self, name: chained.append(name)
                            or right_derivative(self, name))
        for chart, f, a, _ in draws:
            right_action(IntegralForm(chart, f), a)
        assert len(compiled) >= 10 and chained == []
        assert all(any(w is word for w in walked) for word in compiled)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=lambda s: "%d|%d" % s)
    def test_form_table_operators_match(self, shape):
        # form symbols carry no derivative letter and live in the coefficients
        table = form_table(Chart.standard(*shape).table)
        rng = random.Random(_seed(shape) + 2)
        for _ in range(15):
            (a, ra), (b, rb) = _draw_pair(rng, table), _draw_pair(rng, table)
            assert str(a) == ref_str(table, ra)
            assert ref_of(a.compose(b)) == ref_compose(table, ra, rb)

    def test_quotient_coefficient_matches(self):
        chart = Chart.standard(1, 1)
        table = chart.table
        x, th = (SuperPoly.generator(table, n) for n in chart.coordinate_names)
        quotient = SuperPoly.constant(table, RationalFunction(x, x + 1)) * th + x
        rng = random.Random(7)
        a, ra = _draw_pair(rng, table, coefficient=quotient)
        assert any(isinstance(c, RationalFunction) for c in a.poly.terms.values())
        assert str(a) == ref_str(table, ra)
        for _ in range(10):
            b, rb = _draw_pair(rng, table)
            assert ref_of(a.compose(b)) == ref_compose(table, ra, rb)
            assert ref_of(b.compose(a)) == ref_compose(table, rb, ra)
        f = x * th + 1
        assert right_action(IntegralForm(chart, f), a) == ref_right_action(chart, f, ra)

    def test_left_derivatives_on_the_left_factor_fail(self, monkeypatch):
        # the exp(P) rule needs right derivatives along A's letters
        table = Chart.standard(2, 2).table
        rng = random.Random(_seed((2, 2)))
        draws = [(_draw_pair(rng, table), _draw_pair(rng, table)) for _ in range(20)]
        monkeypatch.setattr(SuperPoly, "right_derivative", SuperPoly.left_derivative)
        assert any(ref_of(a.compose(b)) != ref_compose(table, ra, rb)
                   for (a, ra), (b, rb) in draws)
