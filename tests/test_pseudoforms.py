"""Delta forms: the fiber letter actions, gradings, the bridge to
polyvector densities, coordinate changes, and fiber integration."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from supercalc import pseudoforms, randoms
from supercalc.algebra import (
    DERIVE,
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    RIGHT_DERIVE,
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    release_even_exponents,
    transport,
)
from supercalc.charts import Chart, CoordinateMap, compose_maps
from supercalc.derham import d, fiber_name, form_table
from supercalc.integral_forms import (
    IntegralForm,
    pair,
    polyvector_name,
    polyvector_table,
)
from supercalc.integration import PiValue, berezin_integral
from supercalc.pseudoforms import (
    CWOperator,
    DeltaForm,
    cw_apply,
    delta_times_poly,
    fiber_integral,
    form_times_delta,
    from_integral_form,
    gaussian_fiber_integral,
    to_integral_form,
)
from supercalc.randoms import random_superpoly
from supercalc.supermatrix import det_even, inv_even
from supercalc.suites import _random_delta_form, _unimodular_split_map

R01 = Chart((), ("th",), label="R01")
R02 = Chart((), ("th1", "th2"), label="R02")
R11 = Chart(("x",), ("th",), label="R11")
R12 = Chart(("x",), ("th1", "th2"), label="R12")
R21 = Chart(("x", "y"), ("th",), label="R21")
R22 = Chart(("x", "y"), ("th1", "th2"), label="R22")

SQRT_PI = PiValue.pi_power(Fraction(1, 2))


def gen(table, name):
    return SuperPoly.generator(table, name)


def delta_term(chart, coefficient, eps, ells):
    return DeltaForm(chart, {(tuple(eps), tuple(ells)): coefficient})


def random_delta_form(rng, chart, terms=3, max_order=2):
    out = DeltaForm.zero(chart)
    for _ in range(terms):
        eps = tuple(rng.randrange(2) for _ in range(chart.p))
        ells = tuple(rng.randrange(max_order + 1) for _ in range(chart.q))
        coeff = random_superpoly(rng, chart.table, terms=2, max_exp=2)
        out = out + delta_term(chart, coeff, eps, ells)
    return out


def homogeneous_delta_form(rng, chart, degree):
    """A random form whose every term has the requested Z-degree."""
    out = DeltaForm.zero(chart)
    for _ in range(2):
        dx_count = rng.randint(max(0, degree), chart.p)
        budget = dx_count - degree
        ones = rng.sample(range(chart.p), dx_count)
        eps = tuple(1 if i in ones else 0 for i in range(chart.p))
        ells = [0] * chart.q
        for _ in range(budget):
            ells[rng.randrange(chart.q)] += 1
        coeff = random_superpoly(rng, chart.table, terms=2, max_exp=1)
        out = out + delta_term(chart, coeff, eps, tuple(ells))
    return out


def random_fiber_form(rng, chart, fiber_deg):
    """A differential form with every monomial of the given fiber degree."""
    ftab = form_table(chart.table)
    out = SuperPoly.zero(ftab)
    for _ in range(2):
        dx_count = rng.randint(max(0, fiber_deg - 6), min(chart.p, fiber_deg))
        powers = {fiber_name(n): 1
                  for n in rng.sample(chart.even_names, dx_count)}
        budget = fiber_deg - dx_count
        for _ in range(budget):
            name = fiber_name(rng.choice(chart.odd_names))
            powers[name] = powers.get(name, 0) + 1
        mono = SuperPoly.from_monomial(ftab, powers)
        coeff = transport(random_superpoly(rng, chart.table, terms=2, max_exp=1),
                          ftab)
        out = out + coeff * mono
    return out


def random_split_map(rng, source, target):
    """x' triangular in x with constant diagonal, th' = G(x) th, det G constant."""
    images = {}
    evens = source.even_names
    for i, tname in enumerate(target.even_names):
        img = gen(source.table, evens[i]).scale(rng.choice([1, 2, -1, 3]))
        if i:
            shear = gen(source.table, evens[rng.randrange(i)])
            img = img + (shear * shear).scale(rng.choice([0, 1, -2]))
        images[tname] = img
    odds = source.odd_names
    for a, tname in enumerate(target.odd_names):
        img = gen(source.table, odds[a]).scale(rng.choice([1, -1, 2]))
        for b in range(a):
            weight = random_superpoly(rng, source.table, parity=0,
                                      terms=1, max_exp=1)
            img = img + weight.set_odd_to_zero() * gen(source.table, odds[b])
        images[tname] = img
    return CoordinateMap(source, target, images)


def form_pullback(m, eta):
    """Substitute coordinate images and their differentials into a form."""
    src_ftab = form_table(m.source.table)
    assignment = {}
    for name in m.target.coordinate_names:
        img = transport(m.images[name], src_ftab)
        assignment[name] = img
        assignment[fiber_name(name)] = d(img)
    return release_even_exponents(eta.substitute(assignment, src_ftab))


# --- the term-wise transform -------------------------------------------------
#
# DeltaForm.transform once mapped each term through the Jacobian: the
# coefficient pulls back, each dx letter becomes the differential of its
# coordinate image, and the delta block with dth'_a = sum_b G_ab dth_b plus
# nilpotent dx terms picks up det(G)^{-1} after a finite Taylor expansion
# in the nilpotent summands, its derived deltas becoming G^{-1}-weighted
# raising letters.  It is kept as the oracle of the integral-form law.


def _apply_step(form, step):
    """Sum of ``cw_apply([letter], form.times(c))`` over (letter, c) pairs."""
    out = DeltaForm.zero(form.chart)
    for letter, c in step:
        if not c.is_zero():
            out = out + cw_apply([letter], form.times(c))
    return out


def reference_transform(w, m):
    src, tgt = m.source, w.chart
    p, q = src.p, src.q
    g_rows = [[absorb_even_exponents(m.images[t].left_derivative(s))
               for s in src.odd_names] for t in tgt.odd_names]
    try:
        det_inv = det_even(g_rows, src.table).inverse()
        g_inv = inv_even(g_rows, src.table)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("delta argument not reducible") from exc

    def differential(img, names):
        return [(fiber_name(n), img.left_derivative(n)) for n in names]

    raise_steps = [[(f"dd_{fiber_name(n)}", g_inv[b][a])
                    for b, n in enumerate(src.odd_names)] for a in range(q)]
    nil_steps = [differential(m.images[t], src.even_names) for t in tgt.odd_names]
    nil_zero = [all(c.is_zero() for _, c in step) for step in nil_steps]
    dx_steps = [differential(m.images[t], src.coordinate_names)
                for t in tgt.even_names]
    result = DeltaForm.zero(src)
    vacuum = ((0,) * p, (0,) * q)
    for (eps, ells), f in w.terms.items():
        pulled = m.pullback(f)
        if pulled.is_zero():
            continue
        for orders in itertools.product(range(p + 1 if p else 1), repeat=q):
            if sum(orders) > p or any(j and nil_zero[a] for a, j in enumerate(orders)):
                continue
            weight = Fraction(1, math.prod(math.factorial(j) for j in orders))
            block = DeltaForm(src, {vacuum: det_inv.scale(weight)})
            for a in range(q):
                for _ in range(ells[a] + orders[a]):
                    block = _apply_step(block, raise_steps[a])
            for a in range(q):
                for _ in range(orders[a]):
                    block = _apply_step(block, nil_steps[a])
            for k in range(p - 1, -1, -1):
                if eps[k]:
                    block = _apply_step(block, dx_steps[k])
            result = result + block.times(pulled)
    return DeltaForm(src, {key: release_even_exponents(poly)
                           for key, poly in result.terms.items()})


STREAM_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (0, 2), (2, 0), (3, 1))


def transform_stream(seed, draws):
    """(draw, form, map) on the shapes above in turn: a general split map
    on every third draw, a unimodular one otherwise."""
    rng = random.Random(seed)
    for i in range(draws):
        p, q = STREAM_SHAPES[i % len(STREAM_SHAPES)]
        chart = Chart.standard(p, q)
        src = Chart([f"u{j}" for j in range(p)], [f"et{j}" for j in range(q)],
                    label="S")
        w = _random_delta_form(rng, chart, terms=3)
        make = randoms.random_split_map if i % 3 == 0 else _unimodular_split_map
        yield i, w, make(rng, src, chart)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "refused"


# --- the per-term reference ---------------------------------------------------
#
# A delta form written as a {(eps, ells): coefficient} map, with each letter
# acting term by term, and the density picture reached by applying each
# term's derivative word to the pivot.  DeltaForm stores one polynomial
# instead; these rules are the oracle its four letter rules must reproduce.


def _signed_by_parity(poly, sign):
    """poly with each monomial scaled by sign * (-1)^{monomial parity}."""
    even, odd = poly.homogeneous_parts()
    out = even - odd
    return out if sign > 0 else -out


def reference_cw_apply(chart, letters, terms):
    dxs = [fiber_name(n) for n in chart.even_names]
    dths = [fiber_name(n) for n in chart.odd_names]
    for token in reversed(letters):
        derivative = token.startswith("dd_")
        body = token[3:] if derivative else token
        new = {}
        for (eps, ells), poly in terms.items():
            if body in dxs:
                idx = dxs.index(body)
                if eps[idx] == (0 if derivative else 1):
                    continue
                moved = _signed_by_parity(poly, -1 if sum(eps[:idx]) % 2 else 1)
                flipped = list(eps)
                flipped[idx] ^= 1
                key = (tuple(flipped), ells)
            else:
                idx = dths.index(body)
                shifted = list(ells)
                if derivative:
                    moved = poly
                    shifted[idx] += 1
                elif not ells[idx]:
                    continue
                else:
                    moved = poly.scale(-ells[idx])
                    shifted[idx] -= 1
                key = (eps, tuple(shifted))
            new[key] = new[key] + moved if key in new else moved
        terms = {key: poly for key, poly in new.items() if not poly.is_zero()}
    return terms


def reference_to_integral_form(chart, terms):
    table = polyvector_table(chart)
    pivot = {((1,) * chart.p, (0,) * chart.q): SuperPoly.one(chart.table)}
    out = SuperPoly.zero(table)
    for (eps, ells), f in terms.items():
        word = [f"dd_{fiber_name(n)}" for n, e in zip(chart.even_names, eps) if not e]
        for n, l in zip(chart.odd_names, ells):
            word += [f"dd_{fiber_name(n)}"] * l
        sign = reference_cw_apply(chart, word, pivot)[(eps, ells)].scalar_part()
        powers = {polyvector_name(n): 1 for n, e in zip(chart.even_names, eps) if not e}
        powers.update({polyvector_name(n): l for n, l in zip(chart.odd_names, ells) if l})
        out = out + transport(f, table) * SuperPoly.from_monomial(table, powers,
                                                                   Fraction(1, sign))
    return out


def reference_delta_times_poly(chart, terms, f):
    even, odd = f.homogeneous_parts()
    out = {}
    for (eps, ells), c in terms.items():
        shifted = even + (-odd if (sum(eps) + chart.q) % 2 else odd)
        if not (c * shifted).is_zero():
            out[(eps, ells)] = c * shifted
    return out


class TestAgainstTermReference:
    """Seeded draws on 1|1 .. 3|3: every letter, both products with a
    function and the density picture agree with the per-term rules."""

    SHAPES = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]

    def draws(self):
        rng = random.Random(428)
        for p, q in self.SHAPES:
            chart = Chart.standard(p, q)
            for _ in range(6):
                terms = {}
                for _ in range(3):
                    key = (tuple(rng.randrange(2) for _ in range(p)),
                           tuple(rng.randrange(3) for _ in range(q)))
                    c = random_superpoly(rng, chart.table, terms=2, max_exp=2)
                    terms[key] = terms[key] + c if key in terms else c
                terms = {k: c for k, c in terms.items() if not c.is_zero()}
                yield rng, chart, terms

    def test_the_term_view_reads_back_the_terms(self):
        for _, chart, terms in self.draws():
            assert dict(DeltaForm(chart, terms).terms) == terms

    def test_every_letter_matches(self):
        changed = 0
        for _, chart, terms in self.draws():
            w = DeltaForm(chart, terms)
            for name in chart.coordinate_names:
                for token in (fiber_name(name), "dd_" + fiber_name(name)):
                    want = reference_cw_apply(chart, [token], terms)
                    assert dict(cw_apply(token, w).terms) == want, token
                    changed += bool(want)
        assert changed >= 300

    def test_words_match(self):
        for rng, chart, terms in self.draws():
            letters = [fiber_name(n) for n in chart.coordinate_names]
            word = [rng.choice(("", "dd_")) + rng.choice(letters)
                    for _ in range(rng.randint(1, 4))]
            assert (dict(cw_apply(word, DeltaForm(chart, terms)).terms)
                    == reference_cw_apply(chart, word, terms))

    def test_products_with_functions_match(self):
        for rng, chart, terms in self.draws():
            w = DeltaForm(chart, terms)
            f = random_superpoly(rng, chart.table, terms=2, max_exp=2)
            left = {k: f * c for k, c in terms.items() if not (f * c).is_zero()}
            assert dict(w.times(f).terms) == left
            assert (dict(delta_times_poly(w, f).terms)
                    == reference_delta_times_poly(chart, terms, f))

    def test_density_picture_matches(self):
        for _, chart, terms in self.draws():
            sigma = to_integral_form(DeltaForm(chart, terms))
            assert sigma.poly == reference_to_integral_form(chart, terms)


class TestCWAction:
    def test_multiplication_kills_plain_delta(self):
        plain = delta_term(R01, 1, (), (0,))
        assert cw_apply("dth", plain).is_zero()

    def test_derivative_raises_order(self):
        for order in range(4):
            start = delta_term(R01, 1, (), (order,))
            assert cw_apply("dd_dth", start) == delta_term(R01, 1, (), (order + 1,))

    def test_multiplication_lowers_with_distribution_factor(self):
        once = delta_term(R01, 1, (), (1,))
        assert cw_apply("dth", once) == delta_term(R01, -1, (), (0,))
        thrice = delta_term(R01, 1, (), (3,))
        assert cw_apply("dth", thrice) == delta_term(R01, -3, (), (2,))

    def test_dx_letter_annihilates_occupied(self):
        assert cw_apply("dx", DeltaForm.top(R11)).is_zero()

    def test_dx_derivative_annihilates_empty(self):
        empty = delta_term(R11, 1, (0,), (0,))
        assert cw_apply("dd_dx", empty).is_zero()

    def test_dx_insertion_passes_earlier_letters(self):
        with_x = delta_term(R21, 1, (1, 0), (0,))
        assert cw_apply("dy", with_x) == delta_term(R21, -1, (1, 1), (0,))
        without = delta_term(R21, 1, (0, 0), (0,))
        assert cw_apply("dy", without) == delta_term(R21, 1, (0, 1), (0,))

    def test_odd_coefficient_costs_a_sign(self):
        th = gen(R11.table, "th")
        assert (cw_apply("dx", delta_term(R11, th, (0,), (0,)))
                == delta_term(R11, -th, (1,), (0,)))

    def test_clifford_weyl_relations_randomized(self):
        rng = random.Random(421)
        checked = 0
        for chart in (R11, R12, R21, R22):
            dths = [fiber_name(n) for n in chart.odd_names]
            dxs = [fiber_name(n) for n in chart.even_names]
            for _ in range(5):
                w = random_delta_form(rng, chart)
                for a in dths:
                    for b in dths:
                        got = (cw_apply(f"dd_{a} {b}", w)
                               - cw_apply(f"{b} dd_{a}", w))
                        want = w if a == b else DeltaForm.zero(chart)
                        assert got == want
                        checked += 1
                for i in dxs:
                    for j in dxs:
                        got = (cw_apply(f"dd_{i} {j}", w)
                               + cw_apply(f"{j} dd_{i}", w))
                        want = w if i == j else DeltaForm.zero(chart)
                        assert got == want
                        checked += 1
        assert checked >= 50

    def test_word_application_composes(self):
        rng = random.Random(422)
        letters = ["dx", "dd_dx", "dth1", "dd_dth1", "dth2", "dd_dth2"]
        for _ in range(10):
            w = random_delta_form(rng, R12)
            word = [rng.choice(letters) for _ in range(3)]
            stepwise = w
            for token in reversed(word):
                stepwise = cw_apply(token, stepwise)
            assert cw_apply(" ".join(word), w) == stepwise
            assert cw_apply(CWOperator(word), w) == stepwise

    def test_operator_product_concatenates(self):
        op = CWOperator("dd_dth1") * CWOperator("dth2 dx")
        assert op == CWOperator("dd_dth1 dth2 dx")

    def test_malformed_letter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            CWOperator("dd_")
        with pytest.raises(ValueError, match="not a fiber letter"):
            cw_apply("dq", DeltaForm.top(R11))


def per_letter_cw_apply(op, form):
    """The letter-by-letter action, one element per letter: the oracle for
    the compiled words of ``cw_apply``."""
    letters = op.split() if isinstance(op, str) else list(op)
    chart, poly = form.chart, form.poly
    table = poly.table
    names = {fiber_name(n): polyvector_name(n) for n in chart.coordinate_names}
    for token in reversed(letters):
        derivative = token.startswith("dd_")
        name = names.get(token[3:] if derivative else token)
        if name is None:
            raise ValueError(f"{token!r} is not a fiber letter of the chart")
        if table.parity(name):
            poly = (SuperPoly.generator(table, name) * poly if derivative
                    else poly.left_derivative(name))
        elif derivative:
            poly = poly * SuperPoly.generator(table, name)
        else:
            poly = -poly.left_derivative(name)
    return DeltaForm._of(chart, poly)


def per_letter_form_times_delta(omega, form):
    """The product monomial by monomial: the fiber letters act through the
    per-letter oracle, and the base factor, signed for crossing the dx
    letters, multiplies from the left."""
    ftab, table = omega.table, form.poly.table
    out = SuperPoly.zero(table)
    for mono, c in omega.terms.items():
        base, letters = {}, []
        for pos, k in ftab.powers(mono):
            if ftab.classes[pos] in (FIBER_EVEN, FIBER_ODD):
                letters += [ftab.names[pos]] * k
            else:
                base[ftab.names[pos]] = k
        sign = -1 if ftab.degree(mono, FIBER_ODD) * ftab.degree(mono, ODD_BASE) % 2 else 1
        out = out + (SuperPoly.from_monomial(table, base, sign * c)
                     * per_letter_cw_apply(letters, form).poly)
    return DeltaForm._of(form.chart, out)


class TestCompiledWords:
    """``cw_apply`` compiles each word once and walks the stored keys in one
    pass; it must agree with the per-letter oracle by value and in print."""

    R33 = Chart.standard(3, 3)
    LETTERS = [prefix + fiber_name(n) for n in R33.coordinate_names
               for prefix in ("", "dd_")]
    TWICE = ["dd_dx1 dx1", "dth1 dd_dth1 dd_dth1", "dx2 dd_dx2 dx2",
             "dd_dth3 dth3"]

    def draws(self, count=1000):
        """Seeded 3|3 delta forms drawn like the forms benchmark's, each
        with a word of one to four letters."""
        rng = random.Random(2207)
        chart = self.R33
        for k in range(count):
            w = DeltaForm.zero(chart)
            while w.is_zero():
                for _ in range(2):
                    eps = tuple(rng.randint(0, 1) for _ in range(chart.p))
                    ells = tuple(rng.choice((0, 0, 1, 2)) for _ in range(chart.q))
                    coeff = random_superpoly(rng, chart.table, terms=2, max_exp=1)
                    w = w + DeltaForm(chart, {(eps, ells): coeff})
            word = (self.TWICE[k % 4].split() if k % 5 == 0 else
                    [rng.choice(self.LETTERS) for _ in range(rng.randint(1, 4))])
            yield word, w

    @staticmethod
    def mismatches(draws):
        bad = 0
        for word, w in draws:
            got, want = cw_apply(word, w), per_letter_cw_apply(word, w)
            bad += got != want or str(got) != str(want)
        return bad

    def test_words_match_the_per_letter_oracle(self):
        draws = list(self.draws())
        assert self.mismatches(draws) == 0
        nonzero = sum(not cw_apply(word, w).is_zero() for word, w in draws)
        assert nonzero >= 500

    def test_a_dropped_dth_sign_is_caught(self, monkeypatch):
        compile_word = GeneratorTable.compile_word
        monkeypatch.setattr(GeneratorTable, "compile_word",
                            lambda self, letters, c=1: compile_word(self, letters))
        pseudoforms._word.cache_clear()
        try:
            assert self.mismatches(self.draws(200)) > 0
        finally:
            pseudoforms._word.cache_clear()

    def test_form_times_delta_matches_the_per_letter_oracle(self):
        rng = random.Random(2208)
        cases = []
        for k in range(60):
            chart = Chart.standard(*((1, 1), (1, 2), (2, 1), (2, 2), (3, 3))[k % 5])
            cases.append((random_superpoly(rng, form_table(chart.table), terms=3,
                                           max_exp=2),
                          _random_delta_form(rng, chart, terms=2)))
        got = [form_times_delta(omega, w) for omega, w in cases]
        want = [per_letter_form_times_delta(omega, w) for omega, w in cases]
        assert got == want
        assert [str(g) for g in got] == [str(w) for w in want]
        assert sum(not g.is_zero() for g in got) >= 20

    def test_rational_coefficients_match_the_per_letter_oracle(self):
        chart = Chart.standard(1, 1)
        x1 = gen(chart.table, "x1")
        inverse = absorb_even_exponents(x1).inverse()
        forms = [delta_term(chart, inverse, (1,), (0,)),
                 delta_term(chart, inverse * gen(chart.table, "th1") + x1, (0,), (2,)),
                 delta_term(chart, absorb_even_exponents(x1 + 1).inverse(), (1,), (1,))]
        for w in forms:
            for word in ("dd_dth1", "dth1", "dd_dx1 dx1", "dx1 dd_dth1 dth1",
                         "dd_dx1 dth1 dth1"):
                got, want = cw_apply(word, w), per_letter_cw_apply(word, w)
                assert got == want and str(got) == str(want), (word, str(w))
        assert str(cw_apply("dd_dth1", forms[0])) == "(1/x1) dx1 del(dth1,1)"

    def test_each_raising_letter_checks_the_guard_bit(self):
        # the last letter would bring the order back into its field
        chart = Chart.standard(1, 1)
        top = delta_term(chart, 1, (1,), (32767,))
        for apply in (cw_apply, per_letter_cw_apply):
            with pytest.raises(OverflowError, match="exceeds 32767"):
                apply("dth1 dd_dth1", top)
        assert cw_apply("dth1", top) == delta_term(chart, -32767, (1,), (32766,))

    def test_a_failed_compile_raises_and_is_not_cached(self):
        before = pseudoforms._word.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError,
                               match="'dz' is not a fiber letter of the chart"):
                cw_apply("dd_dth dz", DeltaForm.top(R11))
        assert pseudoforms._word.cache_info().currsize == before

    def test_a_base_coordinate_word_applies_the_quotient_rule(self):
        table = polyvector_table(R11)
        x, th = (SuperPoly.generator(table, n) for n in ("x", "th"))
        f = SuperPoly.constant(table, RationalFunction(SuperPoly.one(table), 1 + x)) * th
        got = f.apply_word(table.compile_word([(table.index("x"), DERIVE)] * 2))
        assert got == f.left_derivative("x").left_derivative("x")
        assert got == SuperPoly.constant(table, RationalFunction(
            SuperPoly.constant(table, 2), (1 + x) ** 3)) * th
        assert str(got) == "2/(1 + 3*x + 3*x^2 + x^3)*th"

    def test_a_right_derivative_word_matches_the_tuple_keys(self):
        from test_algebra import _agrees, _to_tuples, _tuple_right_derivative

        table = polyvector_table(R22)
        rng = random.Random(2209)
        for _ in range(100):
            a = random_superpoly(rng, table, terms=5, max_exp=2)
            for pos in table.odd_positions:
                got = a.apply_word(table.compile_word([(pos, RIGHT_DERIVE)]))
                assert _agrees(got, table, _tuple_right_derivative(table, _to_tuples(a), pos))


class TestProducts:
    """Delta forms are a left module over differential forms and a right
    module over functions; 100 seeded draws each on 1|1, 1|2, 2|1, 2|2."""

    SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))

    def draws(self, seed):
        rng = random.Random(seed)
        for k in range(100):
            chart = Chart.standard(*self.SHAPES[k % 4])
            yield rng, chart, _random_delta_form(rng, chart, terms=3)

    def test_forms_act_associatively(self):
        nonzero = 0
        for rng, chart, w in self.draws(31):
            ftab = form_table(chart.table)
            a = random_superpoly(rng, ftab, terms=3, max_exp=1)
            b = random_superpoly(rng, ftab, terms=3, max_exp=1)
            lhs = form_times_delta(a * b, w)
            assert lhs == form_times_delta(a, form_times_delta(b, w))
            nonzero += not lhs.is_zero()
        assert nonzero >= 30

    def test_one_acts_trivially(self):
        for _, chart, w in self.draws(32):
            assert form_times_delta(SuperPoly.one(form_table(chart.table)), w) == w

    def test_functions_act_associatively_from_the_right(self):
        nonzero = 0
        for rng, chart, w in self.draws(33):
            f = random_superpoly(rng, chart.table, terms=2, max_exp=2)
            g = random_superpoly(rng, chart.table, terms=2, max_exp=2)
            lhs = delta_times_poly(delta_times_poly(w, f), g)
            assert lhs == delta_times_poly(w, f * g)
            nonzero += not lhs.is_zero()
        assert nonzero >= 50

    def test_functions_graded_commute_past_the_letters(self):
        """w * f == (-1)^{|w||f|} f * w on homogeneous w and f."""
        checked = 0
        for rng, chart, w in self.draws(34):
            f = random_superpoly(rng, chart.table, parity=rng.randint(0, 1),
                                 terms=2, max_exp=2)
            if w.parity() is None or f.parity() is None:
                continue
            sign = -1 if w.parity() * f.parity() else 1
            assert delta_times_poly(w, f) == w.times(f).scale(sign)
            assert form_times_delta(transport(f, form_table(chart.table)), w) == w.times(f)
            checked += 1
        assert checked >= 30

    def test_the_two_actions_commute(self):
        for rng, chart, w in self.draws(35):
            a = random_superpoly(rng, form_table(chart.table), terms=3, max_exp=1)
            f = random_superpoly(rng, chart.table, terms=2, max_exp=2)
            assert (form_times_delta(a, delta_times_poly(w, f))
                    == delta_times_poly(form_times_delta(a, w), f))

    def test_absorbed_forms_act_alike(self):
        nonzero = 0
        for rng, chart, w in self.draws(36):
            a = random_superpoly(rng, form_table(chart.table), terms=3, max_exp=2)
            out = form_times_delta(a, w)
            assert form_times_delta(absorb_even_exponents(a), w) == out
            nonzero += not out.is_zero()
        assert nonzero >= 30

    def test_rational_coefficients_are_refused(self):
        chart = Chart.standard(1, 1)
        ftab = form_table(chart.table)
        dx = gen(ftab, "dx1")
        quotient = dx * absorb_even_exponents(gen(ftab, "x1")).inverse()
        with pytest.raises(ValueError, match="polynomial coefficients only"):
            form_times_delta(quotient, DeltaForm.top(chart))


class TestTermStructure:
    def test_deltas_anticommute(self):
        forward = DeltaForm.from_factors(R02, 1, [("dth1", 0), ("dth2", 0)])
        backward = DeltaForm.from_factors(R02, 1, [("dth2", 0), ("dth1", 0)])
        assert backward == -forward

    def test_delta_passes_dx_with_sign(self):
        forward = DeltaForm.from_factors(R11, 1, ["dx", ("dth", 1)])
        backward = DeltaForm.from_factors(R11, 1, [("dth", 1), "dx"])
        assert backward == -forward

    def test_repeated_dx_squares_to_zero(self):
        assert DeltaForm.from_factors(
            R12, 1, ["dx", "dx", ("dth1", 0), ("dth2", 0)]).is_zero()

    def test_slots_are_checked_before_a_repeated_dx_squares_to_zero(self):
        with pytest.raises(ValueError, match="missing dth2"):
            DeltaForm.from_factors(Chart.standard(2, 2), 1,
                                   ["dx1", "dx1", ("dth1", 0)])
        with pytest.raises(ValueError, match="appears twice"):
            DeltaForm.from_factors(R12, 1, ["dx", "dx", ("dth1", 0), ("dth1", 0)])
        with pytest.raises(OverflowError):
            DeltaForm.from_factors(R12, 1, ["dx", "dx", ("dth1", 40000),
                                            ("dth2", 0)])

    def test_a_term_is_built_without_the_constructor(self, monkeypatch):
        want = DeltaForm(R22, {((1, 0), (2, 0)): SuperPoly.one(R22.table)})
        calls = []
        init = DeltaForm.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)
        monkeypatch.setattr(DeltaForm, "__init__", counted)
        got = DeltaForm.from_factors(R22, 1, [("dth1", 2), "dx", ("dth2", 0)])
        assert calls == [] and got == -want

    def test_repeated_delta_slot_rejected(self):
        with pytest.raises(ValueError, match="appears twice"):
            DeltaForm.from_factors(R02, 1, [("dth1", 0), ("dth1", 1)])

    def test_missing_delta_slot_rejected(self):
        with pytest.raises(ValueError, match="missing dth2"):
            DeltaForm.from_factors(R02, 1, [("dth1", 0)])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="0/1 marker"):
            DeltaForm(R11, {((2,), (0,)): 1})
        with pytest.raises(ValueError, match="nonnegative delta order"):
            DeltaForm(R11, {((1,), (-1,)): 1})
        with pytest.raises(ValueError, match="not over the chart"):
            DeltaForm(R11, {((1,), (0,)): SuperPoly.one(R12.table)})

    def test_module_operations(self):
        th = gen(R11.table, "th")
        w = DeltaForm.top(R11)
        assert (w + w).scale(Fraction(1, 2)) == w
        assert (w - w).is_zero()
        assert (-w) + w == DeltaForm.zero(R11)
        assert w.times(th) == DeltaForm.top(R11, th)
        mismatched = DeltaForm.top(R12)
        with pytest.raises(ValueError, match="different charts"):
            w + mismatched

    def test_rendering_mentions_letters(self):
        text = str(DeltaForm.from_factors(R11, 1, ["dx", ("dth", 2)]))
        assert "dx" in text and "del(dth,2)" in text
        assert str(DeltaForm.zero(R11)) == "0"


class TestGradings:
    def test_pivot_degree_and_parity(self):
        for chart in (R01, R11, R12, R21, R22):
            top = DeltaForm.top(chart)
            assert top.degrees() == {chart.p}
            assert top.parity() == (chart.p + chart.q) % 2

    def test_derived_delta_sits_below_zero(self):
        assert delta_term(R02, 1, (), (1, 0)).degrees() == {-1}

    def test_mixed_degrees_reported(self):
        mixed = DeltaForm.top(R11) + delta_term(R11, 1, (0,), (0,))
        assert mixed.degrees() == frozenset({0, 1})
        census = Counter(sum(eps) - sum(ells) for eps, ells in mixed.terms)
        assert census == {0: 1, 1: 1}

    def test_zero_form_has_no_degree(self):
        assert DeltaForm.zero(R11).degrees() == frozenset()
        assert DeltaForm.zero(R11).parity() is None

    def test_degree_shift_matches_z_shift(self):
        rng = random.Random(422)
        letters = ["dx", "dd_dx", "dth1", "dd_dth1", "dth2", "dd_dth2"]
        moved = 0
        for _ in range(30):
            w = homogeneous_delta_form(rng, R12, rng.choice([-1, 0, 1]))
            token = rng.choice(letters)
            out = cw_apply(token, w)
            if out.is_zero() or w.is_zero():
                continue
            shift = -1 if token.startswith("dd_") else 1
            (before,) = w.degrees()
            assert out.degrees() == {before + shift}
            moved += 1
        assert moved >= 10


class TestIsomorphism:
    def test_pivot_maps_to_plain_density(self):
        for chart in (R11, R12, R22):
            sigma = to_integral_form(DeltaForm.top(chart))
            assert sigma.poly == SuperPoly.one(sigma.table)
            assert sigma.degree() == chart.p
            assert from_integral_form(sigma) == DeltaForm.top(chart)

    def test_dx_derivative_becomes_polyvector_letter(self):
        lowered = cw_apply("dd_dx", DeltaForm.top(R12))
        sigma = to_integral_form(lowered)
        want = SuperPoly.generator(polyvector_table(R12), polyvector_name("x"))
        assert sigma.poly == want

    def test_localized_generator_counterpart(self):
        th1, th2 = gen(R02.table, "th1"), gen(R02.table, "th2")
        body = DeltaForm.top(R02, th1 * th2)
        sigma = to_integral_form(body)
        assert sigma == IntegralForm(R02, th1 * th2) and sigma.degree() == 0
        assert from_integral_form(sigma) == body

    def test_round_trip_randomized(self):
        rng = random.Random(423)
        checked = 0
        for chart in (R11, R12, R21, R22):
            for _ in range(5):
                w = random_delta_form(rng, chart)
                back = from_integral_form(to_integral_form(w))
                assert back == w
                checked += 1
        assert checked >= 20

    def test_reverse_round_trip_randomized(self):
        rng = random.Random(423)
        for chart in (R11, R12, R22):
            table = polyvector_table(chart)
            for _ in range(7):
                sigma = IntegralForm(chart,
                                     random_superpoly(rng, table, terms=3,
                                                      max_exp=2))
                again = to_integral_form(from_integral_form(sigma))
                assert again.poly == sigma.poly

    def test_absorbed_density_reads_back_its_terms(self):
        rng = random.Random(3)
        table = polyvector_table(R11)
        quotient = gen(table, "pdth").scale(RationalFunction(SuperPoly.one(table),
                                                             gen(table, "x")))
        polys = [quotient] + [random_superpoly(rng, table, terms=3, max_exp=2)
                              for _ in range(10)]
        for u in polys:
            twin = from_integral_form(IntegralForm(R11, absorb_even_exponents(u)))
            plain = from_integral_form(IntegralForm(R11, u))
            assert twin == plain
            assert dict(twin.terms) == dict(plain.terms)
            assert str(twin) == str(plain)

    def test_degrees_agree(self):
        rng = random.Random(423)
        for chart in (R12, R22):
            for degree in (chart.p, 0, -1):
                w = homogeneous_delta_form(rng, chart, degree)
                sigma = to_integral_form(w)
                if not w.is_zero():
                    assert {sigma.degree()} == w.degrees() == {degree}


class TestTransform:
    def test_shared_transform_matches_the_rewrap(self):
        # the oracle is the earlier DeltaForm.transform: through the
        # integral-form picture and back
        rng = random.Random(857)
        source = Chart(["u1", "u2"], ["et1", "et2"], label="U")
        target = Chart(["v1", "v2"], ["ps1", "ps2"], label="V")
        moved = 0
        for _ in range(12):
            m = _unimodular_split_map(rng, source, target)
            w = _random_delta_form(rng, target, terms=3)
            out = w.transform(m)
            oracle = from_integral_form(to_integral_form(w).transform(m))
            assert type(out) is DeltaForm and out.chart is source
            assert out.poly.table is oracle.poly.table
            assert out.poly.terms == oracle.poly.terms
            moved += not out.is_zero()
        assert moved >= 10

    def test_linear_delta_scaling(self):
        src = Chart((), ("ps",), label="S")
        m = CoordinateMap(src, R01, {"th": gen(src.table, "ps").scale(2)})
        plain = delta_term(R01, 1, (), (0,))
        assert plain.transform(m) == delta_term(src, Fraction(1, 2), (), (0,))
        derived = delta_term(R01, 1, (), (1,))
        assert derived.transform(m) == delta_term(src, Fraction(1, 4), (), (1,))

    def test_identity_map_fixes_forms(self):
        rng = random.Random(426)
        ident = CoordinateMap(R12, R12, {
            name: gen(R12.table, name) for name in R12.coordinate_names})
        for _ in range(5):
            w = random_delta_form(rng, R12)
            assert w.transform(ident) == w

    def test_pivot_transforms_by_berezinian(self):
        src = Chart(("y",), ("e1", "e2"), label="V")
        y, e1, e2 = (gen(src.table, n) for n in ("y", "e1", "e2"))
        m = CoordinateMap(src, R12, {
            "x": y + e1 * e2,
            "th1": e1 + y * e2,
            "th2": e2,
        })
        moved = DeltaForm.top(R12).transform(m)
        ber = release_even_exponents(m.ber_jacobian())
        assert moved == DeltaForm.top(src).times(ber)

    def test_pivot_berezinian_randomized_split(self):
        rng = random.Random(424)
        pairs = [(Chart(("u",), ("ps",), label="S11"), R11),
                 (Chart(("u",), ("ps1", "ps2"), label="S12"), R12),
                 (Chart(("u", "v"), ("ps1", "ps2"), label="S22"), R22)]
        for src, tgt in pairs:
            for _ in range(7):
                m = random_split_map(rng, src, tgt)
                moved = DeltaForm.top(tgt).transform(m)
                ber = release_even_exponents(m.ber_jacobian())
                assert moved == DeltaForm.top(src).times(ber)

    def test_naturality_against_density_transform(self):
        rng = random.Random(424)
        pairs = [(Chart(("u",), ("ps1", "ps2"), label="S12"), R12),
                 (Chart(("u", "v"), ("ps1", "ps2"), label="S22"), R22)]
        checked = 0
        for src, tgt in pairs:
            for _ in range(8):
                m = random_split_map(rng, src, tgt)
                degree = rng.choice([tgt.p, tgt.p - 1, 0, -1])
                w = homogeneous_delta_form(rng, tgt, degree)
                eta = random_fiber_form(rng, tgt, tgt.p - degree)
                direct = pair(to_integral_form(w.transform(m)),
                              form_pullback(m, eta))
                routed = pair(to_integral_form(w), eta).transform(m)
                assert direct == routed
                checked += 1
        assert checked >= 16

    def test_top_degree_naturality(self):
        rng = random.Random(425)
        src = Chart(("u",), ("ps1", "ps2"), label="S12")
        for _ in range(6):
            m = random_split_map(rng, src, R12)
            f = random_superpoly(rng, R12.table, terms=2, max_exp=2)
            w = DeltaForm.top(R12, f)
            lhs = to_integral_form(w.transform(m))
            rhs = IntegralForm(R12, f).transform(m)
            assert lhs == rhs

    def test_composition_law(self):
        rng = random.Random(427)
        charts = [Chart.standard(p, q) for p in (1, 2) for q in (1, 2)]
        for _ in range(20):
            chart = rng.choice(charts)
            m1 = _unimodular_split_map(rng, chart, chart)
            m2 = _unimodular_split_map(rng, chart, chart)
            w = _random_delta_form(rng, chart)
            assert w.transform(compose_maps(m1, m2)) \
                == w.transform(m2).transform(m1)

    def test_refused_general_map_on_2_2(self):
        # Draw 35 of this stream is an R^{2|2} form whose transform under a
        # general split map has a rational coefficient.  Summing its block
        # terms once cross-multiplied every denominator and took seconds.
        rng = random.Random(2024)
        charts = [Chart.standard(p, q) for p, q in ((1, 1), (1, 2), (2, 1), (2, 2))]
        for draw in range(36):
            chart = charts[draw % 4]
            w = _random_delta_form(rng, chart, terms=3)
            make = randoms.random_split_map if draw % 2 else _unimodular_split_map
            m = make(rng, chart, chart)
        assert (chart.p, chart.q) == (2, 2)
        with pytest.raises(ValueError, match="non-polynomial coefficient"):
            w.transform(m)

    def test_matches_the_term_wise_oracle(self):
        compared = 0
        for _, w, m in transform_stream(5, 210):
            got = outcome(w.transform, m)
            want = outcome(reference_transform, w, m)
            assert got == want
            assert str(got) == str(want)
            compared += want != "refused"
        assert compared >= 150

    @pytest.mark.parametrize("letter", ["pdz", "pdth"])
    def test_a_density_with_a_polyvector_letter_follows_the_oracle(self, letter):
        # z*th + letter*th, which IntegralForm.transform once refused, under
        # the identity and general split maps
        rng = random.Random(11)
        chart = Chart(("z",), ("th",), label="Z11")
        table = polyvector_table(chart)
        src = Chart(("u",), ("et",), label="S")
        identity = CoordinateMap(src, chart, {"z": gen(src.table, "u"),
                                              "th": gen(src.table, "et")})
        u = IntegralForm(chart, (gen(table, "z") + gen(table, letter))
                         * gen(table, "th"))
        moved = 0
        for m in [identity] + [randoms.random_split_map(rng, src, chart)
                               for _ in range(4)]:
            want = outcome(reference_transform, from_integral_form(u), m)
            got = outcome(u.transform, m)
            assert got == (want if want == "refused" else to_integral_form(want))
            moved += got != "refused"
        assert moved == 5

    def test_integral_forms_with_polyvector_letters_follow_the_oracle(self):
        # an even image with a nilpotent part puts odd entries in both
        # off-diagonal blocks of J^-1
        rng = random.Random(11)
        src = Chart(("y",), ("e1", "e2"), label="V")
        y, e1, e2 = (gen(src.table, n) for n in ("y", "e1", "e2"))
        m = CoordinateMap(src, R12, {"x": y + e1 * e2, "th1": e1 + y * e2, "th2": e2})
        cases = [(IntegralForm(R12, gen(polyvector_table(R12), letter)), m)
                 for letter in ("pdx", "pdth1", "pdth2")]
        # seeded forms with every kind of letter, under general split maps
        for tgt in (R12, R21, R22):
            src = Chart([f"u{j}" for j in range(tgt.p)],
                        [f"et{j}" for j in range(tgt.q)], label="S")
            cases += [(IntegralForm(tgt, random_superpoly(rng, polyvector_table(tgt),
                                                          terms=3, max_exp=2)),
                       randoms.random_split_map(rng, src, tgt)) for _ in range(6)]
        moved = 0
        for u, m in cases:
            want = outcome(reference_transform, from_integral_form(u), m)
            got = outcome(u.transform, m)
            assert got == (want if want == "refused" else to_integral_form(want))
            moved += got != "refused"
        assert moved >= 15

    def test_polynomial_results_once_refused(self):
        # the term-wise result is polynomial, but its stored quotients share
        # a two-variable factor that the reduction does not cancel
        _, w, m = next(itertools.islice(transform_stream(9, 382), 381, None))
        assert str(w.transform(m)) == "(4*et0*et1) du0 del(det0) del(det1)"
        _, w, m = next(itertools.islice(transform_stream(5, 28), 27, None))
        assert (w.chart.p, w.chart.q) == (3, 1)
        moved = w.transform(m)
        assert moved.poly and all(type(c) in (int, Fraction)
                                  for c in moved.poly.terms.values())

    def test_polyvector_letters_refuse_a_map_that_does_not_invert(self):
        # x1 = x2 = u0 is no coordinate change: the term-wise rule read
        # only the odd block and returned (1) du0 del(det0)
        chart = Chart.standard(2, 1)
        src = Chart(("u0", "u1"), ("et0",), label="S")
        u0, et0 = gen(src.table, "u0"), gen(src.table, "et0")
        m = CoordinateMap(src, chart, {"x1": u0, "x2": u0, "th1": et0})
        w = delta_term(chart, 1, (1, 0), (0,))
        assert str(reference_transform(w, m)) == "(1) du0 del(det0)"
        with pytest.raises(ValueError, match="delta argument not reducible"):
            w.transform(m)

    def test_singular_odd_block_rejected(self):
        src = Chart((), ("ps1", "ps2"), label="S02")
        ps1, ps2 = gen(src.table, "ps1"), gen(src.table, "ps2")
        m = CoordinateMap(src, R02, {"th1": ps1 + ps2, "th2": ps1 + ps2})
        with pytest.raises(ValueError, match="delta argument not reducible"):
            DeltaForm.top(R02).transform(m)

    def test_wrong_chart_rejected(self):
        src = Chart((), ("ps",), label="S")
        m = CoordinateMap(src, R01, {"th": gen(src.table, "ps")})
        with pytest.raises(ValueError, match="target of the map"):
            DeltaForm.top(R02).transform(m)


class TestFiberIntegral:
    def test_localized_form_integrates_to_one(self):
        th1, th2 = gen(R02.table, "th1"), gen(R02.table, "th2")
        body = DeltaForm.top(R02, th1 * th2)
        section = fiber_integral(body)
        assert section == IntegralForm(R02, th1 * th2)
        assert berezin_integral(section) == 1

    def test_derived_delta_integrates_to_zero(self):
        assert fiber_integral(delta_term(R02, 1, (), (1, 0))).is_zero()

    def test_missing_dx_integrates_to_zero(self):
        assert fiber_integral(delta_term(R11, 1, (0,), (0,))).is_zero()

    def test_round_trip_with_densities(self):
        rng = random.Random(425)
        checked = 0
        for chart in (R11, R12, R22):
            for _ in range(7):
                s = IntegralForm(chart,
                                 random_superpoly(rng, chart.table, terms=3,
                                                  max_exp=2))
                back = fiber_integral(from_integral_form(s))
                assert back == s
                checked += 1
        assert checked >= 20

    def test_only_top_terms_contribute(self):
        rng = random.Random(426)
        for _ in range(5):
            w = random_delta_form(rng, R12)
            top_key = ((1,), (0, 0))
            expect = w.terms.get(top_key, SuperPoly.zero(R12.table))
            assert fiber_integral(w) == IntegralForm(R12, expect)


class TestGaussianFiberIntegral:
    def test_weighted_line_form(self):
        ftab = form_table(R01.table)
        weight, section = gaussian_fiber_integral(R01, gen(ftab, "th"),
                                                  gaussian=("dth",))
        assert weight == SQRT_PI
        assert section == IntegralForm(R01, gen(R01.table, "th"))
        assert weight * berezin_integral(section) == SQRT_PI

    def test_unweighted_direction_diverges(self):
        ftab = form_table(R01.table)
        with pytest.raises(ValueError, match="divergent"):
            gaussian_fiber_integral(R01, gen(ftab, "th") * gen(ftab, "dth"))

    def test_weighted_form_with_base_function(self):
        ftab = form_table(R11.table)
        g = gen(ftab, "x") * gen(ftab, "x")
        body = gen(ftab, "dx") * g * gen(ftab, "th")
        weight, section = gaussian_fiber_integral(R11, body, gaussian=("dth",))
        x, th = gen(R11.table, "x"), gen(R11.table, "th")
        assert weight == SQRT_PI
        assert section == IntegralForm(R11, x * x * th)

    def test_even_moments(self):
        ftab = form_table(R01.table)
        dth = gen(ftab, "dth")
        _, second = gaussian_fiber_integral(R01, dth * dth, gaussian=("dth",))
        assert second == IntegralForm(R01, Fraction(1, 2))
        _, fourth = gaussian_fiber_integral(R01, dth * dth * dth * dth,
                                            gaussian=("dth",))
        assert fourth == IntegralForm(R01, Fraction(3, 4))

    def test_odd_moment_vanishes(self):
        ftab = form_table(R01.table)
        _, section = gaussian_fiber_integral(R01, gen(ftab, "dth"),
                                             gaussian=("dth",))
        assert section.is_zero()

    def test_missing_dx_block_drops_term(self):
        ftab = form_table(R11.table)
        _, section = gaussian_fiber_integral(R11, gen(ftab, "th"),
                                             gaussian=("dth",))
        assert section.is_zero()

    def test_marker_validation(self):
        ftab = form_table(R01.table)
        with pytest.raises(ValueError, match="not an even fiber direction"):
            gaussian_fiber_integral(R01, gen(ftab, "th"), gaussian=("dx",))
        with pytest.raises(ValueError, match="not over the chart"):
            gaussian_fiber_integral(R01, gen(R11.table, "x"), gaussian=("dth",))
