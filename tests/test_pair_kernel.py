"""The pair kernel against the per-letter compositions it replaced.

De Rham d, its homotopy h, Spencer's differential (plain and Gaussian) and
its homotopy, the total complex's script_D and script_H and both Koszul
differentials (h's unweighted step and script_D) are each one
``SuperPoly.pair_sum`` over ``GeneratorTable.pair_images`` steps.
The oracles below build the same sums one letter at a time from
``SuperPoly.generator``, ``left_derivative`` and products, as the library
did before; new and old must agree by ``==`` and by ``str``."""

import itertools
import random
from fractions import Fraction

import pytest

from supercalc.algebra import (
    DERIVE,
    EVEN_BASE,
    MULTIPLY,
    ODD_BASE,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    _EXPONENT,
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    release_even_exponents,
    transport,
)
from supercalc.charts import Chart
from supercalc.derham import (
    UniversalElement,
    _symbol_table,
    base_coordinate_names,
    d,
    derivative_letters,
    fiber_degree,
    fiber_name,
    form_table,
    homotopy_h,
    script_D,
    script_H,
)
from supercalc.integral_forms import (
    IntegralForm,
    homotopy_int,
    polyvector_name,
    polyvector_table,
    spencer_delta,
)
from supercalc.koszul import KoszulAlgebra
from supercalc.randoms import random_superpoly

SHAPES = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (3, 3)]
KINDS = ["int", "fraction", "absorbed"]


# --- the oracles: one SuperPoly per letter ------------------------------------


def oracle_d(omega):
    table = omega.table
    return SuperPoly.sum_of_products(table, [
        (SuperPoly.generator(table, fiber_name(name)), omega.left_derivative(name))
        for name in base_coordinate_names(table)])


def oracle_homotopy_h(omega):
    omega = release_even_exponents(omega)
    table = omega.table
    pairs = []
    for mono, c in omega.terms.items():
        weight = Fraction(1, fiber_degree(table, mono)
                          + table.degree(mono, EVEN_BASE, ODD_BASE))
        term = SuperPoly(table, {mono: c * weight})
        pairs += [(SuperPoly.generator(table, name),
                   term.left_derivative(fiber_name(name)))
                  for name in base_coordinate_names(table)]
    return SuperPoly.sum_of_products(table, pairs)


def oracle_spencer_delta(u, gaussian=()):
    chart = u.chart
    base_parity = (chart.p + chart.q) % 2
    out = SuperPoly.zero(u.table)
    for name in chart.coordinate_names:
        peeled = u.poly.left_derivative(polyvector_name(name))
        term = peeled.left_derivative(name)
        if name in gaussian:
            term = term - (peeled * SuperPoly.generator(u.table, name)).scale(2)
        if (u.table.parity(name) + base_parity + 1) % 2:
            term = -term
        out = out + term
    return IntegralForm(chart, out)


def oracle_homotopy_int(u):
    chart, table = u.chart, u.table
    p, q = chart.p, chart.q
    coordinates = set(table.positions_of_class(EVEN_BASE, ODD_BASE))
    letters = [(table.index(name), table.index(polyvector_name(name)), table.parity(name))
               for name in chart.coordinate_names]
    terms = {}
    for mono, c in release_even_exponents(u.poly).terms.items():
        base_od = table.degree(mono, ODD_BASE)
        denominator = (p + q + table.degree(mono, POLYVECTOR_EVEN)
                       - table.degree(mono, POLYVECTOR_ODD) - 2 * base_od
                       + table.degree(mono, EVEN_BASE) + base_od)
        powers = table.powers(mono)
        f_powers = [pk for pk in powers if pk[0] in coordinates]
        x_powers = [pk for pk in powers if pk[0] not in coordinates]
        # x_b * f * pdx_b * X, written out and sorted by the codec
        for xb, pdb, pb in letters:
            sign, key = table.monomial([(xb, 1), *f_powers, (pdb, 1), *x_powers])
            if sign:
                weight = Fraction(1, denominator) * c
                odd = (base_od * (pb + 1) + pb + p + q + 1 + (sign < 0)) % 2
                terms[key] = terms.get(key, 0) + (-weight if odd else weight)
    return IntegralForm(chart, SuperPoly(table, terms))


def oracle_script_D(u):
    symbols = u.poly.table
    gen = SuperPoly.generator
    return UniversalElement(u.table, SuperPoly.sum_of_products(symbols, [
        (gen(symbols, fiber_name(z)) * gen(symbols, dd), u.poly)
        for z, dd, _ in derivative_letters(u.table)]))


def oracle_script_H(u):
    out = SuperPoly.zero(u.poly.table)
    for z, dd, _ in derivative_letters(u.table):
        out = out + u.poly.left_derivative(fiber_name(z)).left_derivative(dd)
    return UniversalElement(u.table, out)


def oracle_koszul_delta(k_alg, e):
    table = k_alg.table
    return SuperPoly.sum_of_products(table, [
        (SuperPoly.generator(table, z), e.left_derivative(fiber_name(z)))
        for z in base_coordinate_names(table)])


def oracle_dual_delta(k_alg, e):
    table = k_alg.dual_table
    element = SuperPoly.zero(table)
    for z, dd, _ in derivative_letters(k_alg.table):
        element = element + (SuperPoly.generator(table, dd)
                             * SuperPoly.generator(table, fiber_name(z)))
    return element * e


def oracle_step(poly, step):
    """c * module-op(partner-op(poly)) for one pair_images step."""
    module, m_op, partner, p_op, c = step
    table = poly.table
    for pos, op in ((partner, p_op), (module, m_op)):
        name = table.names[pos]
        poly = (SuperPoly.generator(table, name) * poly if op == MULTIPLY
                else poly.left_derivative(name))
    return poly.scale(c)


# --- draws ----------------------------------------------------------------------


def coefficients(poly, kind):
    """The draw with integer, non-integral Fraction or absorbed quotient
    coefficients."""
    if kind == "int":
        return SuperPoly(poly.table, {m: int(6 * c) for m, c in poly.terms.items()})
    if kind == "fraction":
        return poly.scale(Fraction(1, 7))
    return absorb_even_exponents(poly)


def draw(rng, table, kind, terms=3):
    return coefficients(random_superpoly(rng, table, terms=terms, max_exp=2), kind)


def draw_form(rng, chart, kind):
    """A form whose every term has fiber degree 1 or 2, for h."""
    ftab = form_table(chart.table)
    fibers = [fiber_name(n) for n in chart.coordinate_names]
    omega = SuperPoly.zero(ftab)
    for _ in range(rng.randint(1, 3)):
        f = transport(random_superpoly(rng, chart.table, terms=2, max_exp=2), ftab)
        for _ in range(rng.randint(1, 2)):
            f = f * SuperPoly.generator(ftab, rng.choice(fibers))
        omega = omega + f
    return coefficients(omega, kind)


def shape_id(shape):
    return "%d|%d" % shape


def assert_same(new, old):
    assert new == old
    assert str(new) == str(old)


# --- the differentials ----------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_derham_matches_the_oracle(shape, kind):
    chart = Chart.standard(*shape)
    ftab = form_table(chart.table)
    rng = random.Random(100 + 10 * shape[0] + shape[1])
    for _ in range(15):
        omega = draw(rng, ftab, kind)
        assert_same(d(omega), oracle_d(omega))
        omega = draw_form(rng, chart, kind)
        assert_same(d(omega), oracle_d(omega))
        assert_same(homotopy_h(omega), oracle_homotopy_h(omega))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_integral_forms_match_the_oracle(shape, kind):
    chart = Chart.standard(*shape)
    ptab = polyvector_table(chart)
    rng = random.Random(200 + 10 * shape[0] + shape[1])
    weighted = 0
    for _ in range(15):
        u = IntegralForm(chart, draw(rng, ptab, kind, terms=4))
        assert_same(spencer_delta(u), oracle_spencer_delta(u))
        assert_same(homotopy_int(u), oracle_homotopy_int(u))
        gaussian = [n for n in chart.even_names if rng.random() < 0.6]
        weighted += bool(gaussian)
        assert_same(spencer_delta(u, gaussian), oracle_spencer_delta(u, gaussian))
    assert weighted or not chart.p


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_total_complex_matches_the_oracle(shape, kind):
    table = form_table(Chart.standard(*shape).table)
    symbols = _symbol_table(table)
    rng = random.Random(300 + 10 * shape[0] + shape[1])
    for _ in range(15):
        u = UniversalElement(table, draw(rng, symbols, kind))
        assert_same(script_D(u), oracle_script_D(u))
        assert_same(script_H(u), oracle_script_H(u))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=shape_id)
def test_koszul_differentials_match_the_oracle(shape, kind):
    k_alg = KoszulAlgebra(*shape)
    rng = random.Random(400 + 10 * shape[0] + shape[1])
    for _ in range(15):
        e = draw(rng, k_alg.table, kind)
        assert_same(k_alg.koszul_delta(e), oracle_koszul_delta(k_alg, e))
        e = draw(rng, k_alg.dual_table, kind)
        assert_same(k_alg.dual_delta(e), oracle_dual_delta(k_alg, e))


# --- the four step kinds --------------------------------------------------------

OPS = list(itertools.product((MULTIPLY, DERIVE), repeat=2))


def random_steps(rng, table, m_op, p_op):
    """A step on each of a few pairs of distinct positions, no position in
    two of them, with coefficients in -3..3 but 0."""
    positions = rng.sample(range(len(table.names)), len(table.names))
    return [(module, m_op, partner, p_op, rng.choice([-3, -2, -1, 1, 2, 3]))
            for module, partner in zip(positions[::2], positions[1::2])]


@pytest.mark.parametrize("m_op,p_op", OPS, ids=lambda op: op)
def test_every_step_kind_matches_the_oracle(m_op, p_op):
    # The symbols table of 2|2 holds letters of every parity and class:
    # odd and even fibers, derivative letters and base coordinates.
    symbols = _symbol_table(form_table(Chart.standard(2, 2).table))
    rng = random.Random(500 + 2 * OPS.index((m_op, p_op)))
    for _ in range(40):
        steps = random_steps(rng, symbols, m_op, p_op)
        poly = draw(rng, symbols, "int", terms=4)
        expected = [SuperPoly.sum_of_products(symbols, [
            (SuperPoly.one(symbols), oracle_step(SuperPoly(symbols, {key: 1}), step))
            for step in steps]).terms for key in poly.terms]
        assert list(symbols.pair_images(poly.terms, steps)) == expected
        for kind in KINDS:
            poly = draw(rng, symbols, kind, terms=4)
            oracle = SuperPoly.sum_of_products(symbols, [
                (SuperPoly.one(symbols), oracle_step(poly, step)) for step in steps])
            assert_same(poly.pair_sum(steps), oracle)


@pytest.mark.parametrize("m_op,p_op", OPS, ids=lambda op: op)
def test_quotient_rule_on_every_step_kind(m_op, p_op):
    # Both letters of a step are even base coordinates, so a derivative
    # may hit the quotient once, twice or not at all.
    table = GeneratorTable.chart(["x", "y", "z"], ["th"])
    rng = random.Random(600 + 2 * OPS.index((m_op, p_op)))
    for _ in range(30):
        poly = absorb_even_exponents(random_superpoly(rng, table, terms=3, max_exp=3))
        poly = poly.scale(RationalFunction(SuperPoly.one(table),
                                           SuperPoly.generator(table, "y")
                                           + SuperPoly.constant(table, 2)))
        steps = [(0, m_op, 1, p_op, 2), (2, m_op, 3, p_op, -1)]
        oracle = oracle_step(poly, steps[0]) + oracle_step(poly, steps[1])
        assert poly.pair_sum(steps) == oracle


def test_pairs_sharing_a_generator_are_refused():
    # Steps whose terms could share a key: one acting twice on a
    # generator, or two acting alike on the same pair in either order.
    # Steps that share a generator but act on it differently, as the
    # Gaussian Spencer differential's do, are accepted.
    table = form_table(Chart.standard(1, 1).table)
    x1, dx1, th1 = (table.index(name) for name in ("x1", "dx1", "th1"))
    for steps in ([(x1, MULTIPLY, x1, DERIVE, 1)],
                  [(x1, MULTIPLY, dx1, DERIVE, 1), (x1, MULTIPLY, dx1, DERIVE, 2)],
                  [(x1, MULTIPLY, dx1, DERIVE, 1), (dx1, DERIVE, x1, MULTIPLY, 1)]):
        with pytest.raises(ValueError, match="distinct generators"):
            list(table.pair_images([], steps))
    assert list(table.pair_images([0], [(x1, MULTIPLY, dx1, DERIVE, 1),
                                        (th1, MULTIPLY, dx1, DERIVE, 1),
                                        (x1, DERIVE, dx1, DERIVE, 1)])) == [{}]


# --- the guard bit --------------------------------------------------------------


def _top(table, name, k, rest=()):
    return SuperPoly.from_monomial(table, {name: k, **dict(rest)})


@pytest.mark.parametrize("case", ["d", "h", "spencer", "script_D"])
def test_guard_bit_overflow_matches_the_oracle(case):
    chart = Chart.standard(1, 1)
    ftab, ptab = form_table(chart.table), polyvector_table(chart)
    symbols = _symbol_table(ftab)
    # each input's image multiplies a letter already at power k
    new, old, make = {
        "d": (d, oracle_d, lambda k: _top(ftab, "dth1", k, [("th1", 1)])),
        "h": (homotopy_h, oracle_homotopy_h,
              lambda k: _top(ftab, "x1", k, [("dx1", 1)])),
        "spencer": (lambda u: spencer_delta(u, ["x1"]),
                    lambda u: oracle_spencer_delta(u, ["x1"]),
                    lambda k: IntegralForm(chart, _top(ptab, "x1", k, [("pdx1", 1)]))),
        "script_D": (script_D, oracle_script_D,
                     lambda k: UniversalElement(ftab, _top(symbols, "dd_x1", k))),
    }[case]
    assert_same(new(make(_EXPONENT - 1)), old(make(_EXPONENT - 1)))
    with pytest.raises(OverflowError):
        old(make(_EXPONENT))
    with pytest.raises(OverflowError):
        new(make(_EXPONENT))


def test_guard_bit_overflow_in_pair_images():
    table = GeneratorTable.chart(["x"], ["th"])
    key, = _top(table, "x", _EXPONENT).terms
    steps = [(1, MULTIPLY, 0, MULTIPLY, 1)]
    assert list(table.pair_images([key], [(1, MULTIPLY, 0, DERIVE, 1)])) \
        == [{next(iter(_top(table, "x", _EXPONENT - 1, [("th", 1)]).terms)): _EXPONENT}]
    with pytest.raises(OverflowError):
        list(table.pair_images([key], steps))


# --- no SuperPoly per letter ----------------------------------------------------


def test_operators_build_no_superpoly_per_letter(monkeypatch):
    # Each operator is one kernel call: no generator element and no
    # per-letter derivative.  The oracle's answers are taken first.
    chart = Chart.standard(2, 2)
    ftab, ptab = form_table(chart.table), polyvector_table(chart)
    symbols = _symbol_table(ftab)
    rng = random.Random(7)
    cases = []
    for kind in ("int", "fraction"):
        for _ in range(10):
            omega, form = draw(rng, ftab, kind), draw_form(rng, chart, kind)
            u = IntegralForm(chart, draw(rng, ptab, kind, terms=4))
            e = UniversalElement(ftab, draw(rng, symbols, kind))
            cases += [(d, omega, oracle_d(omega)),
                      (homotopy_h, form, oracle_homotopy_h(form)),
                      (spencer_delta, u, oracle_spencer_delta(u)),
                      (lambda u: spencer_delta(u, ["x1"]), u,
                       oracle_spencer_delta(u, ["x1"])),
                      (homotopy_int, u, oracle_homotopy_int(u)),
                      (script_D, e, oracle_script_D(e)),
                      (script_H, e, oracle_script_H(e))]

    def refuse(*args, **kwargs):
        raise AssertionError("an operator built a SuperPoly per letter")

    monkeypatch.setattr(SuperPoly, "left_derivative", refuse)
    monkeypatch.setattr(SuperPoly, "generator", classmethod(refuse))
    for operator, argument, expected in cases:
        assert_same(operator(argument), expected)


# --- moving quotients between tables --------------------------------------------


def test_transport_keeps_the_stored_quotients():
    # Whether transport wraps a quotient as it is (to the polyvector table,
    # which begins with the chart's letters) or rebuilds it (to the form
    # table), it stores the reduced pair the checking constructor makes.
    chart = Chart.standard(2, 2)
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        poly = absorb_even_exponents(random_superpoly(rng, chart.table, terms=4, max_exp=2))
        for table in (polyvector_table(chart), form_table(chart.table)):
            moved = transport(poly, table)
            for c in moved.terms.values():
                checked = RationalFunction(c.num, c.den)
                assert (c.num.terms, c.den.terms) == (checked.num.terms, checked.den.terms)
                seen += 1
    assert seen > 400


def test_transport_reduces_quotients_whose_base_order_changes():
    # The largest key of x - 2y is x in (x, y) and y in (y, x), so the
    # stored pair 1/(x - 2y) turns into -1/(2y - x), whose denominator is
    # positive at y; it prints as before, over the monic -x/2 + y.
    src = GeneratorTable.chart(["x", "y"], [])
    dst = GeneratorTable.chart(["y", "x"], [])
    x, y = SuperPoly.generator(src, "x"), SuperPoly.generator(src, "y")
    poly = SuperPoly.constant(src, RationalFunction(SuperPoly.one(src), x - y.scale(2)))
    c, = transport(poly, dst).terms.values()
    assert c.num == SuperPoly.constant(dst, -1)
    assert c.den == SuperPoly.generator(dst, "y").scale(2) - SuperPoly.generator(dst, "x")
    assert str(c) == "-1/2/(-1/2*x + y)"


# --- one common denominator -----------------------------------------------------


def _poly(table, *terms):
    """The sum of coeff * monomial over (coeff, {name: power}) terms."""
    return sum((SuperPoly.from_monomial(table, powers, coeff) for coeff, powers in terms),
               SuperPoly.zero(table))


def assert_canonical(poly):
    """Every coefficient nonzero, and an int exactly when it is integral."""
    for c in poly.terms.values():
        assert c
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def test_weight_and_denominator_join_one_lcm():
    # x1^2 dx1 has weight 3 and coefficient 1/3, x1 dx1 weight 2: the
    # common denominator is lcm(3 * 3, 2) = 18.  An lcm taken over the
    # denominators (3) and the weights (6) separately gives 6, which 3 * 3
    # does not divide.
    ftab = form_table(Chart.standard(1, 0).table)
    omega = _poly(ftab, (Fraction(1, 3), {"x1": 2, "dx1": 1}), (5, {"x1": 1, "dx1": 1}))
    expected = _poly(ftab, (Fraction(1, 9), {"x1": 3}), (Fraction(5, 2), {"x1": 2}))
    assert_same(homotopy_h(omega), expected)
    assert_same(homotopy_h(omega), oracle_homotopy_h(omega))
    chart = Chart.standard(1, 0)
    ptab = polyvector_table(chart)
    u = IntegralForm(chart, _poly(ptab, (Fraction(1, 3), {"x1": 2}), (5, {"x1": 1})))
    hint = homotopy_int(u)
    assert_same(hint, IntegralForm(chart, _poly(ptab, (Fraction(1, 9), {"x1": 3, "pdx1": 1}),
                                                (Fraction(5, 2), {"x1": 2, "pdx1": 1}))))
    assert_same(hint, oracle_homotopy_int(u))


def test_integer_coefficients_are_scaled_by_the_common_denominator():
    # Beside a 1/3, the int 2 enters the walk as 6 and leaves as 2.
    ftab = form_table(Chart.standard(2, 0).table)
    omega = _poly(ftab, (2, {"x1": 1, "x2": 1}), (Fraction(1, 3), {"x1": 2}))
    out = d(omega)
    assert_same(out, _poly(ftab, (2, {"dx1": 1, "x2": 1}), (2, {"dx2": 1, "x1": 1}),
                           (Fraction(2, 3), {"dx1": 1, "x1": 1})))
    assert_canonical(out)
    assert sorted(map(type, out.terms.values()), key=str) == [Fraction, int, int]


def test_images_that_cancel_or_become_integral():
    ftab = form_table(Chart.standard(2, 1).table)
    f = _poly(ftab, (Fraction(1, 3), {"x1": 1, "x2": 1}), (Fraction(1, 2), {"x1": 2, "th1": 1}))
    assert d(d(f)).terms == {}          # images that cancel leave no term
    assert d(d(f.scale(6))).terms == {}
    out = d(_poly(ftab, (Fraction(1, 2), {"x1": 2})))
    assert out.terms == {next(iter(_poly(ftab, (1, {"dx1": 1, "x1": 1})).terms)): 1}
    assert type(next(iter(out.terms.values()))) is int


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_operators_return_canonical_coefficients(shape):
    # Seeded inputs over several denominators: each output coefficient of
    # d, h, delta and its homotopy is an int when integral, else a
    # Fraction, and never zero.
    chart = Chart.standard(*shape)
    ftab, ptab = form_table(chart.table), polyvector_table(chart)
    rng = random.Random(700 + 10 * shape[0] + shape[1])

    def scaled(poly):
        return SuperPoly(poly.table, {m: c * Fraction(rng.choice([1, 2, 3, 4, 6]),
                                                      rng.choice([1, 2, 3, 4, 6]))
                                      for m, c in poly.terms.items()})

    integral = 0
    for _ in range(15):
        omega = scaled(draw_form(rng, chart, "int"))
        u = IntegralForm(chart, scaled(draw(rng, ptab, "int", terms=4)))
        gaussian = [n for n in chart.even_names if rng.random() < 0.6]
        outputs = [(d(omega), oracle_d(omega)),
                   (homotopy_h(omega), oracle_homotopy_h(omega)),
                   (spencer_delta(u, gaussian).poly, oracle_spencer_delta(u, gaussian).poly),
                   (homotopy_int(u).poly, oracle_homotopy_int(u).poly)]
        for new, old in outputs:
            assert_same(new, old)
            assert_canonical(new)
            integral += sum(type(c) is int for c in new.terms.values())
    assert integral


def test_pair_sum_divides_by_a_given_denominator():
    symbols = _symbol_table(form_table(Chart.standard(2, 2).table))
    rng = random.Random(800)
    for m_op, p_op in OPS:
        steps = random_steps(rng, symbols, m_op, p_op)
        poly = draw(rng, symbols, "int", terms=5)
        for den in (1, 2, 6, 35):
            out = poly.pair_sum(steps, den)
            assert_same(out, poly.scale(Fraction(1, den)).pair_sum(steps))
            assert_canonical(out)


def test_pair_sum_walks_without_pair_images(monkeypatch):
    # The fused walk builds no per-key image map, quotient-rule terms too.
    chart = Chart.standard(2, 1)
    ftab, ptab = form_table(chart.table), polyvector_table(chart)
    rng = random.Random(900)
    cases = []
    for kind in KINDS:
        omega, form = draw(rng, ftab, kind), draw_form(rng, chart, kind)
        u = IntegralForm(chart, draw(rng, ptab, kind, terms=4))
        cases += [(d, omega, oracle_d(omega)),
                  (homotopy_h, form, oracle_homotopy_h(form)),
                  (spencer_delta, u, oracle_spencer_delta(u)),
                  (homotopy_int, u, oracle_homotopy_int(u))]

    def refuse(*args, **kwargs):
        raise AssertionError("pair_sum built a map per key")

    monkeypatch.setattr(GeneratorTable, "pair_images", refuse)
    for operator, argument, expected in cases:
        assert_same(operator(argument), expected)


# --- the Koszul and guard contracts ---------------------------------------------


def test_pair_images_yields_a_fresh_map_before_reading_the_next_key():
    k_alg = KoszulAlgebra(2, 2)
    table, steps, _ = k_alg._side("koszul")
    key, = _poly(table, (1, {"dx1": 1, "dth1": 2, "x2": 1})).terms
    expected = SuperPoly.sum_of_products(table, [
        (SuperPoly.one(table), oracle_step(SuperPoly(table, {key: 1}), step))
        for step in steps]).terms

    def keys():
        yield key
        raise RuntimeError("read the second key")

    images = table.pair_images(keys(), steps)
    first = next(images)
    assert first == expected and first
    with pytest.raises(RuntimeError, match="second key"):
        next(images)
    maps = list(table.pair_images([key, key], steps))
    assert maps == [expected, expected] and maps[0] is not maps[1]


def test_guard_bit_overflow_comes_before_any_division(monkeypatch):
    # Fraction input whose other images would be divided into Fractions:
    # the overflow is raised before the kernel divides anything.
    ftab = form_table(Chart.standard(1, 1).table)
    fine = _poly(ftab, (Fraction(1, 3), {"th1": 1, "x1": 2}))
    over = fine + _top(ftab, "dth1", _EXPONENT, [("th1", 1)]).scale(Fraction(2, 5))
    import supercalc.algebra as algebra

    def divided(*args):
        raise AssertionError("divided")

    monkeypatch.setattr(algebra, "Fraction", divided)
    with pytest.raises(AssertionError, match="divided"):
        d(fine)
    with pytest.raises(OverflowError):
        d(over)
