"""Densities (the integral forms of top degree), the polyvector complex,
its differential and homotopy, the right module structure, and the
contraction pairing."""

import random
from fractions import Fraction

import pytest

from supercalc import integral_forms, pseudoforms
from supercalc.algebra import (
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    transport,
)
from supercalc.charts import Chart, CoordinateMap, conic_transition
from supercalc.derham import d, fiber_degree, form_table
from supercalc.diffops import DiffOp
from supercalc.integral_forms import (
    IntegralForm,
    _density_coefficient,
    cohomology_projection,
    homotopy_int,
    lie_derivative_ber,
    pair,
    polyvector_degree,
    polyvector_name,
    polyvector_table,
    right_action,
    spencer_delta,
)
from supercalc.integration import berezin_integral, susy_variation
from supercalc.randoms import random_rational, random_superpoly
from test_diffops import apply

R11 = Chart(("z",), ("th",), label="R11")
R22 = Chart(("z1", "z2"), ("th1", "th2"), label="R22")
P11 = polyvector_table(R11)
P22 = polyvector_table(R22)


def gen(table, name):
    return SuperPoly.generator(table, name)


def anticommutator(u):
    return spencer_delta(homotopy_int(u)) + homotopy_int(spencer_delta(u))


def restrict_to_coefficients(poly):
    """Drop every monomial that carries a polyvector letter."""
    kept = {m: c for m, c in poly.terms.items()
            if polyvector_degree(poly.table, m) == 0}
    return SuperPoly(poly.table, kept)


def random_field(rng, chart, table, parity, max_exp=1):
    """The components {x_a: X^a} of a random vector field of the given parity."""
    comps = {}
    for name in chart.coordinate_names:
        want = (parity + table.parity(name)) % 2
        c = random_superpoly(rng, table, parity=want, terms=2, max_exp=max_exp)
        comps[name] = restrict_to_coefficients(c)
    return comps


def reference_lie_derivative(density, components, gaussian=()):
    """The divergence: f goes to sum_a (-1)^{|x_a| (|f| + |X^a|)} d/dx_a
    (f X^a), the derivative from the left, and on each even coordinate z
    in ``gaussian`` the weight exp(-z^2) adds -2 z f X^z."""
    table = density.chart.table
    out = SuperPoly.zero(table)
    for name, comp in components.items():
        if not comp:
            continue
        pa = table.parity(name)
        for fp, fpart in enumerate(_density_coefficient(density).homogeneous_parts()):
            g = fpart * comp
            term = g.left_derivative(name)
            if name in gaussian:
                term = term - (g * gen(table, name)).scale(2)
            out = out - term if pa and (fp + comp.parity()) % 2 else out + term
    return IntegralForm(density.chart, out)


def reference_pair(u, omega):
    """The per-letter contraction: each fiber letter of a form monomial
    takes the right derivative along its polyvector letter, in the written
    order of the monomial, and the rest of the monomial, coefficient
    included, multiplies from the right.  The oracle for :func:`pair`."""
    ftab = form_table(u.chart.table)
    if omega.table == u.chart.table:
        omega = transport(omega, ftab)
    elif omega.table != ftab:
        raise ValueError("form is not over the chart's coordinates")
    if u.is_zero() or omega.is_zero():
        return IntegralForm(u.chart, 0)
    if (max(fiber_degree(ftab, m) for m in omega.terms)
            > min(polyvector_degree(u.table, m) for m in u.poly.terms)):
        raise ValueError("form degree exceeds the polyvector degree of the "
                         "integral form")
    out = SuperPoly.zero(u.table)
    for mono, c in omega.terms.items():
        cur, rest = u.poly, []
        for pos, k in ftab.powers(mono):
            if ftab.classes[pos] in (FIBER_EVEN, FIBER_ODD):
                for _ in range(k):
                    cur = cur.right_derivative(polyvector_name(ftab.names[pos][1:]))
            else:
                rest.append((pos, k))
        _, key = ftab.monomial(rest)
        out = out + cur * transport(SuperPoly(ftab, {key: c}), u.table)
    return IntegralForm(u.chart, out)


def outcome(fn, *args):
    """The value's text, or the refusal's."""
    try:
        return str(fn(*args))
    except ValueError as exc:
        return "refused: " + str(exc)


def quotient(rng, table):
    """A quotient c / (b + sum of a x) in a few even base coordinates."""
    xs = [gen(table, n) for n in table.names_of_class(EVEN_BASE)]
    den = SuperPoly.constant(table, rng.choice((1, 2, -1)))
    for x in rng.sample(xs, rng.randint(1, len(xs))):
        den = den + x.scale(rng.randint(1, 3))
    return RationalFunction(SuperPoly.constant(table, rng.randint(1, 3)), den)


def pair_draws(count, seed):
    """Seeded (u, omega) on 1|1 .. 3|2, every third u with quotient
    coefficients; omega is polynomial or, in every fifth draw, a function."""
    rng = random.Random(seed)
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))
    for k in range(count):
        chart = Chart.standard(*shapes[k % len(shapes)])
        table = polyvector_table(chart)
        poly = random_superpoly(rng, table, terms=3, max_exp=2)
        if k % 3 == 0:
            poly = (poly.scale(quotient(rng, table))
                    + random_superpoly(rng, table, terms=2, max_exp=1))
        omega = random_superpoly(rng, chart.table if k % 5 == 4 else
                                 form_table(chart.table), terms=3, max_exp=1)
        yield IntegralForm(chart, poly), omega


def pair_mismatches(draws) -> int:
    return sum(outcome(pair, u, om) != outcome(reference_pair, u, om)
               for u, om in draws)


def random_diffop(rng, table, terms=3, letters=2):
    out = DiffOp.zero(table)
    names = list(table.names)
    for _ in range(rng.randint(1, terms)):
        w = DiffOp.multiplication(random_superpoly(rng, table, terms=2, max_exp=1))
        for _ in range(rng.randint(0, letters)):
            w = w.compose(DiffOp.partial(table, rng.choice(names)))
        out = out + w
    return out


class TestPolyvectorTable:
    def test_layout_appends_after_coordinates(self):
        assert P11.names == ("z", "th", "pdz", "pdth")
        assert P22.names == ("z1", "z2", "th1", "th2",
                             "pdz1", "pdz2", "pdth1", "pdth2")

    def test_parity_reversal(self):
        assert P11.parity("pdz") == 1
        assert P11.parity("pdth") == 0
        assert P22.classes[4:] == (POLYVECTOR_ODD, POLYVECTOR_ODD,
                                   POLYVECTOR_EVEN, POLYVECTOR_EVEN)

    def test_polyvector_degree(self):
        h = gen(P22, "z1") * gen(P22, "pdz1") * gen(P22, "pdth2") ** 3
        (mono, _), = h.terms.items()
        assert polyvector_degree(P22, mono) == 4

    def test_equal_charts_share_one_table(self):
        chart = Chart(("z1", "z2"), ("th1", "th2"), label="other")
        assert polyvector_table(chart) is P22
        assert form_table(chart.table) is form_table(R22.table)
        rng = random.Random(41)
        for _ in range(20):
            u = IntegralForm(R22, random_superpoly(rng, P22, terms=3))
            for out in (spencer_delta(u), homotopy_int(u), u + u,
                        IntegralForm(chart, u.poly)):
                assert out.table is u.table


class TestBerSection:
    """Densities ``Ber @ f``: the integral forms of degree p, which once
    had a type of their own under this name."""

    def test_rejects_foreign_coefficient(self):
        with pytest.raises(ValueError):
            IntegralForm(R11, gen(R22.table, "z1"))

    def test_parity_includes_symbol(self):
        assert IntegralForm(R11, 1).parity() == 0
        assert IntegralForm(R11, gen(R11.table, "th")).parity() == 1
        one = IntegralForm(R22, 1)
        assert one.parity() == 0
        mixed = IntegralForm(R22, gen(R22.table, "z1") + gen(R22.table, "th1"))
        assert mixed.parity() is None

    def test_arithmetic(self):
        s = IntegralForm(R11, gen(R11.table, "z"))
        t = s.times(gen(R11.table, "th"))
        assert (s + t - s) == t
        assert (-t).scale(-1) == t
        assert str(t) == "Ber @ z*th"

    def test_transform_linear_map(self):
        src = Chart(("x",), ("th",), label="U")
        tgt = Chart(("xp",), ("thp",), label="V")
        m = CoordinateMap(src, tgt, {
            "xp": gen(src.table, "x").scale(2),
            "thp": gen(src.table, "th").scale(3),
        })
        s = IntegralForm(tgt, gen(tgt.table, "xp") * gen(tgt.table, "thp"))
        moved = s.transform(m)
        assert moved.chart is src and moved.degree() == 1
        assert moved == IntegralForm(src, (gen(src.table, "x")
                                           * gen(src.table, "th")).scale(4))
        with pytest.raises(ValueError, match="target of the map"):
            moved.transform(m)

    def test_transform_polynomial_despite_rational_images(self):
        m = conic_transition()
        w = gen(m.target.table, "w")
        assert IntegralForm(m.target, w).transform(m) == \
            IntegralForm(m.source, -gen(m.source.table, "z"))

    def test_transform_refuses_non_polynomial_result(self):
        m = conic_transition()
        w = gen(m.target.table, "w")
        with pytest.raises(ValueError):
            IntegralForm(m.target, w * w).transform(m)


@pytest.mark.parametrize("consume", [
    lambda u: berezin_integral(u, gaussian=("z",)),
    lambda u: lie_derivative_ber(u, DiffOp.partial(R11.table, "z")),
    lambda u: right_action(u, DiffOp.partial(R11.table, "z")),
    lambda u: susy_variation(u, [[[1]]], 0),
], ids=["berezin_integral", "lie_derivative_ber", "right_action",
        "susy_variation"])
@pytest.mark.parametrize("letter", ["pdz", "pdth"])
def test_a_density_consumer_refuses_polyvector_letters(consume, letter):
    plain = IntegralForm(R11, gen(P11, "z") * gen(P11, "th"))
    consume(plain)
    u = plain + IntegralForm(R11, gen(P11, letter) * gen(P11, "th"))
    with pytest.raises(ValueError,
                       match="^polyvector letters remain; not a plain density$"):
        consume(u)
    # an absorbed letter is still a letter
    absorbed = IntegralForm(R11, absorb_even_exponents(u.poly))
    with pytest.raises(ValueError,
                       match="^polyvector letters remain; not a plain density$"):
        consume(absorbed)


class TestVectorField:
    def test_parity_detection(self):
        even = DiffOp.vector_field(R11.table, {"z": gen(R11.table, "z")})
        odd = DiffOp.vector_field(R11.table, {"z": gen(R11.table, "th"), "th": 1})
        mixed = DiffOp.vector_field(R11.table, {"z": 1, "th": 1})
        assert even.parity() == 0
        assert odd.parity() == 1
        assert mixed.parity() is None
        u = IntegralForm(R11, gen(R11.table, "z") * gen(R11.table, "th"))
        assert lie_derivative_ber(u, DiffOp.vector_field(R11.table, {})).is_zero()

    def test_unknown_coordinate(self):
        with pytest.raises(ValueError, match="^unknown coordinate 'zz'$"):
            DiffOp.vector_field(R11.table, {"zz": 1})

    def test_component_over_another_table(self):
        with pytest.raises(ValueError, match="^component is not over the chart's coordinates$"):
            DiffOp.vector_field(R11.table, {"z": gen(P11, "z")})

    def test_vector_field_acts_as_derivation(self):
        x = DiffOp.vector_field(R22.table, {"z1": gen(R22.table, "th1"), "th2": 1})
        f = gen(R22.table, "z1") * gen(R22.table, "th2")
        applied = apply(x, f)
        expected = gen(R22.table, "th1") * gen(R22.table, "th2") \
            + gen(R22.table, "z1")
        assert applied == expected


class TestLieDerivative:
    def test_coordinate_fields_kill_the_generator(self):
        one = IntegralForm(R22, 1)
        for name in R22.coordinate_names:
            out = lie_derivative_ber(one, DiffOp.partial(R22.table, name))
            assert out.is_zero()

    def test_even_euler_field(self):
        one = IntegralForm(R11, 1)
        x = DiffOp.vector_field(R11.table, {"z": gen(R11.table, "z")})
        assert lie_derivative_ber(one, x) == one

    def test_odd_euler_field(self):
        one = IntegralForm(R11, 1)
        x = DiffOp.vector_field(R11.table, {"th": gen(R11.table, "th")})
        assert lie_derivative_ber(one, x) == -one

    def test_mixed_parity_is_refused(self):
        with pytest.raises(ValueError, match="^vector field must have homogeneous parity$"):
            lie_derivative_ber(IntegralForm(R11, 1),
                               DiffOp.vector_field(R11.table, {"z": 1, "th": 1}))

    @pytest.mark.parametrize("make, order", [
        (lambda t: DiffOp.multiplication(gen(t, "z")), 0),
        (lambda t: DiffOp.partial(t, "z") + DiffOp.identity(t), 0),
        (lambda t: DiffOp.partial(t, "z").compose(DiffOp.partial(t, "z")), 2),
        (lambda t: DiffOp.partial(t, "th") + DiffOp.partial(t, "z").compose(
            DiffOp.partial(t, "th")), 2),
    ], ids=["multiplication", "zeroth-order-part", "second-order", "second-order-part"])
    def test_an_operator_that_is_no_vector_field_is_refused(self, make, order):
        with pytest.raises(ValueError, match=f"^not a vector field: the operator has "
                                             f"a term of order {order}$"):
            lie_derivative_ber(IntegralForm(R11, gen(R11.table, "z")), make(R11.table))

    def test_a_field_on_another_chart_is_refused(self):
        with pytest.raises(ValueError, match="^field and density live on different charts$"):
            lie_derivative_ber(IntegralForm(R11, 1), DiffOp.partial(R22.table, "z1"))

    def test_matches_right_action_with_a_sign(self):
        # the divergence is the oracle of both: the right action of the
        # field, and the Gaussian-weighted Lie derivative
        rng = random.Random(401)
        charts = [R11, Chart(("z",), ("th1", "th2")), Chart(("z1", "z2"), ("th",)), R22]
        checked = weighted = 0
        for chart in charts:
            for _ in range(40):
                s = IntegralForm(chart, random_superpoly(rng, chart.table,
                                                         terms=3, max_exp=2))
                comps = random_field(rng, chart, chart.table, rng.choice([0, 1]))
                x = DiffOp.vector_field(chart.table, comps)
                gaussian = [n for n in chart.even_names if rng.random() < 0.6]
                checked += 1
                weighted += bool(gaussian)
                assert right_action(s, x) == -reference_lie_derivative(s, comps)
                assert lie_derivative_ber(s, x, gaussian) == \
                    reference_lie_derivative(s, comps, gaussian)
        assert checked >= 120 and weighted >= 80


class TestRightAction:
    def test_generator_killed_by_every_partial(self):
        one = IntegralForm(R22, 1)
        for name in R22.coordinate_names:
            out = right_action(one, DiffOp.partial(R22.table, name))
            assert out.is_zero()

    def test_weyl_relations_through_the_symbol(self):
        # s.(d/dz o z) = s.(z d/dz + 1) must both give zero on the generator
        one = IntegralForm(R11, 1)
        for name in ("z", "th"):
            dn = DiffOp.partial(R11.table, name)
            mult = DiffOp.multiplication(gen(R11.table, name))
            assert right_action(one, dn.compose(mult)).is_zero()

    def test_composition_associativity(self):
        rng = random.Random(402)
        for _ in range(40):
            s = IntegralForm(R22, random_superpoly(rng, R22.table,
                                                   terms=3, max_exp=2))
            op1 = random_diffop(rng, R22.table)
            op2 = random_diffop(rng, R22.table)
            assert right_action(right_action(s, op1), op2) == \
                right_action(s, op1.compose(op2))

    def test_function_slides_out_of_the_operator(self):
        rng = random.Random(403)
        for _ in range(25):
            s = IntegralForm(R22, random_superpoly(rng, R22.table,
                                                   terms=2, max_exp=1))
            xop = DiffOp.vector_field(R22.table,
                                      random_field(rng, R22, R22.table, rng.choice([0, 1])))
            f = random_superpoly(rng, R22.table, terms=2, max_exp=1)
            mult = DiffOp.multiplication(f)
            left = right_action(s, mult.compose(xop))
            assert left == right_action(s.times(f), xop)
            right = right_action(s, xop.compose(mult))
            assert right == right_action(right_action(s, xop), mult)

    def test_flat_on_brackets(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(30):
            s = IntegralForm(R22, random_superpoly(rng, R22.table,
                                                   terms=2, max_exp=1))
            xop = DiffOp.vector_field(R22.table,
                                      random_field(rng, R22, R22.table, rng.choice([0, 1])))
            yop = DiffOp.vector_field(R22.table,
                                      random_field(rng, R22, R22.table, rng.choice([0, 1])))
            px, py = xop.parity(), yop.parity()
            checked += 1
            lhs = right_action(s, xop.bracket(yop))
            first = right_action(right_action(s, xop), yop)
            second = right_action(right_action(s, yop), xop)
            rhs = first + second if (px and py) else first - second
            assert lhs == rhs
        assert checked >= 20


class TestIntegralFormContainer:
    def test_degrees_and_parity(self):
        u = IntegralForm(R22, gen(P22, "pdz1") * gen(P22, "pdth1"))
        assert u.degree() == 0
        assert u.parity() == (2 + 2 + 1) % 2
        v = IntegralForm(R22, 1)
        assert v.degree() == 2
        w = u + v
        assert w.degree() is None
        assert w.degrees() == frozenset({0, 2})

    def test_generator_is_the_full_odd_window(self):
        s0 = IntegralForm.cohomology_generator(R22)
        expected = SuperPoly.from_monomial(
            P22, {"th1": 1, "th2": 1, "pdz1": 1, "pdz2": 1})
        assert s0.poly == expected
        assert s0.degree() == 0

    def test_base_polynomials_are_lifted(self):
        u = IntegralForm(R11, gen(R11.table, "z"))
        assert u.poly.table == P11
        assert u == IntegralForm(R11, gen(P11, "z"))

    def test_times_accepts_both_layers(self):
        u = IntegralForm(R11, 1)
        v = u.times(gen(R11.table, "z")).times(gen(P11, "pdz"))
        assert v.poly == gen(P11, "z") * gen(P11, "pdz")

    def test_seeded_absorbed_twins_read_alike(self):
        # an even letter may sit in the key or in a quotient coefficient
        rng = random.Random(3)
        ftab = form_table(R11.table)
        forms = [SuperPoly.one(ftab), gen(ftab, "dz"), gen(ftab, "dth"),
                 gen(ftab, "z") * gen(ftab, "dth") ** 2]
        polys = [gen(P11, "z") * gen(P11, "pdth") ** 2 + gen(P11, "th") * gen(P11, "pdz"),
                 gen(P11, "pdth").scale(RationalFunction(SuperPoly.one(P11), gen(P11, "z")))]
        polys += [random_superpoly(rng, P11, terms=3, max_exp=2) for _ in range(10)]
        for poly in polys:
            u = IntegralForm(R11, poly)
            twin = IntegralForm(R11, absorb_even_exponents(u.poly))
            assert twin == u
            assert twin.degrees() == u.degrees()
            assert str(twin) == str(u)
            for omega in forms:
                assert outcome(pair, twin, omega) == outcome(pair, u, omega)
            assert outcome(_density_coefficient, twin) == \
                outcome(_density_coefficient, u)

    def test_no_product_of_integral_forms(self):
        u = IntegralForm(R11, 1)
        with pytest.raises(TypeError):
            u * u


class TestSpencerDelta:
    def test_single_contraction_example(self):
        u = IntegralForm(R11, gen(P11, "th") * gen(P11, "z") ** 2
                         * gen(P11, "pdz"))
        out = spencer_delta(u)
        assert out.poly == (gen(P11, "z") * gen(P11, "th")).scale(2)

    def test_sign_follows_the_symbol_parity(self):
        # same shape of element, opposite sign on an even-dimensional chart
        f = gen(P22, "th1") * gen(P22, "th2") * gen(P22, "z1") ** 2
        u = IntegralForm(R22, f * gen(P22, "pdz1"))
        expected = -(gen(P22, "z1") * gen(P22, "th1")
                     * gen(P22, "th2")).scale(2)
        assert spencer_delta(u).poly == expected

    def test_generator_is_closed(self):
        for chart in (R11, R22, Chart(("z1", "z2"), ("th1",))):
            s0 = IntegralForm.cohomology_generator(chart)
            assert spencer_delta(s0).is_zero()

    def test_nilpotent(self):
        rng = random.Random(405)
        for _ in range(30):
            u = IntegralForm(R22, random_superpoly(rng, P22,
                                                   terms=4, max_exp=2))
            assert spencer_delta(spencer_delta(u)).is_zero()

    def test_expansion_on_degree_one_polyvectors(self):
        rng = random.Random(406)
        base_parity = (R22.p + R22.q) % 2
        checked = 0
        for _ in range(60):
            xpar = rng.choice([0, 1])
            fpar = rng.choice([0, 1])
            comps = {}
            for name in R22.coordinate_names:
                want = (xpar + R22.table.parity(name)) % 2
                comp = random_superpoly(rng, R22.table, parity=want,
                                        terms=2, max_exp=1)
                if not comp.is_zero():
                    comps[name] = transport(comp, P22)
            f = transport(random_superpoly(rng, R22.table, parity=fpar,
                                           terms=2, max_exp=2), P22)
            if f.is_zero() or not comps:
                continue
            checked += 1
            pv = SuperPoly.zero(P22)
            for name, comp in comps.items():
                pv = pv + comp * gen(P22, polyvector_name(name))
            u = IntegralForm(R22, f * pv)
            expected = SuperPoly.zero(P22)
            for name, comp in comps.items():
                pa = P22.parity(name)
                term = (f * comp).left_derivative(name)
                if pa and (fpar + xpar + pa) % 2:
                    term = -term
                expected = expected + term
            if (xpar + base_parity + fpar + 1) % 2:
                expected = -expected
            assert spencer_delta(u) == IntegralForm(R22, expected)
        assert checked >= 40

    def test_derivation_in_the_polyvector_slot(self):
        # the differential is a derivation over the polyvector product when
        # the function content sits in the density slot, i.e. the two
        # polyvector factors have constant coefficients
        rng = random.Random(407)
        checked = 0
        for _ in range(50):
            pv, pw = rng.choice([0, 1]), rng.choice([0, 1])
            v = _random_polyvector(rng, pv)
            w = _random_polyvector(rng, pw)
            f = transport(random_superpoly(rng, R22.table,
                                           terms=2, max_exp=1), P22)
            if v.is_zero() or w.is_zero() or f.is_zero():
                continue
            checked += 1
            base = IntegralForm(R22, f)
            lhs = spencer_delta(base.times(v * w))
            first = spencer_delta(base.times(v)).times(w)
            second = spencer_delta(base.times(w)).times(v)
            rhs = first - second if (pv and pw) else first + second
            assert lhs == rhs
        assert checked >= 25


def _random_polyvector(rng, parity):
    """A parity-homogeneous polynomial in the polyvector letters with
    rational coefficients."""
    out = SuperPoly.zero(P22)
    for _ in range(2):
        word = SuperPoly.one(P22)
        odd_count = rng.choice([k for k in (0, 1, 2) if k % 2 == parity])
        for name in rng.sample(["pdz1", "pdz2"], odd_count):
            word = word * gen(P22, name)
        for name in ("pdth1", "pdth2"):
            if rng.random() < 0.5:
                word = word * gen(P22, name) ** rng.randint(1, 2)
        out = out + word.scale(random_rational(rng))
    return out


class TestHomotopy:
    def test_explicit_value(self):
        u = IntegralForm(R11, gen(P11, "z") * gen(P11, "pdth"))
        expected = (gen(P11, "z") * gen(P11, "th")
                    * gen(P11, "pdth") ** 2).scale(Fraction(1, 4)) \
            - (gen(P11, "z") ** 2 * gen(P11, "pdz")
               * gen(P11, "pdth")).scale(Fraction(1, 4))
        assert homotopy_int(u) == IntegralForm(R11, expected)

    def test_generator_maps_to_zero(self):
        for chart in (R11, R22):
            s0 = IntegralForm.cohomology_generator(chart)
            assert homotopy_int(s0).is_zero()
            assert cohomology_projection(s0) == s0
            assert anticommutator(s0).is_zero()

    def test_identity_on_random_elements(self):
        rng = random.Random(408)
        for chart, table in ((R11, P11), (R22, P22)):
            for _ in range(40):
                u = IntegralForm(chart, random_superpoly(rng, table,
                                                         terms=4, max_exp=2))
                assert anticommutator(u) == u - cohomology_projection(u)

    def test_identity_with_no_odd_coordinates(self):
        chart = Chart(("z1", "z2"), ())
        table = polyvector_table(chart)
        rng = random.Random(409)
        for _ in range(20):
            u = IntegralForm(chart, random_superpoly(rng, table,
                                                     terms=3, max_exp=2))
            assert anticommutator(u) == u - cohomology_projection(u)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_absorbed_twin_has_the_same_homotopy(self, shape):
        chart = Chart.standard(*shape)
        rng = random.Random(411)
        for _ in range(15):
            u = IntegralForm(chart, random_superpoly(rng, polyvector_table(chart),
                                                     terms=4, max_exp=2))
            twin = IntegralForm(chart, absorb_even_exponents(u.poly))
            assert str(homotopy_int(twin)) == str(homotopy_int(u))
            assert anticommutator(twin) == twin - cohomology_projection(twin)

    def test_quotient_is_refused(self):
        z = gen(P11, "z")
        u = IntegralForm(R11, gen(P11, "pdth") * RationalFunction(SuperPoly.one(P11), z))
        with pytest.raises(ValueError, match="non-polynomial coefficient"):
            homotopy_int(u)

    def test_exact_elements_are_fully_recovered(self):
        rng = random.Random(410)
        for _ in range(25):
            v = IntegralForm(R22, random_superpoly(rng, P22,
                                                   terms=3, max_exp=2))
            u = spencer_delta(v)
            assert cohomology_projection(u).is_zero()
            assert anticommutator(u) == u


class TestCohomologyProjection:
    def test_keeps_only_generator_multiples(self):
        s0 = IntegralForm.cohomology_generator(R22)
        u = s0.scale(Fraction(5, 3)) \
            + s0.times(gen(P22, "z1")) \
            + IntegralForm(R22, gen(P22, "pdz1") * gen(P22, "th1")
                           * gen(P22, "th2"))
        assert cohomology_projection(u) == s0.scale(Fraction(5, 3))

    def test_coefficient_must_be_constant(self):
        s0 = IntegralForm.cohomology_generator(R11)
        assert cohomology_projection(s0.times(gen(P11, "z"))).is_zero()


class TestPair:
    def test_dual_basis(self):
        sig = IntegralForm(R11, gen(P11, "pdz"))
        ftab = form_table(R11.table)
        assert pair(sig, gen(ftab, "dz")) == IntegralForm(R11, 1)

    def test_unit_and_functions(self):
        s0 = IntegralForm.cohomology_generator(R11)
        assert pair(s0, SuperPoly.one(R11.table)) == s0
        f = gen(R11.table, "z") ** 2
        sig = IntegralForm(R11, gen(P11, "pdth") ** 2)
        assert pair(sig, f) == sig.times(f)

    def test_even_letters_contract_with_multiplicity(self):
        sig = IntegralForm(R11, gen(P11, "pdth") ** 2)
        ftab = form_table(R11.table)
        dth = gen(ftab, "dth")
        assert pair(sig, dth).poly == gen(P11, "pdth").scale(2)
        assert pair(sig, dth * dth).poly == SuperPoly.constant(P11, 2)

    def test_degree_overflow_is_an_error(self):
        ftab = form_table(R11.table)
        plain = IntegralForm(R11, 1)
        with pytest.raises(ValueError):
            pair(plain, gen(ftab, "dz"))

    def test_foreign_form_is_an_error(self):
        sig = IntegralForm(R11, gen(P11, "pdz"))
        with pytest.raises(ValueError):
            pair(sig, gen(form_table(R22.table), "dz1"))

    def test_associative_against_the_wedge(self):
        rng = random.Random(411)
        ftab = form_table(R22.table)
        checked = 0
        for _ in range(70):
            sig = _dense_integral_form(rng, R22, P22, pv_min=2)
            om1 = _dense_form(rng, R22, ftab, fiber_max=1)
            om2 = _dense_form(rng, R22, ftab, fiber_max=1)
            if sig.is_zero() or om1.is_zero() or om2.is_zero():
                continue
            checked += 1
            assert pair(pair(sig, om1), om2) == pair(sig, om1 * om2)
        assert checked >= 30

    def test_leibniz_against_the_differential(self):
        rng = random.Random(412)
        for chart, table in ((R11, P11), (R22, P22)):
            ftab = form_table(chart.table)
            checked = 0
            for _ in range(100):
                spar = rng.choice([0, 1])
                sig = _dense_integral_form(
                    rng, chart, table, pv_min=2,
                    parity=(spar + chart.p + chart.q) % 2)
                om = _dense_form(rng, chart, ftab, fiber_max=1)
                if sig.is_zero() or om.is_zero() or sig.parity() is None:
                    continue
                checked += 1
                lhs = spencer_delta(pair(sig, om))
                rhs = pair(spencer_delta(sig), om)
                tail = pair(sig, d(om))
                rhs = rhs + tail if spar == 0 else rhs - tail
                assert lhs == rhs
            assert checked >= 30

    def test_matches_the_right_derivative_reference(self):
        draws = list(pair_draws(600, 2231))
        assert pair_mismatches(draws) == 0
        values = [outcome(pair, u, om) for u, om in draws]
        refused = sum(v.startswith("refused") for v in values)
        assert 100 < refused < 400
        assert sum(v != "Ber @ 0" for v in values) - refused > 150

    def test_a_dropped_koszul_sign_is_caught(self, monkeypatch):
        action = integral_forms._form_action

        def u_counted_even(omega, poly):
            if omega.parity() == 1:     # undo the parity involution on u
                even, odd = poly.homogeneous_parts()
                poly = even - odd
            return action(omega, poly)
        monkeypatch.setattr(integral_forms, "_form_action", u_counted_even)
        assert pair_mismatches(pair_draws(600, 2231)) > 40

    def test_a_dropped_degree_sign_is_caught(self, monkeypatch):
        action = integral_forms._form_action

        def unsigned(omega, poly):     # undo (-1)^{deg omega}
            table = omega.table
            return action(SuperPoly(table, {
                m: -c if fiber_degree(table, m) % 2 else c
                for m, c in omega.terms.items()}), poly)
        monkeypatch.setattr(integral_forms, "_form_action", unsigned)
        assert pair_mismatches(pair_draws(600, 2231)) > 40

    def test_quotient_functions_move_from_the_form_to_the_density(self):
        # both sides of the pairing carry quotients in every third draw
        rng = random.Random(2232)
        for chart, table in ((R11, P11), (R22, P22)):
            ftab = form_table(chart.table)
            checked = 0
            for k in range(60):
                sig = _dense_integral_form(rng, chart, table, pv_min=2)
                if k % 3 == 0:
                    sig = sig.times(SuperPoly.constant(
                        chart.table, quotient(rng, chart.table)))
                om = _dense_form(rng, chart, ftab, fiber_max=2)
                g = SuperPoly.constant(chart.table, quotient(rng, chart.table))
                lhs = pair(sig, transport(g, ftab) * om)
                assert lhs == pair(sig.times(g), om)
                assert lhs == reference_pair(sig, transport(g, ftab) * om)
                assert all("pd" not in str(c) for c in lhs.poly.terms.values())
                checked += not lhs.is_zero()
            assert checked >= 25

    def test_one_action_serves_the_pairing_and_the_delta_product(self, monkeypatch):
        calls = []
        action = integral_forms._form_action

        def counted(omega, poly):
            calls.append(omega.table)
            return action(omega, poly)

        def refused(*args):
            raise AssertionError("a right derivative was taken")
        monkeypatch.setattr(integral_forms, "_form_action", counted)
        monkeypatch.setattr(pseudoforms, "_form_action", counted)
        monkeypatch.setattr(SuperPoly, "right_derivative", refused)
        ftab = form_table(R11.table)
        sig = IntegralForm(R11, gen(P11, "pdz") * gen(P11, "pdth"))
        assert pair(sig, gen(ftab, "dz")) == IntegralForm(R11, gen(P11, "pdth"))
        assert len(calls) == 2      # the even and the odd part of the form
        pseudoforms.form_times_delta(gen(ftab, "dz"), pseudoforms.from_integral_form(sig))
        assert len(calls) == 3


def _dense_integral_form(rng, chart, table, pv_min, parity=None):
    """Coefficient functions times polyvector words of at least pv_min
    letters, optionally of a fixed total parity."""
    out = SuperPoly.zero(table)
    for _ in range(2):
        word = SuperPoly.one(table)
        letters = 0
        odd_pool = [polyvector_name(n) for n in chart.even_names]
        for name in rng.sample(odd_pool, rng.randint(0, len(odd_pool))):
            word = word * gen(table, name)
            letters += 1
        for name in chart.odd_names:
            k = rng.randint(0, 2)
            if k:
                word = word * gen(table, polyvector_name(name)) ** k
                letters += k
        if letters < pv_min:
            continue
        want = None
        if parity is not None:
            want = (parity + word.parity()) % 2
        coeff = random_superpoly(rng, chart.table, parity=want,
                                 terms=2, max_exp=1)
        out = out + transport(coeff, table) * word
    return IntegralForm(chart, out)


def _dense_form(rng, chart, ftab, fiber_max):
    """Coefficient functions times at most fiber_max fiber letters."""
    out = SuperPoly.zero(ftab)
    for _ in range(2):
        word = SuperPoly.one(ftab)
        names = [f"d{n}" for n in chart.coordinate_names]
        for name in rng.sample(names, rng.randint(0, fiber_max)):
            word = word * gen(ftab, name)
        coeff = random_superpoly(rng, chart.table, terms=2, max_exp=1)
        out = out + transport(coeff, ftab) * word
    return out
