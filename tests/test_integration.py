"""Berezin integration on Gaussian-class densities, Stokes and duality
checks, and the supersymmetry generators."""

import random
from fractions import Fraction

import pytest

from supercalc.algebra import SuperPoly, transport
from supercalc.charts import Chart, CoordinateMap
from supercalc.derham import d, form_table
from supercalc.diffops import DiffOp
from supercalc.integral_forms import (
    IntegralForm,
    Markers,
    homotopy_int,
    polyvector_name,
    polyvector_table,
    spencer_delta,
)
from supercalc.integration import (
    PiValue,
    berezin_integral,
    duality_pair_integral,
    gaussian_moment,
    stokes_check,
    susy_algebra_check,
    susy_generator,
    susy_variation,
)
from supercalc.randoms import random_rational, random_superpoly

R10 = Chart(("z",), (), label="R10")
R02 = Chart((), ("th1", "th2"), label="R02")
R11 = Chart(("z",), ("th",), label="R11")
R12 = Chart(("x",), ("th1", "th2"), label="R12")
R22 = Chart(("z1", "z2"), ("th1", "th2"), label="R22")

SQRT_PI = PiValue.pi_power(Fraction(1, 2))


def gen(table, name):
    return SuperPoly.generator(table, name)


def top_section(chart, coefficient_in_evens=None):
    """Ber @ f(z) th_1 .. th_q, the shape every integral reduces to."""
    poly = SuperPoly.one(chart.table)
    for name in chart.odd_names:
        poly = poly * gen(chart.table, name)
    if coefficient_in_evens is not None:
        poly = coefficient_in_evens * poly
    return IntegralForm(chart, poly)


class TestMomentOracle:
    """Freeze the even moments before anything downstream relies on them."""

    def test_recursion_reproduces_closed_form(self):
        # Integration by parts gives I_n = (2n-1)/2 * I_{n-1} with
        # I_0 = sqrt(pi); the closed form must agree through n = 6.
        value = SQRT_PI
        for n in range(7):
            assert gaussian_moment(n) == value
            value = value * Fraction(2 * (n + 1) - 1, 2)

    def test_frozen_table(self):
        halves = [Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(15, 8),
                  Fraction(105, 16), Fraction(945, 32), Fraction(10395, 64)]
        for n, c in enumerate(halves):
            assert gaussian_moment(n) == SQRT_PI * c

    def test_integral_matches_oracle_per_power(self):
        table = R11.table
        for n in range(7):
            s = top_section(R11, gen(table, "z") ** (2 * n))
            assert berezin_integral(s, gaussian=("z",)) == gaussian_moment(n)
            odd = top_section(R11, gen(table, "z") ** (2 * n + 1))
            assert berezin_integral(odd, gaussian=("z",)).is_zero()


class TestPiValue:
    def test_zero_coefficients_drop(self):
        assert PiValue({Fraction(1, 2): 0}).is_zero()
        assert PiValue() == 0
        assert not PiValue()

    def test_rejects_finer_than_half_integers(self):
        with pytest.raises(ValueError):
            PiValue({Fraction(1, 3): 1})

    def test_arithmetic(self):
        a = PiValue.rational(2) + SQRT_PI
        assert a - a == 0
        assert a.coefficient(0) == 2
        assert SQRT_PI * SQRT_PI == PiValue.pi_power(1)
        assert SQRT_PI * PiValue.pi_power(Fraction(-1, 2)) == 1
        assert 3 * SQRT_PI == SQRT_PI + SQRT_PI + SQRT_PI
        assert (a * a).coefficient(Fraction(1, 2)) == 4

    def test_str(self):
        assert str(PiValue()) == "0"
        assert str(SQRT_PI) == "sqrt(pi)"
        assert str(PiValue.pi_power(1, Fraction(-5, 2))) == "-5/2*pi"
        assert str(PiValue.rational(3) + PiValue.pi_power(Fraction(3, 2))) \
            == "3 + pi^(3/2)"

    def test_rejects_foreign_operands(self):
        with pytest.raises(TypeError):
            SQRT_PI * 0.5

    def test_values_are_unhashable_and_equal_numbers(self):
        # equal to 1 yet hashed apart from it, a PiValue would break sets
        # and dict keys, so it is unhashable like every other value type
        for value in (PiValue(), PiValue.rational(1), SQRT_PI):
            with pytest.raises(TypeError):
                hash(value)
        assert PiValue() == 0
        assert PiValue.rational(1) == 1
        assert PiValue.rational(Fraction(3, 2)) == Fraction(3, 2)
        assert Fraction(3, 2) == PiValue.rational(Fraction(3, 2))
        assert SQRT_PI != 1


class TestGaussianIntegrand:
    """A density and the markers of its even coordinates: the keywords of
    berezin_integral, which Markers normalizes, checks and prints."""

    def test_every_even_coordinate_needs_a_marker(self):
        with pytest.raises(ValueError, match="'z2' carries no Gaussian weight, "
                           "point evaluation, or formal marker"):
            berezin_integral(top_section(R22), gaussian=("z1",))
        # markers describe any set of coordinates; coverage is the integral's
        assert Markers.of(gaussian=("z1",)).check(R22)

    def test_markers_are_exclusive(self):
        for kwargs in ({"gaussian": ("z",), "dirac": {"z": 0}},
                       {"gaussian": ("z",), "formal": ("z",)},
                       {"dirac": {"z": 0}, "formal": ("z",)}):
            with pytest.raises(ValueError, match="at most one marker"):
                berezin_integral(top_section(R11), **kwargs)
            with pytest.raises(ValueError, match="at most one marker"):
                Markers.of(**kwargs).check(R11)

    def test_only_even_coordinates_take_markers(self):
        with pytest.raises(ValueError, match="'th' is not an even coordinate"):
            berezin_integral(top_section(R11), gaussian=("z", "th"))
        for kwargs in ({"dirac": {"w": 1}}, {"formal": ("w",)},
                       {"gaussian": ("w", "z"), "dirac": {"z": 0}}):
            with pytest.raises(ValueError, match="'w' is not an even coordinate"):
                Markers.of(**kwargs).check(R11)
        with pytest.raises(ValueError, match="'a' is not"):    # the least name
            Markers.of(gaussian=("b", "a")).check(R11)

    def test_formal_refuses_integration(self):
        with pytest.raises(ValueError, match="divergent/formal variable: z"):
            berezin_integral(top_section(R11), formal=("z",))

    def test_str_lists_markers(self):
        m = Markers.of(gaussian=("z1",), dirac={"z2": Fraction(1, 2)})
        assert str(m) == "gauss(z1) dirac(z2,1/2)"
        m = Markers.of(gaussian=("z2", "z1"), dirac={"w2": 3, "w1": "-1/2"},
                       formal=("y2", "y1"))
        assert str(m) == "gauss(z1,z2) dirac(w1,-1/2) dirac(w2,3) formal(y1,y2)"
        assert str(Markers.none()) == "" and not Markers.none() and m

    def test_of_normalizes_the_keywords(self):
        m = Markers.of(gaussian=["z1"], dirac=[("z2", 1), ("z2", "3/2")])
        assert m == Markers(frozenset({"z1"}), (("z2", Fraction(3, 2)),),
                            frozenset())
        assert Markers.of(**m.kwargs()) == m
        assert Markers.of() == Markers.none()
        # merging joins the tags and refuses a second pin on a name, from
        # either side or from within one
        later = Markers.of(gaussian=["z3"], dirac={"z0": 0})
        assert m.merged(later) == Markers.of(
            gaussian=["z1", "z3"], dirac={"z0": 0, "z2": Fraction(3, 2)})
        twice = Markers(frozenset(), (("z0", 1), ("z0", 1)), frozenset())
        for a, b in ((m, Markers.of(dirac={"z2": 5})),
                     (Markers.of(dirac={"z2": 5}), m),
                     (Markers.none(), twice), (twice, Markers.none())):
            with pytest.raises(ValueError, match="at most one marker"):
                a.merged(b)
        # so does a Gaussian weight on one name from both sides, while the
        # library's keywords keep their set semantics
        assert Markers.of(gaussian=["z1", "z1"]) == Markers.of(gaussian=["z1"])
        for b in (Markers.of(gaussian=["z1"]), Markers.of(gaussian=["z3", "z1"])):
            with pytest.raises(ValueError, match="at most one marker"):
                m.merged(b)
            with pytest.raises(ValueError, match="at most one marker"):
                b.merged(m)


class TestBerezinIntegral:
    def test_purely_odd_chart(self):
        assert berezin_integral(top_section(R02)) == 1

    def test_dirac_pinned_line(self):
        assert berezin_integral(top_section(R12), dirac={"x": 0}) == 1

    def test_gaussian_second_moment(self):
        s = top_section(R11, gen(R11.table, "z") ** 2)
        assert berezin_integral(s, gaussian=("z",)) == SQRT_PI * Fraction(1, 2)

    def test_no_odd_coordinates(self):
        s = IntegralForm(R10, gen(R10.table, "z") ** 2)
        assert berezin_integral(s, gaussian=("z",)) == SQRT_PI * Fraction(1, 2)

    def test_lower_odd_terms_do_not_contribute(self):
        table = R12.table
        poly = (gen(table, "th1") * gen(table, "th2")
                + gen(table, "x") * gen(table, "th1")
                + SuperPoly.constant(table, 7))
        assert berezin_integral(IntegralForm(R12, poly), dirac={"x": 3}) == 1

    def test_dirac_evaluates_at_the_point(self):
        table = R12.table
        f = gen(table, "x") ** 2 + SuperPoly.constant(table, 1)
        s = top_section(R12, f)
        assert berezin_integral(s, dirac={"x": Fraction(1, 2)}) == Fraction(5, 4)

    def test_mixed_markers(self):
        table = R22.table
        f = gen(table, "z1") ** 2 * gen(table, "z2")
        s = top_section(R22, f)
        value = berezin_integral(s, gaussian=("z1",), dirac={"z2": 3})
        assert value == SQRT_PI * Fraction(3, 2)

    def test_linearity(self):
        rng = random.Random(413)
        table = R22.table
        for _ in range(25):
            f = random_superpoly(rng, table, terms=3, max_exp=3)
            g = random_superpoly(rng, table, terms=3, max_exp=3)
            c = random_rational(rng)
            lhs = berezin_integral(IntegralForm(R22, f + g.scale(c)),
                                   gaussian=("z1", "z2"))
            rhs = (berezin_integral(IntegralForm(R22, f), gaussian=("z1", "z2"))
                   + berezin_integral(IntegralForm(R22, g), gaussian=("z1", "z2"))
                   * c)
            assert lhs == rhs

    def test_rejects_other_payloads(self):
        with pytest.raises(TypeError):
            berezin_integral(SuperPoly.one(R11.table))


def _even_function(rng, table, max_exp=2):
    """A random polynomial in the even coordinates only."""
    evens = [table.names[i] for i in table.even_positions]
    out = SuperPoly.zero(table)
    for _ in range(rng.randint(1, 2)):
        mono = SuperPoly.one(table)
        for name in evens:
            mono = mono * gen(table, name) ** rng.randint(0, max_exp)
        out = out + mono.scale(random_rational(rng))
    return out


class TestChartIndependence:
    def test_odd_swap_keeps_the_value(self):
        target = Chart((), ("ps1", "ps2"), label="S")
        m = CoordinateMap(R02, target, {
            "ps1": gen(R02.table, "th2"),
            "ps2": gen(R02.table, "th1"),
        })
        s = top_section(target)
        assert berezin_integral(s) == 1
        assert berezin_integral(s.transform(m)) == 1

    def test_volume_preserving_odd_shears(self):
        rng = random.Random(414)
        for source, names in ((R12, ("x",)), (R22, ("z1", "z2"))):
            q = source.q
            target = Chart(tuple(f"w{i}" for i in range(source.p)),
                           tuple(f"ps{i}" for i in range(q)), label="S")
            for _ in range(12):
                images = {f"w{i}": gen(source.table, names[i])
                          for i in range(source.p)}
                shear = _even_function(rng, source.table)
                i, j = (0, 1) if rng.random() < 0.5 else (1, 0)
                for k in range(q):
                    th = gen(source.table, source.odd_names[k])
                    if k == i:
                        th = th + shear * gen(source.table, source.odd_names[j])
                    images[f"ps{k}"] = th
                m = CoordinateMap(source, target, images)
                f = random_superpoly(rng, target.table, terms=3, max_exp=2)
                s = IntegralForm(target, f)
                before = berezin_integral(
                    s, gaussian=tuple(target.even_names))
                after = berezin_integral(
                    s.transform(m), gaussian=tuple(source.even_names))
                assert before == after


class TestWeightedOperators:
    def test_weighted_differential_squares_to_zero(self):
        rng = random.Random(416)
        table = polyvector_table(R22)
        for _ in range(30):
            poly = random_superpoly(rng, table, terms=4, max_exp=2)
            u = IntegralForm(R22, poly)
            twice = spencer_delta(spencer_delta(u, R22.even_names), R22.even_names)
            assert twice.is_zero()

    def test_weight_contributes_minus_two_z(self):
        table = polyvector_table(R11)
        u = IntegralForm(R11, gen(table, "th") * gen(table, "pdz"))
        v = spencer_delta(u, R11.even_names)
        z, th = gen(table, "z"), gen(table, "th")
        assert v == IntegralForm(R11, (z * th).scale(-2))


class TestStokes:
    def test_weighted_line_example(self):
        table = polyvector_table(R11)
        u = IntegralForm(R11, gen(table, "z") * gen(table, "th")
                         * gen(table, "pdz"))
        value, flag = stokes_check(u)
        assert value == 0 and flag

    def test_no_odd_coordinates(self):
        table = polyvector_table(R10)
        u = IntegralForm(R10, gen(table, "z") * gen(table, "pdz"))
        assert stokes_check(u) == (PiValue(), True)

    def test_randomized_boundaries_vanish(self):
        rng = random.Random(417)
        table = polyvector_table(R22)
        letters = [polyvector_name(n) for n in R22.coordinate_names]
        for _ in range(30):
            poly = SuperPoly.zero(table)
            for _ in range(3):
                coeff = transport(
                    random_superpoly(rng, R22.table, terms=2, max_exp=2), table)
                poly = poly + coeff * gen(table, rng.choice(letters))
            u = IntegralForm(R22, poly)
            if u.is_zero():
                continue
            value, flag = stokes_check(u)
            assert value == 0 and flag

    def test_rejects_wrong_degree(self):
        u = IntegralForm.cohomology_generator(R22)
        with pytest.raises(ValueError, match="one below the top"):
            stokes_check(u)

    def test_nonzero_mass_defeats_the_polynomial_primitive(self):
        # Ber @ th has sqrt(pi) worth of Gaussian mass.  The polynomial
        # complex happily writes it as a boundary, but the primitive it
        # produces stops working once the weight enters the derivative,
        # which is exactly the exactness criterion doing its job.
        u = top_section(R11)
        mass = berezin_integral(u, gaussian=("z",))
        assert mass == SQRT_PI
        primitive = homotopy_int(u)
        assert spencer_delta(primitive) == u
        assert spencer_delta(primitive, R11.even_names) != u
        assert stokes_check(primitive)[0] == 0


class TestDualityPairing:
    def test_point_class_against_dirac_form(self):
        table = polyvector_table(R12)
        sigma0 = IntegralForm(R12, gen(table, "th1") * gen(table, "th2")
                              * gen(table, "pdx"))
        dx = gen(form_table(R12.table), "dx")
        assert duality_pair_integral(sigma0, dx, dirac={"x": 0}) == 1

    def test_gaussian_normalization(self):
        for chart in (R11, R12, R22):
            sigma = top_section(chart)
            value = duality_pair_integral(sigma, SuperPoly.one(chart.table),
                                          gaussian=chart.even_names)
            normalizer = PiValue.pi_power(Fraction(-chart.p, 2))
            assert value * normalizer == 1

    def test_degree_mismatch_raises(self):
        sigma = top_section(R12)
        dx = gen(form_table(R12.table), "dx")
        with pytest.raises(ValueError, match="not complementary"):
            duality_pair_integral(sigma, dx, dirac={"x": 0})

    def test_zero_inputs_integrate_to_zero(self):
        sigma = IntegralForm.cohomology_generator(R12)
        assert duality_pair_integral(
            sigma, SuperPoly.zero(R12.table)).is_zero()

    def test_weighted_leibniz_for_the_pairing(self):
        rng = random.Random(418)
        chart, table = R22, polyvector_table(R22)
        ftab = form_table(chart.table)
        checked = 0
        for _ in range(120):
            spar = rng.choice([0, 1])
            sig = _exact_degree_form(rng, chart, table, letters=2,
                                     parity=(spar + chart.p + chart.q) % 2)
            om = _low_form(rng, chart, ftab)
            if sig.is_zero() or om.is_zero() or sig.parity() is None:
                continue
            checked += 1
            from supercalc.integral_forms import pair
            lhs = spencer_delta(pair(sig, om), chart.even_names)
            rhs = pair(spencer_delta(sig, chart.even_names), om)
            tail = pair(sig, d(om))
            rhs = rhs + tail if spar == 0 else rhs - tail
            assert lhs == rhs
        assert checked >= 40

    def test_exact_forms_pair_to_zero_against_closed_data(self):
        # A weighted boundary against the differential of anything the
        # degrees allow: both orders of the Stokes argument at once.
        rng = random.Random(419)
        chart, table = R22, polyvector_table(R22)
        ftab = form_table(chart.table)
        checked = 0
        for _ in range(120):
            k = rng.choice([1, 2])
            tau = _exact_degree_form(rng, chart, table, letters=k + 1)
            sigma = spencer_delta(tau, chart.even_names)
            gamma = _low_form(rng, chart, ftab, fiber=k - 1)
            eta = d(gamma)
            if sigma.is_zero() or eta.is_zero() or sigma.degree() is None:
                continue
            checked += 1
            value = duality_pair_integral(sigma, eta,
                                          gaussian=chart.even_names)
            assert value.is_zero()
        assert checked >= 40


def _exact_degree_form(rng, chart, table, letters, parity=None):
    """Random integral form whose every monomial has the same number of
    polyvector letters."""
    out = SuperPoly.zero(table)
    for _ in range(2):
        n_even_letters = rng.randint(0, min(letters, chart.p))
        word = SuperPoly.one(table)
        for name in rng.sample(chart.even_names, n_even_letters):
            word = word * gen(table, polyvector_name(name))
        budget = letters - n_even_letters
        split = [0] * chart.q
        for _ in range(budget):
            split[rng.randrange(chart.q)] += 1
        for name, k in zip(chart.odd_names, split):
            word = word * gen(table, polyvector_name(name)) ** k
        want = None if parity is None else (parity + word.parity()) % 2
        coeff = random_superpoly(rng, chart.table, parity=want,
                                 terms=2, max_exp=1)
        out = out + transport(coeff, table) * word
    return IntegralForm(chart, out)


def _low_form(rng, chart, ftab, fiber=None):
    """Random differential form, either mixed up to degree one or of one
    exact fiber degree."""
    out = SuperPoly.zero(ftab)
    names = [f"d{n}" for n in chart.coordinate_names]
    for _ in range(2):
        word = SuperPoly.one(ftab)
        count = rng.randint(0, 1) if fiber is None else fiber
        for name in rng.sample(names, min(count, len(names))):
            word = word * gen(ftab, name)
        coeff = random_superpoly(rng, chart.table, terms=2, max_exp=1)
        out = out + transport(coeff, ftab) * word
    return out


class TestSusy:
    def test_line_generator_and_relation(self):
        gamma = (((2,),),)
        Q = susy_generator(R11, gamma, 0)
        table = R11.table
        expected = DiffOp.partial(table, "th") \
            + DiffOp.partial(table, "z").left_multiply(gen(table, "th"))
        assert Q == expected
        assert Q.bracket(Q) == DiffOp.partial(table, "z").scale(2)
        assert susy_algebra_check(R11, gamma)

    def test_two_charges_on_the_line(self):
        gamma = (((2, 0), (0, 2)),)
        assert susy_algebra_check(R12, gamma)
        q0 = susy_generator(R12, gamma, 0)
        q1 = susy_generator(R12, gamma, 1)
        assert q0.bracket(q1) == DiffOp.zero(R12.table)

    def test_off_diagonal_structure(self):
        gamma = (((2, 1), (1, 0)),)
        assert susy_algebra_check(R12, gamma)
        q0 = susy_generator(R12, gamma, 0)
        q1 = susy_generator(R12, gamma, 1)
        assert q0.bracket(q1) == DiffOp.partial(R12.table, "x")

    def test_two_even_directions(self):
        gamma = (((2, 0), (0, 2)), ((0, 1), (1, 0)))
        assert susy_algebra_check(R22, gamma)

    def test_zero_tensor_is_abelian(self):
        gamma = (((0, 0), (0, 0)),)
        assert susy_algebra_check(R12, gamma)
        assert susy_generator(R12, gamma, 0) == DiffOp.partial(R12.table, "th1")

    def test_asymmetric_tensor_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            susy_generator(R12, (((1, 2), (3, 4)),), 0)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ValueError, match="one per even coordinate"):
            susy_generator(R12, (), 0)
        with pytest.raises(ValueError, match="by 2"):
            susy_generator(R12, (((1,),),), 0)
        with pytest.raises(ValueError, match="out of range"):
            susy_generator(R12, (((2, 0), (0, 2)),), 5)

    def test_field_and_operator_agree(self):
        # Q_a = d_th_a + (1/2) sum_b gamma_ab th_b d_x, built letter by letter
        gamma = (((2, 1), (1, 4)),)
        table = R12.table
        d_x = DiffOp.partial(table, "x")
        for a in range(2):
            expected = DiffOp.partial(table, R12.odd_names[a])
            for b, th in enumerate(R12.odd_names):
                half = Fraction(gamma[0][a][b], 2)
                expected = expected + d_x.left_multiply(gen(table, th).scale(half))
            field = susy_generator(R12, gamma, a)
            assert field == expected
            assert field.parity() == 1

    def test_superfield_variation_vanishes(self):
        table = R11.table
        z, th = gen(table, "z"), gen(table, "th")
        lagrangian = IntegralForm(R11, z ** 2 + th * z ** 3)
        assert susy_variation(lagrangian, (((2,),),), 0) == 0

    def test_randomized_variations_vanish(self):
        rng = random.Random(420)
        cases = (
            (R11, (((2,),),)),
            (R12, (((2, 0), (0, 2)),)),
            (R12, (((2, 1), (1, 0)),)),
            (R22, (((2, 0), (0, 2)), ((0, 1), (1, 0)))),
        )
        checked = 0
        for chart, gamma in cases:
            for _ in range(4):
                lagrangian = IntegralForm(
                    R11 if chart is R11 else chart,
                    random_superpoly(rng, chart.table, terms=4, max_exp=3))
                for a in range(chart.q):
                    assert susy_variation(lagrangian, gamma, a) == 0
                    checked += 1
        assert checked >= 10

    def test_purely_odd_degenerate_case(self):
        lagrangian = top_section(R02)
        assert susy_variation(lagrangian, (), 0) == 0
