"""Forms, the differential, the scaling homotopy, pullback, and the
operator-valued complex."""

import random
from fractions import Fraction

import pytest

from supercalc.algebra import (
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    transport,
)
from supercalc.charts import Chart, CoordinateMap, compose_maps, conic_transition
from supercalc.derham import (
    UniversalElement,
    base_coordinate_names,
    con3_identity_factor,
    d,
    degree_parts,
    fiber_degree,
    form_table,
    homotopy_h,
    pullback_form,
    script_D,
    script_H,
)
from supercalc.randoms import random_split_map, random_superpoly

R12 = GeneratorTable.chart(["x"], ["th1", "th2"])
E12 = form_table(R12)


def gen(table, name):
    return SuperPoly.generator(table, name)


class TestFormTable:
    def test_names_fiber_first(self):
        assert E12.names == ("dx", "dth1", "dth2", "x", "th1", "th2")

    def test_parity_flip(self):
        assert E12.parity("dx") == 1
        assert E12.parity("dth1") == 0
        assert E12.parity("x") == 0
        assert E12.parity("th1") == 1

    def test_classes(self):
        assert E12.classes[:3] == (FIBER_ODD, FIBER_EVEN, FIBER_EVEN)
        assert E12.classes[3:] == (EVEN_BASE, ODD_BASE, ODD_BASE)

    def test_rejects_non_chart_table(self):
        with pytest.raises(ValueError):
            form_table(E12)

    def test_transport_round_trip(self):
        f = gen(R12, "x") * gen(R12, "th1") + SuperPoly.constant(R12, 3)
        assert transport(transport(f, E12), R12) == f


class TestDifferential:
    def test_d_of_coordinates(self):
        assert d(transport(gen(R12, "x"), E12)) == gen(E12, "dx")
        assert d(transport(gen(R12, "th1"), E12)) == gen(E12, "dth1")

    def test_d_of_odd_product(self):
        omega = d(transport(gen(R12, "th1") * gen(R12, "th2"), E12))
        expected = (gen(E12, "th2") * gen(E12, "dth1")
                    - gen(E12, "th1") * gen(E12, "dth2"))
        assert omega == expected

    def test_d_squared_zero(self):
        rng = random.Random(101)
        for _ in range(25):
            f = transport(random_superpoly(rng, R12, max_exp=3), E12)
            assert d(d(f)).is_zero()
            omega = f * gen(E12, "dx") + f * gen(E12, "dth2")
            assert d(d(omega)).is_zero()

    def test_graded_leibniz(self):
        x, th1 = gen(E12, "x"), gen(E12, "th1")
        f = x * th1          # odd
        g = gen(E12, "th2")  # odd
        assert d(f * g) == d(f) * g - f * d(g)
        h = x * x            # even
        assert d(h * g) == d(h) * g + h * d(g)

    def test_d_with_rational_function_coefficients(self):
        z = gen(E12, "x")
        omega = SuperPoly.constant(E12, Fraction(1)) * RationalFunction(
            SuperPoly.one(E12), z)
        # d(1/x) = -dx/x^2
        expected = gen(E12, "dx") * RationalFunction(-SuperPoly.one(E12), z * z)
        assert d(omega) == expected


class TestHomotopy:
    def test_insertion_examples(self):
        assert homotopy_h(gen(E12, "dx")) == gen(E12, "x")
        omega = gen(E12, "x") * gen(E12, "dx")
        assert homotopy_h(omega) == (gen(E12, "x") ** 2).scale(Fraction(1, 2))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            homotopy_h(transport(gen(R12, "x"), E12))

    def test_stated_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            homotopy_h(gen(E12, "dx"), k=2)

    def test_rational_function_rejected(self):
        z = gen(E12, "x")
        omega = gen(E12, "dx") * RationalFunction(SuperPoly.one(E12), z)
        with pytest.raises(ValueError, match="unsupported"):
            homotopy_h(omega)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_homotopy_identity(self, seed):
        rng = random.Random(seed)
        fibers = {
            1: [("dx",), ("dth1",), ("dth2",)],
            2: [("dx", "dth1"), ("dth1", "dth2"), ("dth2", "dth2")],
            3: [("dx", "dth1", "dth2"), ("dth1", "dth1", "dth2")],
        }
        for k, words in fibers.items():
            omega = SuperPoly.zero(E12)
            for word in words:
                f = transport(random_superpoly(rng, R12, max_exp=2), E12)
                for name in word:
                    f = f * gen(E12, name)
                omega = omega + f
            parts = degree_parts(omega)
            assert set(parts) <= {k}
            if not omega.is_zero():
                assert homotopy_h(d(omega)) + d(homotopy_h(omega)) == omega

    def test_homotopy_identity_r22(self):
        rng = random.Random(11)
        base = GeneratorTable.chart(["x", "y"], ["th1", "th2"])
        ext = form_table(base)
        omega = (transport(random_superpoly(rng, base, max_exp=2), ext)
                 * gen(ext, "dx") * gen(ext, "dth2"))
        if not omega.is_zero():
            assert homotopy_h(d(omega)) + d(homotopy_h(omega)) == omega


class TestPullbackForm:
    def test_identity_map(self):
        c = Chart(["x"], ["th1", "th2"], "U")
        m = CoordinateMap.identity(c)
        omega = gen(E12, "dx") * gen(E12, "th1") + gen(E12, "dth2")
        pulled = pullback_form(m, omega)
        for mono, coeff in pulled.terms.items():
            assert omega.terms[mono] == coeff

    def test_shear_map_fiber_image(self):
        c = Chart(["x"], ["th1", "th2"], "U")
        images = {
            "x": gen(c.table, "x") + gen(c.table, "th1") * gen(c.table, "th2"),
            "th1": gen(c.table, "th1"),
            "th2": gen(c.table, "th2"),
        }
        m = CoordinateMap(c, c, images)
        pulled = pullback_form(m, gen(E12, "dx"))
        expected = (gen(E12, "dx") + gen(E12, "th2") * gen(E12, "dth1")
                    - gen(E12, "th1") * gen(E12, "dth2"))
        assert pulled == expected

    @pytest.mark.parametrize("seed", [31, 32])
    def test_pullback_commutes_with_d(self, seed):
        rng = random.Random(seed)
        src = Chart(["x", "y"], ["th1", "th2"], "U")
        tgt = Chart(["u", "v"], ["e1", "e2"], "V")
        m = random_split_map(rng, src, tgt)
        ext_t = form_table(tgt.table)
        for _ in range(4):
            f = transport(random_superpoly(rng, tgt.table, max_exp=2), ext_t)
            omega = f * gen(ext_t, "du") + f * gen(ext_t, "de1") * gen(ext_t, "e2")
            assert pullback_form(m, d(omega)) == d(pullback_form(m, omega))

    def test_pullback_commutes_with_d_conic(self):
        m = conic_transition()
        ext_t = form_table(m.target.table)
        w, psi1 = gen(ext_t, "w"), gen(ext_t, "psi1")
        omega = w * w * gen(ext_t, "dw") + psi1 * gen(ext_t, "dpsi2")
        assert pullback_form(m, d(omega)) == d(pullback_form(m, omega))

    def test_pullback_functorial(self):
        rng = random.Random(33)
        a = Chart(["x", "y"], ["th1", "th2"], "A")
        b = Chart(["u", "v"], ["e1", "e2"], "B")
        c = Chart(["s", "t"], ["f1", "f2"], "C")
        m1 = random_split_map(rng, a, b)
        m2 = random_split_map(rng, b, c)
        ext_c = form_table(c.table)
        omega = (gen(ext_c, "ds") * gen(ext_c, "f1")
                 + gen(ext_c, "df2") * gen(ext_c, "t"))
        composed = compose_maps(m1, m2)
        assert pullback_form(m1, pullback_form(m2, omega)) == pullback_form(
            composed, omega)


R11 = GeneratorTable.chart(["z"], ["th"])
E11 = form_table(R11)


def ue(fiber, deriv, f=None, coeff=1, table=E11):
    return UniversalElement.monomial(table, fiber, deriv, f, coeff)


class TestUniversalElement:
    def test_monomial_reorders_derivative_word(self):
        t = form_table(GeneratorTable.chart(["z"], ["th1", "th2"]))
        a = UniversalElement.monomial(t, (), ("th2", "th1"))
        b = UniversalElement.monomial(t, (), ("th1", "th2"))
        assert a == b.scale(-1)

    def test_monomial_duplicate_odd_derivative_vanishes(self):
        assert ue((), ("th", "th")).is_zero()

    def test_rejects_base_content_in_form_factor(self):
        with pytest.raises(ValueError, match="fiber"):
            UniversalElement(E11, {(((0, 0, 0), (E11.index("th"),)),
                                    ((0,), ())): SuperPoly.one(E11)})

    def test_script_d_on_unit(self):
        out = script_D(ue((), ()))
        assert out == ue(("dz",), ("z",)) + ue(("dth",), ("th",))

    def test_script_d_squared_zero(self):
        rng = random.Random(41)
        t = form_table(GeneratorTable.chart(["z", "w"], ["th1", "th2"]))
        base = GeneratorTable.chart(["z", "w"], ["th1", "th2"])
        for _ in range(12):
            fiber = rng.choice([(), ("dz",), ("dth1",), ("dz", "dth2"),
                                ("dth1", "dth1")])
            deriv = rng.choice([(), ("z",), ("th1",), ("z", "th2"),
                                ("w", "w", "th1")])
            f = transport(random_superpoly(rng, base, max_exp=2), t)
            u = UniversalElement.monomial(t, fiber, deriv, f)
            assert script_D(script_D(u)).is_zero()

    def test_script_h_examples(self):
        # contraction of dz against the commutator [d/dz, z] = 1
        assert script_H(ue(("dz",), ("z",))) == ue((), ())
        # no derivative word: the commutator with z vanishes
        assert script_H(ue(("dz",), ())).is_zero()

    def test_factor_on_unit_is_dimension_sum(self):
        assert con3_identity_factor(ue((), ())) == 2

    def test_factor_zero_on_density_monomial(self):
        u = ue(("dz",), ("th",))
        assert con3_identity_factor(u) == 0
        assert (script_H(script_D(u)) + script_D(script_H(u))).is_zero()

    def test_anticommutator_hand_checked_cases(self):
        # worked out by hand on the 0|1 and 1|1 charts
        t01 = form_table(GeneratorTable.chart([], ["th"]))
        unit = UniversalElement.monomial(t01, (), ())
        assert script_H(script_D(unit)) + script_D(script_H(unit)) == unit

        dth = UniversalElement.monomial(t01, ("dth",), ())
        total = script_H(script_D(dth)) + script_D(script_H(dth))
        assert total == dth.scale(2)

        u = ue(("dth",), ("z",))
        total = script_H(script_D(u)) + script_D(script_H(u))
        assert con3_identity_factor(u) == 4
        assert total == u.scale(4)

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_anticommutator_is_scalar(self, seed):
        rng = random.Random(seed)
        base = GeneratorTable.chart(["z", "w"], ["th1", "th2"])
        t = form_table(base)
        fiber_pool = ["dz", "dw", "dth1", "dth2"]
        deriv_pool = ["z", "w", "th1", "th2"]
        for _ in range(20):
            fiber = tuple(rng.choice(fiber_pool)
                          for _ in range(rng.randrange(0, 4)))
            deriv = tuple(rng.choice(deriv_pool)
                          for _ in range(rng.randrange(0, 4)))
            f = transport(random_superpoly(rng, base, max_exp=2), t)
            u = UniversalElement.monomial(t, fiber, deriv, f)
            if u.is_zero():
                continue
            total = script_H(script_D(u)) + script_D(script_H(u))
            assert total == u.scale(con3_identity_factor(u))

    def test_factor_requires_single_monomial(self):
        u = ue((), ()) + ue(("dz",), ("z",))
        with pytest.raises(ValueError):
            con3_identity_factor(u)

    def test_str_mentions_tensor_split(self):
        s = str(ue(("dz",), ("th",)))
        assert "@" in s and "dd_th" in s
