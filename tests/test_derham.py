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
    absorb_even_exponents,
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
    fiber_name,
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

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_absorbed_form_has_the_same_homotopy(self, shape):
        chart = Chart.standard(*shape)
        ext = form_table(chart.table)
        fibers = [gen(ext, "d" + n) for n in chart.coordinate_names]
        rng = random.Random(12)
        for _ in range(15):
            omega = SuperPoly.zero(ext)
            for _k in range(3):
                f = transport(random_superpoly(rng, chart.table, max_exp=2), ext)
                for _j in range(rng.randint(1, 2)):
                    f = f * rng.choice(fibers)
                omega = omega + f
            h = homotopy_h(omega)
            assert str(homotopy_h(absorb_even_exponents(omega))) == str(h)

    def test_absorbed_quotient_that_is_a_polynomial(self):
        # x^2 sits in the monomial and 1/x in its coefficient
        x = gen(E12, "x")
        quotient = x * x * RationalFunction(SuperPoly.one(E12), x)
        assert homotopy_h(gen(E12, "dx") * quotient) == homotopy_h(x * gen(E12, "dx"))

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
            UniversalElement.monomial(E11, ("th",), ())

    def test_rejects_fiber_content_in_the_coefficient(self):
        with pytest.raises(ValueError, match="function of the coordinates"):
            ue((), ("z",), gen(E11, "dz"))

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


# ---------------------------------------------------------------------------
# The operator complex term by term: the reference the polynomial rules of
# script_D and script_H are checked against.  An element is a dict
# {(fiber monomial, derivative key): f} with f a function to the right of
# the derivative word; the derivative key is (even exponents, ascending odd
# positions) of the word d_x^ell d_th^eps, and every sign is worked out per
# term.

def _sort_odd_indices(indices):
    """(sign of the sorting permutation, sorted tuple), (0, None) on a repeat."""
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return 0, None
    return sign, tuple(items)


def _deriv_key(table, word):
    """(sign, key) of a word of coordinate positions in normal order: the
    even derivatives commute with everything, the odd ones are sorted."""
    ell = tuple(word.count(pos) for pos in table.positions_of_class(EVEN_BASE))
    sign, eps = _sort_odd_indices(pos for pos in word if table.parities[pos])
    return sign, (None if sign == 0 else (ell, eps))


def _deriv_word(table, key):
    ell, eps = key
    evens = table.positions_of_class(EVEN_BASE)
    return tuple(pos for pos, k in zip(evens, ell) for _ in range(k)) + eps


def _deriv_bracket(table, key, pos):
    """[D, z] for the derivative monomial D of ``key`` and the coordinate
    at ``pos``, as (scalar, key) or None: an even z lowers its exponent,
    scaled by the exponent; an odd z is removed from eps with the sign of
    moving it past the odd derivatives to its right."""
    ell, eps = key
    if not table.parities[pos]:
        slot = table.positions_of_class(EVEN_BASE).index(pos)
        if not ell[slot]:
            return None
        lowered = ell[:slot] + (ell[slot] - 1,) + ell[slot + 1:]
        return ell[slot], (lowered, eps)
    if pos not in eps:
        return None
    i = eps.index(pos)
    return (-1) ** (len(eps) - 1 - i), (ell, eps[:i] + eps[i + 1:])


def _base_positions(table):
    return table.positions_of_class(EVEN_BASE) + table.positions_of_class(ODD_BASE)


def _accumulate(terms, key, add):
    acc = terms.get(key)
    terms[key] = add if acc is None else acc + add


def reference_monomial(table, fiber_word, deriv_word, f):
    fiber = SuperPoly.one(table)
    for name in fiber_word:
        fiber = fiber * gen(table, name)
    if fiber.is_zero():
        return {}
    (mu, c), = fiber.terms.items()
    sign, jw = _deriv_key(table, tuple(table.index(n) for n in deriv_word))
    return {} if sign == 0 else {(mu, jw): f.scale(c * sign)}


def reference_script_D(table, terms):
    out = {}
    for (mu, jw), f in terms.items():
        mu_poly = SuperPoly(table, {mu: 1})
        word = _deriv_word(table, jw)
        for pos in _base_positions(table):
            sign = -1 if (table.parities[pos] and mu_poly.parity()) else 1
            prod = gen(table, "d" + table.names[pos]) * mu_poly
            if prod.is_zero():
                continue
            (new_mu, c), = prod.terms.items()
            extra, new_jw = _deriv_key(table, (pos,) + word)
            if extra:
                _accumulate(out, (new_mu, new_jw), f.scale(sign * c * extra))
    return out


def reference_script_H(table, terms):
    out = {}
    for (mu, jw), f in terms.items():
        mu_poly = SuperPoly(table, {mu: 1})
        dj_parity = len(jw[1]) % 2
        for pos in _base_positions(table):
            sign = -1 if (table.parities[pos] and (mu_poly.parity() + dj_parity + 1) % 2) else 1
            contracted = mu_poly.left_derivative("d" + table.names[pos])
            bracket = _deriv_bracket(table, jw, pos)
            if contracted.is_zero() or bracket is None:
                continue
            scalar, jw2 = bracket
            for new_mu, c_mu in contracted.terms.items():
                _accumulate(out, (new_mu, jw2), f.scale(sign * c_mu * scalar))
    return out


def reference_factor(table, terms):
    (mu, (ell, eps)), = terms
    p = len(table.positions_of_class(EVEN_BASE))
    q = len(table.positions_of_class(ODD_BASE))
    return (p + q + table.degree(mu, FIBER_EVEN) + sum(ell)
            - table.degree(mu, FIBER_ODD) - len(eps))


def from_reference(table, terms):
    """The element a term dict stands for, built through the public builder."""
    out = UniversalElement.zero(table)
    for (mu, jw), f in terms.items():
        fiber_word = [table.names[pos] for pos, k in table.powers(mu) for _ in range(k)]
        deriv_word = [table.names[pos] for pos in _deriv_word(table, jw)]
        out = out + UniversalElement.monomial(table, fiber_word, deriv_word, f)
    return out


_SHAPES = [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def _random_words(rng, chart):
    fiber = [fiber_name(rng.choice(chart.coordinate_names))
             for _ in range(rng.randrange(0, 4))]
    deriv = [rng.choice(chart.coordinate_names) for _ in range(rng.randrange(0, 4))]
    return fiber, deriv


def _random_pair(rng, chart, table, n_terms):
    """One element, as a UniversalElement and as a reference term dict."""
    u, ref = UniversalElement.zero(table), {}
    for _ in range(n_terms):
        fiber, deriv = _random_words(rng, chart)
        f = transport(random_superpoly(rng, chart.table, terms=2, max_exp=2), table)
        u = u + UniversalElement.monomial(table, fiber, deriv, f)
        for key, g in reference_monomial(table, fiber, deriv, f).items():
            _accumulate(ref, key, g)
    return u, {key: g for key, g in ref.items() if not g.is_zero()}


class TestAgainstTermReference:
    @pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "%d|%d" % s)
    def test_builder_matches_the_reference(self, shape):
        chart = Chart.standard(*shape)
        table = form_table(chart.table)
        rng = random.Random(60 + 10 * shape[0] + shape[1])
        for _ in range(25):
            u, ref = _random_pair(rng, chart, table, rng.randint(1, 3))
            assert u == from_reference(table, ref)
            assert u.is_zero() == (not ref)

    @pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: "%d|%d" % s)
    def test_operators_match_the_reference(self, shape):
        chart = Chart.standard(*shape)
        table = form_table(chart.table)
        rng = random.Random(70 + 10 * shape[0] + shape[1])
        odd_f = 0
        for _ in range(30):
            u, ref = _random_pair(rng, chart, table, rng.randint(1, 3))
            odd_f += any(g.homogeneous_parts()[1] for g in ref.values())
            assert script_D(u) == from_reference(table, reference_script_D(table, ref))
            assert script_H(u) == from_reference(table, reference_script_H(table, ref))
            if len(ref) == 1:
                assert con3_identity_factor(u) == reference_factor(table, ref)
        if shape[1]:
            assert odd_f      # the draws reach odd coefficients
