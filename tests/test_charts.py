"""Coordinate maps: pullback, Jacobians, the Berezinian cocycle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from supercalc.algebra import RationalFunction, SuperPoly, absorb_even_exponents
from supercalc.charts import (
    Chart,
    CoordinateMap,
    cocycle_check,
    compose_maps,
    conic_transition,
)
from supercalc.supermatrix import SuperMatrix, berezinian


def build_conic_pair():
    m = conic_transition()
    back = conic_transition(z="w", w="z",
                            source_odds=("psi1", "psi2"),
                            target_odds=("th1", "th2"))
    # reuse m's charts so the tables are identical objects structurally
    m2 = CoordinateMap(m.target, m.source, back.images)
    return m, m2


@pytest.mark.parametrize("p, q", [(-1, 1), (1, -1)])
def test_standard_chart_refuses_negative_dimensions(p, q):
    with pytest.raises(ValueError, match="nonnegative"):
        Chart.standard(p, q)


# ---------------------------------------------------------------------------
# pullback

def test_identity_pullback():
    U = Chart(["x"], ["th1"])
    m = CoordinateMap.identity(U)
    f = U.generator("x") * U.generator("th1")
    assert m.pullback(f) == f


def test_conic_image_of_even_coordinate():
    m = conic_transition()
    w = SuperPoly.generator(m.target.table, "w")
    got = m.pullback(w)
    U = m.source
    z = SuperPoly.generator(U.table, "z")
    th1 = SuperPoly.generator(U.table, "th1")
    th2 = SuperPoly.generator(U.table, "th2")
    inv_z = SuperPoly.constant(U.table, RationalFunction(SuperPoly.one(U.table), z))
    inv_z3 = SuperPoly.constant(U.table, RationalFunction(SuperPoly.one(U.table), z ** 3))
    assert got == inv_z + th1 * th2 * inv_z3


def test_pullback_is_homomorphism():
    rng = random.Random(5)
    from supercalc.randoms import random_split_map, random_superpoly
    U = Chart(["x", "y"], ["th1", "th2"])
    V = Chart(["u", "v"], ["e1", "e2"])
    m = random_split_map(rng, U, V)
    for _ in range(10):
        f = random_superpoly(rng, V.table)
        g = random_superpoly(rng, V.table)
        assert m.pullback(f * g) == m.pullback(f) * m.pullback(g)
        assert m.pullback(f + g) == m.pullback(f) + m.pullback(g)


def test_map_validation():
    U = Chart(["x"], ["th1"])
    V = Chart(["u"], ["e1"])
    x = SuperPoly.generator(U.table, "x")
    th = SuperPoly.generator(U.table, "th1")
    with pytest.raises(ValueError, match="cover exactly"):
        CoordinateMap(U, V, {"u": x})
    with pytest.raises(ValueError, match="parity"):
        CoordinateMap(U, V, {"u": th, "e1": x})


# ---------------------------------------------------------------------------
# Jacobian

def test_identity_jacobian():
    U = Chart(["x", "y"], ["th1"])
    jac = CoordinateMap.identity(U).jacobian()
    one = SuperPoly.one(U.table)
    assert jac.A[0][0] == one and jac.A[1][1] == one
    assert jac.A[0][1].is_zero() and jac.A[1][0].is_zero()
    assert jac.D[0][0] == one
    assert all(e.is_zero() for r in jac.B for e in r)
    assert all(e.is_zero() for r in jac.C for e in r)


def test_split_map_jacobian_blocks():
    U = Chart(["x"], ["th"])
    V = Chart(["u"], ["e"])
    x = SuperPoly.generator(U.table, "x")
    th = SuperPoly.generator(U.table, "th")
    m = CoordinateMap(U, V, {"u": x * x, "e": x * th})
    jac = m.jacobian()
    assert jac.A[0][0] == absorb_even_exponents(2 * x)
    assert jac.B[0][0].is_zero()
    assert jac.C[0][0] == th
    assert jac.D[0][0] == absorb_even_exponents(x)


def test_conic_jacobian_entries():
    m = conic_transition()
    jac = m.jacobian()
    U = m.source
    z = SuperPoly.generator(U.table, "z")
    th1 = SuperPoly.generator(U.table, "th1")
    th2 = SuperPoly.generator(U.table, "th2")
    one = SuperPoly.one(U.table)

    def over(den):
        return SuperPoly.constant(U.table, RationalFunction(one, den))

    # w-row: d/dz then the rightmost-factor derivatives by th1, th2
    assert jac.A[0][0] == -over(z ** 2) - 3 * th1 * th2 * over(z ** 4)
    assert jac.B[0][0] == -th2 * over(z ** 3)
    assert jac.B[0][1] == th1 * over(z ** 3)
    # psi rows
    assert jac.C[0][0] == -2 * th1 * over(z ** 3)
    assert jac.C[1][0] == -2 * th2 * over(z ** 3)
    assert jac.D[0][0] == over(z ** 2)
    assert jac.D[1][1] == over(z ** 2)
    assert jac.D[0][1].is_zero() and jac.D[1][0].is_zero()


def test_purely_even_map_ber_is_determinant():
    U = Chart(["x", "y"], [])
    V = Chart(["u", "v"], [])
    x, y = SuperPoly.generator(U.table, "x"), SuperPoly.generator(U.table, "y")
    m = CoordinateMap(U, V, {"u": x + y * y, "v": y})
    assert m.ber_jacobian() == 1
    m2 = CoordinateMap(U, V, {"u": 2 * x, "v": 3 * y})
    assert m2.ber_jacobian() == 6


# ---------------------------------------------------------------------------
# Berezinian of the Jacobian

def test_split_map_ber_formula():
    # x' = f(x), th'_a = sum g_ab(x) th_b  gives  Ber = f' * det(g)^{-1}
    U = Chart(["x"], ["th1", "th2"])
    V = Chart(["u"], ["e1", "e2"])
    x = SuperPoly.generator(U.table, "x")
    th1 = SuperPoly.generator(U.table, "th1")
    th2 = SuperPoly.generator(U.table, "th2")
    m = CoordinateMap(U, V, {"u": x ** 3,
                             "e1": th1 + x * th2,
                             "e2": 2 * th2})
    expected = absorb_even_exponents((x ** 2).scale(Fraction(3, 2)))
    assert m.ber_jacobian() == expected


def test_conic_ber_jacobian_value():
    m = conic_transition()
    U = m.source
    z = SuperPoly.generator(U.table, "z")
    th1 = SuperPoly.generator(U.table, "th1")
    th2 = SuperPoly.generator(U.table, "th2")
    assert m.ber_jacobian() == absorb_even_exponents(-(z * z) + th1 * th2)


def test_conic_inverse_product_is_one():
    m, m2 = build_conic_pair()
    ber1 = m.ber_jacobian()
    ber2 = m2.ber_jacobian()
    assert ber1 * m.pullback(ber2) == SuperPoly.one(m.source.table)


def test_conic_round_trip_is_identity():
    m, m2 = build_conic_pair()
    comp = compose_maps(m, m2)
    ident = CoordinateMap.identity(m.source)
    for name in m.source.coordinate_names:
        assert comp.images[name] == ident.images[name]


def test_conic_cocycle():
    m, m2 = build_conic_pair()
    assert cocycle_check(m, m2)


# ---------------------------------------------------------------------------
# randomized invariants

def pullback_matrix(m, mat):
    rows = [[m.pullback(e) for e in r] for r in mat.rows()]
    return SuperMatrix.from_rows(m.source.table, mat.p, mat.q, rows)


def test_chain_rule_random_split_maps():
    rng = random.Random(17)
    from supercalc.randoms import random_split_map
    U = Chart(["x", "y"], ["th1", "th2"])
    V = Chart(["u", "v"], ["e1", "e2"])
    W = Chart(["s", "t"], ["f1", "f2"])
    for _ in range(8):
        m1 = random_split_map(rng, U, V)
        m2 = random_split_map(rng, V, W)
        comp = compose_maps(m1, m2)
        lhs = comp.jacobian()
        rhs = pullback_matrix(m1, m2.jacobian()) * m1.jacobian()
        assert lhs == rhs


def test_cocycle_random_split_maps_1_2():
    rng = random.Random(19)
    from supercalc.randoms import random_split_map
    U = Chart(["x"], ["th1", "th2"])
    V = Chart(["u"], ["e1", "e2"])
    W = Chart(["s"], ["f1", "f2"])
    for _ in range(10):
        m1 = random_split_map(rng, U, V)
        m2 = random_split_map(rng, V, W)
        assert cocycle_check(m1, m2)


def random_split_pairs_2_2():
    rng = random.Random(21)
    from supercalc.randoms import random_split_map
    U = Chart(["x", "y"], ["th1", "th2"])
    V = Chart(["u", "v"], ["e1", "e2"])
    W = Chart(["s", "t"], ["f1", "f2"])
    for _ in range(8):
        m1 = random_split_map(rng, U, V)
        m2 = random_split_map(rng, V, W)
        yield m1, m2


def test_cocycle_random_split_maps_2_2():
    for m1, m2 in random_split_pairs_2_2():
        assert cocycle_check(m1, m2)


def test_compose_maps_pulls_every_image_back_in_one_evaluator_pass(monkeypatch):
    import supercalc.charts as charts

    m1, m2 = next(random_split_pairs_2_2())
    want = {name: m1.pullback(img) for name, img in m2.images.items()}
    passes = []
    pull_back = charts._pull_back
    monkeypatch.setattr(charts, "_pull_back",
                        lambda *args: passes.append(args) or pull_back(*args))
    monkeypatch.setattr(SuperPoly, "substitute", None)
    got = compose_maps(m1, m2).images
    assert len(passes) == 1
    assert all(str(got[n]) == str(want[n]) and got[n] == want[n] for n in want)


def test_cocycle_2_2_denominators_stay_small():
    # Sums over a shared denominator keep it; cross-multiplying every sum
    # grew the largest one to 1514 terms on these pairs.
    largest = 0
    for m1, m2 in random_split_pairs_2_2():
        lhs = compose_maps(m1, m2).ber_jacobian()
        rhs = m1.pullback(m2.ber_jacobian()) * m1.ber_jacobian()
        assert lhs == rhs
        for side in (lhs, rhs):
            for c in side.terms.values():
                if isinstance(c, RationalFunction):
                    largest = max(largest, len(c.den.terms))
    assert largest <= 64


def test_cocycle_2_2_runs_euclid_only_where_it_can_cancel(monkeypatch):
    # A constant or one-monomial denominator leaves no gcd for the
    # one-variable gcd to find, so the reduction skips it there.  Running
    # it on every one-variable quotient took 327 calls on the chain rule of
    # these pairs; skipping it takes 106.
    import supercalc.algebra as algebra

    pairs = list(random_split_pairs_2_2())
    calls = 0
    real = algebra._gcd_cofactors

    def spy(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(algebra, "_gcd_cofactors", spy)
    for m1, m2 in pairs:
        lhs = compose_maps(m1, m2).ber_jacobian()
        assert lhs == m1.pullback(m2.ber_jacobian()) * m1.ber_jacobian()
    assert 0 < calls <= 120


def test_berezinian_reductions_stay_within_the_count_before_one_denominator(
        monkeypatch):
    # RationalFunction Jacobians go through the same code as Fraction
    # blocks, but a denominator of 1 must cost them nothing: no scaling by
    # 1 and one unit inverse per matrix.  909 is what berezinian spent on
    # these 24 Jacobians when every matrix product cleared and restored
    # its operands' denominators.
    import supercalc.algebra as algebra

    jacobians = []
    for m1, m2 in random_split_pairs_2_2():
        jacobians += [m1.jacobian(), m2.jacobian(),
                      compose_maps(m1, m2).jacobian()]
    calls = []
    reduce = algebra._reduce_fraction

    def counting(num, den):
        calls.append(None)
        return reduce(num, den)

    monkeypatch.setattr(algebra, "_reduce_fraction", counting)
    for jacobian in jacobians:
        berezinian(jacobian)
    assert 0 < len(calls) <= 909
