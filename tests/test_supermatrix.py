"""Supermatrices: determinants, inverses, Berezinian."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from supercalc.algebra import (
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    _coeff_inverse,
)
from supercalc.randoms import (
    random_invertible_supermatrix,
    random_nilpotent_even,
    random_rational,
    random_superpoly,
)
from supercalc.supermatrix import (
    SuperMatrix,
    _charpoly,
    _clear_denominators,
    _identity_rows,
    _inverse,
    _mat_add,
    _mat_mul,
    _mat_neg,
    _scalar_unit_inverse,
    _scale_rows,
    _scaled_add,
    _scaled_mul,
    _schur,
    berezinian,
    det_even,
    inv_even,
    supertrace,
)

T = GeneratorTable.chart(["x", "y"], ["th1", "th2"])
ONE = SuperPoly.one(T)
ZERO = SuperPoly.zero(T)


def gen(name):
    return SuperPoly.generator(T, name)


def const(c):
    return SuperPoly.constant(T, c)


def rows_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# even determinant

def test_det_identity():
    assert det_even([[ONE, ZERO], [ZERO, ONE]], T) == 1


def test_det_scalar_matrix():
    x = gen("x")
    assert det_even([[x, ZERO], [ZERO, x]], T) == x * x


def test_det_triangular_with_nilpotent():
    e = ONE + gen("th1") * gen("th2")
    assert det_even([[e, ZERO], [ZERO, ONE]], T) == e


def test_det_rejects_odd_entry():
    with pytest.raises(ValueError):
        det_even([[gen("th1")]], T)


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(25):
        def blk():
            return [[const(random_rational(rng)) + random_nilpotent_even(rng, T)
                     for _ in range(2)] for _ in range(2)]
        m, n = blk(), blk()
        assert det_even(_mat_mul(m, n, T), T) == det_even(m, T) * det_even(n, T)


def test_det_alternating():
    a, b = gen("x"), gen("y") + 1
    assert det_even([[a, a], [b, b]], T).is_zero()
    assert det_even([[a, b], [a, b]], T).is_zero()


# ---------------------------------------------------------------------------
# the Leibniz expansion as the oracle for det_even

def leibniz_det(rows, table):
    """Sum over all n! permutations of the signed products."""
    n = len(rows)
    total = SuperPoly.zero(table)
    for perm in permutations(range(n)):
        prod = SuperPoly.one(table)
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - prod if inversions % 2 else total + prod
    return total


E4 = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])


@pytest.mark.parametrize("n", range(1, 7))
def test_det_matches_leibniz_on_random_supermatrix_blocks(n):
    m = random_invertible_supermatrix(random.Random(100 + n), E4, n, n)
    for block in (m.A, m.D):
        assert str(det_even(block, E4)) == str(leibniz_det(block, E4))


@pytest.mark.parametrize("n", range(1, 5))
def test_det_matches_leibniz_on_polynomial_entries(n):
    rng = random.Random(200 + n)
    for _ in range(3):
        rows = [[random_superpoly(rng, T, parity=0, terms=3)
                 for _ in range(n)] for _ in range(n)]
        assert str(det_even(rows, T)) == str(leibniz_det(rows, T))


def random_rational_function_entry(rng):
    """An even entry whose coefficients are quotients of polynomials in x;
    one variable keeps every quotient fully reduced, so str is canonical."""
    x = gen("x")

    def poly():
        out = const(random_rational(rng))
        for k in (1, 2):
            out = out + x ** k * random_rational(rng)
        return out

    den = poly()
    while den.is_zero():
        den = poly()
    entry = const(RationalFunction(poly(), den))
    if rng.random() < 0.5:
        entry = entry + gen("th1") * gen("th2") * const(
            RationalFunction(ONE, x + 1))
    return entry


@pytest.mark.parametrize("n", [2, 3, 4])
def test_det_matches_leibniz_on_rational_function_entries(n):
    rng = random.Random(300 + n)
    for _ in range(3):
        rows = [[random_rational_function_entry(rng) for _ in range(n)]
                for _ in range(n)]
        assert str(det_even(rows, T)) == str(leibniz_det(rows, T))


def test_rational_function_products_stay_within_the_leibniz_count(monkeypatch):
    # On a 2x2 block with RationalFunction coefficients, as the cocycle
    # Jacobians have, every SuperPoly product reduces quotients, so extra
    # products cost time.  The bounds are what the Leibniz expansion and
    # the adjugate inverse spent on this matrix.
    x = gen("x")
    eps = gen("th1") * gen("th2")

    def rf(num, den):
        return const(RationalFunction(num, den))

    rows = [[rf(x + 1, x - 2) + eps * rf(ONE, x), rf(x, ONE + x * x)],
            [rf(ONE, x + 3) + eps, rf(x * x - 1, x + 5)]]
    # Every SuperPoly product, RationalFunction arithmetic included, is a
    # pair through the kernel: __mul__ is its one-pair case.
    pairs = []
    kernel = SuperPoly.sum_of_products

    def counting(table, operands, memo=None):
        operands = list(operands)
        pairs.extend(operands)
        return kernel(table, operands, memo)

    monkeypatch.setattr(SuperPoly, "sum_of_products", staticmethod(counting))
    det_even(rows, T)
    assert 0 < len(pairs) <= 24
    pairs.clear()
    inv_even(rows, T)
    assert 0 < len(pairs) <= 81


def test_fraction_blocks_reach_the_kernel_with_integer_coefficients(monkeypatch):
    # Matrix products and characteristic polynomials clear the Fraction
    # denominators of their operands, so every sum the supermatrix module
    # hands to the kernel multiplies int coefficients.  (Single products,
    # such as Ber's final det(S) * det(D)^-1, go through SuperPoly itself.)
    import supercalc.supermatrix as supermatrix

    seen = []

    class Watched:
        def __getattr__(self, name):
            return getattr(SuperPoly, name)

        @staticmethod
        def sum_of_products(table, operands, memo=None):
            operands = list(operands)
            seen.extend(type(c).__name__ for pair in operands for e in pair
                        for c in e.terms.values())
            return SuperPoly.sum_of_products(table, operands, memo)

    monkeypatch.setattr(supermatrix, "SuperPoly", Watched())
    table = GeneratorTable.chart(["x"], ["e1", "e2", "e3", "e4"])
    rng = random.Random(41)
    for n in (2, 3, 4):
        m = random_invertible_supermatrix(rng, table, n, n)
        assert any(type(c) is Fraction for e in m.A[0] + m.D[0]
                   for c in e.terms.values())
        det_even(m.A, table)
        inv_even(m.D, table)
        berezinian(m)
        m.inverse()
    assert seen and set(seen) == {"int"}


def test_det_of_empty_matrix_is_one():
    assert det_even([], T) == ONE


# ---------------------------------------------------------------------------
# inverse

def test_inv_identity():
    eye = [[ONE, ZERO], [ZERO, ONE]]
    assert rows_equal(inv_even(eye, T), eye)


def test_inv_one_plus_nilpotent():
    e = ONE + gen("th1") * gen("th2")
    out = inv_even([[e]], T)
    assert out[0][0] == ONE - gen("th1") * gen("th2")


def test_inv_multiplies_back():
    rng = random.Random(11)
    eye = [[ONE, ZERO], [ZERO, ONE]]
    for _ in range(25):
        while True:
            m = [[const(random_rational(rng)) + random_nilpotent_even(rng, T)
                  for _ in range(2)] for _ in range(2)]
            red = det_even([[e.set_odd_to_zero() for e in r] for r in m], T)
            if not red.is_zero():
                break
        inv = inv_even(m, T)
        assert rows_equal(_mat_mul(m, inv, T), eye)
        assert rows_equal(_mat_mul(inv, m, T), eye)


def test_inv_singular_reduced_raises():
    with pytest.raises(ValueError, match="singular"):
        inv_even([[gen("th1") * gen("th2")]], T)


def test_inv_of_non_unit_reduced_determinant_raises():
    with pytest.raises(ValueError,
                       match="reduced determinant is not a unit"):
        inv_even([[gen("x")]], T)


def test_inv_of_empty_matrix_is_empty():
    assert inv_even([], T) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_inv_is_two_sided_on_random_supermatrix_blocks(n):
    m = random_invertible_supermatrix(random.Random(400 + n), E4, n, n)
    one, zero = SuperPoly.one(E4), SuperPoly.zero(E4)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for block in (m.A, m.D):
        inv = inv_even(block, E4)
        assert rows_equal(_mat_mul(block, inv, E4), eye)
        assert rows_equal(_mat_mul(inv, block, E4), eye)


# ---------------------------------------------------------------------------
# supermatrix structure

def test_parity_pattern_enforced():
    with pytest.raises(ValueError):
        SuperMatrix(T, 1, 1, [[gen("th1")]], [[ZERO]], [[ZERO]], [[ONE]])
    with pytest.raises(ValueError):
        SuperMatrix(T, 1, 1, [[ONE]], [[gen("x")]], [[ZERO]], [[ONE]])


def test_supertrace_identity():
    assert supertrace(SuperMatrix.identity(T, 2, 1)) == 1
    assert supertrace(SuperMatrix.identity(T, 1, 2)) == -1


def test_supertrace_block_diagonal():
    m = SuperMatrix.block_diagonal(T, [[gen("x"), ZERO], [ZERO, const(2)]], [[gen("y")]])
    assert supertrace(m) == gen("x") + 2 - gen("y")


# ---------------------------------------------------------------------------
# Berezinian

def test_ber_of_identity():
    for p, q in ((1, 1), (2, 1), (2, 2)):
        assert berezinian(SuperMatrix.identity(T, p, q)) == 1


def test_ber_block_diagonal():
    A = [[const(2), ZERO], [ZERO, const(3)]]
    D = [[const(Fraction(1, 2))]]
    m = SuperMatrix.block_diagonal(T, A, D)
    assert berezinian(m) == 12


def test_ber_multiplicative():
    rng = random.Random(23)
    for p, q in ((1, 1), (2, 1), (2, 2)):
        for _ in range(20):
            m = random_invertible_supermatrix(rng, T, p, q)
            n = random_invertible_supermatrix(rng, T, p, q)
            assert berezinian(m * n) == berezinian(m) * berezinian(n)


def test_ber_parity_swap_is_reciprocal():
    rng = random.Random(29)
    for p, q in ((1, 1), (2, 1), (2, 2)):
        for _ in range(10):
            m = random_invertible_supermatrix(rng, T, p, q)
            b = berezinian(m)
            assert berezinian(m.parity_swap()) == b.inverse()


def test_ber_infinitesimal_is_one_plus_supertrace():
    # I + eps*X with eps odd and X of the opposite parity pattern, so the
    # perturbed matrix still has the right pattern; eps^2 = 0 kills higher
    # orders and Ber(I + eps X) = 1 + eps Str(X).
    Te = GeneratorTable.chart(["x"], ["th1", "th2", "eps"])
    eps = SuperPoly.generator(Te, "eps")
    x = SuperPoly.generator(Te, "x")
    th1, th2 = SuperPoly.generator(Te, "th1"), SuperPoly.generator(Te, "th2")
    one, zero = SuperPoly.one(Te), SuperPoly.zero(Te)
    # X has odd A/D blocks and even B/C blocks
    XA = [[th1 + x * th2]]
    XB = [[x * x + th1 * th2]]
    XC = [[SuperPoly.constant(Te, 3)]]
    XD = [[2 * th2]]
    m = SuperMatrix(Te, 1, 1,
                    [[one + eps * XA[0][0]]], [[eps * XB[0][0]]],
                    [[eps * XC[0][0]]], [[one + eps * XD[0][0]]])
    strx = XA[0][0] - XD[0][0]
    assert berezinian(m) == SuperPoly.one(Te) + eps * strx


def test_ber_with_rational_function_coefficients():
    # absorbed form: even dependence sits inside the coefficients
    z = SuperPoly.generator(T, "x")
    rf = RationalFunction(SuperPoly.one(T), z)
    entry = SuperPoly.constant(T, rf)   # 1/x as an even entry
    m = SuperMatrix(T, 1, 1, [[entry]], [[ZERO]], [[ZERO]], [[ONE]])
    assert berezinian(m) == entry


def test_ber_singular_d_raises():
    with pytest.raises(ValueError):
        berezinian(SuperMatrix(T, 1, 1, [[ONE]], [[ZERO]], [[ZERO]],
                               [[gen("th1") * gen("th2")]]))


class TestFullInverse:
    def test_inverse_round_trip(self):
        rng = random.Random(47)
        table = GeneratorTable.chart(["x"], ["th1", "th2", "th3"])
        for p, q in [(1, 1), (2, 1), (2, 2), (1, 3)]:
            m = random_invertible_supermatrix(rng, table, p, q)
            inv = m.inverse()
            ident = SuperMatrix.identity(table, p, q)
            assert m * inv == ident
            assert inv * m == ident

    def test_inverse_pure_even_and_pure_odd_shapes(self):
        table = GeneratorTable.chart(["x"], ["th1"])
        two = SuperPoly.constant(table, Fraction(2))
        m = SuperMatrix(table, 1, 0, [[two]], [[]], [], [])
        assert m.inverse().A[0][0] == SuperPoly.constant(table, Fraction(1, 2))
        n = SuperMatrix(table, 0, 1, [], [], [[]], [[two]])
        assert n.inverse().D[0][0] == SuperPoly.constant(table, Fraction(1, 2))

    def test_inverse_singular_raises(self):
        table = GeneratorTable.chart(["x"], ["th1"])
        zero = SuperPoly.zero(table)
        one = SuperPoly.one(table)
        m = SuperMatrix(table, 1, 1, [[zero]], [[zero]], [[zero]], [[one]])
        with pytest.raises(ValueError, match="singular"):
            m.inverse()


# ---------------------------------------------------------------------------
# one denominator per matrix, against the product-by-product composition

def _clear(rows):
    dens = {c.denominator for r in rows for e in r for c in e.terms.values()
            if type(c) is Fraction}
    if not dens:
        return 1, rows
    scale = math.lcm(*dens)
    return scale, [[e.scale(scale) for e in r] for r in rows]


def oracle_mul(x, y, table):
    """Clear both operands, multiply, and scale the product back."""
    lx, x = _clear(x)
    ly, y = _clear(y)
    out = [[SuperPoly.sum_of_products(table, zip(row, col))
            for col in zip(*y)] for row in x]
    if lx * ly == 1:
        return out
    return [[e.scale(Fraction(1, lx * ly)) for e in r] for r in out]


def oracle_add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def oracle_neg(x):
    return [[-a for a in r] for r in x]


def oracle_charpoly(rows, table):
    """Berkowitz on the cleared rows, each coefficient scaled back."""
    scale, rows = _clear(rows)
    coeffs = []
    for k in range(len(rows)):
        toeplitz = [-rows[k][k]]
        col = [rows[i][k] for i in range(k)]
        for _ in range(k):
            toeplitz.append(-SuperPoly.sum_of_products(table, zip(rows[k], col)))
            col = [SuperPoly.sum_of_products(table, zip(rows[i], col))
                   for i in range(k)]
        coeffs = [(toeplitz[i] if i == k else coeffs[i] + toeplitz[i])
                  + SuperPoly.sum_of_products(
                      table, zip(toeplitz, coeffs[i - 1::-1] if i else []))
                  for i in range(k + 1)]
    if scale == 1:
        return coeffs
    return [c.scale(Fraction(1, scale ** k)) for k, c in enumerate(coeffs, 1)]


def oracle_det(rows, table):
    if not rows:
        return SuperPoly.one(table)
    last = oracle_charpoly(rows, table)[-1]
    return -last if len(rows) % 2 else last


def oracle_inv(rows, table):
    n = len(rows)
    if n == 0:
        return []
    reduced = [[e.set_odd_to_zero() for e in r] for r in rows]
    coeffs = oracle_charpoly(reduced, table)
    det0 = -coeffs[-1] if n % 2 else coeffs[-1]
    assert len(det0.terms) == 1 and det0.scalar_part()
    inv_det0 = _coeff_inverse(det0.scalar_part())
    horner = [[SuperPoly.one(table) if i == j else SuperPoly.zero(table)
               for j in range(n)] for i in range(n)]
    for k, c in enumerate(coeffs[:-1]):
        horner = (oracle_mul(reduced, horner, table) if k
                  else [r[:] for r in reduced])
        for i in range(n):
            horner[i][i] = horner[i][i] + c
    scale = inv_det0 if n % 2 else -inv_det0
    inv0 = [[e.scale(scale) for e in r] for r in horner]
    step = oracle_neg(oracle_mul(
        inv0, oracle_add(rows, oracle_neg(reduced)), table))
    out, power = inv0, inv0
    for _ in range(len(table.odd_positions)):
        power = oracle_mul(step, power, table)
        if all(e.is_zero() for r in power for e in r):
            break
        out = oracle_add(out, power)
    return out


def oracle_schur(m):
    d_inv = oracle_inv(m.D, m.table)
    if m.p == 0 or m.q == 0:
        return [r[:] for r in m.A], d_inv
    bdc = oracle_mul(oracle_mul(m.B, d_inv, m.table), m.C, m.table)
    return oracle_add(m.A, oracle_neg(bdc)), d_inv


def oracle_ber(m):
    schur, _ = oracle_schur(m)
    return oracle_det(schur, m.table) * oracle_det(m.D, m.table).inverse()


def oracle_inverse(m):
    t, mul = m.table, oracle_mul
    if m.q == 0 or m.p == 0:
        return SuperMatrix(t, m.p, m.q, oracle_inv(m.A, t), m.B, m.C,
                           oracle_inv(m.D, t))
    schur, d_inv = oracle_schur(m)
    s_inv = oracle_inv(schur, t)
    top_right = oracle_neg(mul(mul(s_inv, m.B, t), d_inv, t))
    bottom_left = oracle_neg(mul(mul(d_inv, m.C, t), s_inv, t))
    corr = mul(mul(mul(mul(d_inv, m.C, t), s_inv, t), m.B, t), d_inv, t)
    return SuperMatrix(t, m.p, m.q, s_inv, top_right, bottom_left,
                       oracle_add(d_inv, corr))


def unlike_denominators(m):
    """m with A, B, C and D scaled by 1/2, 1/3, 1/5 and 1/7, so that each
    block clears with its own lcm."""
    return SuperMatrix(m.table, m.p, m.q, *(
        [[e.scale(Fraction(1, k)) for e in r] for r in block]
        for block, k in ((m.A, 2), (m.B, 3), (m.C, 5), (m.D, 7))))


SHAPES = [(p, q) for p in range(6) for q in range(6)] + [(6, 6)]


@pytest.mark.parametrize("p, q", SHAPES)
def test_one_denominator_matches_the_product_by_product_oracle(p, q):
    rng = random.Random(500 + 10 * p + q)
    m, n = (unlike_denominators(random_invertible_supermatrix(rng, E4, p, q))
            for _ in range(2))
    assert str(berezinian(m)) == str(oracle_ber(m))
    for block in (m.A, m.D):
        assert str(inv_even(block, E4)) == str(oracle_inv(block, E4))
    # the results built from pairs against the same matrices built from
    # the oracle's Fraction entries through the public constructor
    product = SuperMatrix.from_rows(E4, p, q, oracle_mul(m.rows(), n.rows(), E4))
    swap = SuperMatrix(E4, q, p, m.D, m.C, m.B, m.A)
    for got, want in ((m * n, product), (m.parity_swap(), swap),
                      (m.inverse(), oracle_inverse(m))):
        assert str(got) == str(want)
        # each stored pair is the one the entries clear to
        assert got._scaled == tuple(map(_clear_denominators,
                                        (want.A, want.B, want.C, want.D)))
        assert str(berezinian(got)) == str(oracle_ber(want))
    assert berezinian(m * n) == berezinian(m) * berezinian(n)
    # a sum of two invertible matrices may be singular: compare entries
    total = oracle_add(m.rows(), n.rows())
    assert str(m + n) == str(SuperMatrix.from_rows(E4, p, q, total))


def test_one_denominator_matches_the_oracle_on_chart_jacobians():
    # RationalFunction coefficients: the same products in the same order,
    # so even representations that reduction leaves unreduced agree
    from supercalc.charts import Chart
    from supercalc.randoms import random_split_map
    rng = random.Random(61)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        U = Chart(["x", "y"][:p], ["th1", "th2"][:q])
        V = Chart(["u", "v"][:p], ["e1", "e2"][:q])
        for _ in range(3):
            m = random_split_map(rng, U, V).jacobian()
            assert str(berezinian(m)) == str(oracle_ber(m))
            assert str(inv_even(m.D, m.table)) == str(oracle_inv(m.D, m.table))
            assert str(m.inverse()) == str(oracle_inverse(m))


def test_each_block_is_cleared_once_per_public_call(monkeypatch):
    # construction clears each block once; results built from a matrix's
    # pairs clear nothing, and row-list entry points clear once per call
    import supercalc.supermatrix as supermatrix

    calls = []
    clear = supermatrix._clear_denominators

    def counting(rows):
        calls.append(rows)
        return clear(rows)

    monkeypatch.setattr(supermatrix, "_clear_denominators", counting)
    m = unlike_denominators(random_invertible_supermatrix(
        random.Random(71), E4, 3, 3))
    n = unlike_denominators(random_invertible_supermatrix(
        random.Random(72), E4, 3, 3))
    calls.clear()
    SuperMatrix(E4, 3, 3, m.A, m.B, m.C, m.D)
    assert calls == [m.A, m.B, m.C, m.D]
    for call, count in ((lambda: det_even(m.A, E4), 1),
                        (lambda: inv_even(m.D, E4), 1),
                        (lambda: berezinian(m), 0),
                        (m.inverse, 0),
                        (lambda: m * n, 0),
                        (lambda: m + n, 0),
                        (m.parity_swap, 0),
                        (lambda: berezinian(m.inverse() * n.parity_swap()), 0)):
        calls.clear()
        call()
        assert len(calls) == count


def test_results_make_no_fraction_entry_until_a_block_is_read(monkeypatch):
    import supercalc.supermatrix as supermatrix

    unscaled = []
    unscale = supermatrix._unscaled

    def counting(x):
        unscaled.append(x)
        return unscale(x)

    monkeypatch.setattr(supermatrix, "_unscaled", counting)
    m = unlike_denominators(random_invertible_supermatrix(
        random.Random(73), E4, 2, 2))
    n = unlike_denominators(random_invertible_supermatrix(
        random.Random(74), E4, 2, 2))
    product = m * n
    results = (product, m.inverse(), m + n, product.parity_swap())
    for r in results:
        berezinian(r)
    assert not unscaled
    for r in results:
        for den, rows in r._scaled:
            assert {type(c) for row in rows for e in row
                    for c in e.terms.values()} <= {int}
    # the first read unscales one block, and later reads reuse it
    assert any(type(c) is Fraction for e in product.A[0]
               for c in e.terms.values())
    assert len(unscaled) == 1
    assert product.A is product.A and len(unscaled) == 1
    product.rows()
    assert len(unscaled) == 4


def test_public_blocks_are_the_constructors_entries():
    x, th1 = gen("x"), gen("th1")
    rf = const(RationalFunction(x, x + 1))
    given = ([[ONE + x, rf], [const(Fraction(1, 2)), x * x]],
             [[th1], [Fraction(2, 3) * th1]], [[x * th1, rf * th1]],
             [[rf + 1]])
    m = SuperMatrix(T, 2, 1, *given)
    for block, rows in zip((m.A, m.B, m.C, m.D), given):
        assert all(a is b for r, s in zip(block, rows) for a, b in zip(r, s))
    # a block read from a product carries the types its values call for:
    # an int where a Fraction coefficient is integral
    eye = SuperMatrix.identity(T, 2, 1)
    for block, rows in zip(((eye * m).A, (m * eye).B, (eye * m).C,
                            (m * eye).D), given):
        for r, s in zip(block, rows):
            for a, b in zip(r, s):
                assert a == b and {k: type(c) for k, c in a.terms.items()} == \
                    {k: type(c) for k, c in b.terms.items()}


def test_entries_and_operands_over_another_table_or_shape_are_refused():
    other = GeneratorTable.chart(["x", "y"], ["th1", "th2", "th3"])
    for i in range(4):
        blocks = [[[ONE]], [[ZERO]], [[ZERO]], [[ONE]]]
        blocks[i] = [[SuperPoly.one(other) if i in (0, 3)
                      else SuperPoly.zero(other)]]
        with pytest.raises(ValueError, match="generator table mismatch"):
            SuperMatrix(T, 1, 1, *blocks)
    m = SuperMatrix.identity(T, 1, 1)
    for n in (SuperMatrix.identity(T, 1, 0), SuperMatrix.identity(other, 1, 1)):
        for op in (lambda x, y: x + y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="shape or table mismatch"):
                op(m, n)
            with pytest.raises(ValueError, match="shape or table mismatch"):
                op(n, m)


def test_quotient_entries_beside_an_integer_determinant():
    # the Schur complement 2 - th1 th2 / (1 + x) has the integer reduced
    # determinant 2, so its inverse holds quotients over den 4: the pair
    # is brought to the form its entries clear to, as the oracle's are
    x, th1, th2 = gen("x"), gen("th1"), gen("th2")
    rf = const(RationalFunction(ONE, x + 1))
    m = SuperMatrix(T, 1, 1, [[const(2)]], [[rf * th1]], [[th2]], [[ONE]])
    inv = m.inverse()
    assert inv._scaled == tuple(map(_clear_denominators,
                                    (inv.A, inv.B, inv.C, inv.D)))
    assert str(inv) == str(oracle_inverse(m))
    assert str(berezinian(inv)) == str(oracle_ber(oracle_inverse(m)))
    assert berezinian(inv) * berezinian(m) == ONE
    assert m * inv == SuperMatrix.identity(T, 1, 1)


# ---------------------------------------------------------------------------
# det(D)^{-1} by Jacobi's formula, against det(D).inverse()

E8 = GeneratorTable.chart([], [f"e{i}" for i in range(1, 9)])
JACOBI_SHAPES = ([(n, n) for n in range(1, 4)] + [(n, n + 1) for n in range(3)]
                 + [(n + 1, n) for n in range(3)] + [(0, 3), (3, 0), (0, 0)])


def jacobi_det_inverse(rows, table):
    """det(rows)^{-1} as ``berezinian`` takes it from ``_inverse``."""
    _, (scale, inv_det) = _inverse(_clear_denominators(rows), table,
                                   with_det=True)
    return inv_det.scale(scale)


def assert_jacobi_matches_the_oracle(m):
    got, want = jacobi_det_inverse(m.D, m.table), \
        oracle_det(m.D, m.table).inverse()
    assert got == want and str(got) == str(want)
    got, want = berezinian(m), oracle_ber(m)
    assert got == want and str(got) == str(want)


@pytest.mark.parametrize("table", [E4, E8], ids=["E4", "E8"])
@pytest.mark.parametrize("p, q", JACOBI_SHAPES)
def test_jacobi_det_inverse_matches_the_inverse_of_det(table, p, q):
    rng = random.Random(700 + 10 * p + q + len(table.odd_positions))
    assert_jacobi_matches_the_oracle(unlike_denominators(
        random_invertible_supermatrix(rng, table, p, q)))


def test_jacobi_det_inverse_reaches_the_higher_traces():
    # eight odd letters make tr(Y^k) nonzero up to k = 4, so a lost 1/k
    # or a sign slip in exp shows
    m = random_invertible_supermatrix(random.Random(97), E8, 4, 4)
    assert_jacobi_matches_the_oracle(m)


def test_jacobi_det_inverse_on_chart_jacobians_and_the_conic():
    from supercalc.charts import Chart, conic_transition
    from supercalc.randoms import random_split_map
    rng = random.Random(67)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)):
        U = Chart(["x", "y", "z"][:p], ["th1", "th2", "th3"][:q])
        V = Chart(["u", "v", "w"][:p], ["e1", "e2", "e3"][:q])
        for _ in range(2):
            assert_jacobi_matches_the_oracle(
                random_split_map(rng, U, V).jacobian())
    assert_jacobi_matches_the_oracle(conic_transition().jacobian())


def test_jacobi_det_inverse_on_even_keys_and_a_nilpotent_berezinian():
    x, th1, th2 = gen("x"), gen("th1"), gen("th2")
    # a unimodular D whose reduced part holds the even letter x
    for nil in (ZERO, th1 * th2):
        m = SuperMatrix(T, 1, 2, [[ONE + x * nil]], [[th1, th2]],
                        [[th2], [x * th1]], [[ONE + nil, x], [ZERO, ONE]])
        assert_jacobi_matches_the_oracle(m)
    # a singular A0 leaves det(S) = Ber nilpotent: Ber = -e1 e2
    e1, e2 = (SuperPoly.generator(E4, n) for n in ("e1", "e2"))
    one, zero = SuperPoly.one(E4), SuperPoly.zero(E4)
    m = SuperMatrix(E4, 1, 1, [[zero]], [[e1]], [[e2]], [[one]])
    assert berezinian(m) == -(e1 * e2)
    assert_jacobi_matches_the_oracle(m)


def test_jacobi_det_inverse_refuses_a_singular_reduced_d():
    eps = gen("th1") * gen("th2")
    m = SuperMatrix(T, 1, 2, [[ONE]], [[ZERO, ZERO]], [[ZERO], [ZERO]],
                    [[ONE, gen("x")], [ONE + eps, gen("x")]])
    with pytest.raises(ValueError, match="singular reduced matrix"):
        berezinian(m)


def test_berezinian_runs_berkowitz_on_d0_and_s_only(monkeypatch):
    import supercalc.supermatrix as supermatrix
    m = random_invertible_supermatrix(random.Random(89), E4, 6, 6)
    a, b, c, d = map(supermatrix._clear_denominators, (m.A, m.B, m.C, m.D))
    d0 = [[e.set_odd_to_zero() for e in r] for r in d[1]]
    schur = supermatrix._schur(a, b, c, supermatrix._inverse(d, E4)[0], E4)[1]
    calls = []
    charpoly = supermatrix._charpoly

    def counting(rows, table):
        calls.append(rows)
        return charpoly(rows, table)

    def refuse(self):
        raise AssertionError("Ber inverted a determinant")

    monkeypatch.setattr(supermatrix, "_charpoly", counting)
    monkeypatch.setattr(SuperPoly, "inverse", refuse)
    berezinian(m)
    assert calls == [d0, schur]


def test_a_matrix_product_prepares_each_right_entry_once(monkeypatch):
    import supercalc.algebra as algebra
    n = 5
    x = random_invertible_supermatrix(random.Random(83), E4, n, n).A
    y = random_invertible_supermatrix(random.Random(84), E4, n, n).D
    prepared, memos = [0], []
    below, kernel = algebra._below_parity, SuperPoly.sum_of_products

    def counting(odds, width):      # one call per term of a prepared entry
        prepared[0] += 1
        return below(odds, width)

    def watching(table, pairs, memo=None):
        memos.append(memo)
        return kernel(table, pairs, memo)

    monkeypatch.setattr(algebra, "_below_parity", counting)
    monkeypatch.setattr(SuperPoly, "sum_of_products", staticmethod(watching))
    _mat_mul(x, y, E4)
    assert len(memos) == n * n and all(m is memos[0] for m in memos)
    assert len(memos[0]) <= n * n
    assert prepared[0] == sum(len(e.terms) for r in y for e in r)


# ---------------------------------------------------------------------------
# the odd count bounds the nilpotent work, against the unbounded loops

def unbounded_inverse(m, table, with_det=False):
    """``_inverse`` with N = R - R0 formed by subtraction and every loop run
    to w, the number of odd generators, stopping only at a zero term."""
    den, rows = m
    n = len(rows)
    if n == 0:
        return (1, []), (1, SuperPoly.one(table)) if with_det else None
    reduced = [[e.set_odd_to_zero() for e in r] for r in rows]
    coeffs = _charpoly(reduced, table)
    det0 = -coeffs[-1] if n % 2 else coeffs[-1]
    inv_det0 = _scalar_unit_inverse(det0)
    horner = _identity_rows(n, table)
    for k, c in enumerate(coeffs[:-1]):
        horner = (_mat_mul(reduced, horner, table) if k
                  else [r[:] for r in reduced])
        for i in range(n):
            horner[i][i] = horner[i][i] + c
    scale = inv_det0 if n % 2 else -inv_det0
    if isinstance(scale, (int, Fraction)):
        e, g = scale.denominator, _scale_rows(horner, scale.numerator)
    else:
        e, g = 1, _scale_rows(horner, scale)
    nil = _mat_add(rows, _mat_neg(reduced))
    out = power = (e, _scale_rows(g, den))
    step = (e, _mat_neg(_mat_mul(g, nil, table)))
    log_den, log = 1, SuperPoly.zero(table)
    bound = len(table.odd_positions)
    for k in range(1, bound + 1):
        if with_det:
            trace = SuperPoly.sum_of_products(table, (
                (power[1][i][j], nil[j][i]) for i in range(n) for j in range(n)))
            if trace.terms:
                k_den = k * den * power[0]
                new_den = math.lcm(log_den, k_den)
                log = log.scale(new_den // log_den) + trace.scale(new_den // k_den)
                log_den = new_den
        power = _scaled_mul(step, power, table)
        if all(x.is_zero() for r in power[1] for x in r):
            break
        out = _scaled_add(out, power)
    if not with_det:
        return out, None
    exp_den, exp = 1, SuperPoly.one(table)
    term = exp
    for j in range(1, bound + 1):
        term = term * -log
        if term.is_zero():
            break
        exp = exp.scale(j * log_den) + term
        exp_den *= j * log_den
    ratio = Fraction(den ** n, exp_den)
    return out, (inv_det0 if ratio == 1 else inv_det0 * ratio, exp)


def stored(x):
    """What is stored, in order: keys, coefficient types and values, a
    quotient as its numerator and denominator."""
    if isinstance(x, SuperPoly):
        return [(m, stored(c)) for m, c in x.terms.items()]
    if isinstance(x, RationalFunction):
        return ["quotient", stored(x.num), stored(x.den)]
    if isinstance(x, (list, tuple)):
        return [stored(y) for y in x]
    return [type(x), x]


ODD_TABLES = [GeneratorTable.chart(["x"], [f"e{i}" for i in range(1, w + 1)])
              for w in range(1, 6)]


def fewest_odd_factors(rows):
    return min((k for r in rows for e in r for k in [e.nilpotent_split()[2]] if k),
               default=0)


def nilpotent_families(rng, table, n):
    """Seeded n x n matrices with a constant invertible reduced part and a
    nilpotent part N whose terms have at least l odd factors: even (l = 2,
    or N = 0 on one odd letter), mixed (odd terms too, so l = 1; only
    ``inv_even`` takes them), e1 e2 e3 e4 alone (l = 4), none, and N zero
    on the first row only."""
    while True:
        base = [[SuperPoly.constant(table, random_rational(rng)) for _ in range(n)]
                for _ in range(n)]
        if not det_even(base, table).is_zero():
            break
    nilpotent = random_superpoly(rng, table, terms=3)
    mixed = nilpotent - nilpotent.set_odd_to_zero()
    families = {
        "even": [[e + random_nilpotent_even(rng, table) for e in r] for r in base],
        "mixed": [[e + (f - f.set_odd_to_zero()) for e in r
                   for f in [random_superpoly(rng, table, terms=3)]] for r in base],
        "zero": base,
    }
    if mixed and n > 1:
        families["lower rows"] = [base[0]] + [[e + mixed for e in r] for r in base[1:]]
    if len(table.odd_positions) >= 4:
        top = SuperPoly.from_monomial(table, {"e1": 1, "e2": 1, "e3": 1, "e4": 1})
        families["top"] = [[e + top.scale(random_rational(rng)) if rng.random() < 0.7
                            else e for e in r] for r in base]
    return families


def test_bounded_inverse_stores_what_the_unbounded_loops_store():
    seen = set()
    for table in ODD_TABLES:
        w = len(table.odd_positions)
        rng = random.Random(900 + w)
        for n in (1, 2, 3):
            for name, rows in nilpotent_families(rng, table, n).items():
                seen.add((name, fewest_odd_factors(rows)))
                # Fraction entries clear to one den, as the callers pass them
                pair = _clear_denominators([[e.scale(Fraction(1, 3)) for e in r]
                                            for r in rows])
                for with_det in (False, True):
                    got = _inverse(pair, table, with_det)
                    assert stored(got) == stored(
                        unbounded_inverse(pair, table, with_det)), (name, w, n)
    assert {("even", 2), ("mixed", 1), ("top", 4), ("zero", 0),
            ("lower rows", 1)} <= seen


def test_odd_entries_need_the_bound_read_from_the_keys():
    # l = 1: N^2 = diag(e1 (e2 + e3), (e2 + e3) e1) is not zero, so a bound
    # of w // 2 = 1 would lose it
    table = GeneratorTable.chart([], ["e1", "e2", "e3"])
    e1, e2, e3 = (SuperPoly.generator(table, n) for n in ("e1", "e2", "e3"))
    one = SuperPoly.one(table)
    rows = [[one, e1], [e2 + e3, one]]
    inv = inv_even(rows, table)
    for x, y in ((rows, inv), (inv, rows)):
        assert rows_equal(_mat_mul(x, y, table), _identity_rows(2, table))
    assert inv[0][0] == one + e1 * (e2 + e3)


def test_a_split_map_jacobian_runs_no_nilpotent_series(monkeypatch):
    import supercalc.supermatrix as supermatrix
    from supercalc.charts import Chart
    from supercalc.randoms import random_split_map
    calls: dict[str, int] = {}

    def spy(name, fn):
        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counting

    for name in ("_mat_mul", "_scaled_mul", "_scaled_add"):
        monkeypatch.setattr(supermatrix, name, spy(name, getattr(supermatrix, name)))
    monkeypatch.setattr(SuperPoly, "sum_of_products", staticmethod(
        spy("sum_of_products", SuperPoly.sum_of_products)))
    rng = random.Random(71)
    empty_schur = 0
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        U = Chart(["x", "y"][:p], ["th1", "th2"][:q])
        V = Chart(["u", "v"][:p], ["e1", "e2"][:q])
        for _ in range(4):
            m = random_split_map(rng, U, V).jacobian()
            table = m.table
            a, b, c, d = m._scaled
            assert fewest_odd_factors(d[1]) == 0    # linear odd images
            calls.clear()
            supermatrix._charpoly(d[1], table)
            charpoly = dict(calls)
            calls.clear()
            d_inv, (scale, exp) = _inverse(d, table, with_det=True)
            # Horner's products (none for q <= 2) and the characteristic
            # polynomial, then no G N product, no trace and no power
            assert calls == charpoly
            assert stored(exp) == stored(SuperPoly.one(table))
            assert stored((d_inv, (scale, exp))) == stored(
                unbounded_inverse(d, table, with_det=True))
            calls.clear()
            schur = _schur(a, b, c, d_inv, table)
            if not any(x for r in b[1] for x in r) or not any(x for r in c[1] for x in r):
                empty_schur += 1
                assert schur is a and not calls
    assert empty_schur


def test_schur_subtracts_when_only_some_entries_of_b_are_zero():
    e1, e2, e3 = (SuperPoly.generator(E4, n) for n in ("e1", "e2", "e3"))
    one, zero = SuperPoly.one(E4), SuperPoly.zero(E4)
    for b in ([[zero, e1]], [[e1, zero]]):
        m = SuperMatrix(E4, 1, 2, [[one]], b, [[e2], [e3]], [[one, zero], [zero, one]])
        a, b, c, d = m._scaled
        got = _schur(a, b, c, _inverse(d, E4)[0], E4)
        assert got[1] != a[1]
        assert rows_equal(got[1], oracle_schur(m)[0])
