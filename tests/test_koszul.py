"""Koszul complex, its dual, exact homology ranks, and the action of an
automorphism on the distinguished dual class."""

import random
from fractions import Fraction

import pytest

from supercalc.algebra import GeneratorTable, SuperPoly
from supercalc.derham import (
    UniversalElement,
    con3_identity_factor,
    script_D,
    script_H,
)
from supercalc.koszul import (
    HomologyRanks,
    KoszulAlgebra,
    _sparse_rank,
    exact_rank,
)
from supercalc.randoms import random_invertible_supermatrix, random_superpoly
from supercalc.supermatrix import SuperMatrix, berezinian


def gen(table, name):
    return SuperPoly.generator(table, name)


def dense_rank(matrix):
    """Reference rank: dense Gauss-Jordan elimination over the rationals."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_rank_matrices():
    """About 200 seeded integer matrices: empty shapes, all-zero ones,
    rank-deficient ones (duplicated and summed rows), and 1-5% dense ones up
    to 60x40."""
    rng = random.Random(4242)
    f = Fraction
    out = [[] for _ in range(3)]
    out += [[[] for _ in range(n)] for n in (1, 2, 5)]
    for _ in range(14):
        ncols = rng.randint(1, 12)
        out.append([[f(0)] * ncols for _ in range(rng.randint(1, 12))])
    for _ in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 10)
        rows = [[f(rng.randint(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                rows.append(list(rng.choice(rows)))
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                c = rng.randint(-2, 2)
                rows.append([x + c * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        out.append(rows)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 60), rng.randint(1, 40)
        density = rng.uniform(0.01, 0.05)
        out.append([[f(rng.choice([-2, -1, 1, 2, 3]))
                     if rng.random() < density else f(0)
                     for _ in range(ncols)] for _ in range(nrows)])
    return out


def fraction_free_rank_matrices():
    """About 150 seeded matrices beyond random_rank_matrices: genuinely
    fractional entries over mixed denominators, entries drawn from 2, 3 and
    6 so that pivots lead with non-units, and entries up to 10**6.  Each
    kind gets extra rows that are combinations of others, with fractional
    multipliers where the entries are fractional, so ranks fall short."""
    rng = random.Random(6161)
    f = Fraction
    kinds = [
        lambda: f(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12))),
        lambda: rng.choice((2, 3, 6, -2, -3, -6, 4, 9)),
        lambda: rng.randint(-10 ** 6, 10 ** 6),
    ]
    out = []
    for draw in kinds:
        for _ in range(50):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            density = rng.uniform(0.3, 1.0)
            rows = [[f(draw()) if rng.random() < density else f(0)
                     for _ in range(ncols)] for _ in range(nrows)]
            for _ in range(rng.randint(0, 4)):
                a, b = rng.choice(rows), rng.choice(rows)
                c = f(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))
                rows.append([x + c * y for x, y in zip(a, b)])
            rng.shuffle(rows)
            out.append(rows)
    return out


class TestRank:
    def test_rank_examples(self):
        f = Fraction
        assert exact_rank([]) == 0
        assert exact_rank([[f(0), f(0)]]) == 0
        assert exact_rank([[f(1), f(2)], [f(2), f(4)]]) == 1
        assert exact_rank([[f(1), f(0)], [f(0), f(1)], [f(1), f(1)]]) == 2

    def test_matches_dense_elimination(self):
        matrices = random_rank_matrices()
        assert len(matrices) >= 200
        for matrix in matrices:
            assert exact_rank(matrix) == dense_rank(matrix), matrix
            transposed = [list(col) for col in zip(*matrix)]
            assert exact_rank(transposed) == dense_rank(matrix), matrix

    def test_fraction_free_examples(self):
        f = Fraction
        # non-unit leads: 2 and 3 are coprime, 6 and 4 are not
        assert exact_rank([[f(2), f(3)], [f(3), f(5)]]) == 2
        assert exact_rank([[f(6), f(4)], [f(3), f(2)]]) == 1
        assert exact_rank([[f(6), f(4), f(1)], [f(3), f(2), f(0)]]) == 2
        # rows that agree only once their denominators are cleared
        assert exact_rank([[f(2, 3), f(1, 2)], [f(4, 3), f(1)]]) == 1
        assert exact_rank([[f(1, 6), f(1, 4)], [f(2, 3), f(1)],
                           [f(1, 2), f(1, 3)]]) == 2
        assert exact_rank([[10 ** 6, 999_999], [999_999, 999_998]]) == 2

    def test_fraction_free_matches_dense_elimination(self):
        matrices = fraction_free_rank_matrices()
        assert len(matrices) >= 150
        deficient = 0
        for matrix in matrices:
            rank = dense_rank(matrix)
            deficient += rank < len(matrix)
            assert exact_rank(matrix) == rank, matrix
            transposed = [list(col) for col in zip(*matrix)]
            assert exact_rank(transposed) == rank, matrix
        assert deficient >= 50


class TestDelta:
    def test_partner_generators_map_to_module_generators(self):
        k = KoszulAlgebra(1, 1)
        assert k.koszul_delta(gen(k.table, "dx1")) == gen(k.table, "x1")
        assert k.koszul_delta(gen(k.table, "dth1")) == gen(k.table, "th1")

    def test_delta_squared_on_product(self):
        k = KoszulAlgebra(1, 1)
        e = gen(k.table, "dx1") * gen(k.table, "dth1")
        assert k.koszul_delta(k.koszul_delta(e)).is_zero()

    def test_delta_is_odd_and_lowers_partner_degree(self):
        k = KoszulAlgebra(2, 1)
        e = gen(k.table, "dx1") * gen(k.table, "dx2")
        out = k.koszul_delta(e)
        assert e.parity() == 0 and out.parity() == 1
        dx_positions = {k.table.index(n) for n in ("dx1", "dx2")}

        def partner_degree(poly):
            return max(sum(power for pos, power in poly.table.powers(mono)
                           if pos in dx_positions)
                       for mono in poly.terms)

        assert partner_degree(e) == 2
        assert partner_degree(out) == 1

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
    def test_delta_squared_random(self, p, q):
        k = KoszulAlgebra(p, q)
        rng = random.Random(100 * p + q)
        for _ in range(10):
            e = random_superpoly(rng, k.table, terms=4, max_exp=2)
            assert k.koszul_delta(k.koszul_delta(e)).is_zero()

    def test_dual_delta_of_unit(self):
        k = KoszulAlgebra(2, 1)
        t = k.dual_table
        expected = (gen(t, "dd_x1") * gen(t, "dx1") + gen(t, "dd_x2") * gen(t, "dx2")
                    + gen(t, "dd_th1") * gen(t, "dth1"))
        assert k.dual_delta(SuperPoly.one(t)) == expected

    def test_dual_delta_kills_generator_class(self):
        for p, q in [(1, 1), (2, 1), (1, 2)]:
            k = KoszulAlgebra(p, q)
            assert k.dual_delta(k.dual_homology_generator()).is_zero()

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 1)])
    def test_dual_delta_squared_random(self, p, q):
        k = KoszulAlgebra(p, q)
        rng = random.Random(200 * p + q)
        for _ in range(10):
            e = random_superpoly(rng, k.dual_table, terms=4, max_exp=2)
            assert k.dual_delta(k.dual_delta(e)).is_zero()


ORACLE_SHAPES = [(p, q) for p in range(3) for q in range(1, 4)]


class TestCodecColumns:
    @pytest.mark.parametrize("p,q", ORACLE_SHAPES)
    def test_columns_match_the_differentials(self, p, q):
        # every basis monomial with k, n <= 3, on both sides
        k_alg = KoszulAlgebra(p, q)
        sides = (("koszul", k_alg.table, k_alg.koszul_delta, -1),
                 ("dual", k_alg.dual_table, k_alg.dual_delta, 1))
        checked = 0
        for which, table, delta, step in sides:
            for k in range(4):
                for n in range(4):
                    source = k_alg.basis(which, k, n)
                    target = k_alg.basis(which, k + step, n + 1)
                    index = {mono: i for i, mono in enumerate(target)}
                    expected = [
                        {index[mono]: c for mono, c in
                         delta(SuperPoly(table, {key: 1})).terms.items()}
                        for key in source]
                    assert k_alg._columns(which, source, target) == expected
                    checked += len(source)
        assert checked > 0

    @pytest.mark.parametrize("which,powers", [
        ("koszul", {"x1": "top", "dx1": 1}),        # d/d dx1, then * x1
        ("dual", {"dd_x1": "top"}),                 # * dx1 dd_x1
        ("dual", {"dth1": "top"}),                  # * dth1 dd_th1
    ])
    def test_columns_refuse_an_exponent_past_the_guard(self, which, powers):
        from supercalc.algebra import _EXPONENT

        k_alg = KoszulAlgebra(1, 1)
        table = k_alg.table if which == "koszul" else k_alg.dual_table
        delta = k_alg.koszul_delta if which == "koszul" else k_alg.dual_delta

        def monomial(top):
            return SuperPoly.from_monomial(table, {
                name: top if k == "top" else k for name, k in powers.items()})

        below = monomial(_EXPONENT - 1)     # its image reaches the top power
        image = delta(below)
        assert k_alg._columns(which, list(below.terms), list(image.terms)) \
            == [dict(enumerate(image.terms.values()))]
        with pytest.raises(OverflowError):
            delta(monomial(_EXPONENT))
        with pytest.raises(OverflowError):
            k_alg._columns(which, list(monomial(_EXPONENT).terms), [])

    def test_ranks_build_no_superpoly(self, monkeypatch):
        # The ranks come from the codec columns alone: no SuperPoly
        # product, derivative or encoding per monomial.
        k_alg = KoszulAlgebra(2, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("the ranks went through SuperPoly arithmetic")

        monkeypatch.setattr(SuperPoly, "sum_of_products", staticmethod(refuse))
        monkeypatch.setattr(SuperPoly, "left_derivative", refuse)
        monkeypatch.setattr(GeneratorTable, "monomial", refuse)
        frozen = {row[:4]: row[4] for row in FROZEN_RANKS}
        for which, degree in (("koszul", -2), ("dual", 2)):
            assert k_alg.homology_ranks(which, degree, 6) == \
                HomologyRanks(*frozen[2, 2, which, degree])


def test_columns_keyed_by_monomial_rank_as_indexed_columns():
    # homology_scan ranks the codec's {target key: int} maps as they are;
    # relabelling the columns by target index leaves every rank alone
    k_alg = KoszulAlgebra(2, 2)
    for which, step in (("koszul", -1), ("dual", 1)):
        for k in range(4):
            for n in range(4):
                source = k_alg.basis(which, k, n)
                target = k_alg.basis(which, k + step, n + 1)
                assert _sparse_rank(k_alg._columns(which, source)) == \
                    _sparse_rank(k_alg._columns(which, source, target))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
def test_differential_matrix_ranks_as_its_columns(p, q):
    # the dense matrix out of each bidegree up to (2, 2) has the rank of
    # the sparse columns homology_scan ranks
    k_alg = KoszulAlgebra(p, q)
    checked = 0
    for which in ("koszul", "dual"):
        for k in range(3):
            for n in range(3):
                matrix = k_alg.differential_matrix(which, k, n)
                source = k_alg.basis(which, k, n)
                assert exact_rank(matrix) == _sparse_rank(k_alg._columns(which, source))
                checked += exact_rank(matrix)
    assert checked > 0


class TestHomology:
    def test_classical_line(self):
        k = KoszulAlgebra(1, 0)
        assert k.homology_ranks("koszul", 0, 4).homology_dim == 1
        assert k.homology_ranks("koszul", -1, 4).homology_dim == 0
        assert k.homology_ranks("koszul", -2, 4).homology_dim == 0

    def test_acyclic_negative_degrees_1_1(self):
        k = KoszulAlgebra(1, 1)
        for deg in (-1, -2, -3):
            ranks = k.homology_ranks("koszul", deg, 4)
            assert ranks.homology_dim == 0
            assert ranks.kernel_dim == ranks.image_dim

    def test_degree_zero_is_one_dimensional(self):
        for p, q in [(1, 1), (2, 1), (1, 2)]:
            assert KoszulAlgebra(p, q).homology_ranks(
                "koszul", 0, 4).homology_dim == 1

    def test_dual_concentrated_in_degree_p(self):
        k = KoszulAlgebra(1, 1)
        assert k.homology_ranks("dual", 0, 4).homology_dim == 0
        assert k.homology_ranks("dual", 1, 4).homology_dim == 1
        assert k.homology_ranks("dual", 2, 4).homology_dim == 0

    def test_dual_degree_p_for_2_1(self):
        k = KoszulAlgebra(2, 1)
        assert k.homology_ranks("dual", 2, 4) == HomologyRanks(
            k.homology_ranks("dual", 2, 4).kernel_dim,
            k.homology_ranks("dual", 2, 4).kernel_dim - 1, 1)

    def test_dual_degree_p_for_3_3(self):
        assert KoszulAlgebra(3, 3).homology_ranks("dual", 3, 4) == \
            HomologyRanks(992, 991, 1)

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_generator_class_never_appears_in_images(self, p, q):
        # at odd pq the class key is stored with the sign -1
        k = KoszulAlgebra(p, q)
        rng = random.Random(77)
        for _ in range(15):
            y = random_superpoly(rng, k.dual_table, terms=4, max_exp=2)
            assert k.class_coefficient(k.dual_delta(y)).is_zero()
        assert k.class_coefficient(k.dual_homology_generator()) == \
            SuperPoly.one(k.coefficient_table)

    def test_basis_requires_fiberwise_algebra(self):
        k = KoszulAlgebra(1, 1, coefficient_odds=["e1"])
        with pytest.raises(ValueError, match="fiberwise"):
            k.basis("koszul", 0, 0)

    @pytest.mark.parametrize("name", ["x1", "dth1", "dd_x1"])
    def test_coefficient_names_may_not_collide(self, name):
        with pytest.raises(ValueError, match="collide"):
            KoszulAlgebra(1, 1, coefficient_odds=["e1", name])

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)])
    def test_dual_class_is_the_total_de_rham_density(self, p, q):
        # the second and third definitions of the Berezinian: the Koszul
        # dual class is the density dx1...dxp (x) d_th1...d_thq of the
        # total complex, up to the sign of moving dd_th past dx
        k = KoszulAlgebra(p, q)
        u = UniversalElement(k.table, k.dual_homology_generator())
        density = UniversalElement.monomial(
            k.table, [f"dx{i}" for i in range(1, p + 1)],
            [f"th{a}" for a in range(1, q + 1)])
        assert u == density.scale((-1) ** (p * q))
        assert con3_identity_factor(u) == 0
        assert (script_H(script_D(u)) + script_D(script_H(u))).is_zero()
        # off the densities the factor is not zero: the unit has p + q
        assert con3_identity_factor(UniversalElement.monomial(k.table, [], [])) == p + q


# The full (kernel, image, homology) triple at every degree that
# `supercalc koszul` scans by default, at its default cutoff 6, as dense
# Gauss-Jordan elimination computed it: any change to how the differentials
# are built or ranked must reproduce these exactly.
FROZEN_RANKS = [
    (1, 1, "koszul", 0, (13, 12, 1)),
    (1, 1, "koszul", -1, (12, 12, 0)),
    (1, 1, "koszul", -2, (12, 12, 0)),
    (1, 1, "koszul", -3, (12, 12, 0)),
    (1, 1, "koszul", -4, (12, 12, 0)),
    (1, 1, "dual", 0, (0, 0, 0)),
    (1, 1, "dual", 1, (12, 11, 1)),
    (1, 1, "dual", 2, (12, 12, 0)),
    (1, 2, "koszul", 0, (24, 23, 1)),
    (1, 2, "koszul", -1, (45, 45, 0)),
    (1, 2, "koszul", -2, (67, 67, 0)),
    (1, 2, "koszul", -3, (89, 89, 0)),
    (1, 2, "koszul", -4, (111, 111, 0)),
    (1, 2, "dual", 0, (0, 0, 0)),
    (1, 2, "dual", 1, (21, 20, 1)),
    (1, 2, "dual", 2, (43, 43, 0)),
    (2, 1, "koszul", 0, (49, 48, 1)),
    (2, 1, "koszul", -1, (84, 84, 0)),
    (2, 1, "koszul", -2, (84, 84, 0)),
    (2, 1, "koszul", -3, (84, 84, 0)),
    (2, 1, "koszul", -4, (84, 84, 0)),
    (2, 1, "dual", 0, (0, 0, 0)),
    (2, 1, "dual", 1, (36, 36, 0)),
    (2, 1, "dual", 2, (84, 83, 1)),
    (2, 1, "dual", 3, (84, 84, 0)),
    (2, 2, "koszul", 0, (85, 84, 1)),
    (2, 2, "koszul", -1, (228, 228, 0)),
    (2, 2, "koszul", -2, (372, 372, 0)),
    (2, 2, "koszul", -3, (516, 516, 0)),
    (2, 2, "koszul", -4, (660, 660, 0)),
    (2, 2, "dual", 0, (0, 0, 0)),
    (2, 2, "dual", 1, (61, 61, 0)),
    (2, 2, "dual", 2, (204, 203, 1)),
    (2, 2, "dual", 3, (348, 348, 0)),
    (2, 3, "koszul", 0, (146, 145, 1)),
    (2, 3, "koszul", -1, (533, 533, 0)),
    (2, 3, "koszul", -2, (1165, 1165, 0)),
    (2, 3, "koszul", -3, (2041, 2041, 0)),
    (2, 3, "koszul", -4, (3161, 3161, 0)),
    (2, 3, "dual", 0, (0, 0, 0)),
    (2, 3, "dual", 1, (102, 102, 0)),
    (2, 3, "dual", 2, (445, 444, 1)),
    (2, 3, "dual", 3, (1033, 1033, 0)),
]


@pytest.mark.parametrize("p,q,which,degree,ranks", FROZEN_RANKS)
def test_frozen_ranks(p, q, which, degree, ranks):
    assert KoszulAlgebra(p, q).homology_ranks(which, degree, 6) == \
        HomologyRanks(*ranks)


@pytest.mark.parametrize("p,q,which", sorted({row[:3] for row in FROZEN_RANKS}))
def test_one_scan_gives_the_frozen_ranks(p, q, which):
    # one call ranks each map once, for the kernel of one degree and the
    # image of the next; every degree must still match its own answer
    rows = [row for row in FROZEN_RANKS if row[:3] == (p, q, which)]
    scan = KoszulAlgebra(p, q).homology_scan(
        which, [row[3] for row in rows], 6)
    assert scan == [HomologyRanks(*row[4]) for row in rows]


def test_scan_refuses_a_degree_outside_the_complex():
    with pytest.raises(ValueError, match="outside the complex"):
        KoszulAlgebra(1, 1).homology_scan("koszul", [0, -1, 1], 4)


class TestInducedAutomorphism:
    def test_identity_matrix(self):
        k = KoszulAlgebra(1, 1, coefficient_odds=["e1", "e2"])
        coeff = GeneratorTable.chart([], ["e1", "e2"])
        m = SuperMatrix.identity(coeff, 1, 1)
        assert k.induced_automorphism_scalar(m) == SuperPoly.one(
            k.coefficient_table)

    def test_block_diagonal_constant(self):
        k = KoszulAlgebra(1, 1, coefficient_odds=["e1", "e2"])
        coeff = GeneratorTable.chart([], ["e1", "e2"])
        two = SuperPoly.constant(coeff, Fraction(2))
        three = SuperPoly.constant(coeff, Fraction(3))
        m = SuperMatrix.block_diagonal(coeff, [[two]], [[three]])
        # class picks up det(D) * det(A)^{-1}
        assert k.induced_automorphism_scalar(m) == SuperPoly.constant(
            k.coefficient_table, Fraction(3, 2))

    def test_unit_triangular_leaves_class_fixed(self):
        k = KoszulAlgebra(1, 1, coefficient_odds=["e1", "e2"])
        coeff = GeneratorTable.chart([], ["e1", "e2"])
        one = SuperPoly.one(coeff)
        zero = SuperPoly.zero(coeff)
        eta = gen(coeff, "e1")
        upper = SuperMatrix(coeff, 1, 1, [[one]], [[eta]], [[zero]], [[one]])
        lower = SuperMatrix(coeff, 1, 1, [[one]], [[zero]], [[eta]], [[one]])
        assert k.induced_automorphism_scalar(upper) == SuperPoly.one(
            k.coefficient_table)
        assert k.induced_automorphism_scalar(lower) == SuperPoly.one(
            k.coefficient_table)

    @pytest.mark.parametrize("p,q,seed", [(1, 1, 61), (2, 1, 62), (2, 2, 63)])
    def test_scalar_is_reciprocal_berezinian(self, p, q, seed):
        k = KoszulAlgebra(p, q, coefficient_odds=["e1", "e2", "e3", "e4"])
        coeff = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])
        rng = random.Random(seed)
        for _ in range(8):
            m = random_invertible_supermatrix(rng, coeff, p, q)
            scalar = k.induced_automorphism_scalar(m)
            expected = transport_to_coeff(berezinian(m).inverse(), k)
            assert scalar == expected

    def test_shape_mismatch_rejected(self):
        k = KoszulAlgebra(1, 1)
        coeff = GeneratorTable.chart([], [])
        m = SuperMatrix.identity(coeff, 2, 1)
        with pytest.raises(ValueError, match="shape"):
            k.induced_automorphism_scalar(m)


def transport_to_coeff(poly, k):
    from supercalc.algebra import transport

    return transport(poly, k.coefficient_table)
