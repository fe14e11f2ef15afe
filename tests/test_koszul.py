"""Koszul complex, its dual, exact homology ranks, and the action of an
automorphism on the distinguished dual class."""

import random
from fractions import Fraction

import pytest

from supercalc.algebra import GeneratorTable, SuperPoly
from supercalc.koszul import HomologyRanks, KoszulAlgebra, exact_rank
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


class TestDelta:
    def test_partner_generators_map_to_module_generators(self):
        k = KoszulAlgebra(1, 1)
        assert k.koszul_delta(gen(k.table, "piv1")) == gen(k.table, "v1")
        assert k.koszul_delta(gen(k.table, "pich1")) == gen(k.table, "ch1")

    def test_delta_squared_on_product(self):
        k = KoszulAlgebra(1, 1)
        e = gen(k.table, "piv1") * gen(k.table, "pich1")
        assert k.koszul_delta(k.koszul_delta(e)).is_zero()

    def test_delta_is_odd_and_lowers_partner_degree(self):
        k = KoszulAlgebra(2, 1)
        e = gen(k.table, "piv1") * gen(k.table, "piv2")
        out = k.koszul_delta(e)
        assert e.parity() == 0 and out.parity() == 1
        piv_positions = {k.table.index(n) for n in k.piv_names}

        def partner_degree(poly):
            return max(sum(power for pos, power in poly.table.powers(mono)
                           if pos in piv_positions)
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
        expected = (gen(t, "v1") * gen(t, "dpiv1") + gen(t, "v2") * gen(t, "dpiv2")
                    + gen(t, "ch1") * gen(t, "dpich1"))
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

    def test_generator_class_never_appears_in_images(self):
        k = KoszulAlgebra(2, 2)
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
