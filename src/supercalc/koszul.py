"""The two-sided Koszul complex of a free p|q module and its dual.

The complex lives in a single supercommutative algebra: even module
generators v_i, odd ones ch_a, their parity-reversed partners piv_i (odd)
and pich_a (even).  The differential is the odd derivation sending each
parity-reversed generator to its partner; the dual complex replaces the
parity-reversed generators by dual ones (dpiv_i, dpich_a) and the
differential by multiplication with the same odd element.

Homology is computed fiberwise over the rationals.  The differential
restricted to a bidegree (partner-side degree, module-side degree), both of
which are finite-dimensional, is written straight from the packed monomial
keys by ``GeneratorTable.pair_images``: sparse integer columns, one
{target key: int} map per source monomial, with no ``SuperPoly`` built.
``koszul_delta`` and ``dual_delta`` take the same steps to elements.
The columns are ranked by fraction-free sparse elimination, in integers
throughout; the differentials are about 1% dense, so no dense matrix is
formed.  ``homology_scan`` ranks the map out of each bidegree once per
call, for the kernel there and the image in the next degree.  Nothing is
kept between calls: a cache would serve only callers that repeat a query,
while holding its columns for the life of the algebra.

The dual complex has one-dimensional homology in degree p, generated by
ch_1...ch_q * dpiv_1...dpiv_p, and an automorphism of the module acts on
that class by the reciprocal of its Berezinian; the class transport is
computed by honest multiplication in the algebra, not by the determinant
formula, so the comparison with `berezinian` is a genuine cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, NamedTuple, Sequence

from supercalc.algebra import (DERIVE, MULTIPLY, GeneratorTable, Monomial, SuperPoly,
                               transport)
from supercalc.supermatrix import SuperMatrix


class HomologyRanks(NamedTuple):
    kernel_dim: int
    image_dim: int
    homology_dim: int


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of integer vectors given as {column: nonzero
    int} maps, by fraction-free elimination.  Columns are any ints, such
    as target monomial keys: the rank does not depend on their labels.

    Each vector is reduced against the pivot rows found so far, kept keyed
    by their leading column, divided by their content and with a positive
    leading entry.  Against a pivot with leading entry b, a row with
    leading entry a becomes (b/g) row - (a/g) pivot, where g = gcd(a, b);
    that clears the lead with no division, and scaling a row by a nonzero
    integer leaves the rank unchanged.  What survives becomes a new pivot
    row."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            a = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                content = gcd(*row.values())
                if a < 0:
                    content = -content
                pivots[lead] = (row if content == 1 else
                                {j: x // content for j, x in row.items()})
                break
            b = pivot[lead]
            if b != 1:
                g = gcd(a, b)
                a //= g
                if b != g:
                    scale = b // g
                    row = {j: scale * x for j, x in row.items()}
            for j, x in pivot.items():
                y = row.get(j, 0) - a * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals of a dense matrix given as rows of ints or
    Fractions.  Each row is first multiplied by the least common multiple
    of its denominators, which leaves the rank unchanged."""
    rows = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        rows.append({j: x.numerator * (den // x.denominator)
                     for j, x in enumerate(row) if x})
    return _sparse_rank(rows)


class KoszulAlgebra:
    """Both sides of the complex for a free module of rank p|q, optionally
    over a Grassmann coefficient algebra (for matrices with odd entries)."""

    def __init__(self, p: int, q: int,
                 coefficient_odds: Sequence[str] = ()):
        if p < 0 or q < 0:
            raise ValueError("ranks must be nonnegative")
        self.p = p
        self.q = q
        self.coefficient_odds = tuple(coefficient_odds)
        self.v_names = tuple(f"v{i}" for i in range(1, p + 1))
        self.ch_names = tuple(f"ch{a}" for a in range(1, q + 1))
        self.piv_names = tuple(f"piv{i}" for i in range(1, p + 1))
        self.pich_names = tuple(f"pich{a}" for a in range(1, q + 1))
        self.dpiv_names = tuple(f"dpiv{i}" for i in range(1, p + 1))
        self.dpich_names = tuple(f"dpich{a}" for a in range(1, q + 1))
        reserved = set(self.v_names + self.ch_names + self.piv_names
                       + self.pich_names + self.dpiv_names + self.dpich_names)
        if reserved & set(self.coefficient_odds):
            raise ValueError("coefficient generator names collide with the "
                             "module generator names")
        odds_prefix = list(self.coefficient_odds) + list(self.ch_names)
        self.table = GeneratorTable.chart(
            list(self.v_names) + list(self.pich_names),
            odds_prefix + list(self.piv_names))
        self.dual_table = GeneratorTable.chart(
            list(self.v_names) + list(self.dpich_names),
            odds_prefix + list(self.dpiv_names))
        self.coefficient_table = GeneratorTable.chart(
            [], list(self.coefficient_odds))
        # each side's table and its pair_images steps: module * (left
        # d/d partner) on the Koszul side, module * partner on the dual one
        self._sides = {
            which: (table, tuple((table.index(module), MULTIPLY, table.index(partner), op, 1)
                                 for module, partner in zip(
                                     self.v_names + self.ch_names, partners)))
            for which, table, partners, op in (
                ("koszul", self.table, self.piv_names + self.pich_names, DERIVE),
                ("dual", self.dual_table, self.dpiv_names + self.dpich_names, MULTIPLY))}

    # -- the differentials -------------------------------------------------

    def koszul_delta(self, e: SuperPoly) -> SuperPoly:
        """The odd derivation with piv_i -> v_i and pich_a -> ch_a: the
        sum of module * (left d/d partner) e over the p+q partners."""
        if e.table != self.table:
            raise ValueError("element is not in the Koszul algebra")
        return e.pair_sum(self._sides["koszul"][1])

    def dual_delta(self, e: SuperPoly) -> SuperPoly:
        """Multiplication by the odd element sum v_i dpiv_i + sum ch_a dpich_a."""
        if e.table != self.dual_table:
            raise ValueError("element is not in the dual algebra")
        return e.pair_sum(self._sides["dual"][1])

    # -- bigraded bases ----------------------------------------------------

    def basis(self, which: Literal["koszul", "dual"], k: int,
              n: int) -> list[Monomial]:
        """Monomials of partner-side degree k and module-side degree n."""
        if self.coefficient_odds:
            raise ValueError("homology bases are computed fiberwise; build "
                             "the algebra without coefficient generators")
        table, steps = self._sides[which]
        if k < 0 or n < 0:
            return []
        return table.graded_keys(([step[0] for step in steps], n),
                                 ([step[2] for step in steps], k))

    @staticmethod
    def _step(which: Literal["koszul", "dual"]) -> int:
        """How the differential moves the partner-side degree."""
        return -1 if which == "koszul" else 1

    def _columns(self, which: Literal["koszul", "dual"],
                 source: list[Monomial],
                 target: list[Monomial] | None = None
                 ) -> Iterable[dict[int, int]]:
        """The differential on the span of `source` as sparse integer
        columns, one {target key: int} map per source monomial, as one
        ``GeneratorTable.pair_images`` call writes them from the keys with
        the side's steps.  Given the `target` basis, a list of {target
        index: int} maps instead."""
        table, steps = self._sides[which]
        images = table.pair_images(source, steps)
        if target is None:
            return images
        index = {mono: i for i, mono in enumerate(target)}
        return [{index[mono]: c for mono, c in image.items()}
                for image in images]

    def differential_matrix(self, which: Literal["koszul", "dual"], k: int,
                            n: int) -> list[list[Fraction]]:
        """The differential out of bidegree (k, n), written in the monomial
        bases; rows index the target basis."""
        source = self.basis(which, k, n)
        target = self.basis(which, k + self._step(which), n + 1)
        matrix = [[Fraction(0)] * len(source) for _ in target]
        for col, column in enumerate(self._columns(which, source, target)):
            for row, c in column.items():
                matrix[row][col] = Fraction(c)
        return matrix

    def homology_scan(self, which: Literal["koszul", "dual"],
                      degrees: Sequence[int],
                      cutoff: int) -> list[HomologyRanks]:
        """Exact ranks at each of `degrees`, totalled over module-side
        degrees 0..cutoff.  Degrees above the cutoff are not examined, so a
        zero here certifies vanishing only within that window.  Within one
        call the map out of each bidegree is built and ranked once, serving
        both the kernel there and the image in the next degree."""
        if which not in ("koszul", "dual"):
            raise ValueError("which must be 'koszul' or 'dual'")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        ks = [-degree if which == "koszul" else degree for degree in degrees]
        if any(k < 0 for k in ks):
            raise ValueError("degree outside the complex")
        step = self._step(which)
        maps: dict[tuple[int, int], tuple[int, int]] = {}

        def map_out(k: int, n: int) -> tuple[int, int]:
            """(dimension, rank) of the map out of bidegree (k, n)."""
            if (k, n) not in maps:
                source = self.basis(which, k, n)
                maps[k, n] = len(source), _sparse_rank(
                    self._columns(which, source))
            return maps[k, n]

        out = []
        for k in ks:
            kernel = sum(dim - rank for dim, rank in
                         (map_out(k, n) for n in range(cutoff + 1)))
            image = (sum(map_out(k - step, n)[1] for n in range(cutoff))
                     if k - step >= 0 else 0)
            out.append(HomologyRanks(kernel, image, kernel - image))
        return out

    def homology_ranks(self, which: Literal["koszul", "dual"], degree: int,
                       cutoff: int) -> HomologyRanks:
        """Exact ranks at one homological degree: the one-degree
        ``homology_scan``."""
        return self.homology_scan(which, [degree], cutoff)[0]

    # -- the distinguished dual class and its transport --------------------

    def dual_homology_generator(self) -> SuperPoly:
        """ch_1...ch_q * dpiv_1...dpiv_p, the kernel class in degree p."""
        out = SuperPoly.one(self.dual_table)
        for name in self.ch_names + self.dpiv_names:
            out = out * SuperPoly.generator(self.dual_table, name)
        return out

    def class_coefficient(self, e: SuperPoly) -> SuperPoly:
        """Coefficient of the generator class in e, as an element of the
        coefficient algebra.  Multiples of the class never occur in an image
        of the dual differential (every image term carries a v or a dpich
        factor), so on a cycle this reads off the homology class."""
        if e.table != self.dual_table:
            raise ValueError("element is not in the dual algebra")
        table = self.dual_table
        (class_mono,) = self.dual_homology_generator().terms
        class_powers = set(table.powers(class_mono))
        coefficient_names = set(self.coefficient_odds)
        out = SuperPoly.zero(self.coefficient_table)
        for mono, c in e.terms.items():
            eta: dict[str, int] = {}
            module = set()
            for pos, k in table.powers(mono):
                if table.names[pos] in coefficient_names:
                    eta[table.names[pos]] = k
                else:
                    module.add((pos, k))
            if module == class_powers:
                out = out + SuperPoly.from_monomial(self.coefficient_table, eta, c)
        return out

    def induced_automorphism_scalar(self, m: SuperMatrix) -> SuperPoly:
        """Transport the degree-p dual class through the automorphism with
        matrix m (entries over the coefficient algebra) and return the
        scalar it gets multiplied by."""
        if (m.p, m.q) != (self.p, self.q):
            raise ValueError("matrix shape does not match the module ranks")
        table = self.dual_table

        def lift(entry):
            return transport(entry, table)

        n_inv = m.parity_swap().inverse().rows()
        elem = SuperPoly.one(table)
        for j in range(self.q):
            img = SuperPoly.zero(table)
            for h in range(self.p):
                img = img + lift(m.B[h][j]) * SuperPoly.generator(
                    table, self.v_names[h])
            for kk in range(self.q):
                img = img + lift(m.D[kk][j]) * SuperPoly.generator(
                    table, self.ch_names[kk])
            elem = elem * img
        duals = ([SuperPoly.generator(table, nm) for nm in self.dpich_names]
                 + [SuperPoly.generator(table, nm) for nm in self.dpiv_names])
        for i in range(self.p):
            img = SuperPoly.zero(table)
            for alpha, dual_gen in enumerate(duals):
                img = img + lift(n_inv[self.q + i][alpha]) * dual_gen
            elem = elem * img
        return self.class_coefficient(elem)
