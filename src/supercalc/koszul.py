"""The two-sided Koszul complex of a free p|q module and its dual, run on
the tables and steps of :mod:`supercalc.derham`.

The Koszul side lives on the form table of R^{p|q}: the module generators
are the coordinates x_i (even) and th_a (odd), their parity-reversed
partners the fiber symbols dx_i (odd) and dth_a (even).  The differential
is the odd derivation dx_i -> x_i, dth_a -> th_a, that is sum_z z * (left
d/d dz): the step of ``derham.homotopy_h`` without its weight.  The dual
side lives on the symbol table of the total de Rham complex: the module
generators are the derivative letters dd_x_i (even) and dd_th_a (odd), the
dual partners again dx_i and dth_a, and the differential is multiplication
by the odd element sum_z dz*dd_z, which is ``derham.script_D``.  The
coordinates of the symbol table take no part in the dual complex.

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
dd_th1...dd_thq * dx1...dxp.  That is a density of the total de Rham
complex, so the Koszul class and the total de Rham class of the Berezinian
are one element.  An automorphism of the module acts on the class by the
reciprocal of its Berezinian; the class transport is computed by honest
multiplication in the algebra, not by the determinant formula, so the
comparison with `berezinian` is a genuine cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Literal, NamedTuple, Sequence

from supercalc.algebra import ODD_BASE, GeneratorTable, Monomial, SuperPoly, transport
from supercalc.charts import Chart
from supercalc.derham import _pair_steps, _symbol_table, form_table
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
    over a Grassmann coefficient algebra (for matrices with odd entries),
    whose letters are appended to both tables."""

    def __init__(self, p: int, q: int,
                 coefficient_odds: Sequence[str] = ()):
        if p < 0 or q < 0:
            raise ValueError("ranks must be nonnegative")
        self.p = p
        self.q = q
        self.coefficient_odds = tuple(coefficient_odds)
        self._forms = form_table(Chart.standard(p, q).table)
        symbols = _symbol_table(self._forms)
        if set(symbols.names) & set(self.coefficient_odds):
            raise ValueError("coefficient generator names collide with the "
                             "module generator names")
        coefficients = [(name, ODD_BASE) for name in self.coefficient_odds]
        self.table = self._forms.extend(coefficients) if coefficients else self._forms
        self.dual_table = symbols.extend(coefficients) if coefficients else symbols
        self.coefficient_table = GeneratorTable.chart([], self.coefficient_odds)

    def _side(self, which: Literal["koszul", "dual"]) -> tuple[GeneratorTable, tuple, int]:
        """A side's table, its ``pair_images`` steps and the slot of the
        module letter in a step (the partner sits in the other one)."""
        if which == "koszul":
            return self.table, _pair_steps(self._forms)[1], 0
        return self.dual_table, _pair_steps(self._forms)[2], 2

    # -- the differentials -------------------------------------------------

    def koszul_delta(self, e: SuperPoly) -> SuperPoly:
        """The odd derivation with dx_i -> x_i and dth_a -> th_a: the sum
        of z * (left d/d dz) e over the p+q coordinates z."""
        if e.table != self.table:
            raise ValueError("element is not in the Koszul algebra")
        return e.pair_sum(self._side("koszul")[1])

    def dual_delta(self, e: SuperPoly) -> SuperPoly:
        """Multiplication by the odd element sum_z dz*dd_z."""
        if e.table != self.dual_table:
            raise ValueError("element is not in the dual algebra")
        return e.pair_sum(self._side("dual")[1])

    # -- bigraded bases ----------------------------------------------------

    def basis(self, which: Literal["koszul", "dual"], k: int,
              n: int) -> list[Monomial]:
        """Monomials of partner-side degree k and module-side degree n."""
        if self.coefficient_odds:
            raise ValueError("homology bases are computed fiberwise; build "
                             "the algebra without coefficient generators")
        table, steps, module = self._side(which)
        if k < 0 or n < 0:
            return []
        return table.graded_keys(([step[module] for step in steps], n),
                                 ([step[2 - module] for step in steps], k))

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
        table, steps, _ = self._side(which)
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
        """dd_th1...dd_thq * dx1...dxp, the kernel class in degree p and a
        density of the total de Rham complex."""
        table, steps, _ = self._side("dual")
        sign, key = table.monomial([(step[2], 1) for step in steps[self.p:]]
                                   + [(step[0], 1) for step in steps[:self.p]])
        return SuperPoly(table, {key: sign})

    def class_coefficient(self, e: SuperPoly) -> SuperPoly:
        """Coefficient of the generator class in e, as an element of the
        coefficient algebra.  Multiples of the class never occur in an image
        of the dual differential (every image term carries a dd_x or a dth
        factor), so on a cycle this reads off the homology class.  The class
        key is stored with the sign of sorting dx before dd_th, (-1)^{pq},
        which the coefficient takes back."""
        if e.table != self.dual_table:
            raise ValueError("element is not in the dual algebra")
        (key, sign), = self.dual_homology_generator().terms.items()
        module = range(len(_symbol_table(self._forms).names))
        c = e.collect(module).get(key)
        if c is None:
            return SuperPoly.zero(self.coefficient_table)
        return transport(c.scale(sign), self.coefficient_table)

    def induced_automorphism_scalar(self, m: SuperMatrix) -> SuperPoly:
        """Transport the degree-p dual class through the automorphism with
        matrix m (entries over the coefficient algebra) and return the
        scalar it gets multiplied by."""
        if (m.p, m.q) != (self.p, self.q):
            raise ValueError("matrix shape does not match the module ranks")
        table, steps, _ = self._side("dual")

        def letters(slot: int) -> list[SuperPoly]:
            return [SuperPoly.generator(table, table.names[step[slot]]) for step in steps]

        def image(column: list[SuperPoly], gens: list[SuperPoly]) -> SuperPoly:
            return SuperPoly.sum_of_products(
                table, [(transport(entry, table), gen) for entry, gen in zip(column, gens)])

        modules, partners = letters(2), letters(0)
        # the parity-reversed module lists its even letters (dth) first
        duals = partners[self.p:] + partners[:self.p]
        n_inv = m.parity_swap().inverse().rows()
        elem = SuperPoly.one(table)
        for j in range(self.q):
            elem = elem * image([m.B[h][j] for h in range(self.p)]
                                + [m.D[k][j] for k in range(self.q)], modules)
        for i in range(self.p):
            elem = elem * image(n_inv[self.q + i], duals)
        return self.class_coefficient(elem)
