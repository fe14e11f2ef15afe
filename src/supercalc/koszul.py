"""The two-sided Koszul complex of a free p|q module and its dual.

The complex lives in a single supercommutative algebra: even module
generators v_i, odd ones ch_a, their parity-reversed partners piv_i (odd)
and pich_a (even).  The differential is the odd derivation sending each
parity-reversed generator to its partner; the dual complex replaces the
parity-reversed generators by dual ones (dpiv_i, dpich_a) and the
differential by multiplication with the same odd element.

Homology is computed fiberwise over the rationals.  The differential
restricted to a bidegree (partner-side degree, module-side degree), both of
which are finite-dimensional, is built as sparse columns, one
{target index: coefficient} map per source monomial, and ranked by exact
sparse elimination; the differentials are about 1% dense, so no dense
matrix is formed.  Ranks are recomputed on every call and never cached:
one call needs each bidegree's rank once, so a cache would only serve
callers that repeat a query, while holding its columns for the life of
the algebra.  The dual
complex has one-dimensional homology in degree p, generated by
ch_1...ch_q * dpiv_1...dpiv_p, and an automorphism of the module acts on
that class by the reciprocal of its Berezinian; the class transport is
computed by honest multiplication in the algebra, not by the determinant
formula, so the comparison with `berezinian` is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Literal, NamedTuple, Sequence

from supercalc.algebra import GeneratorTable, Monomial, SuperPoly, _coeff_inverse, transport
from supercalc.supermatrix import SuperMatrix


class HomologyRanks(NamedTuple):
    kernel_dim: int
    image_dim: int
    homology_dim: int


def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _spread(positions: Sequence[int], total: int) -> list[list[tuple[int, int]]]:
    """Every way to spread `total` powers over the even generators at
    `positions`, each as its (position, power) pairs with nonzero power."""
    return [[(pos, e) for pos, e in zip(positions, comp) if e]
            for comp in _compositions(total, len(positions))]


def _sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """Rank over the rationals of vectors given as {column: nonzero value}
    maps.  Each vector is reduced against the pivot rows found so far, kept
    keyed by their leading column with leading entry 1; what survives
    becomes a new pivot row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = _coeff_inverse(row[lead])     # integer rows stay integer
                pivots[lead] = {j: x * inv for j, x in row.items()}
                break
            factor = row[lead]
            for j, x in pivot.items():
                y = row.get(j, 0) - factor * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(pivots)


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank over the rationals of a dense matrix given as rows."""
    return _sparse_rank([{j: x for j, x in enumerate(row) if x}
                         for row in matrix])


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
        # fixed operands of the differentials, built once per algebra
        self._delta_pairs = tuple(
            (SuperPoly.generator(self.table, module), partner)
            for module, partner in zip(self.v_names + self.ch_names,
                                       self.piv_names + self.pich_names))
        dual_element = SuperPoly.zero(self.dual_table)
        for module, partner in zip(self.v_names + self.ch_names,
                                   self.dpiv_names + self.dpich_names):
            dual_element = dual_element + (
                SuperPoly.generator(self.dual_table, module)
                * SuperPoly.generator(self.dual_table, partner))
        self._dual_element = dual_element

    # -- the differentials -------------------------------------------------

    def koszul_delta(self, e: SuperPoly) -> SuperPoly:
        """The odd derivation with piv_i -> v_i and pich_a -> ch_a: the
        sum of module * (left d/d partner) e over the p+q partners, built
        as one ``SuperPoly.sum_of_products``."""
        if e.table != self.table:
            raise ValueError("element is not in the Koszul algebra")
        return SuperPoly.sum_of_products(self.table, [
            (module, e.left_derivative(partner))
            for module, partner in self._delta_pairs])

    def dual_delta(self, e: SuperPoly) -> SuperPoly:
        """Multiplication by the odd element sum v_i dpiv_i + sum ch_a dpich_a."""
        if e.table != self.dual_table:
            raise ValueError("element is not in the dual algebra")
        return self._dual_element * e

    # -- bigraded bases ----------------------------------------------------

    def _names_for(self, which: Literal["koszul", "dual"]):
        table = self.table if which == "koszul" else self.dual_table
        pi_odd = self.piv_names if which == "koszul" else self.dpiv_names
        pi_even = self.pich_names if which == "koszul" else self.dpich_names
        return table, pi_odd, pi_even

    def basis(self, which: Literal["koszul", "dual"], k: int,
              n: int) -> list[Monomial]:
        """Monomials of partner-side degree k and module-side degree n."""
        if self.coefficient_odds:
            raise ValueError("homology bases are computed fiberwise; build "
                             "the algebra without coefficient generators")
        table, pi_odd, pi_even = self._names_for(which)
        if k < 0 or n < 0:
            return []
        v_pos = [table.index(nm) for nm in self.v_names]
        pi_even_pos = [table.index(nm) for nm in pi_even]
        ch_pos = [table.index(nm) for nm in self.ch_names]
        pi_odd_pos = [table.index(nm) for nm in pi_odd]
        pich_powers = [_spread(pi_even_pos, k - k_odd)
                       for k_odd in range(min(self.p, k) + 1)]
        out: list[Monomial] = []
        for r_odd in range(min(self.q, n) + 1):
            v_powers = _spread(v_pos, n - r_odd)
            for ch_subset in itertools.combinations(ch_pos, r_odd):
                for v in v_powers:
                    for k_odd, pich_list in enumerate(pich_powers):
                        for piv_subset in itertools.combinations(pi_odd_pos, k_odd):
                            odd = [(i, 1) for i in ch_subset + piv_subset]
                            for pich in pich_list:
                                out.append(table.monomial(v + pich + odd)[1])
        return out

    @staticmethod
    def _step(which: Literal["koszul", "dual"]) -> int:
        """How the differential moves the partner-side degree."""
        return -1 if which == "koszul" else 1

    def _columns(self, which: Literal["koszul", "dual"],
                 source: list[Monomial],
                 target: list[Monomial]) -> list[dict[int, Fraction]]:
        """The differential from the span of `source` into that of `target`
        as sparse columns, one {target index: coefficient} map per source
        monomial; integral coefficients are ints, which keeps the
        elimination in integer arithmetic."""
        table, _, _ = self._names_for(which)
        op = self.koszul_delta if which == "koszul" else self.dual_delta
        index = {mono: i for i, mono in enumerate(target)}
        return [{index[out_mono]: c
                 for out_mono, c in op(SuperPoly(table, {mono: 1})).terms.items()}
                for mono in source]

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

    def homology_ranks(self, which: Literal["koszul", "dual"], degree: int,
                       cutoff: int) -> HomologyRanks:
        """Exact ranks at one homological degree, totalled over module-side
        degrees 0..cutoff.  Degrees above the cutoff are not examined, so a
        zero here certifies vanishing only within that window."""
        if which not in ("koszul", "dual"):
            raise ValueError("which must be 'koszul' or 'dual'")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        k = -degree if which == "koszul" else degree
        if k < 0:
            raise ValueError("degree outside the complex")
        step = self._step(which)
        kernel = 0
        image = 0
        for n in range(cutoff + 1):
            here = self.basis(which, k, n)
            out = self._columns(which, here, self.basis(which, k + step, n + 1))
            kernel += len(here) - _sparse_rank(out)
            if n >= 1 and k - step >= 0:
                image += _sparse_rank(self._columns(
                    which, self.basis(which, k - step, n - 1), here))
        return HomologyRanks(kernel, image, kernel - image)

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
