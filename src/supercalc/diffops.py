"""Normal-ordered differential operators on a supercommutative chart.

An operator over a table is one polynomial over its Weyl table: the table
followed by one derivative letter dd_z per base coordinate z, of z's
parity (:func:`derham.derivative_letters`).  Read in table order, a
monomial is  coefficient * d_x^l * d_th^eps  with the coefficient LEFT of
the letters and the odd letters ascending: the normal order.  Sums,
scaling, parity and left multiplication are polynomial operations, the
module ones inherited from :class:`~supercalc.algebra.PolyElement`.  Extra
generators in the table (form symbols, say) carry no letter and live in
the coefficients.  A vector field sum_z X^z d_z is the first-order operator
of this kind (:meth:`DiffOp.vector_field`); it has no type of its own.

Composition restores the normal order.  Summed over all words, the graded
Leibniz rule d o f = d(f) + (-1)^{|d||f|} f o d, i.e. [x_i, d_{x_j}] =
delta_ij and {theta_a, d_{theta_b}} = delta_ab, reads

    A o B = mu(exp(P) (A (x) B)),   P = sum_z (right d/d dd_z) (x) (left d/dz),

with mu the product of the polynomial algebra: mu(A (x) B) carries the
Koszul sign of B's coefficient passing A's letters, and each factor of P
lets one letter of A differentiate B's coefficient.

The right action on densities (``integral_forms.right_action``) reads the
same polynomial: (Ber @ f) . A = Ber @ (dd-free part of) exp(sum_z T_z)(f A),
with T_z = -(left d/dz) o (left d/d dd_z): one compiled word per dd word.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from typing import Mapping

from supercalc.algebra import (
    EVEN_BASE,
    ODD_BASE,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    GeneratorTable,
    Monomial,
    PolyElement,
    SuperPoly,
    _check_same_table,
    transport,
)
from supercalc.derham import DERIV_PREFIX, derivative_letters

# the classes the derivative letters borrow
_LETTERS = (POLYVECTOR_EVEN, POLYVECTOR_ODD)


@cache
def weyl_table(table: GeneratorTable) -> GeneratorTable:
    """The table followed by its derivative letters, once per table."""
    return table.extend((dd, c) for _, dd, c in derivative_letters(table))


class DiffOp(PolyElement):
    """Element of the Weyl superalgebra over a generator table.

    ``poly`` is the operator as one polynomial over ``weyl_table(table)``,
    each monomial in normal order.  Immutable; all operations return new
    instances.
    """

    __slots__ = ("table", "poly")

    def __init__(self, table: GeneratorTable, poly: SuperPoly):
        if poly.table != weyl_table(table):
            raise ValueError("polynomial is not over the operator's Weyl table")
        self.table = table
        self.poly = poly

    def _with(self, poly: SuperPoly) -> "DiffOp":
        out = DiffOp.__new__(DiffOp)
        out.table, out.poly = self.table, poly
        return out

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "DiffOp":
        return cls(table, SuperPoly.zero(weyl_table(table)))

    @classmethod
    def identity(cls, table: GeneratorTable) -> "DiffOp":
        return cls.multiplication(SuperPoly.one(table))

    @classmethod
    def multiplication(cls, f: SuperPoly) -> "DiffOp":
        """The operator 'multiply on the left by f'."""
        return cls(f.table, transport(f, weyl_table(f.table)))

    @classmethod
    def partial(cls, table: GeneratorTable, name: str) -> "DiffOp":
        """A single derivative symbol d_name."""
        if table.classes[table.index(name)] not in (EVEN_BASE, ODD_BASE):
            raise ValueError(f"{name!r} is not a base coordinate")
        return cls(table, SuperPoly.generator(weyl_table(table), DERIV_PREFIX + name))

    @classmethod
    def vector_field(cls, table: GeneratorTable,
                     components: Mapping[str, object]) -> "DiffOp":
        """The vector field sum_z X^z d_z, the components X^z keyed by base
        coordinate name (missing names mean zero) and given as numbers or
        as polynomials over ``table``."""
        coordinates = table.names_of_class(EVEN_BASE, ODD_BASE)
        out = cls.zero(table)
        for name, value in components.items():
            if name not in coordinates:
                raise ValueError(f"unknown coordinate {name!r}")
            if not isinstance(value, SuperPoly):
                value = SuperPoly.constant(table, value)
            if value.table != table:
                raise ValueError("component is not over the chart's coordinates")
            out = out + cls.partial(table, name).left_multiply(value)
        return out

    # --- views --------------------------------------------------------------

    def degree(self) -> int:
        """Filtration degree: highest total derivative order, -1 for zero."""
        weyl = self.poly.table
        return max((weyl.degree(m, *_LETTERS) for m in self.poly.terms), default=-1)

    def parity(self) -> int | None:
        return self.poly.parity()

    def homogeneous_parts(self) -> "tuple[DiffOp, DiffOp]":
        """Split into (even operator, odd operator)."""
        even, odd = self.poly.homogeneous_parts()
        return self._with(even), self._with(odd)

    def left_multiply(self, f: SuperPoly) -> "DiffOp":
        """f * D; cheap because coefficients already sit on the left."""
        return self._with(transport(f, self.poly.table) * self.poly)

    # --- composition ------------------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered operator product mu(exp(P) (self (x) other)):
        acting on a function f, the product acts as other on f and then
        self on the result.

        The derivatives in P commute, so exp(P) sums each multiset of
        letters once: the pairs of one level are those of the level below
        differentiated along a letter no earlier than their last, and a
        letter taken m times weighs 1/m!.  The loop stops at the first
        empty level, and one product sums all levels.
        """
        _check_same_table(self, other)
        letters = derivative_letters(self.table)
        pairs = []
        # (A part, B part, index of the last letter, times taken, weight)
        level = [(self.poly, other.poly, 0, 0, 1)]
        while level:
            below, level = level, []
            for left, right, last, run, weight in below:
                pairs.append((left, right if weight == 1 else right.scale(weight)))
                for i in range(last, len(letters)):
                    z, dd, _ = letters[i]
                    d_left = left.right_derivative(dd)
                    if not d_left:
                        continue
                    d_right = right.left_derivative(z)
                    if not d_right:
                        continue
                    taken = run + 1 if i == last else 1
                    level.append((d_left, d_right, i, taken, weight * Fraction(1, taken)))
        return self._with(SuperPoly.sum_of_products(self.poly.table, pairs))

    def bracket(self, other: "DiffOp") -> "DiffOp":
        """Super-commutator [D, E] = DE - (-1)^{|D||E|} ED, extended
        bilinearly over homogeneous parts."""
        _check_same_table(self, other)
        out = DiffOp.zero(self.table)
        for pd, dpart in zip((0, 1), self.homogeneous_parts()):
            if dpart.is_zero():
                continue
            for pe, epart in zip((0, 1), other.homogeneous_parts()):
                if epart.is_zero():
                    continue
                de = dpart.compose(epart)
                ed = epart.compose(dpart)
                out = out + (de + ed if pd and pe else de - ed)
        return out

    # --- rendering ---------------------------------------------------------------

    def __str__(self):
        weyl = self.poly.table
        rows = []
        for word, c in self.poly.collect(weyl.positions_of_class(*_LETTERS)).items():
            order, body = _word_text(weyl, word)
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            rows.append((order, f"{cs}*{body}" if body and cs != "1" else (body or cs)))
        return " + ".join(text for _, text in sorted(rows)) or "0"

    __repr__ = __str__


@lru_cache(maxsize=4096)
def _word_text(weyl: GeneratorTable, word: Monomial) -> tuple[tuple, str]:
    """The printing order of a word of derivative letters (total order, the
    even letters' orders, the odd letters) and its text."""
    pairs = weyl.powers(word)
    powers = dict(pairs)
    ell = tuple(powers.get(pos, 0) for pos in weyl.positions_of_class(POLYVECTOR_EVEN))
    eps = tuple(pos for pos, _ in pairs if weyl.parities[pos])
    body = "*".join(weyl.names[pos] + (f"^{k}" if k > 1 else "") for pos, k in pairs)
    return (sum(ell) + len(eps), ell, eps), body
