"""Differential forms on a chart and the universal operator-valued complex.

Forms live in the supercommutative algebra obtained by extending a chart
table with one fiber symbol per coordinate: ``dx`` for an even coordinate
is odd and squares to zero, ``dth`` for an odd coordinate is even and has
unbounded powers.  The extension lists fiber symbols first, so a canonical
monomial always reads (fiber word) * (base word) with no hidden sign.

The module provides the differential d, the contracting scaling homotopy
for polynomial coefficients and pullback along coordinate maps.

It also holds the total complex of forms tensor differential operators.
An element (:class:`UniversalElement`) is one polynomial over the form
table with one derivative letter dd_z, of z's parity, inserted between
the fiber symbols and the coordinates, so that a monomial written in table
order reads (fiber word) (x) (derivative word) * f.  The complex's two
operators are polynomial operations:

    script_D   left multiplication by sum_z dz*dd_z,
    script_H   sum_z of the left derivative along dz, then along dd_z.

Their anticommutator multiplies a monomial by p + q + (even fiber and
derivative degree) - (odd fiber and derivative degree), which is zero
exactly on the densities dz_1...dz_p (X) d_th1...d_thq * f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from typing import Sequence

from supercalc.algebra import (
    DERIVE,
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    MULTIPLY,
    GeneratorTable,
    Monomial,
    PolyElement,
    SuperPoly,
    release_even_exponents,
    transport,
)
from supercalc.charts import CoordinateMap

FIBER_PREFIX = "d"


def fiber_name(name: str) -> str:
    return FIBER_PREFIX + name


@cache
def form_table(base: GeneratorTable) -> GeneratorTable:
    """Extend a chart table by its fiber symbols (listed first), once per base."""
    evens = base.names_of_class(EVEN_BASE)
    odds = base.names_of_class(ODD_BASE)
    if len(evens) + len(odds) != len(base.names):
        raise ValueError("form_table expects a pure chart table")
    gens = [(fiber_name(n), FIBER_ODD) for n in evens]
    gens += [(fiber_name(n), FIBER_EVEN) for n in odds]
    gens += list(base.gens)
    return GeneratorTable(gens)


def base_coordinate_names(table: GeneratorTable) -> tuple[str, ...]:
    return table.names_of_class(EVEN_BASE) + table.names_of_class(ODD_BASE)


def fiber_degree(table: GeneratorTable, mono: Monomial) -> int:
    """Number of fiber symbols, with multiplicity."""
    return table.degree(mono, FIBER_EVEN, FIBER_ODD)


def degree_parts(omega: SuperPoly) -> dict[int, SuperPoly]:
    """Split a form by its fiber degree."""
    table = omega.table
    parts: dict[int, dict] = {}
    for mono, c in omega.terms.items():
        parts.setdefault(fiber_degree(table, mono), {})[mono] = c
    return {k: SuperPoly(table, terms) for k, terms in sorted(parts.items())}


def d(omega: SuperPoly) -> SuperPoly:
    """The de Rham differential sum_y dy * (left d/dy), one ``SuperPoly.pair_sum``."""
    return omega.pair_sum(_pair_steps(omega.table)[0])


def homotopy_h(omega: SuperPoly, k: int | None = None) -> SuperPoly:
    """Contracting homotopy for d on forms of fiber degree >= 1.

    Per monomial the scaling integral evaluates to the exact rational
    1/(fiber degree + base degree); the insertion operator replaces one
    fiber symbol by its base coordinate.  Needs polynomial data, which may
    come absorbed into rational-function coefficients (x^2*(1/x) is x);
    a proper quotient raises, since the radial scaling has no polynomial
    meaning there.

    Each term's weight w is an int, and the insertion is one
    ``SuperPoly.pair_sum`` over the integer numerators c * D / w, with D
    the lcm over the terms of w times the coefficient's denominator.
    """
    omega = release_even_exponents(omega)
    table = omega.table
    weights = []
    for mono, c in omega.terms.items():
        fd = fiber_degree(table, mono)
        if k is not None and fd != k:
            raise ValueError(f"form is not homogeneous of fiber degree {k}")
        if fd < 1:
            raise ValueError("homotopy is defined on fiber degree >= 1")
        weights.append((mono, c, fd + table.degree(mono, EVEN_BASE, ODD_BASE)))
    return _weighted_pair_sum(table, weights, _pair_steps(table)[1])


def _weighted_pair_sum(table: GeneratorTable, weights: list[tuple[Monomial, object, int]],
                       steps: tuple) -> SuperPoly:
    """The image of sum c/w * mono over the (mono, c, w) terms under the
    ``pair_images`` steps: one ``SuperPoly.pair_sum`` over the integer
    numerators c * D / w, D the lcm of w times c's denominator."""
    den = lcm(*{w * c.denominator for _, c, w in weights})
    numerators = {mono: c.numerator * (den // (w * c.denominator)) for mono, c, w in weights}
    return SuperPoly._of(table, numerators).pair_sum(steps, den)


def pullback_form(m: CoordinateMap, omega: SuperPoly) -> SuperPoly:
    """Pull a form on the target chart back along the map; fiber symbols
    transform through the derivatives of the coordinate images, which makes
    the operation commute with d."""
    src_ext = form_table(m.source.table)
    tgt_ext = form_table(m.target.table)
    if omega.table == m.target.table:
        omega = transport(omega, tgt_ext)
    elif omega.table != tgt_ext:
        raise ValueError("form is not over the target chart")
    assignment: dict[str, SuperPoly] = {}
    for name in base_coordinate_names(tgt_ext):
        img = transport(m.images[name], src_ext)
        assignment[name] = img
        assignment[fiber_name(name)] = d(img)
    return omega.substitute(assignment, src_ext)


# ---------------------------------------------------------------------------
# The operator-valued complex

DERIV_PREFIX = "dd_"
_LETTERS = (FIBER_EVEN, FIBER_ODD, POLYVECTOR_EVEN, POLYVECTOR_ODD)


@cache
def derivative_letters(table: GeneratorTable) -> tuple[tuple[str, str, str], ...]:
    """(z, dd_z, class of dd_z) for each base coordinate z of a table, in
    table order, once per table.

    The letter dd_z has z's parity and borrows the polyvector class for it
    (even dd_x, odd dd_th), so a table with polyvector letters of its own
    is refused: the classes could then be confused.
    """
    if table.positions_of_class(POLYVECTOR_EVEN, POLYVECTOR_ODD):
        raise ValueError("derivative letters need a table without polyvector letters")
    return tuple((n, DERIV_PREFIX + n, POLYVECTOR_ODD if c == ODD_BASE else POLYVECTOR_EVEN)
                 for n, c in table.gens if c in (EVEN_BASE, ODD_BASE))


@cache
def _symbol_table(table: GeneratorTable) -> GeneratorTable:
    """The symbols of the operator complex over a form table, once per table:
    its fiber symbols, then the derivative letters, then the coordinates."""
    fiber = [g for g in table.gens if g[1] in (FIBER_EVEN, FIBER_ODD)]
    base = [g for g in table.gens if g[1] in (EVEN_BASE, ODD_BASE)]
    if [g[0] for g in fiber] != [fiber_name(n) for n, _ in base]:
        raise ValueError("the operator complex lives over a form table")
    return GeneratorTable(fiber + [(dd, c) for _, dd, c in derivative_letters(table)] + base)


class UniversalElement(PolyElement):
    """Finite sum of monomials (fiber word) (x) (derivative word) * f.

    The element is one polynomial ``poly`` over ``_symbol_table(table)``,
    ``table`` being the form table: the derivative d/dz is the letter dd_z,
    and a stored monomial, written in table order, reads (fiber word) (x)
    (derivative word) * f with the function f to the RIGHT of the
    derivative word, the decomposition in which the contracting homotopy
    acts termwise.  Odd letters sort block by block, so the sign of a term
    is that of its fiber word times that of its derivative word.
    """

    __slots__ = ("table", "poly")

    def __init__(self, table: GeneratorTable, poly: SuperPoly):
        if poly.table != _symbol_table(table):
            raise ValueError("polynomial is not over the operator symbols")
        self.table = table
        self.poly = poly

    def _with(self, poly: SuperPoly) -> "UniversalElement":
        out = UniversalElement.__new__(UniversalElement)
        out.table, out.poly = self.table, poly
        return out

    @classmethod
    def zero(cls, table: GeneratorTable) -> "UniversalElement":
        return cls(table, SuperPoly.zero(_symbol_table(table)))

    @classmethod
    def monomial(cls, table: GeneratorTable, fiber_word: Sequence[str],
                 deriv_word: Sequence[str], f: SuperPoly | None = None,
                 coeff=1) -> "UniversalElement":
        """Build  (product of fiber symbols) (x) (product of derivatives) * f
        with both words in the written order and f a function of the
        coordinates."""
        symbols = _symbol_table(table)
        if any(symbols.classes[symbols.index(name)] not in (FIBER_EVEN, FIBER_ODD)
               for name in fiber_word):
            raise ValueError("form factor must be purely fiber content")
        f = SuperPoly.one(symbols) if f is None else transport(f, symbols)
        if any(symbols.degree(mono, *_LETTERS) for mono in f.terms):
            raise ValueError("coefficient must be a function of the coordinates")
        sign, word = symbols.monomial(
            [(symbols.index(name), 1) for name in fiber_word]
            + [(symbols.index(DERIV_PREFIX + name), 1) for name in deriv_word])
        if sign == 0:
            return cls.zero(table)
        return cls(table, SuperPoly(symbols, {word: sign * Fraction(coeff)}) * f)

    def __str__(self):
        symbols = self.poly.table
        fiber = symbols.positions_of_class(FIBER_EVEN, FIBER_ODD)
        rows = []
        for letters, f in self.poly.collect(symbols.positions_of_class(*_LETTERS)).items():
            pairs = symbols.powers(letters)
            _, mu = symbols.monomial([(pos, k) for pos, k in pairs if pos in fiber])
            word = [pos for pos, k in pairs if pos not in fiber for _ in range(k)]
            ell = tuple(word.count(pos) for pos in symbols.positions_of_class(POLYVECTOR_EVEN))
            eps = tuple(pos for pos in word if symbols.parities[pos])
            if symbols.degree(letters, FIBER_ODD, POLYVECTOR_ODD) % 2:
                even, odd = f.homogeneous_parts()
                f = even - odd      # collect put f to the left of the letters
            op = "*".join(symbols.names[pos] for pos in word) or "1"
            rows.append(((ell, eps, symbols.sort_key(mu)),
                         f"{SuperPoly(symbols, {mu: 1})} @ {op}*({f})"))
        return " + ".join(text for _, text in sorted(rows)) or "0"

    __repr__ = __str__


@cache
def _pair_steps(table: GeneratorTable) -> tuple[tuple, tuple, tuple, tuple]:
    """The ``pair_images`` steps of :func:`d` (dz d/dz), :func:`homotopy_h`
    (z d/d dz), :func:`script_D` (dz dd_z) and :func:`script_H` (d/d dd_z
    d/d dz) over a form table and its symbols, once per table."""
    letters = derivative_letters(table)
    forms = [(table.index(fiber_name(z)), table.index(z)) for z, _, _ in letters]
    symbols = _symbol_table(table)
    ops = [(symbols.index(fiber_name(z)), symbols.index(dd)) for z, dd, _ in letters]
    return (tuple((dz, MULTIPLY, z, DERIVE, 1) for dz, z in forms),
            tuple((z, MULTIPLY, dz, DERIVE, 1) for dz, z in forms),
            tuple((dz, MULTIPLY, dd, MULTIPLY, 1) for dz, dd in ops),
            tuple((dd, DERIVE, dz, DERIVE, 1) for dz, dd in ops))


def script_D(u: UniversalElement) -> UniversalElement:
    """Multiplication by the odd element sum_z dz (x) d/dz: left
    multiplication of the polynomial by sum_z dz*dd_z."""
    return u._with(u.poly.pair_sum(_pair_steps(u.table)[2]))


def script_H(u: UniversalElement) -> UniversalElement:
    """Contracting homotopy: contract one fiber symbol dz and commute the
    coordinate z through the derivative word, which on the polynomial is
    the left derivative along dz and then along dd_z."""
    return u._with(u.poly.pair_sum(_pair_steps(u.table)[3]))


def con3_identity_factor(u: UniversalElement) -> int:
    """The scalar by which (HD + DH) multiplies a single monomial: zero
    exactly on the density monomials."""
    symbols = u.poly.table
    keys = u.poly.collect(symbols.positions_of_class(*_LETTERS))
    if len(keys) != 1:
        raise ValueError("factor is defined termwise; pass a single monomial")
    letters, = keys
    return (len(symbols.positions_of_class(EVEN_BASE, ODD_BASE))
            + symbols.degree(letters, FIBER_EVEN, POLYVECTOR_EVEN)
            - symbols.degree(letters, FIBER_ODD, POLYVECTOR_ODD))
