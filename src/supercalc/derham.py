"""Differential forms on a chart and the universal operator-valued complex.

Forms live in the supercommutative algebra obtained by extending a chart
table with one fiber symbol per coordinate: ``dx`` for an even coordinate
is odd and squares to zero, ``dth`` for an odd coordinate is even and has
unbounded powers.  The extension lists fiber symbols first, so a canonical
monomial always reads (fiber word) * (base word) with no hidden sign.

The module provides the differential d, the contracting scaling homotopy
for polynomial coefficients, pullback along coordinate maps, and the pair
of operators on form-tensor-operator elements whose anticommutator is a
degree-counting scalar; the monomials that scalar misses are exactly the
densities dz_1...dz_p (X) d_th1...d_thq * f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from supercalc.algebra import (
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    GeneratorTable,
    Monomial,
    SuperPoly,
    release_even_exponents,
    sort_odd_indices,
    transport,
)
from supercalc.charts import CoordinateMap
from supercalc.diffops import DerivMonomial, DiffOp

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
    """The de Rham differential: sum over coordinates of dy * (left d/dy)."""
    table = omega.table
    return SuperPoly.sum_of_products(table, [
        (SuperPoly.generator(table, fiber_name(name)), omega.left_derivative(name))
        for name in base_coordinate_names(table)])


def homotopy_h(omega: SuperPoly, k: int | None = None) -> SuperPoly:
    """Contracting homotopy for d on forms of fiber degree >= 1.

    Per monomial the scaling integral evaluates to the exact rational
    1/(fiber degree + base degree); the insertion operator replaces one
    fiber symbol by its base coordinate.  Needs polynomial data, which may
    come absorbed into rational-function coefficients (x^2*(1/x) is x);
    a proper quotient raises, since the radial scaling has no polynomial
    meaning there.
    """
    omega = release_even_exponents(omega)
    table = omega.table
    names = base_coordinate_names(table)
    pairs = []
    for mono, c in omega.terms.items():
        fd = fiber_degree(table, mono)
        if k is not None and fd != k:
            raise ValueError(f"form is not homogeneous of fiber degree {k}")
        if fd < 1:
            raise ValueError("homotopy is defined on fiber degree >= 1")
        weight = Fraction(1, fd + table.degree(mono, EVEN_BASE, ODD_BASE))
        term = SuperPoly(table, {mono: c * weight})
        pairs += [(SuperPoly.generator(table, name), term.left_derivative(fiber_name(name)))
                  for name in names]
    return SuperPoly.sum_of_products(table, pairs)


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
    source_names = base_coordinate_names(src_ext)
    for name in base_coordinate_names(tgt_ext):
        img = transport(m.images[name], src_ext)
        assignment[name] = img
        fib = SuperPoly.zero(src_ext)
        for b in source_names:
            der = img.left_derivative(b)
            if not der.is_zero():
                fib = fib + SuperPoly.generator(src_ext, fiber_name(b)) * der
        assignment[fiber_name(name)] = fib
    return omega.substitute(assignment, src_ext)


# ---------------------------------------------------------------------------
# The operator-valued complex

class UniversalElement:
    """Finite sum of monomials (fiber word) (x) (derivative word) * f.

    The function coefficient f sits to the RIGHT of the derivative word;
    that is the decomposition in which the contracting homotopy below acts
    termwise.  Scalars produced while reordering are folded into f.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable,
                 terms: Mapping[tuple[Monomial, DerivMonomial], SuperPoly]):
        self.table = table
        clean: dict[tuple[Monomial, DerivMonomial], SuperPoly] = {}
        for (mu, jw), f in terms.items():
            if f.is_zero():
                continue
            if any(table.classes[pos] not in (FIBER_EVEN, FIBER_ODD)
                   for pos, _ in table.powers(mu)):
                raise ValueError("form factor must be purely fiber content")
            clean[(mu, jw)] = f
        self.terms = clean

    @classmethod
    def zero(cls, table: GeneratorTable) -> "UniversalElement":
        return cls(table, {})

    @classmethod
    def monomial(cls, table: GeneratorTable, fiber_word: Sequence[str],
                 deriv_word: Sequence[str], f: SuperPoly | None = None,
                 coeff=1) -> "UniversalElement":
        """Build  (product of fiber symbols) (x) (product of derivatives) * f
        with both words in the written order."""
        fiber = SuperPoly.constant(table, Fraction(coeff))
        for name in fiber_word:
            fiber = fiber * SuperPoly.generator(table, name)
        if fiber.is_zero():
            return cls.zero(table)
        (mu, c), = fiber.terms.items()
        sign, jw = _deriv_key(DiffOp.zero(table),
                              tuple(table.index(name) for name in deriv_word))
        if sign == 0:
            return cls.zero(table)
        f = SuperPoly.one(table) if f is None else f
        return cls(table, {(mu, jw): f.scale(c * sign)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, UniversalElement):
            return NotImplemented
        terms = dict(self.terms)
        for key, f in other.terms.items():
            acc = terms.get(key)
            terms[key] = f if acc is None else acc + f
        return UniversalElement(self.table, terms)

    def __neg__(self):
        return UniversalElement(self.table, {k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, UniversalElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "UniversalElement":
        return UniversalElement(self.table,
                                {k: f.scale(c) for k, f in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, UniversalElement):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        ops = DiffOp.zero(self.table)
        chunks = []
        for (mu, jw), f in sorted(
                self.terms.items(), key=lambda kv: (kv[0][1], self.table.sort_key(kv[0][0]))):
            mu_str = str(SuperPoly(self.table, {mu: 1}))
            op = "*".join(f"dd_{self.table.names[pos]}"
                          for pos in ops._word(jw)) or "1"
            chunks.append(f"{mu_str} @ {op}*({f})")
        return " + ".join(chunks)

    __repr__ = __str__


def _base_positions(table: GeneratorTable) -> tuple[int, ...]:
    return table.positions_of_class(EVEN_BASE) + table.positions_of_class(ODD_BASE)


def _deriv_key(ops: DiffOp, word: tuple[int, ...]):
    """(sign, derivative monomial) of a word of derivative positions,
    the sign being that of sorting its odd letters; (0, None) when an odd
    letter repeats."""
    ell, odd_word = ops._mono_of_word(word)
    sign, eps = sort_odd_indices(odd_word)
    return sign, (None if sign == 0 else (ell, eps))


def script_D(u: UniversalElement) -> UniversalElement:
    """Multiplication by the odd element sum_a (fiber symbol a) (x) d_a."""
    table = u.table
    ops = DiffOp.zero(table)
    terms: dict = {}
    for (mu, jw), f in u.terms.items():
        mu_poly = SuperPoly(table, {mu: 1})
        mu_parity = mu_poly.parity()
        word = ops._word(jw)
        for pos in _base_positions(table):
            name = table.names[pos]
            sign = -1 if (table.parities[pos] and mu_parity) else 1
            prod = SuperPoly.generator(table, fiber_name(name)) * mu_poly
            if prod.is_zero():
                continue
            (new_mu, c), = prod.terms.items()
            extra, new_jw = _deriv_key(ops, (pos,) + word)
            if extra == 0:
                continue
            key = (new_mu, new_jw)
            add = f.scale(sign * c * extra)
            acc = terms.get(key)
            terms[key] = add if acc is None else acc + add
    return UniversalElement(table, terms)


def script_H(u: UniversalElement) -> UniversalElement:
    """Contracting homotopy: contract one fiber symbol, commute the matching
    coordinate through the derivative word."""
    table = u.table
    terms: dict = {}
    for (mu, jw), f in u.terms.items():
        mu_poly = SuperPoly(table, {mu: 1})
        dj = DiffOp(table, {jw: SuperPoly.one(table)})
        mu_parity = mu_poly.parity()
        j_parity = dj.parity()
        for pos in _base_positions(table):
            name = table.names[pos]
            xa_parity = table.parities[pos]
            sign = -1 if (xa_parity and (mu_parity + j_parity + 1) % 2) else 1
            contracted = mu_poly.left_derivative(fiber_name(name))
            if contracted.is_zero():
                continue
            br = dj.bracket(DiffOp.multiplication(SuperPoly.generator(table, name)))
            for jw2, c2 in br.terms.items():
                scalar = c2.scalar_part()
                if not SuperPoly.constant(table, scalar) == c2:
                    raise AssertionError(
                        "coordinate bracket left a non-constant coefficient")
                for new_mu, c_mu in contracted.terms.items():
                    add = f.scale(sign * c_mu * scalar)
                    key = (new_mu, jw2)
                    acc = terms.get(key)
                    terms[key] = add if acc is None else acc + add
    return UniversalElement(table, terms)


def con3_identity_factor(u: UniversalElement) -> int:
    """The scalar by which (HD + DH) multiplies a single monomial: zero
    exactly on the density monomials."""
    if len(u.terms) != 1:
        raise ValueError("factor is defined termwise; pass a single monomial")
    table = u.table
    p = len(table.positions_of_class(EVEN_BASE))
    q = len(table.positions_of_class(ODD_BASE))
    ((mu, (ell, eps)), _), = u.terms.items()
    deg0_mu = table.degree(mu, FIBER_EVEN)
    deg1_mu = table.degree(mu, FIBER_ODD)
    deg0_j = sum(ell)
    deg1_j = len(eps)
    return p + q + deg0_mu + deg0_j - deg1_mu - deg1_j
