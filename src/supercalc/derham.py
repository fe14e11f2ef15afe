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
from typing import Mapping, Sequence

from supercalc.algebra import (
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    GeneratorTable,
    Monomial,
    RationalFunction,
    SuperPoly,
    merge_odd_indices,
    sort_odd_indices,
    transport,
)
from supercalc.charts import CoordinateMap
from supercalc.diffops import DerivMonomial, DiffOp

FIBER_PREFIX = "d"


def fiber_name(name: str) -> str:
    return FIBER_PREFIX + name


def form_table(base: GeneratorTable) -> GeneratorTable:
    """Extend a chart table by its fiber symbols (listed first)."""
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
    ev, od = mono
    total = 0
    for slot, k in enumerate(ev):
        if table.classes[table.even_positions[slot]] == FIBER_EVEN:
            total += k
    total += sum(1 for i in od if table.classes[i] == FIBER_ODD)
    return total


def base_degree(table: GeneratorTable, mono: Monomial) -> int:
    ev, od = mono
    total = 0
    for slot, k in enumerate(ev):
        if table.classes[table.even_positions[slot]] == EVEN_BASE:
            total += k
    total += sum(1 for i in od if table.classes[i] == ODD_BASE)
    return total


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
    out = SuperPoly.zero(table)
    for name in base_coordinate_names(table):
        dy = SuperPoly.generator(table, fiber_name(name))
        der = omega.left_derivative(name)
        if not der.is_zero():
            out = out + dy * der
    return out


def homotopy_h(omega: SuperPoly, k: int | None = None) -> SuperPoly:
    """Contracting homotopy for d on forms of fiber degree >= 1.

    Per monomial the scaling integral evaluates to the exact rational
    1/(fiber degree + base degree); the insertion operator replaces one
    fiber symbol by its base coordinate.  Requires plain rational
    coefficients: with quotients the radial scaling has no polynomial
    meaning.
    """
    table = omega.table
    names = base_coordinate_names(table)
    out = SuperPoly.zero(table)
    for mono, c in omega.terms.items():
        if isinstance(c, RationalFunction):
            raise ValueError("homotopy needs polynomial coefficients; "
                             "rational-function coefficients are unsupported")
        fd = fiber_degree(table, mono)
        if k is not None and fd != k:
            raise ValueError(f"form is not homogeneous of fiber degree {k}")
        if fd < 1:
            raise ValueError("homotopy is defined on fiber degree >= 1")
        weight = Fraction(1, fd + base_degree(table, mono))
        term = SuperPoly(table, {mono: c})
        for name in names:
            der = term.left_derivative(fiber_name(name))
            if not der.is_zero():
                out = out + SuperPoly.generator(table, name) * der.scale(weight)
    return out


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
            ev, od = mu
            for slot, k in enumerate(ev):
                if k and table.classes[table.even_positions[slot]] != FIBER_EVEN:
                    raise ValueError("form factor must be purely fiber content")
            if any(table.classes[i] != FIBER_ODD for i in od):
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

        even_deriv = table.positions_of_class(EVEN_BASE)
        slot_of = {pos: k for k, pos in enumerate(even_deriv)}
        ell = [0] * len(even_deriv)
        odd_word: list[int] = []
        for name in deriv_word:
            pos = table.index(name)
            if table.parities[pos] == 0:
                ell[slot_of[pos]] += 1
            else:
                odd_word.append(pos)
        sign, eps = sort_odd_indices(odd_word)
        if sign == 0:
            return cls.zero(table)
        f = SuperPoly.one(table) if f is None else f
        return cls(table, {((mu), (tuple(ell), eps)): f.scale(c * sign)})

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
        chunks = []
        for (mu, (ell, eps)), f in sorted(
                self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            mu_str = str(SuperPoly(self.table, {mu: Fraction(1)}))
            even_deriv = self.table.positions_of_class(EVEN_BASE)
            symbols = []
            for slot, k in enumerate(ell):
                name = self.table.names[even_deriv[slot]]
                symbols.extend([f"dd_{name}"] * k)
            symbols.extend(f"dd_{self.table.names[i]}" for i in eps)
            op = "*".join(symbols) or "1"
            chunks.append(f"{mu_str} @ {op}*({f})")
        return " + ".join(chunks)

    __repr__ = __str__


def _base_positions(table: GeneratorTable) -> tuple[int, ...]:
    return table.positions_of_class(EVEN_BASE) + table.positions_of_class(ODD_BASE)


def script_D(u: UniversalElement) -> UniversalElement:
    """Multiplication by the odd element sum_a (fiber symbol a) (x) d_a."""
    table = u.table
    even_deriv = table.positions_of_class(EVEN_BASE)
    slot_of = {pos: k for k, pos in enumerate(even_deriv)}
    terms: dict = {}
    for (mu, (ell, eps)), f in u.terms.items():
        mu_parity = len(mu[1]) & 1
        mu_poly = SuperPoly(table, {mu: Fraction(1)})
        for pos in _base_positions(table):
            name = table.names[pos]
            sign = -1 if (table.parities[pos] and mu_parity) else 1
            prod = SuperPoly.generator(table, fiber_name(name)) * mu_poly
            if prod.is_zero():
                continue
            (new_mu, c), = prod.terms.items()
            if table.parities[pos] == 0:
                new_ell = list(ell)
                new_ell[slot_of[pos]] += 1
                key = (new_mu, (tuple(new_ell), eps))
                extra = 1
            else:
                s, new_eps = merge_odd_indices((pos,), eps)
                if s == 0:
                    continue
                key = (new_mu, (ell, new_eps))
                extra = s
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
        mu_parity = len(mu[1]) & 1
        j_parity = len(jw[1]) & 1
        mu_poly = SuperPoly(table, {mu: Fraction(1)})
        for pos in _base_positions(table):
            name = table.names[pos]
            xa_parity = table.parities[pos]
            sign = -1 if (xa_parity and (mu_parity + j_parity + 1) % 2) else 1
            contracted = mu_poly.left_derivative(fiber_name(name))
            if contracted.is_zero():
                continue
            dj = DiffOp(table, {jw: SuperPoly.one(table)})
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
    deg0_mu = sum(mu[0][slot] for slot, pos in enumerate(table.even_positions)
                  if table.classes[pos] == FIBER_EVEN)
    deg1_mu = len(mu[1])
    deg0_j = sum(ell)
    deg1_j = len(eps)
    return p + q + deg0_mu + deg0_j - deg1_mu - deg1_j
