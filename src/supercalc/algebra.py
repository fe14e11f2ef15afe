"""Exact supercommutative polynomial arithmetic.

Everything else in this package (differential forms, integral forms, delta
forms, differential operators, supermatrices) is built on one substrate:
sparse polynomials over a fixed table of even and odd generators, with
rational or rational-function coefficients.

A monomial is stored in canonical form as a pair

    (even exponent vector, strictly ascending tuple of odd generator indices)

so equal elements always compare equal.  Reordering signs for the odd part
are accumulated by counting transpositions, and a repeated odd index kills
the term, since odd generators square to zero.

No floating point is used anywhere: coefficients are ``fractions.Fraction``,
:class:`RationalFunction` (for charts that divide by even coordinates), or
the half-integer pi-power scalars used by the integration module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

# Generator classes.  The parity of a generator is determined by its class;
# the class also records what geometric role the symbol plays so that the
# form calculi can tell a dx from a theta sharing one table.
EVEN_BASE = "even-base"
ODD_BASE = "odd-base"
FIBER_EVEN = "fiber-even"      # dtheta: commuting, unbounded powers
FIBER_ODD = "fiber-odd"        # dx: anticommuting
POLYVECTOR_EVEN = "polyvector-even"   # pi d/dtheta
POLYVECTOR_ODD = "polyvector-odd"     # pi d/dx

_EVEN_CLASSES = frozenset({EVEN_BASE, FIBER_EVEN, POLYVECTOR_EVEN})
_ODD_CLASSES = frozenset({ODD_BASE, FIBER_ODD, POLYVECTOR_ODD})

Scalar = Union[int, Fraction]


def parity_of_class(cls: str) -> int:
    if cls in _EVEN_CLASSES:
        return 0
    if cls in _ODD_CLASSES:
        return 1
    raise ValueError(f"unknown generator class {cls!r}")


def sort_odd_indices(indices: Sequence[int]) -> tuple[int, tuple[int, ...] | None]:
    """Sort odd-generator indices into table order.

    Returns ``(sign, sorted_tuple)`` where the sign is the parity of the
    sorting permutation, or ``(0, None)`` when an index repeats.
    """
    items = list(indices)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return 0, None
    return sign, tuple(items)


def merge_odd_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
    """Merge two ascending index tuples, tracking the interleaving sign.

    Each element of ``b`` that ends up left of k trailing elements of ``a``
    crossed k odd symbols on its way there.
    """
    sign = 1
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] > b[j]:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
        else:
            return 0, None
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class GeneratorTable:
    """An ordered list of named generators with fixed parities.

    The order is the canonical sort order for odd symbols and never changes
    during the table's lifetime.  Tables compare structurally, so two rings
    declared with the same generators interoperate.
    """

    __slots__ = ("gens", "names", "classes", "parities", "_index",
                 "even_positions", "odd_positions", "_even_slot")

    def __init__(self, gens: Iterable[tuple[str, str]]):
        gens = tuple((str(n), str(c)) for n, c in gens)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.gens = gens
        self.names = names
        self.classes = tuple(c for _, c in gens)
        self.parities = tuple(parity_of_class(c) for c in self.classes)
        self._index = {n: i for i, n in enumerate(names)}
        self.even_positions = tuple(i for i, p in enumerate(self.parities) if p == 0)
        self.odd_positions = tuple(i for i, p in enumerate(self.parities) if p == 1)
        self._even_slot = {pos: k for k, pos in enumerate(self.even_positions)}

    @classmethod
    def chart(cls, evens: Sequence[str], odds: Sequence[str]) -> "GeneratorTable":
        """Base coordinates only: p even and q odd generators."""
        return cls([(n, EVEN_BASE) for n in evens] + [(n, ODD_BASE) for n in odds])

    def extend(self, extra: Iterable[tuple[str, str]]) -> "GeneratorTable":
        return GeneratorTable(list(self.gens) + list(extra))

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def parity(self, name: str) -> int:
        return self.parities[self.index(name)]

    def even_slot(self, table_index: int) -> int:
        """Position of an even generator inside the exponent vector."""
        return self._even_slot[table_index]

    def names_of_class(self, *classes: str) -> tuple[str, ...]:
        want = set(classes)
        return tuple(n for n, c in self.gens if c in want)

    def positions_of_class(self, *classes: str) -> tuple[int, ...]:
        want = set(classes)
        return tuple(i for i, c in enumerate(self.classes) if c in want)

    @property
    def zero_exponents(self) -> tuple[int, ...]:
        return (0,) * len(self.even_positions)

    def __eq__(self, other):
        return isinstance(other, GeneratorTable) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return "GeneratorTable(%s)" % ", ".join(
            f"{n}:{'+' if p == 0 else '-'}" for n, p in zip(self.names, self.parities))


Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def _coeff_is_zero(c) -> bool:
    return not c


def _coeff_inverse(c):
    if isinstance(c, RationalFunction):
        return c.inverse()
    return Fraction(1, 1) / Fraction(c)


def _check_same_table(a: "SuperPoly", b: "SuperPoly") -> None:
    if a.table != b.table:
        raise ValueError("generator table mismatch")


class SuperPoly:
    """Canonical-form element of the supercommutative algebra over a table.

    Immutable after construction.  ``terms`` maps monomials to nonzero
    coefficients; the zero element has an empty map.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: Mapping[Monomial, object]):
        self.table = table
        self.terms = {m: c for m, c in terms.items() if not _coeff_is_zero(c)}

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "SuperPoly":
        return cls(table, {})

    @classmethod
    def constant(cls, table: GeneratorTable, c) -> "SuperPoly":
        if isinstance(c, int):
            c = Fraction(c)
        return cls(table, {(table.zero_exponents, ()): c})

    @classmethod
    def one(cls, table: GeneratorTable) -> "SuperPoly":
        return cls.constant(table, Fraction(1))

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "SuperPoly":
        i = table.index(name)
        if table.parities[i] == 0:
            exps = list(table.zero_exponents)
            exps[table.even_slot(i)] = 1
            return cls(table, {(tuple(exps), ()): Fraction(1)})
        return cls(table, {(table.zero_exponents, (i,)): Fraction(1)})

    @classmethod
    def from_monomial(cls, table: GeneratorTable, powers: Mapping[str, int], coeff=1) -> "SuperPoly":
        """Build coeff * prod(gen^power) with the factors in table order."""
        exps = list(table.zero_exponents)
        odds: list[int] = []
        for name, k in powers.items():
            i = table.index(name)
            if table.parities[i] == 0:
                exps[table.even_slot(i)] += k
            else:
                if k > 1:
                    return cls.zero(table)
                if k == 1:
                    odds.append(i)
        sign, sorted_odds = sort_odd_indices(odds)
        if sign == 0:
            return cls.zero(table)
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        return cls(table, {(tuple(exps), sorted_odds): sign * coeff})

    # --- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def monomial_parity(self, mono: Monomial) -> int:
        return len(mono[1]) & 1

    def parity(self) -> int | None:
        """0 or 1 for homogeneous elements, None for mixed or zero."""
        seen = {len(odds) & 1 for _, odds in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({len(odds) & 1 for _, odds in self.terms}) <= 1

    def homogeneous_parts(self) -> "tuple[SuperPoly, SuperPoly]":
        """Split into (even part, odd part)."""
        ev = {m: c for m, c in self.terms.items() if len(m[1]) % 2 == 0}
        od = {m: c for m, c in self.terms.items() if len(m[1]) % 2 == 1}
        return SuperPoly(self.table, ev), SuperPoly(self.table, od)

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, Fraction(0))

    def scalar_part(self):
        """Coefficient of the empty monomial."""
        return self.terms.get((self.table.zero_exponents, ()), Fraction(0))

    def set_odd_to_zero(self) -> "SuperPoly":
        """Projection killing every monomial with an odd factor."""
        return SuperPoly(self.table, {m: c for m, c in self.terms.items() if not m[1]})

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(ev) + len(od) for ev, od in self.terms)

    def degree_in_positions(self, mono: Monomial, positions: Iterable[int]) -> int:
        """Multiplicity of the given table positions inside one monomial."""
        ev, od = mono
        total = 0
        for pos in positions:
            if self.table.parities[pos] == 0:
                total += ev[self.table.even_slot(pos)]
            else:
                total += 1 if pos in od else 0
        return total

    # --- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.table, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        _check_same_table(self, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return SuperPoly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.table, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SuperPoly":
        if isinstance(c, int):
            c = Fraction(c)
        if _coeff_is_zero(c):
            return SuperPoly.zero(self.table)
        return SuperPoly(self.table, {m: coeff * c for m, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        _check_same_table(self, other)
        terms: dict[Monomial, object] = {}
        for (ev1, od1), c1 in self.terms.items():
            for (ev2, od2), c2 in other.terms.items():
                sign, odds = merge_odd_indices(od1, od2)
                if sign == 0:
                    continue
                mono = (tuple(x + y for x, y in zip(ev1, ev2)), odds)
                c = c1 * c2
                if sign < 0:
                    c = -c
                acc = terms.get(mono)
                terms[mono] = c if acc is None else acc + c
        return SuperPoly(self.table, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = SuperPoly.one(self.table)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, int):
            return self.scale(Fraction(1, other))
        if isinstance(other, Fraction):
            return self.scale(Fraction(1, 1) / other)
        if isinstance(other, RationalFunction):
            return self.scale(other.inverse())
        if isinstance(other, SuperPoly):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "SuperPoly":
        """Invert an element whose non-scalar part is nilpotent.

        Writes the element as c + n with c an invertible scalar and n a sum
        of monomials each carrying at least one odd factor, then runs the
        finite geometric series for (c + n)^{-1}.
        """
        c0 = self.scalar_part()
        if _coeff_is_zero(c0):
            raise ZeroDivisionError("scalar part is zero; element is not invertible")
        rest = self - SuperPoly.constant(self.table, c0)
        for (ev, od) in rest.terms:
            if not od:
                raise ValueError(
                    "cannot invert: remainder has an odd-free monomial "
                    "(not nilpotent); absorb even variables into rational-"
                    "function coefficients first")
        inv_c0 = _coeff_inverse(c0)
        unit = SuperPoly.constant(self.table, inv_c0)
        out = unit
        power = unit
        step = rest.scale(inv_c0)
        bound = len(self.table.odd_positions)
        for _ in range(bound):
            power = -(power * step)
            if power.is_zero():
                break
            out = out + power
        return out

    # --- derivations ----------------------------------------------------------

    def left_derivative(self, name: str) -> "SuperPoly":
        """Graded derivative acting from the left.

        For an odd generator, passing the derivation over j earlier odd
        factors contributes (-1)^j.
        """
        i = self.table.index(name)
        terms: dict[Monomial, object] = {}
        if self.table.parities[i] == 0:
            slot = self.table.even_slot(i)
            for (ev, od), c in self.terms.items():
                if isinstance(c, RationalFunction):
                    dc = c.derivative(name)
                    if dc:
                        acc = terms.get((ev, od))
                        terms[(ev, od)] = dc if acc is None else acc + dc
                k = ev[slot]
                if k == 0:
                    continue
                new_ev = list(ev)
                new_ev[slot] = k - 1
                mono = (tuple(new_ev), od)
                add = c * k
                acc = terms.get(mono)
                terms[mono] = add if acc is None else acc + add
        else:
            for (ev, od), c in self.terms.items():
                if i not in od:
                    continue
                j = od.index(i)
                mono = (ev, od[:j] + od[j + 1:])
                add = -c if j % 2 else c
                acc = terms.get(mono)
                terms[mono] = add if acc is None else acc + add
        return SuperPoly(self.table, terms)

    def right_derivative(self, name: str) -> "SuperPoly":
        """Derivative acting from the right, removing the rightmost factor.

        Termwise: (f)d^R = (-1)^{|d|(|f|+1)} d^L(f), so both rules agree on
        even generators and on odd-degree terms.
        """
        i = self.table.index(name)
        left = self.left_derivative(name)
        if self.table.parities[i] == 0:
            return left
        terms = {}
        for (ev, od), c in self.terms.items():
            if i not in od:
                continue
            j = od.index(i)
            # passing the derivation over the factors to the right of j
            sign = -1 if (len(od) - 1 - j) % 2 else 1
            mono = (ev, od[:j] + od[j + 1:])
            add = c * sign
            acc = terms.get(mono)
            terms[mono] = add if acc is None else acc + add
        return SuperPoly(self.table, terms)

    # --- substitution -----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "SuperPoly"],
                   table: GeneratorTable | None = None) -> "SuperPoly":
        """Algebra homomorphism determined by generator images.

        Every image must be homogeneous of the same parity as its generator.
        Within one table, unassigned generators map to themselves; when the
        images live over a different table, every generator occurring in the
        element (or its coefficients) must be assigned.
        """
        if not assignment and table is None:
            return self
        images: dict[int, SuperPoly] = {}
        out_table = table
        for name, img in assignment.items():
            i = self.table.index(name)
            if not isinstance(img, SuperPoly):
                img = SuperPoly.constant(out_table or self.table, img)
            p = img.parity()
            if p is not None and p != self.table.parities[i]:
                raise ValueError(
                    f"parity violation: image of {name!r} has parity {p}, "
                    f"expected {self.table.parities[i]}")
            if p is None and img.terms:
                raise ValueError(f"parity violation: image of {name!r} is inhomogeneous")
            images[i] = img
            if out_table is None:
                out_table = img.table
        if out_table is None:
            out_table = self.table
        cross_table = out_table != self.table

        def image_of(pos: int) -> SuperPoly:
            img = images.get(pos)
            if img is None:
                if cross_table:
                    raise ValueError(
                        f"no image given for generator {self.table.names[pos]!r} "
                        "in a cross-table substitution")
                img = SuperPoly.generator(out_table, self.table.names[pos])
            return img

        # accumulate left to right: evens first (they commute), then the
        # odd factors in stored (canonical) order
        result = SuperPoly.zero(out_table)
        for (ev, od), c in self.terms.items():
            if isinstance(c, RationalFunction):
                piece = c.substitute(assignment, out_table)
            else:
                piece = SuperPoly.constant(out_table, c)
            for slot, k in enumerate(ev):
                if k == 0:
                    continue
                pos = self.table.even_positions[slot]
                piece = piece * (image_of(pos) ** k)
                if piece.is_zero():
                    break
            for pos in od:
                if piece.is_zero():
                    break
                piece = piece * image_of(pos)
            result = result + piece
        return result

    # --- rendering and serialization -----------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0][0]) + len(item[0][1]),
                                        item[0][1], item[0][0]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for (ev, od), c in self._sorted_terms():
            factors: list[str] = []
            for slot, k in enumerate(ev):
                if k == 0:
                    continue
                name = self.table.names[self.table.even_positions[slot]]
                factors.append(name if k == 1 else f"{name}^{k}")
            factors.extend(self.table.names[i] for i in od)
            body = "*".join(factors)
            cs = _render_coeff(c)
            if not body:
                text = cs
            elif cs == "1":
                text = body
            elif cs == "-1":
                text = "-" + body
            else:
                text = f"{cs}*{body}"
            if chunks and not text.startswith("-"):
                chunks.append("+ " + text)
            elif chunks:
                chunks.append("- " + text[1:])
            else:
                chunks.append(text)
        return " ".join(chunks)

    __repr__ = __str__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperPoly.constant(self.table, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms


def _render_coeff(c) -> str:
    if isinstance(c, RationalFunction):
        return str(c)
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class RationalFunction:
    """A quotient of polynomials in the even base generators.

    Stored as a pair of Fraction-coefficient SuperPolys whose monomials have
    no odd factors.  The representation cancels the rational content and any
    common monomial factor, and runs a Euclidean gcd when only a single even
    variable occurs (enough to keep quotients on a punctured line fully
    reduced); equality is decided by cross-multiplication, so partial
    reduction never affects correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SuperPoly, den: SuperPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        for poly in (num, den):
            for (_, od) in poly.terms:
                if od:
                    raise ValueError("rational functions must be odd-free")
            for c in poly.terms.values():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError("rational functions need rational coefficients")
        _check_same_table(num, den)
        num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, table: GeneratorTable, c) -> "RationalFunction":
        return cls(SuperPoly.constant(table, c), SuperPoly.one(table))

    @property
    def table(self) -> GeneratorTable:
        return self.num.table

    def is_polynomial(self) -> bool:
        return self.den == SuperPoly.one(self.table)

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(self.table, other)
        if isinstance(other, SuperPoly):
            return RationalFunction(other, SuperPoly.one(other.table))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            return NotImplemented   # let SuperPoly treat us as a scalar
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def derivative(self, name: str) -> "RationalFunction":
        """Quotient rule; the generator must be even."""
        dn = self.num.left_derivative(name)
        dd = self.den.left_derivative(name)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def substitute(self, assignment: Mapping[str, SuperPoly],
                   table: GeneratorTable | None = None) -> SuperPoly:
        """Evaluate at generator images; needs the shifted denominator to be
        scalar plus nilpotent."""
        num = self.num.substitute(assignment, table)
        den = self.den.substitute(assignment, table)
        return num * den.inverse()

    def __str__(self):
        if self.is_polynomial():
            if len(self.num.terms) <= 1:
                return str(self.num)
            return f"({self.num})"
        num = str(self.num) if len(self.num.terms) <= 1 else f"({self.num})"
        den = str(self.den) if len(self.den.terms) == 1 and "^" not in str(self.den) \
            else f"({self.den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _leading_monomial(poly: SuperPoly) -> Monomial:
    return max(poly.terms, key=lambda m: (sum(m[0]), m[0]))


def _reduce_fraction(num: SuperPoly, den: SuperPoly) -> tuple[SuperPoly, SuperPoly]:
    table = num.table
    if num.is_zero():
        return num, SuperPoly.one(table)
    # cancel the common monomial factor
    def min_exps(poly):
        its = iter(poly.terms)
        acc = list(next(its)[0])
        for (ev, _) in its:
            acc = [min(a, b) for a, b in zip(acc, ev)]
        return acc
    common = [min(a, b) for a, b in zip(min_exps(num), min_exps(den))]
    if any(common):
        def shift(poly):
            return SuperPoly(table, {
                (tuple(e - c for e, c in zip(ev, common)), od): coeff
                for (ev, od), coeff in poly.terms.items()})
        num, den = shift(num), shift(den)
    # single-variable quotients reduce fully by Euclid
    used = {s for p in (num, den) for (ev, _) in p.terms for s, e in enumerate(ev) if e}
    if len(used) == 1 and not den.is_zero():
        slot = used.pop()
        g = _gcd_univariate(num, den, slot)
        if g is not None and sum(_leading_monomial(g)[0]) > 0:
            num = _divide_univariate(num, g, slot)
            den = _divide_univariate(den, g, slot)
    # make the denominator's leading coefficient 1
    lead = den.terms[_leading_monomial(den)]
    if lead != 1:
        inv = Fraction(1, 1) / lead
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _univ_coeffs(poly: SuperPoly, slot: int) -> list[Fraction]:
    deg = max((ev[slot] for (ev, _) in poly.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    for (ev, _), c in poly.terms.items():
        out[ev[slot]] += c
    return out


def _from_univ(table: GeneratorTable, coeffs: list[Fraction], slot: int) -> SuperPoly:
    terms = {}
    zero = list(table.zero_exponents)
    for k, c in enumerate(coeffs):
        if c:
            ev = list(zero)
            ev[slot] = k
            terms[(tuple(ev), ())] = c
    return SuperPoly(table, terms)


def _gcd_univariate(a: SuperPoly, b: SuperPoly, slot: int) -> SuperPoly | None:
    fa, fb = _univ_coeffs(a, slot), _univ_coeffs(b, slot)

    def trim(f):
        while f and not f[-1]:
            f.pop()
        return f

    fa, fb = trim(fa[:]), trim(fb[:])
    while fb:
        # remainder of fa by fb
        r = fa[:]
        while len(r) >= len(fb) and trim(r):
            if not r[-1]:
                r.pop()
                continue
            shift = len(r) - len(fb)
            factor = r[-1] / fb[-1]
            for k, c in enumerate(fb):
                r[shift + k] -= factor * c
            trim(r)
        fa, fb = fb, trim(r)
    if not fa:
        return None
    monic = [c / fa[-1] for c in fa]
    return _from_univ(a.table, monic, slot)


def _divide_univariate(a: SuperPoly, g: SuperPoly, slot: int) -> SuperPoly:
    fa, fg = _univ_coeffs(a, slot), _univ_coeffs(g, slot)
    out = [Fraction(0)] * (len(fa) - len(fg) + 1)
    r = fa[:]
    for k in range(len(out) - 1, -1, -1):
        c = r[k + len(fg) - 1] / fg[-1]
        out[k] = c
        if c:
            for j, gc in enumerate(fg):
                r[k + j] -= c * gc
    return _from_univ(a.table, out, slot)


def transport(poly: SuperPoly, table: GeneratorTable) -> SuperPoly:
    """Reinterpret an element over another table containing the same-named
    generators (with equal parities); rational-function coefficients are
    transported along."""
    if poly.table == table:
        return poly
    src = poly.table
    terms: dict[Monomial, object] = {}
    for (ev, od), c in poly.terms.items():
        exps = list(table.zero_exponents)
        for slot, k in enumerate(ev):
            if k:
                name = src.names[src.even_positions[slot]]
                pos = table.index(name)
                if table.parities[pos] != 0:
                    raise ValueError(f"generator {name!r} changes parity")
                exps[table.even_slot(pos)] += k
        odds = []
        for i in od:
            name = src.names[i]
            pos = table.index(name)
            if table.parities[pos] != 1:
                raise ValueError(f"generator {name!r} changes parity")
            odds.append(pos)
        sign, sorted_odds = sort_odd_indices(odds)
        if sign == 0:
            raise AssertionError("odd indices cannot collide under renaming")
        if isinstance(c, RationalFunction):
            c = RationalFunction(transport(c.num, table), transport(c.den, table))
        mono = (tuple(exps), sorted_odds)
        terms[mono] = terms.get(mono, Fraction(0)) + sign * c
    return SuperPoly(table, terms)


def absorb_even_exponents(poly: SuperPoly) -> SuperPoly:
    """Move all even-generator powers into RationalFunction coefficients.

    Charts keep their polynomials in this absorbed form so that division by
    even coordinates stays a scalar operation.
    """
    table = poly.table
    zero = table.zero_exponents
    terms: dict[Monomial, object] = {}
    for (ev, od), c in poly.terms.items():
        rf = c if isinstance(c, RationalFunction) else RationalFunction.from_scalar(table, c)
        if any(ev):
            rf = RationalFunction(rf.num * SuperPoly(table, {(ev, ()): Fraction(1)}), rf.den)
        mono = (zero, od)
        acc = terms.get(mono)
        terms[mono] = rf if acc is None else acc + rf
    return SuperPoly(table, terms)
