"""Exact supercommutative polynomial arithmetic.

Everything else in this package (differential forms, integral forms, delta
forms, differential operators, supermatrices) is built on one substrate:
sparse polynomials over a fixed table of even and odd generators, with
rational or rational-function coefficients.  The values stored as one such
polynomial (operators, the operator complex, integral and delta forms)
take their sums, negation, scaling, zero test and equality from one base
here, :class:`PolyElement`.

A monomial is one ``int``: the odd generators form a bitmask in the low
bits, and above it each even exponent fills a field of ``_FIELD`` bits, the
first even generator highest.  Each field's top bit is a guard bit, so keys
with disjoint odd masks multiply by one addition that never carries into the
next field; a set guard bit raises ``OverflowError``.  The sign of a product
is the parity of the crossing odd pairs, counted with popcounts.

That encoding is private to this module.  The only way into or out of a
monomial is the codec on :class:`GeneratorTable`: :meth:`~GeneratorTable.monomial`
encodes (position, power) pairs, :meth:`~GeneratorTable.powers` decodes a
key into them in written order, :meth:`~GeneratorTable.degree` counts the
generators of given classes and :meth:`~GeneratorTable.sort_key` orders
keys for printing.  :meth:`~GeneratorTable.graded_keys` lists the keys of
one multidegree, :meth:`~GeneratorTable.pair_images` writes their images
under a sum over pairs of generators, each multiplied by or differentiated
along (de Rham d, Spencer's, their homotopies, the total complex, Koszul's)
and :meth:`SuperPoly.pair_sum` sums them over integer numerators,
:meth:`~GeneratorTable.compile_word` compiles a word of such ops, right
derivatives and the quotient rule along even base coordinates included, for
:meth:`SuperPoly.apply_word`, the one walk of every derivative (left and
right derivatives, the delta-form letters, the right action of operators,
a ``pair_sum`` on quotients), and :meth:`SuperPoly.collect` groups terms by
their factor in chosen generators.  Everywhere else a key of
``SuperPoly.terms`` is an opaque handle: it may be hashed, compared and
passed back, never indexed, shifted, masked or built by hand.

No floating point is used anywhere.  A coefficient is one of the
:data:`SCALARS`: an ``int`` while it is integral (never a Fraction with
denominator 1), else a ``fractions.Fraction``, or a :class:`RationalFunction`
for charts that divide by even coordinates.  A quotient holds the even base
coordinates only, so a power of one of them may sit in a monomial or inside
a quotient, while every other letter stays in the monomials:
:func:`absorb_even_exponents` moves the base powers into the quotients and
:func:`release_even_exponents` moves them back, refusing a coefficient that
is no polynomial.  Only this module looks inside a ``RationalFunction``
coefficient.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

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

# What a letter of a GeneratorTable.pair_images step or word does with a generator.
MULTIPLY = "multiply"
DERIVE = "derive"
RIGHT_DERIVE = "right-derive"   # the derivative acting from the right


def parity_of_class(cls: str) -> int:
    if cls in _EVEN_CLASSES:
        return 0
    if cls in _ODD_CLASSES:
        return 1
    raise ValueError(f"unknown generator class {cls!r}")


class GeneratorTable:
    """An ordered list of named generators with fixed parities.

    The order is the canonical sort order for odd symbols and never changes
    during the table's lifetime.  Tables compare structurally, so two rings
    declared with the same generators interoperate.
    """

    __slots__ = ("gens", "names", "classes", "parities", "_index", "_hash",
                 "even_positions", "odd_positions", "_odd_mask", "_guard",
                 "_unit", "_even_fields", "_base_mask", "_class_masks",
                 "_class_positions", "_steps", "_words")

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
        self._hash = hash(gens)
        self.even_positions = tuple(i for i, p in enumerate(self.parities) if p == 0)
        self.odd_positions = tuple(i for i, p in enumerate(self.parities) if p == 1)
        n_odd, n_even = len(self.odd_positions), len(self.even_positions)
        self._odd_mask = (1 << n_odd) - 1
        self._even_fields = tuple((pos, n_odd + _FIELD * (n_even - 1 - slot))
                                  for slot, pos in enumerate(self.even_positions))
        self._guard = sum((_EXPONENT + 1) << shift for _, shift in self._even_fields)
        # the fields of the even base coordinates, the only letters a quotient holds
        self._base_mask = sum(_EXPONENT << shift for pos, shift in self._even_fields
                              if self.classes[pos] == EVEN_BASE)
        # the key of each generator: its odd bit, or a 1 in its even field
        self._unit = {pos: 1 << j for j, pos in enumerate(self.odd_positions)}
        self._unit.update((pos, 1 << shift) for pos, shift in self._even_fields)
        self._class_masks: dict = {}
        self._class_positions: dict = {}
        self._steps: dict = {}
        self._words: dict = {}

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

    def names_of_class(self, *classes: str) -> tuple[str, ...]:
        want = set(classes)
        return tuple(n for n, c in self.gens if c in want)

    def positions_of_class(self, *classes: str) -> tuple[int, ...]:
        out = self._class_positions.get(classes)
        if out is None:
            out = self._class_positions[classes] = tuple(
                i for i, c in enumerate(self.classes) if c in classes)
        return out

    # --- the monomial codec ---------------------------------------------------

    def monomial(self, powers: Iterable[tuple[int, int]]) -> "tuple[int, Monomial | None]":
        """Encode prod(gen^power) from (table position, power) pairs.

        Even powers of a repeated position add up; odd factors are taken
        in the order given.  Returns ``(sign, key)``, the sign being that
        of sorting the odd factors into table order, or ``(0, None)`` when
        an odd factor occurs twice.  A negative power raises ``ValueError``
        and an even power too large for its field ``OverflowError``.
        """
        key = odds = 0
        sign, vanishes = 1, False
        units, odd_mask, guard = self._unit, self._odd_mask, self._guard
        for pos, k in powers:
            unit = units[pos]
            if unit > odd_mask and k >= 0:
                key += k * unit
                if key & guard or k > _EXPONENT:
                    raise OverflowError(
                        f"power of {self.names[pos]!r} exceeds {_EXPONENT}")
            elif k == 1:
                # the new factor moves left past every odd factor above it
                if odds >= unit:
                    if odds & unit:
                        vanishes = True
                    elif (odds & -unit).bit_count() & 1:
                        sign = -sign
                odds |= unit
            elif k < 0:
                raise ValueError(f"negative power {k} of {self.names[pos]!r}")
            elif k:
                vanishes = True     # an odd square
        if vanishes:
            return 0, None
        return sign, key | odds

    def powers(self, mono: "Monomial") -> list[tuple[int, int]]:
        """Decode a key into (table position, power) pairs in written
        order: even generators by slot, then odd ones ascending."""
        out = [(pos, k) for pos, shift in self._even_fields
               if (k := mono >> shift & _EXPONENT)]
        return out + [(pos, 1) for pos in self.odd_positions if mono & self._unit[pos]]

    def degree(self, mono: "Monomial", *classes: str) -> int:
        """Number of factors of the given generator classes, with multiplicity."""
        masks = self._class_masks.get(classes)
        if masks is None:
            odd = sum(self._unit[pos] for pos in self.odd_positions
                      if self.classes[pos] in classes)
            shifts = tuple(shift for pos, shift in self._even_fields
                           if self.classes[pos] in classes)
            masks = self._class_masks[classes] = (odd, shifts)
        odd, shifts = masks
        return (mono & odd).bit_count() + sum(mono >> shift & _EXPONENT for shift in shifts)

    def graded_keys(self, *parts: tuple[Sequence[int], int]) -> "list[Monomial]":
        """Keys of the monomials of degree d in the generators at positions
        P, for every (P, d) in ``parts``, and in no other generator; no
        position may occur in two parts.

        Within one part the odd factors vary slowest, by count and then
        by ``itertools.combinations`` order, and the even powers fastest,
        the first position's power slowest; the first part varies slowest
        of all.  An even power past its field raises ``OverflowError``.
        """
        keys = [0]
        for positions, total in parts:
            odds = [self._unit[pos] for pos in positions if self.parities[pos]]
            evens = [self._unit[pos] for pos in positions if not self.parities[pos]]
            if total > _EXPONENT and evens:
                raise OverflowError(f"a power exceeds {_EXPONENT}")
            part = []
            for n_odd in range(min(len(odds), total) + 1):
                spread = _spreads(evens, total - n_odd)
                for subset in itertools.combinations(odds, n_odd):
                    odd_key = sum(subset)
                    part.extend(odd_key + key for key in spread)
            keys = [key + other for key in keys for other in part]
        return keys

    def pair_images(self, keys: "Iterable[Monomial]",
                    steps: Sequence[tuple]) -> "Iterator[dict[Monomial, int]]":
        """The image of each key under a sum of steps.  A step (module, op,
        partner, op, c) names two table positions, each with the op
        :data:`MULTIPLY` (left multiplication by the generator) or
        :data:`DERIVE` (the left derivative along it), and stands for c times
        the module's op after the partner's: de Rham d is (dz, MULTIPLY, z,
        DERIVE, 1) over the coordinates z.

        Yields one {key: int} map per key, each before the next is built,
        and builds no ``SuperPoly``: each term is the key with a factor
        removed or added per op, its sign the parity of the odd factors it
        passes, counted with popcounts as in :meth:`SuperPoly.sum_of_products`.
        A step must name two distinct generators, and no two steps may act
        alike on the same ones, so that no two terms share a key.  An even
        exponent past its field raises ``OverflowError``.

        :meth:`SuperPoly.pair_sum` walks the same compiled steps in a loop
        of its own that adds into one term map.  This loop stays separate
        because the Koszul matrices read one fresh map per key, lazily, and
        every way of sharing one loop between the two (a per-key walker
        function, one generator with an accumulating mode, a ``yield from``
        wrapper) measured slower on the Koszul rank checks.
        """
        compiled = self._compile_steps(steps)
        guard = self._guard
        for key in keys:
            seen = 0
            image: dict[Monomial, int] = {}
            for c, u1, o1, l1, d1, u2, o2, l2, d2 in compiled:
                new = key
                if o1:
                    if new & u1 != d1:
                        continue
                    c = -c if (new & l1).bit_count() & 1 else c
                    new ^= u1
                elif d1:
                    k = new >> l1 & _EXPONENT
                    if not k:
                        continue
                    c *= k
                    new -= u1
                else:
                    new += u1
                if o2:
                    if new & u2 != d2:
                        continue
                    c = -c if (new & l2).bit_count() & 1 else c
                    new ^= u2
                elif d2:
                    k = new >> l2 & _EXPONENT
                    if not k:
                        continue
                    c *= k
                    new -= u2
                else:
                    new += u2
                seen |= new
                image[new] = c
            if seen & guard:
                raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
            yield image

    def _compile_steps(self, steps: Sequence[tuple]) -> tuple:
        """The steps of :meth:`pair_images` as (c, then the partner's and the
        module's :meth:`_letter`), checked and compiled once per table."""
        steps = tuple(steps)
        compiled = self._steps.get(steps)
        if compiled is None:
            compiled, pairs = [], set()
            for module, m_op, partner, p_op, c in steps:
                pair = frozenset(((module, m_op), (partner, p_op)))
                if module == partner or pair in pairs:
                    raise ValueError("a step must name two distinct generators, "
                                     "and no two steps may act alike on the same ones")
                pairs.add(pair)
                compiled.append((c, *self._letter(partner, p_op),
                                 *self._letter(module, m_op)))
            compiled = self._steps[steps] = tuple(compiled)
        return compiled

    def compile_word(self, letters: Sequence[tuple[int, str]], c=1) -> tuple:
        """Compile c (nonzero) times a word of (position, op) letters for
        :meth:`SuperPoly.apply_word`; the last letter acts first.  Each op
        is :data:`MULTIPLY` or :data:`DERIVE`, as in :meth:`pair_images`,
        or :data:`RIGHT_DERIVE`, which differs from :data:`DERIVE` on an
        odd letter only: its sign counts the odd factors after the letter.

        A derivative along an even base coordinate also hits a
        ``RationalFunction`` coefficient.  The word compiles that quotient
        rule too: for each nonempty set of those derivatives it stores
        their names and a copy of itself with them dropped, which acts on
        the key while the names differentiate the coefficient."""
        word = [(pos, op, self._letter(pos, op)) for pos, op in reversed(letters)]
        hits = [i for i, (pos, op, _) in enumerate(word)
                if op != MULTIPLY and self.classes[pos] == EVEN_BASE]
        quotient = tuple(
            (tuple(self.names[word[i][0]] for i in chosen),
             tuple(letter for i, (*_, letter) in enumerate(word) if i not in chosen))
            for n in range(1, len(hits) + 1) for chosen in itertools.combinations(hits, n))
        return self, c, tuple(letter for *_, letter in word), quotient

    def _derivative_word(self, name: str, op: str) -> tuple:
        """The one-letter word of the derivative along ``name``, compiled
        on the first lookup of ``(name, op)`` in ``_words``."""
        word = self._words[name, op] = self.compile_word(((self.index(name), op),))
        return word

    def _letter(self, pos: int, op: str) -> tuple:
        """(unit, odd, low, derive) for ``op`` on the generator at ``pos``:
        low masks the odd factors an odd letter passes, those before it or,
        for :data:`RIGHT_DERIVE`, those after it, or shifts to an even
        one's field; an odd letter's derive is the bit a key must hold."""
        unit = self._unit[pos]
        if self.parities[pos]:
            low = self._odd_mask & -(unit << 1) if op == RIGHT_DERIVE else unit - 1
            return unit, 1, low, op != MULTIPLY and unit
        return unit, 0, unit.bit_length() - 1, op != MULTIPLY

    def sort_key(self, mono: "Monomial") -> tuple:
        """The printing order: total degree, then the odd positions, then the
        even exponent vector, which the even bits order lexicographically."""
        return self._sort_key(mono, self.powers(mono))

    def _sort_key(self, mono: "Monomial", pairs: list[tuple[int, int]]) -> tuple:
        return (sum(k for _, k in pairs), tuple(pos for pos, k in pairs if self.parities[pos]),
                mono >> len(self.odd_positions))

    def __eq__(self, other):
        return self is other or (isinstance(other, GeneratorTable)
                                 and self.gens == other.gens)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "GeneratorTable(%s)" % ", ".join(
            f"{n}:{'+' if p == 0 else '-'}" for n, p in zip(self.names, self.parities))


Monomial = int

# Width of the exponent field of one even generator; its top bit is the
# guard bit, so exponents stay at most _EXPONENT.
_FIELD = 16
_EXPONENT = (1 << (_FIELD - 1)) - 1


def _below_parity(odds: int, width: int) -> int:
    """Bit i (i < width) is the parity of the bits of ``odds`` below i, so
    ``(a & _below_parity(b, n)).bit_count()`` is, mod 2, the number of
    crossings when b's odd factors move left past a's."""
    out = odds << 1
    step = 1
    while step < width:
        out ^= out << step
        step <<= 1
    return out


def _spreads(units: Sequence[int], total: int) -> list[int]:
    """Keys of every way to spread ``total`` powers over the even
    generators with these units, the first one's power varying slowest."""
    # by_degree[d]: the spreads of d powers over the units handled so far,
    # which grow from the last unit to the first
    by_degree = [[0]] + [[] for _ in range(total)]
    for unit in reversed(units):
        by_degree = [[first * unit + key for first in range(d + 1)
                      for key in by_degree[d - first]]
                     for d in range(total + 1)]
    return by_degree[total]


def _coeff_inverse(c):
    if isinstance(c, RationalFunction):
        return c.inverse()
    inv = 1 / Fraction(c)
    return inv.numerator if inv.denominator == 1 else inv


def _check_same_table(a: "SuperPoly", b: "SuperPoly") -> None:
    if a.table is not b.table and a.table != b.table:
        raise ValueError("generator table mismatch")


class SuperPoly:
    """Canonical-form element of the supercommutative algebra over a table.

    Immutable after construction.  ``terms`` maps monomials to nonzero
    coefficients, integral ones stored as ints; the zero element has an
    empty map.  The constructor normalizes to that form; the kernels that
    wrap their output with :meth:`_of` keep it themselves, as
    :meth:`pair_sum` does by dropping zero sums and dividing each sum by
    its common denominator into an ``int`` whenever it can.  The
    constructor trusts its terms: it does not check that a quotient
    coefficient is over ``table``, as :meth:`constant`,
    :meth:`from_monomial` and the arithmetic operators do.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: Mapping[Monomial, object]):
        self.table = table
        self.terms = {m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for m, c in terms.items() if c}

    @classmethod
    def _of(cls, table: GeneratorTable, terms: dict) -> "SuperPoly":
        """Wrap terms that are already canonical."""
        out = cls.__new__(cls)
        out.table = table
        out.terms = terms
        return out

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "SuperPoly":
        return cls._of(table, {})

    @classmethod
    def constant(cls, table: GeneratorTable, c) -> "SuperPoly":
        if type(c) is RationalFunction:
            _check_same_table(cls.zero(table), c.num)
        return cls(table, {0: c})

    @classmethod
    def one(cls, table: GeneratorTable) -> "SuperPoly":
        return cls._of(table, {0: 1})

    @classmethod
    def generator(cls, table: GeneratorTable, name: str) -> "SuperPoly":
        return cls._of(table, {table._unit[table.index(name)]: 1})

    @classmethod
    def from_monomial(cls, table: GeneratorTable, powers: Mapping[str, int], coeff=1) -> "SuperPoly":
        """Build coeff * prod(gen^power), the odd factors multiplied in the
        order given; a negative power, or a quotient coefficient over
        another table, raises ``ValueError``."""
        if type(coeff) is RationalFunction:
            _check_same_table(cls.zero(table), coeff.num)
        sign, mono = table.monomial((table.index(name), k) for name, k in powers.items())
        if sign == 0:
            return cls.zero(table)
        return cls(table, {mono: sign * coeff})

    # --- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def parity(self) -> int | None:
        """0 or 1 for homogeneous elements, None for mixed or zero."""
        odd = self.table._odd_mask
        seen = {(m & odd).bit_count() & 1 for m in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    def homogeneous_parts(self) -> "tuple[SuperPoly, SuperPoly]":
        """Split into (even part, odd part)."""
        odd = self.table._odd_mask
        ev = {m: c for m, c in self.terms.items() if not (m & odd).bit_count() & 1}
        od = {m: c for m, c in self.terms.items() if (m & odd).bit_count() & 1}
        return SuperPoly._of(self.table, ev), SuperPoly._of(self.table, od)

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, 0)

    def scalar_part(self):
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0)

    def collect(self, positions: Iterable[int]) -> "dict[Monomial, SuperPoly]":
        """Group the terms by their factor m in the generators at the given
        table positions: a map from each m to the element c_m, free of
        those generators, with self == sum of c_m * m."""
        table = self.table
        positions = tuple(positions)
        mask = table._class_masks.get(positions)
        if mask is None:    # once per (table, positions), beside degree's masks
            mask = table._class_masks[positions] = sum(
                table._unit[pos] * (1 if table.parities[pos] else _EXPONENT)
                for pos in set(positions))
        odd, width = table._odd_mask, len(table.odd_positions)
        groups: dict[Monomial, dict] = {}
        for m, c in self.terms.items():
            letters = m & mask
            rest = m - letters
            # m's odd factors move right past the odd factors of c_m above them
            if (rest & odd & _below_parity(letters & odd, width)).bit_count() & 1:
                c = -c
            groups.setdefault(letters, {})[rest] = c
        return {m: SuperPoly._of(table, terms) for m, terms in groups.items()}

    def set_odd_to_zero(self) -> "SuperPoly":
        """Projection killing every monomial with an odd factor."""
        odd = self.table._odd_mask
        return SuperPoly._of(self.table, {m: c for m, c in self.terms.items() if not m & odd})

    def nilpotent_split(self) -> "tuple[SuperPoly, SuperPoly, int]":
        """(r, n, l) with self == r + n: r the terms free of odd factors,
        n the rest, each in self's order, and l the fewest odd factors in
        a term of n, 0 when n is zero.  A product of more than w // l
        elements like n is zero, w the number of odd generators."""
        odd = self.table._odd_mask
        body, nil, fewest = {}, {}, 0
        for m, c in self.terms.items():
            k = (m & odd).bit_count()
            if not k:
                body[m] = c
                continue
            nil[m] = c
            if not fewest or k < fewest:
                fewest = k
        return SuperPoly._of(self.table, body), SuperPoly._of(self.table, nil), fewest

    # --- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperPoly):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = SuperPoly.constant(self.table, other)
        _check_same_table(self, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return SuperPoly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return SuperPoly._of(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (SuperPoly, *SCALARS)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SuperPoly":
        if not c:
            return SuperPoly.zero(self.table)
        if type(c) is RationalFunction:
            _check_same_table(self, c.num)
        return SuperPoly(self.table, {m: coeff * c for m, coeff in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SuperPoly):
            if isinstance(other, SCALARS):
                return self.scale(other)
            return NotImplemented
        return SuperPoly.sum_of_products(self.table, ((self, other),))

    @staticmethod
    def sum_of_products(table: GeneratorTable,
                        pairs: Iterable[tuple["SuperPoly", "SuperPoly"]],
                        memo: dict | None = None) -> "SuperPoly":
        """The sum of a * b over the (a, b) pairs, all over ``table``.

        Every product accumulates into one term map, normalized once at
        the end, so a sum of k products builds one element instead of 2k.
        An operand over another table raises ``ValueError`` and an even
        exponent past its field ``OverflowError``.

        Each right operand b is first prepared as a list of (key, parity
        mask, c, -c).  A caller that multiplies the same b many times, as
        a matrix product does each entry of its right factor, passes one
        dict ``memo`` to every call: it maps ``id(b)`` to (b, list), and
        holding b keeps its id from being reused while the memo lives.
        """
        odd = table._odd_mask
        width = len(table.odd_positions)
        terms: dict[Monomial, object] = {}
        get = terms.get
        for a, b in pairs:
            if (a.table is not table or b.table is not table) and (
                    a.table != table or b.table != table):
                raise ValueError("generator table mismatch")
            if memo is None or (hit := memo.get(id(b))) is None:
                right = [(m, _below_parity(m & odd, width), c, -c)
                         for m, c in b.terms.items()]
                if memo is not None:
                    memo[id(b)] = b, right
            else:
                right = hit[1]
            for m1, c1 in a.terms.items():
                o1 = m1 & odd
                for m2, below, c2, neg_c2 in right:
                    if o1 & m2:
                        continue        # a shared odd factor squares to zero
                    mono = m1 + m2
                    c = c1 * (neg_c2 if (o1 & below).bit_count() & 1 else c2)
                    acc = get(mono)
                    terms[mono] = c if acc is None else acc + c
        seen = 0
        for m in terms:
            seen |= m
        if seen & table._guard:
            raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
        return SuperPoly(table, terms)

    def add_times_monomial(self, terms: dict, key: Monomial, sign: int = 1) -> None:
        """Add sign * self * m into ``terms``, a term map over self's
        table, for m the monomial with ``key`` and a sign of 1 or -1: the
        accumulating form of ``self * SuperPoly(table, {key: sign})``, for
        callers that fold many products into one map and normalize it once
        with the constructor.  An even exponent past its field raises
        ``OverflowError``."""
        table = self.table
        odd, guard = table._odd_mask, table._guard
        below = _below_parity(key & odd, len(table.odd_positions))
        get = terms.get
        for m, c in self.terms.items():
            if m & key & odd:
                continue        # a shared odd factor squares to zero
            mono = m + key
            if mono & guard:
                raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
            # m's odd factors stay left of the monomial's
            if (sign < 0) ^ (m & odd & below).bit_count() & 1:
                c = -c
            acc = get(mono)
            terms[mono] = c if acc is None else acc + c

    def pair_sum(self, steps: Sequence[tuple], den: int | None = None) -> "SuperPoly":
        """The image under a sum of :meth:`GeneratorTable.pair_images`
        steps, in one walk of the compiled steps over the keys that adds
        c0 * c into one term map, where c0 is the key's coefficient and c
        the step's signed integer factor.

        The walk runs over integers.  With no ``RationalFunction``
        coefficient, L is the lcm of the ``Fraction`` denominators, every
        coefficient enters as the integer c0 * L, and each output term is
        divided by L once at the end: an ``int`` when L divides it, else a
        ``Fraction``.  A caller that owns a common denominator passes the
        integer numerators as the coefficients and it as ``den``; the
        image is then divided by ``den``.  The guard-bit ``OverflowError``
        is raised after the walk and before any division.

        With a ``RationalFunction`` coefficient and no ``den``, each step
        is instead the two-letter word (module, partner) of
        :meth:`GeneratorTable.compile_word`, compiled once per table, and
        the image is the sum of the words' :meth:`apply_word` images,
        which carry the quotient rule.
        """
        table = self.table
        items = self.terms.items()
        compiled = table._compile_steps(steps)
        if den is None:
            if any(type(c) is RationalFunction for c in self.terms.values()):
                steps = tuple(steps)
                words = table._words.get(steps)
                if words is None:
                    words = table._words[steps] = tuple(
                        table.compile_word(((module, m_op), (partner, p_op)), c)
                        for module, m_op, partner, p_op, c in steps)
                return sum(map(self.apply_word, words), SuperPoly.zero(table))
            den = lcm(*{c.denominator for c in self.terms.values()})
            if den > 1:
                items = [(m, c.numerator * (den // c.denominator)) for m, c in items]
        terms: dict[Monomial, int] = {}
        get = terms.get
        seen = 0
        for key, c0 in items:
            for c, u1, o1, l1, d1, u2, o2, l2, d2 in compiled:
                new = key
                if o1:
                    if new & u1 != d1:
                        continue
                    c = -c if (new & l1).bit_count() & 1 else c
                    new ^= u1
                elif d1:
                    k = new >> l1 & _EXPONENT
                    if not k:
                        continue
                    c *= k
                    new -= u1
                else:
                    new += u1
                if o2:
                    if new & u2 != d2:
                        continue
                    c = -c if (new & l2).bit_count() & 1 else c
                    new ^= u2
                elif d2:
                    k = new >> l2 & _EXPONENT
                    if not k:
                        continue
                    c *= k
                    new -= u2
                else:
                    new += u2
                seen |= new
                c = c0 if c == 1 else -c0 if c == -1 else c0 * c
                acc = get(new)
                terms[new] = c if acc is None else acc + c
        if seen & table._guard:
            raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
        if den == 1:
            return SuperPoly._of(table, {m: v for m, v in terms.items() if v})
        return SuperPoly._of(table, {m: v // den if not v % den else Fraction(v, den)
                                     for m, v in terms.items() if v})

    def apply_word(self, word: tuple) -> "SuperPoly":
        """The image under a word from :meth:`GeneratorTable.compile_word`,
        in one pass over the terms with the bit operations of
        :meth:`GeneratorTable.pair_images`.  Each letter maps distinct keys
        to distinct keys, so the images are written as they come.  Each
        stored quotient-rule set then applies the word without its letters
        to the ``RationalFunction`` terms differentiated along its names,
        adding into the same term map.  A raising letter that takes an even
        exponent past its field raises ``OverflowError`` at once."""
        table, c0, letters, quotient = word
        if table is not self.table and table != self.table:
            raise ValueError("generator table mismatch")
        guard = table._guard
        terms: dict[Monomial, object] = {}
        for key, c in self.terms.items():
            k = c0
            for unit, odd, low, derive in letters:
                if odd:
                    if key & unit != derive:
                        break
                    if (key & low).bit_count() & 1:
                        k = -k
                    key ^= unit
                elif derive:
                    e = key >> low & _EXPONENT
                    if not e:
                        break
                    k *= e
                    key -= unit
                else:
                    key += unit
                    if key & guard:
                        raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
            else:
                c = c if k == 1 else -c if k == -1 else c * k
                terms[key] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
        rational = []
        if quotient:
            for m, c in self.terms.items():
                if type(c) is RationalFunction:
                    rational.append((m, c))
        if not rational:
            return SuperPoly._of(table, terms)
        for names, rest in quotient:
            derived = {}
            for m, c in rational:
                for name in names:
                    c = c.derivative(name)
                if c:
                    derived[m] = c
            if rest or c0 != 1:     # else the word leaves the derived terms alone
                derived = SuperPoly._of(table, derived).apply_word((table, c0, rest, ())).terms
            for m, c in derived.items():
                acc = terms.get(m)
                terms[m] = c if acc is None else acc + c
        return SuperPoly(table, terms)

    __rmul__ = __mul__      # only scalars reach it, and they commute

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
        if isinstance(other, SuperPoly):
            return self * other.inverse()
        if isinstance(other, SCALARS):
            return self.scale(_coeff_inverse(other))
        return NotImplemented

    def inverse(self) -> "SuperPoly":
        """Invert an element whose non-scalar part is nilpotent.

        Splits the element by its keys into c + n, c an invertible scalar
        and n the terms with at least one odd factor, then runs the finite
        geometric series sum_k (-n / c)^k / c.  With l the fewest odd
        factors in a term of n, n^k = 0 once k l exceeds the number w of
        odd generators, so the series stops at k = w // l, or earlier at
        its first zero term.  l is read from the keys and not taken to be
        2: an n with odd terms, which only a non-homogeneous element has,
        gives l = 1.
        """
        c0 = self.scalar_part()
        if not c0:
            raise ZeroDivisionError("scalar part is zero; element is not invertible")
        body, rest, fewest = self.nilpotent_split()
        if len(body.terms) > 1:
            raise ValueError(
                "cannot invert: remainder has an odd-free monomial "
                "(not nilpotent); only even base coordinates can move "
                "into rational-function coefficients")
        inv_c0 = _coeff_inverse(c0)
        unit = SuperPoly.constant(self.table, inv_c0)
        out = unit
        power = unit
        step = rest.scale(inv_c0)
        for _ in range(len(self.table.odd_positions) // fewest if fewest else 0):
            power = -(power * step)
            if power.is_zero():
                break
            out = out + power
        return out

    # --- derivations ----------------------------------------------------------

    def left_derivative(self, name: str) -> "SuperPoly":
        """Graded derivative acting from the left, one compiled word.

        For an odd generator, passing the derivation over j earlier odd
        factors contributes (-1)^j.
        """
        word = self.table._words.get((name, DERIVE))
        return self.apply_word(word or self.table._derivative_word(name, DERIVE))

    def right_derivative(self, name: str) -> "SuperPoly":
        """Derivative acting from the right, removing the rightmost factor.

        Termwise: (f)d^R = (-1)^{|d|(|f|+1)} d^L(f), so both rules agree on
        even generators and on odd-degree terms.
        """
        word = self.table._words.get((name, RIGHT_DERIVE))
        return self.apply_word(word or self.table._derivative_word(name, RIGHT_DERIVE))

    # --- substitution -----------------------------------------------------------

    def substitute(self, assignment: Mapping[str, "SuperPoly"],
                   table: GeneratorTable | None = None) -> "SuperPoly":
        """Algebra homomorphism determined by generator images.

        Every image must be homogeneous of the same parity as its generator.
        Within one table, unassigned generators map to themselves; when the
        images live over a different table, every generator occurring in the
        element (or its coefficients) must be assigned.

        The assignment is checked once, and one evaluator (:func:`_pull_back`)
        then maps the element and the numerator and denominator of each
        quotient coefficient.  It raises each image to each power at most
        once, in a memo that lives for this one call, and leaves a
        denominator of 1 alone.
        """
        if not assignment and table is None:
            return self
        return _pull_back(self.table, (self,), assignment, table)[0]

    # --- rendering and serialization -----------------------------------------

    def __str__(self):
        """The released form when there is one, so that equal elements
        print alike; a proper quotient prints its terms as stored."""
        try:
            shown = release_even_exponents(self)
        except ValueError:
            shown = self
        if not shown.terms:
            return "0"
        table, names = self.table, self.table.names
        rows = []
        for mono, c in shown.terms.items():
            pairs = table.powers(mono)
            rows.append((table._sort_key(mono, pairs), pairs, c))
        rows.sort(key=lambda row: row[0])
        chunks: list[str] = []
        for _, pairs, c in rows:
            body = "*".join([names[pos] if k == 1 else f"{names[pos]}^{k}"
                             for pos, k in pairs])
            cs = str(c)
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
        if isinstance(other, SCALARS):
            try:
                other = SuperPoly.constant(self.table, other)
            except ValueError:      # a quotient over another table
                return False
        if not isinstance(other, SuperPoly):
            return NotImplemented
        if self.table == other.table:
            if self.terms == other.terms:
                return True
            # An even base power may sit in the monomial or inside a
            # RationalFunction coefficient (x*th and absorb_even_exponents(x*th)
            # print alike), so a side carrying such a coefficient is compared
            # in absorbed form.  Rational-only sides are canonical as they are.
            for terms in (self.terms, other.terms):
                for c in terms.values():
                    if type(c) is RationalFunction:
                        return (absorb_even_exponents(self).terms
                                == absorb_even_exponents(other).terms)
        return False


class RationalFunction:
    """A quotient of polynomials in the even base generators.

    Stored as a fraction-free pair of SuperPolys whose monomials hold the
    even base coordinates only; odd factors and the even fiber and
    polyvector letters stay in the monomials of the element that the
    quotient is a coefficient of.  Every coefficient of the pair is an
    ``int``, the gcd of all of them, numerator's and denominator's
    together, is 1, and the denominator's coefficient at its largest key
    is positive, so a pair is fixed by its ratio.  The reduction cancels
    any common monomial factor and, when only a single even variable
    occurs, the full gcd (enough to keep quotients on a punctured line
    fully reduced).  That gcd is the primitive remainder sequence on
    integer coefficients (:func:`_gcd_cofactors`).  See
    :func:`_reduce_fraction` for which steps run on which denominator.
    The products inside ``+``, ``==``, ``*`` and :meth:`derivative` go
    through :func:`_products`, which relies on the pair being odd-free
    with ``int`` coefficients.  The constructor refuses a zero
    denominator, any letter but an even base coordinate and coefficients
    that are not rational; arithmetic on checked operands builds its
    results through :meth:`_quotient`, which only reduces.  A quotient
    whose denominator is a constant is a polynomial, and its arithmetic
    costs what polynomial arithmetic costs: :meth:`derivative` reduces
    (num', den) with no quotient rule, an ``int`` factor k goes into the
    numerator and divides out only gcd(k, content of den), and the
    reduction returns a pair over 1 as it is.  Each gives the pair the
    general rule gives, since a constant-denominator pair is fixed by
    its value.  Printing divides by the denominator's leading
    coefficient, so text shows a monic denominator.

    Sums and comparisons use a shared denominator when the two operands'
    denominators are integer multiples k1*P and k2*P of one primitive P:
    ``a/(k1 P) + b/(k2 P)`` is taken over lcm(k1, k2) P and ``a/(k1 P) ==
    b/(k2 P)`` compares ``a k2`` with ``b k1``.  Only other denominators
    are cross-multiplied, which keeps repeated sums over one denominator
    from squaring it each time.  Both rules are exact because Q[x1..xp] is
    an integral domain, and since unequal denominators are still compared
    by cross-multiplication, partial reduction never affects ``==``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: SuperPoly, den: SuperPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        odd, other = num.table._odd_mask, ~num.table._base_mask
        for poly in (num, den):
            if any(m & odd for m in poly.terms):
                raise ValueError("rational functions must be odd-free")
            if any(m & other for m in poly.terms):
                raise ValueError("rational functions take the even base coordinates only")
            for c in poly.terms.values():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError("rational functions need rational coefficients")
        _check_same_table(num, den)
        # clear the Fraction denominators: the reduction takes ints
        scale = lcm(*(c.denominator for poly in (num, den) for c in poly.terms.values()
                      if type(c) is Fraction))
        if scale != 1:
            num, den = (SuperPoly._of(num.table, {m: int(c * scale) for m, c in poly.terms.items()})
                        for poly in (num, den))
        self.num, self.den = _reduce_fraction(num, den)

    @classmethod
    def _reduced(cls, num: SuperPoly, den: SuperPoly) -> "RationalFunction":
        """Wrap a pair that is already in reduced form, skipping the checks
        and the reduction."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def _quotient(cls, num: SuperPoly, den: SuperPoly) -> "RationalFunction":
        """Reduce num/den without the constructor's checks: for results of
        arithmetic on odd-free rational operands, with den nonzero."""
        return cls._reduced(*_reduce_fraction(num, den))

    @classmethod
    def from_scalar(cls, table: GeneratorTable, c) -> "RationalFunction":
        if not isinstance(c, (int, Fraction)):
            raise TypeError("rational functions need rational coefficients")
        # n/d is stored as (n, d); a Fraction is already in lowest terms
        n, d = (c, 1) if type(c) is int else (c.numerator, c.denominator)
        return cls._reduced(SuperPoly._of(table, {0: n} if n else {}),
                            SuperPoly._of(table, {0: d}))

    @property
    def table(self) -> GeneratorTable:
        return self.num.table

    def _shared(self, o: "RationalFunction") -> "tuple[int, int] | None":
        """(a, b) with a * self.den == b * o.den, a and b coprime positive
        ints, when the two denominators have the same primitive part."""
        d1, d2 = self.den.terms, o.den.terms
        if d1 == d2:
            return 1, 1
        if d1.keys() != d2.keys():
            return None
        k1, k2 = gcd(*d1.values()), gcd(*d2.values())
        if k1 == k2 or any(c * k2 != d2[m] * k1 for m, c in d1.items()):
            return None
        g = gcd(k1, k2)
        return k2 // g, k1 // g

    def __bool__(self):
        return bool(self.num)

    def _coerce(self, other) -> "RationalFunction | None":
        """``other`` as a quotient over this table, None for a foreign type.
        A quotient or polynomial over another table raises: the arithmetic
        reads monomial keys by position."""
        if isinstance(other, RationalFunction):
            _check_same_table(self.num, other.num)
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(self.table, other)
        if isinstance(other, SuperPoly):
            _check_same_table(self.num, other)
            return RationalFunction(other, SuperPoly.one(other.table))
        return None

    def __add__(self, other):
        if isinstance(other, SuperPoly):
            return NotImplemented   # let SuperPoly treat us as a constant
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        shared = self._shared(o)
        if shared:
            a, b = shared
            return RationalFunction._quotient(_times(self.num, a) + _times(o.num, b),
                                              _times(self.den, a))
        # a denominator of 1 makes its product a copy
        num = _products(((self.num, o.den), (o.num, self.den)))
        den = (self.den if _is_one(o.den) else o.den if _is_one(self.den)
               else _products(((self.den, o.den),)))
        return RationalFunction._quotient(num, den)

    __radd__ = __add__

    def __neg__(self):
        # the reduction never looks at the numerator's sign
        return RationalFunction._reduced(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, SuperPoly):
            return NotImplemented
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        if isinstance(other, SuperPoly):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int:
            return self._times_int(other)
        if isinstance(other, SuperPoly):
            return NotImplemented   # let SuperPoly treat us as a scalar
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = (self.den if _is_one(o.den) else o.den if _is_one(self.den)
               else _products(((self.den, o.den),)))
        return RationalFunction._quotient(_products(((self.num, o.num),)), den)

    def _times_int(self, k: int) -> "RationalFunction":
        """self * k.  The stored pair (n, d) is reduced, so the reduced
        pair of (k n, d) only divides by g = gcd(k, content of d): n and d
        share no monomial factor, no gcd, and no integer factor."""
        if not k:
            return RationalFunction._reduced(SuperPoly._of(self.table, {}),
                                             SuperPoly.one(self.table))
        g = gcd(k, *self.den.terms.values())
        den = self.den if g == 1 else SuperPoly._of(
            self.table, {m: c // g for m, c in self.den.terms.items()})
        return RationalFunction._reduced(_times(self.num, k // g), den)

    def __rmul__(self, other):
        if type(other) is int:
            return self._times_int(other)
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
        return RationalFunction._quotient(self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, SuperPoly):
            return NotImplemented   # SuperPoly compares us as a constant
        try:
            o = self._coerce(other)
        except ValueError:   # over another table: unequal, as in SuperPoly.__eq__
            return False
        if o is None:
            return NotImplemented
        shared = self._shared(o)
        if shared:
            a, b = shared
            return _times(self.num, a) == _times(o.num, b)
        return (_products(((self.num, o.den),)).terms
                == _products(((o.num, self.den),)).terms)

    def derivative(self, name: str) -> "RationalFunction":
        """Quotient rule; the generator must be even.  Over a constant d it
        is (num' d)/d^2, whose reduced pair is that of num'/d."""
        dn = self.num.left_derivative(name)
        if self.den.terms.keys() == {0}:
            return RationalFunction._quotient(dn, self.den)
        dd = self.den.left_derivative(name)
        return RationalFunction._quotient(_products(((dn, self.den), (self.num, -dd))),
                                          _products(((self.den, self.den),)))

    def substitute(self, assignment: Mapping[str, SuperPoly],
                   table: GeneratorTable | None = None) -> SuperPoly:
        """Evaluate at generator images; needs the shifted denominator to be
        scalar plus nilpotent."""
        return _pull_back(self.table, (SuperPoly._of(self.table, {0: self}),),
                          assignment, table)[0]

    def __str__(self):
        num, den = _monic(self.num, self.den)
        shown = str(num) if len(num.terms) <= 1 else f"({num})"
        if _is_one(den):
            return shown
        text = str(den)
        if len(den.terms) > 1 or "^" in text or "*" in text:
            text = f"({text})"
        return f"{shown}/{text}"

    __repr__ = __str__


# The coefficient types: everything SuperPoly treats as a constant.
SCALARS = (int, Fraction, RationalFunction)


class PolyElement:
    """Base of the values stored as one polynomial ``poly``: operators,
    the operator complex and the two polyvector pictures.

    It owns their module operations on ``poly``.  A subclass gives its
    slots and :meth:`_with`, which wraps a polynomial over the same table
    as the same type with the same context and checks nothing.  ``+``,
    ``-`` and ``==`` take only an operand of exactly the same type and
    return ``NotImplemented`` for any other; operands over different
    tables raise ``ValueError`` with the subclass's ``_mismatch`` text.
    Values are unhashable.
    """

    __slots__ = ()
    _mismatch = "generator table mismatch"

    def _with(self, poly: SuperPoly) -> "PolyElement":
        raise NotImplementedError

    def _operand(self, other) -> SuperPoly | None:
        """``other.poly`` when other is of exactly this type, else None."""
        if type(other) is not type(self):
            return None
        table = other.poly.table
        if table is not self.poly.table and table != self.poly.table:
            raise ValueError(self._mismatch)
        return other.poly

    def is_zero(self) -> bool:
        return not self.poly.terms

    def __bool__(self):
        return bool(self.poly.terms)

    def __add__(self, other):
        poly = self._operand(other)
        return NotImplemented if poly is None else self._with(self.poly + poly)

    def __sub__(self, other):
        poly = self._operand(other)
        return NotImplemented if poly is None else self._with(self.poly - poly)

    def __neg__(self):
        return self._with(-self.poly)

    def scale(self, c):
        return self._with(self.poly.scale(c))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.poly == other.poly


def _leading_monomial(poly: SuperPoly) -> Monomial:
    return max(poly.terms, key=poly.table.sort_key)


def _is_one(poly: SuperPoly) -> bool:
    terms = poly.terms
    return len(terms) == 1 and terms.get(0) == 1


def _times(poly: SuperPoly, k: int) -> SuperPoly:
    return poly if k == 1 else SuperPoly._of(poly.table, {m: c * k for m, c in poly.terms.items()})


def _products(pairs: Iterable[tuple[SuperPoly, SuperPoly]]) -> SuperPoly:
    """The sum of a * b over (a, b) pairs of one table, for the odd-free
    ``int`` polynomials a ``RationalFunction`` pair holds: keys add with no
    sign and no parity test, and products of ints need no normalizing.  An
    even exponent past its field raises ``OverflowError``."""
    terms: dict[Monomial, int] = {}
    get = terms.get
    for a, b in pairs:
        right = b.terms.items()
        for m1, c1 in a.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                acc = get(m)
                terms[m] = c1 * c2 if acc is None else acc + c1 * c2
    seen = 0
    for m in terms:
        seen |= m
    if seen & a.table._guard:
        raise OverflowError(f"an even exponent exceeds {_EXPONENT}")
    return SuperPoly._of(a.table, {m: c for m, c in terms.items() if c})


def _monic(num: SuperPoly, den: SuperPoly) -> tuple[SuperPoly, SuperPoly]:
    """num/den with den's coefficient at its leading monomial scaled to 1."""
    lead = den.terms[_leading_monomial(den)]
    if lead == 1:
        return num, den
    inv = Fraction(1, lead)
    return num.scale(inv), den.scale(inv)


def _reduce_fraction(num: SuperPoly, den: SuperPoly) -> tuple[SuperPoly, SuperPoly]:
    """The reduced pair of num/den (den nonzero, every coefficient an
    ``int``).

    A zero numerator gives 0/1.  Otherwise, unless a side has a constant
    term, the common monomial factor cancels.  The gcd then runs only when
    the denominator has two or more terms and one variable occurs: with a
    constant or one-monomial denominator the monomial step has already
    removed the whole gcd, since x divides num only as far as its least
    x-exponent.  Each side becomes its content times a primitive ``int``
    coefficient list, and :func:`_gcd_cofactors` divides the two lists
    by their gcd, found by the primitive remainder sequence.  Last,
    the pair is divided by the gcd of all its coefficients and its sign
    is fixed, so that the denominator's coefficient at the largest key is
    positive.
    """
    table = num.table
    if num.is_zero():
        return num, SuperPoly.one(table)
    if _is_one(den):
        return num, den     # the content step divides by gcd(..., 1) = 1
    # cancel the common monomial factor: the field-wise minimum of the keys
    if 0 not in num.terms and 0 not in den.terms:
        keys = [*num.terms, *den.terms]
        common = sum(min(m >> shift & _EXPONENT for m in keys) << shift
                     for _, shift in table._even_fields)
        if common:
            num, den = (SuperPoly._of(table, {m - common: c for m, c in poly.terms.items()})
                        for poly in (num, den))
    # single-variable quotients reduce fully by an integer gcd
    if len(den.terms) > 1:
        used = 0
        for m in itertools.chain(num.terms, den.terms):
            used |= m
        shifts = [shift for _, shift in table._even_fields if used >> shift & _EXPONENT]
        if len(shifts) == 1:
            shift = shifts[0]
            (a, ka), (b, kb) = _univariate_integers(num, shift), _univariate_integers(den, shift)
            qa, qb = _gcd_cofactors(a, b)
            if len(qb) < len(b):
                # num/den = (ka qa)/(kb qb)
                num, den = (SuperPoly._of(table, {k << shift: c * s for k, c in enumerate(q) if c})
                            for q, s in ((qa, ka), (qb, kb)))
    # the common integer factor and the sign
    content = gcd(*num.terms.values(), *den.terms.values())
    if den.terms[max(den.terms)] < 0:
        content = -content
    if content != 1:
        num, den = (SuperPoly._of(table, {m: c // content for m, c in poly.terms.items()})
                    for poly in (num, den))
    return num, den


def _univariate_integers(poly: SuperPoly, shift: int) -> tuple[list[int], int]:
    """(f, k) with poly = k * f(x), f a primitive coefficient list, lowest
    degree first, in the one even letter x whose field is at ``shift``;
    poly is odd-free, holds no other letter and has ``int`` coefficients."""
    f = [0] * (1 + (max(poly.terms) >> shift))
    for m, c in poly.terms.items():
        f[m >> shift] = c
    content = gcd(*f)
    return [c // content for c in f], content


def _gcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(a/g, b/g) for g = gcd(a, b), a and b primitive integer
    polynomials (coefficient lists, lowest degree first, both nonzero).

    g comes from the primitive polynomial remainder sequence:
    pseudo-remainders over Z, each made primitive, until one is zero; the
    last nonzero one, with its leading coefficient made positive, is g,
    and a nonzero constant remainder leaves a and b as they are."""
    f, g = (a, b) if len(a) >= len(b) else (b, a)
    while len(g) > 1:
        r = f[:]
        lead, n = g[-1], len(g)
        while len(r) >= n:
            top, k = r[-1], len(r) - n
            r = [c * lead for c in r]
            for j in range(n):
                r[k + j] -= top * g[j]
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        content = gcd(*r)
        f, g = g, [c // content for c in r]
    else:
        return a, b     # a nonzero constant remainder: coprime
    if g[-1] < 0:
        g = [-c for c in g]
    return _divide(a, g), _divide(b, g)


def _divide(f: list[int], g: list[int]) -> list[int] | None:
    """f / g when g divides f exactly over Z, else None."""
    n = len(g) - 1
    if len(f) <= n:
        return None
    lead = g[-1]
    r = f[:]
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + n], lead)
        if rest:
            return None
        if c:
            q[k] = c
            for j in range(n):
                r[k + j] -= c * g[j]
    return None if any(r[:n]) else q


def _pull_back(source: GeneratorTable, polys: Iterable[SuperPoly],
               assignment: Mapping[str, object],
               table: GeneratorTable | None) -> list[SuperPoly]:
    """The images of polys, elements over ``source``, under the
    homomorphism of :meth:`SuperPoly.substitute`, all through one check of
    the assignment and one memo of image powers keyed by (position,
    exponent), so every image is raised to every power at most once.

    Each term accumulates left to right in written order: its coefficient,
    then the even factors (they commute), then the odd ones in canonical
    order.  A quotient coefficient is num(images) * den(images)^-1, and a
    denominator of 1 is not mapped at all.
    """
    images: dict[int, SuperPoly] = {}
    out_table = table
    for name, img in assignment.items():
        i = source.index(name)
        if not isinstance(img, SuperPoly):
            img = SuperPoly.constant(out_table or source, img)
        p = img.parity()
        if p is not None and p != source.parities[i]:
            raise ValueError(
                f"parity violation: image of {name!r} has parity {p}, "
                f"expected {source.parities[i]}")
        if p is None and img.terms:
            raise ValueError(f"parity violation: image of {name!r} is inhomogeneous")
        images[i] = img
        if out_table is None:
            out_table = img.table
    if out_table is None:
        out_table = source
    cross_table = out_table != source
    powers: dict[tuple[int, int], SuperPoly] = {}

    def power(pos: int, k: int) -> SuperPoly:
        img = images.get(pos)
        if img is None:
            if cross_table:
                raise ValueError(
                    f"no image given for generator {source.names[pos]!r} "
                    "in a cross-table substitution")
            img = images[pos] = SuperPoly.generator(out_table, source.names[pos])
        if k == 1:
            return img
        out = powers.get((pos, k))
        if out is None:
            out = powers[pos, k] = img ** k
        return out

    def evaluate(poly: SuperPoly) -> SuperPoly:
        if poly.table is not source and poly.table != source:
            raise ValueError("generator table mismatch")
        result = SuperPoly.zero(out_table)
        for m, c in poly.terms.items():
            if type(c) is RationalFunction:
                piece = evaluate(c.num)
                if not _is_one(c.den):
                    piece = piece * evaluate(c.den).inverse()
            else:
                piece = SuperPoly.constant(out_table, c)
            for pos, k in source.powers(m):
                piece = piece * power(pos, k)
                if piece.is_zero():
                    break
            result = result + piece
        return result

    return [evaluate(poly) for poly in polys]


@functools.cache
def _prefix_shift(src: GeneratorTable, dst: GeneratorTable):
    """(lost, odd, low, high) for the generators both tables begin with,
    as a chart's polyvector and Weyl tables begin with the chart's: a src
    key m with no bit in ``lost``, i.e. one in those generators only, is
    the dst key m & odd | m >> low << high."""
    n = 0
    while n < min(len(src.gens), len(dst.gens)) and src.gens[n] == dst.gens[n]:
        n += 1
    n_odd = sum(src.parities[:n])
    n_even = n - n_odd
    odd = (1 << n_odd) - 1
    low, high = (len(t.odd_positions) + _FIELD * (len(t.even_positions) - n_even)
                 for t in (src, dst))
    return (1 << low) - 1 & ~odd, odd, low, high


def transport(poly: SuperPoly, table: GeneratorTable) -> SuperPoly:
    """Reinterpret an element over another table containing the same-named
    generators (with equal parities); rational-function coefficients are
    transported along."""
    if poly.table == table:
        return poly
    src = poly.table
    shift = _prefix_shift(src, table)
    target: dict[int, int] = {}
    terms: dict[Monomial, object] = {}
    for m, c in poly.terms.items():
        if not m & shift[0]:
            sign, mono = 1, m & shift[1] | m >> shift[2] << shift[3]
        else:
            pairs = src.powers(m)
            for pos, _ in pairs:
                if pos not in target:
                    name = src.names[pos]
                    target[pos] = table.index(name)
                    if table.parities[target[pos]] != src.parities[pos]:
                        raise ValueError(f"generator {name!r} changes parity")
            sign, mono = table.monomial([(target[pos], k) for pos, k in pairs])
        if isinstance(c, RationalFunction):
            # a quotient in the shared leading generators keeps its reduced form
            reduced = not any(k & shift[0] for k in itertools.chain(c.num.terms, c.den.terms))
            c = (RationalFunction._reduced if reduced else RationalFunction)(
                transport(c.num, table), transport(c.den, table))
        terms[mono] = c if sign > 0 else -c
    # renaming keeps the keys distinct and the coefficients canonical
    return SuperPoly._of(table, terms)


def absorb_even_exponents(poly: SuperPoly) -> SuperPoly:
    """Move the powers of the even base coordinates into RationalFunction
    coefficients; every other letter stays in the monomials.

    Charts keep their polynomials in this absorbed form so that division by
    even coordinates stays a scalar operation.
    """
    table = poly.table
    base = table._base_mask
    terms: dict[Monomial, object] = {}
    for m, c in poly.terms.items():
        rf = c if isinstance(c, RationalFunction) else RationalFunction.from_scalar(table, c)
        if m & base:
            rf = RationalFunction._quotient(rf.num * SuperPoly._of(table, {m & base: 1}), rf.den)
        mono = m & ~base
        acc = terms.get(mono)
        terms[mono] = rf if acc is None else acc + rf
    return SuperPoly(table, terms)


def release_even_exponents(poly: SuperPoly) -> SuperPoly:
    """Move absorbed even powers back into the monomials: the inverse of
    :func:`absorb_even_exponents`.

    Operations that need polynomial data call this on their input, so an
    element may be written either way.  A stored denominator other than 1
    is divided into its numerator exactly, since the stored pair may share
    a factor that :func:`_reduce_fraction` leaves in place; a quotient that
    is no polynomial raises ``ValueError``.
    """
    if not any(type(c) is RationalFunction for c in poly.terms.values()):
        return poly
    table = poly.table
    pairs = []
    # absorbing first collects every even power of one monomial into one
    # quotient, so x*(1/x) releases to 1
    for mono, c in absorb_even_exponents(poly).terms.items():
        num = c.num if _is_one(c.den) else _exact_quotient(c.num, c.den)
        pairs.append((SuperPoly._of(table, {mono: 1}), num))
    return SuperPoly.sum_of_products(table, pairs)


def _exact_quotient(num: SuperPoly, den: SuperPoly) -> SuperPoly:
    """num / den for the pair of a RationalFunction, when den divides num.

    Scales the pair to make den's leading coefficient 1, then divides by
    the one divisor den in the graded order of
    :meth:`GeneratorTable.sort_key`.  With a single divisor the remainder
    is zero exactly when den divides num, and a leading term that den's
    leading term does not divide would stay in the remainder, so the first
    such term raises ``ValueError``.
    """
    table, guard = num.table, num.table._guard
    num, den = _monic(num, den)
    lead = _leading_monomial(den)
    tail = [(m, c) for m, c in den.terms.items() if m != lead]
    left, out = dict(num.terms), {}
    while left:
        m = max(left, key=table.sort_key)
        if ((m | guard) - lead) & guard != guard:   # a field of m - lead borrows
            raise ValueError("non-polynomial coefficient: this operation takes "
                             "polynomial coefficients only; quotients by even "
                             "coordinates are unsupported")
        shift = m - lead
        factor = out[shift] = left.pop(m)
        for dm, dc in tail:
            key = dm + shift
            value = left.get(key, 0) - factor * dc
            if value:
                left[key] = value
            else:
                del left[key]
    return SuperPoly(table, out)
