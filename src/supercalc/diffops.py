"""Normal-ordered differential operators on a supercommutative chart.

An operator is a finite sum of terms

    coefficient * d_x^l * d_th^eps

with the coefficient (a :class:`SuperPoly`) always written to the LEFT of the
derivative symbols, the even multi-index ``l`` running over the even base
generators and ``eps`` an ascending subset of the odd base generators.
Composition re-establishes this normal order using the graded Leibniz rule

    d o f = d(f) + (-1)^{|d||f|} f o d,

which realizes the commutation relations [x_i, d_{x_j}] = delta_ij and
{theta_a, d_{theta_b}} = delta_ab.  Only the base coordinates carry
derivative symbols; any extra generators in the table (form symbols, for
instance) live purely inside coefficients.
"""

from __future__ import annotations

from typing import Mapping

from supercalc.algebra import (
    EVEN_BASE,
    ODD_BASE,
    SCALARS,
    GeneratorTable,
    SuperPoly,
    _check_same_table,
    merge_odd_indices,
)

DerivMonomial = tuple[tuple[int, ...], tuple[int, ...]]


class DiffOp:
    """Element of the Weyl superalgebra over a generator table.

    ``terms`` maps derivative monomials (even exponent vector, ascending odd
    position tuple) to their left coefficients.  Immutable; all operations
    return new instances.
    """

    __slots__ = ("table", "terms", "deriv_even", "deriv_odd", "_slot_of")

    def __init__(self, table: GeneratorTable, terms: Mapping[DerivMonomial, SuperPoly]):
        self.table = table
        self.deriv_even = table.positions_of_class(EVEN_BASE)
        self.deriv_odd = table.positions_of_class(ODD_BASE)
        self._slot_of = {pos: k for k, pos in enumerate(self.deriv_even)}
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, table: GeneratorTable) -> "DiffOp":
        return cls(table, {})

    @classmethod
    def identity(cls, table: GeneratorTable) -> "DiffOp":
        return cls.multiplication(SuperPoly.one(table))

    @classmethod
    def multiplication(cls, f: SuperPoly) -> "DiffOp":
        """The operator 'multiply on the left by f'."""
        n = len(f.table.positions_of_class(EVEN_BASE))
        return cls(f.table, {((0,) * n, ()): f})

    @classmethod
    def partial(cls, table: GeneratorTable, name: str) -> "DiffOp":
        """A single derivative symbol d_name."""
        pos = table.index(name)
        n_even = len(table.positions_of_class(EVEN_BASE))
        if table.classes[pos] == EVEN_BASE:
            slot = table.positions_of_class(EVEN_BASE).index(pos)
            ell = tuple(1 if k == slot else 0 for k in range(n_even))
            return cls(table, {(ell, ()): SuperPoly.one(table)})
        if table.classes[pos] == ODD_BASE:
            return cls(table, {((0,) * n_even, (pos,)): SuperPoly.one(table)})
        raise ValueError(f"{name!r} is not a base coordinate")

    # --- views --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Filtration degree: highest total derivative order, -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(ell) + len(eps) for ell, eps in self.terms)

    def _term_parity(self, key: DerivMonomial, coeff: SuperPoly) -> int | None:
        cp = coeff.parity()
        if cp is None:
            return None
        return (cp + len(key[1])) & 1

    def parity(self) -> int | None:
        seen = set()
        for m, c in self.terms.items():
            p = self._term_parity(m, c)
            if p is None:
                return None
            seen.add(p)
        if len(seen) == 1:
            return seen.pop()
        return None

    def homogeneous_parts(self) -> "tuple[DiffOp, DiffOp]":
        """Split into (even operator, odd operator)."""
        buckets: tuple[dict, dict] = ({}, {})
        for (ell, eps), c in self.terms.items():
            for cp, ch in zip((0, 1), c.homogeneous_parts()):
                if ch.is_zero():
                    continue
                p = (cp + len(eps)) & 1
                acc = buckets[p].get((ell, eps))
                buckets[p][(ell, eps)] = ch if acc is None else acc + ch
        return DiffOp(self.table, buckets[0]), DiffOp(self.table, buckets[1])

    # --- module structure ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        _check_same_table(self, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m)
            terms[m] = c if acc is None else acc + c
        return DiffOp(self.table, terms)

    def __neg__(self):
        return DiffOp(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        return DiffOp(self.table, {m: coeff.scale(c) for m, coeff in self.terms.items()})

    def left_multiply(self, f: SuperPoly) -> "DiffOp":
        """f * D; cheap because coefficients already sit on the left."""
        return DiffOp(self.table, {m: f * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        if isinstance(other, SuperPoly):
            return self.compose(DiffOp.multiplication(other))
        if isinstance(other, DiffOp):
            return self.compose(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scale(other)
        if isinstance(other, SuperPoly):
            return self.left_multiply(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    # --- action and composition -------------------------------------------------

    def apply(self, f: SuperPoly) -> SuperPoly:
        """Act on an algebra element; derivative words act right to left."""
        if f.table != self.table:
            raise ValueError("generator table mismatch")
        out = SuperPoly.zero(self.table)
        for (ell, eps), c in self.terms.items():
            g = f
            for pos in reversed(eps):
                g = g.left_derivative(self.table.names[pos])
                if g.is_zero():
                    break
            for slot, k in enumerate(ell):
                if g.is_zero():
                    break
                name = self.table.names[self.deriv_even[slot]]
                for _ in range(k):
                    g = g.left_derivative(name)
            if not g.is_zero():
                out = out + c * g
        return out

    def _word(self, mono: DerivMonomial) -> tuple[int, ...]:
        ell, eps = mono
        word: list[int] = []
        for slot, k in enumerate(ell):
            word.extend([self.deriv_even[slot]] * k)
        word.extend(eps)
        return tuple(word)

    def _mono_of_word(self, word: tuple[int, ...]) -> DerivMonomial:
        ell = [0] * len(self.deriv_even)
        eps: list[int] = []
        for pos in word:
            if self.table.parities[pos] == 0:
                ell[self._slot_of[pos]] += 1
            else:
                eps.append(pos)
        return tuple(ell), tuple(eps)

    def _push(self, word: tuple[int, ...], f: SuperPoly):
        """Move a homogeneous coefficient leftwards through a derivative word.

        Yields (g, suffix) pairs meaning g * (product of suffix symbols); the
        rightmost symbol of the word meets f first and either differentiates
        it or hops over it with the Koszul sign.
        """
        if f.is_zero():
            return []
        if not word:
            return [(f, ())]
        head, last = word[:-1], word[-1]
        out = []
        df = f.left_derivative(self.table.names[last])
        if not df.is_zero():
            out.extend(self._push(head, df))
        if self.table.parities[last] and f.parity():
            f = -f
        for g, suffix in self._push(head, f):
            out.append((g, suffix + (last,)))
        return out

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered operator product: apply(self.compose(other), f)
        equals apply(self, apply(other, f))."""
        _check_same_table(self, other)
        terms: dict[DerivMonomial, SuperPoly] = {}
        for mono1, c1 in self.terms.items():
            word1 = self._word(mono1)
            for (ell2, eps2), c2 in other.terms.items():
                for c2h in c2.homogeneous_parts():
                    if c2h.is_zero():
                        continue
                    for g, suffix in self._push(word1, c2h):
                        ell_s, eps_s = self._mono_of_word(suffix)
                        sign, eps = merge_odd_indices(eps_s, eps2)
                        if sign == 0:
                            continue
                        ell = tuple(a + b for a, b in zip(ell_s, ell2))
                        coeff = c1 * g
                        if sign < 0:
                            coeff = -coeff
                        acc = terms.get((ell, eps))
                        terms[(ell, eps)] = coeff if acc is None else acc + coeff
        return DiffOp(self.table, terms)

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

    # --- rendering and serialization ---------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (ell, eps), c in sorted(self.terms.items(),
                                    key=lambda kv: (sum(kv[0][0]) + len(kv[0][1]), kv[0])):
            symbols = []
            for slot, k in enumerate(ell):
                if k == 0:
                    continue
                name = self.table.names[self.deriv_even[slot]]
                symbols.append(f"dd_{name}" + (f"^{k}" if k > 1 else ""))
            symbols.extend(f"dd_{self.table.names[i]}" for i in eps)
            body = "*".join(symbols)
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            chunks.append(f"{cs}*{body}" if body and cs != "1" else (body or cs))
        return " + ".join(chunks)

    __repr__ = __str__
