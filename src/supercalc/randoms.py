"""Seeded random generators used by the verification suites.

Everything takes an explicit ``random.Random`` so runs are reproducible
from a seed; no module-level state.  Randomness only ever picks rational
coefficients and monomial shapes, the arithmetic downstream stays exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from supercalc.algebra import GeneratorTable, SuperPoly
from supercalc.charts import Chart, CoordinateMap
from supercalc.supermatrix import SuperMatrix, det_even


def random_rational(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def random_nonzero_rational(rng: random.Random, span: int = 4) -> Fraction:
    while True:
        c = random_rational(rng, span)
        if c:
            return c


def _term(table: GeneratorTable, powers, odds, coeff) -> SuperPoly:
    """coeff times the monomial of the (position, power) pairs ``powers``
    and the ascending odd positions ``odds``."""
    powers += [(i, 1) for i in odds]
    _, mono = table.monomial(powers)
    return SuperPoly(table, {mono: coeff})


def _even_powers(rng: random.Random, table: GeneratorTable, max_exp: int):
    """Each even generator, with probability 1/2, to a power up to max_exp."""
    return [(pos, rng.randint(0, max_exp)) for pos in table.even_positions
            if rng.random() < 0.5]


def random_superpoly(rng: random.Random, table: GeneratorTable, *,
                     parity: int | None = None, terms: int = 3,
                     max_exp: int = 2) -> SuperPoly:
    """A small random element, optionally of fixed parity."""
    odd_positions = table.odd_positions
    out = SuperPoly.zero(table)
    for _ in range(rng.randint(1, terms)):
        powers = _even_powers(rng, table, max_exp)
        n_odd = rng.randint(0, len(odd_positions))
        if parity is not None and n_odd % 2 != parity:
            n_odd = n_odd - 1 if n_odd > 0 else n_odd + 1
            if n_odd > len(odd_positions) or n_odd % 2 != parity:
                continue
        odds = sorted(rng.sample(odd_positions, n_odd))
        out = out + _term(table, powers, odds, random_rational(rng))
    if parity is not None and out.parity() not in (parity, None):
        raise AssertionError("parity bookkeeping error in generator")
    return out


def random_nilpotent_even(rng: random.Random, table: GeneratorTable,
                          terms: int = 2, max_exp: int = 2) -> SuperPoly:
    """Even element all of whose monomials contain odd factors."""
    odd_positions = table.odd_positions
    out = SuperPoly.zero(table)
    if len(odd_positions) < 2:
        return out
    pairs = list(combinations(odd_positions, 2))
    for _ in range(rng.randint(0, terms)):
        powers = _even_powers(rng, table, max_exp)
        odds = rng.choice(pairs)
        out = out + _term(table, powers, odds, random_rational(rng))
    return out


def random_odd_entry(rng: random.Random, table: GeneratorTable,
                     terms: int = 2, max_exp: int = 2) -> SuperPoly:
    """Odd element (each monomial has an odd number of odd factors)."""
    odd_positions = table.odd_positions
    out = SuperPoly.zero(table)
    for _ in range(rng.randint(0, terms)):
        powers = _even_powers(rng, table, max_exp)
        n = rng.choice([k for k in range(1, len(odd_positions) + 1) if k % 2])
        odds = sorted(rng.sample(odd_positions, n))
        out = out + _term(table, powers, odds, random_rational(rng))
    return out


def random_invertible_supermatrix(rng: random.Random, table: GeneratorTable,
                                  p: int, q: int) -> SuperMatrix:
    """Invertible in the exact sense: the reduced parts of A and D are
    constant matrices with nonzero rational determinant."""

    def reduced_block(n):
        while True:
            rows = [[SuperPoly.constant(table, random_rational(rng))
                     for _ in range(n)] for _ in range(n)]
            d = det_even(rows, table)
            if not d.is_zero():
                return rows

    A = reduced_block(p)
    D = reduced_block(q)
    A = [[e + random_nilpotent_even(rng, table) for e in r] for r in A]
    D = [[e + random_nilpotent_even(rng, table) for e in r] for r in D]
    B = [[random_odd_entry(rng, table) for _ in range(q)] for _ in range(p)]
    C = [[random_odd_entry(rng, table) for _ in range(p)] for _ in range(q)]
    return SuperMatrix(table, p, q, A, B, C, D)


def random_invertible_fraction_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    scalars = GeneratorTable.chart([], [])
    while True:
        rows = [[random_rational(rng, 3) for _ in range(n)] for _ in range(n)]
        if det_even([[SuperPoly.constant(scalars, c) for c in r]
                     for r in rows], scalars):
            return rows


def random_split_map(rng: random.Random, source: Chart, target: Chart) -> CoordinateMap:
    """A random invertible coordinate change: affine-invertible even part
    plus nilpotent corrections, linear odd part with coordinate-dependent
    coefficients.  Retries until the Berezinian of the Jacobian exists."""
    p, q = source.p, source.q
    table = source.table
    xs = [SuperPoly.generator(table, n) for n in source.even_names]
    ths = [SuperPoly.generator(table, n) for n in source.odd_names]
    while True:
        images: dict[str, SuperPoly] = {}
        L = random_invertible_fraction_matrix(rng, p)
        for a, name in enumerate(target.even_names):
            img = SuperPoly.constant(table, random_rational(rng))
            for b in range(p):
                img = img + xs[b].scale(L[a][b])
                if rng.random() < 0.3:
                    img = img + (xs[b] * xs[b]).scale(random_rational(rng, 2))
            img = img + random_nilpotent_even(rng, table, terms=1)
            images[name] = img
        G = random_invertible_fraction_matrix(rng, q)
        for a, name in enumerate(target.odd_names):
            img = SuperPoly.zero(table)
            for b in range(q):
                img = img + ths[b].scale(G[a][b])
                if rng.random() < 0.3 and p:
                    img = img + xs[rng.randrange(p)] * ths[b] * random_rational(rng, 2)
            images[name] = img
        m = CoordinateMap(source, target, images)
        try:
            m.ber_jacobian()
        except (ValueError, ZeroDivisionError):
            continue
        return m
