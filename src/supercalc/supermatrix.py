"""Block supermatrices, even determinants, and the Berezinian.

A supermatrix over a supercommutative algebra has the block form

    [ A  B ]     A: p x p,  D: q x q   (even entries)
    [ C  D ]     B: p x q,  C: q x p   (odd entries)

The diagonal blocks therefore commute entrywise, which is what makes the
ordinary determinant of A and D meaningful, and

    Ber(M) = det(A - B D^{-1} C) * det(D)^{-1}

well defined whenever D is invertible.  Determinants are division-free
Berkowitz characteristic polynomials (Berkowitz 1984).  Inverses are
exact: each entry splits by its keys into its reduced part (the terms
free of odd generators) and its nilpotent part, Cayley-Hamilton inverts
the reduced matrix, dividing only by its unit determinant, and a finite
geometric series absorbs the nilpotent matrix N.

The Berezinian takes det(D)^{-1} from that series by Jacobi's formula:
with D0 the reduced part and Y = D0^{-1} N, N = D - D0,

    det(D) = det(D0) * exp(sum_k (-1)^(k+1) tr(Y^k) / k),

and the series already holds every power of Y.  This is exact, not an
approximation: the even entries of Y commute and the coefficient ring is
a Q-algebra, so 1/k and 1/j! exist.  Only det(D0), a unit, is inverted,
and D needs no determinant of its own.  The odd count bounds all three
sums: with w odd generators and l the fewest odd factors in a term of
N, a product of more than w // l factors from N is zero, so the series,
the log and the exp stop at k = w // l.  l is read from N's keys, since
an even block gives l >= 2 but ``inv_even`` also takes odd entries,
with l = 1.  A split map's Jacobian has an odd-free D (its odd images
are linear in the odd coordinates), so N = 0 and no sum is run; and
when B or C is a zero matrix the Schur complement is A.

One denominator per matrix.  A matrix is held as pairs (den, rows)
standing for rows / den, the rows integral (a scalar denominator leaves
entry parity alone).  A ``SuperMatrix`` stores each of its four blocks
as the pair (L, L * block), L the lcm of the block's Fraction
denominators, made once when the matrix is built from entries.  Its
products, sums, inverses and parity swaps are built from pairs, each
divided by the gcd of its den and its coefficients so that it is the
pair its entries would clear to, and ``berezinian`` reads the pairs:
no Fraction entry is made on the way.  Products multiply int
coefficients through ``SuperPoly.sum_of_products`` and multiply the
denominators, sums go over the lcm, and the Cayley-Hamilton inverse puts
its integer cn into the denominator.  A block is divided by its den only
when it is read (``m.A`` and the like), once, and a scalar result once.
``det_even`` and ``inv_even`` take row lists and clear them once per
call.  RationalFunction entries, as in a chart Jacobian, have L = 1,
since each quotient keeps its own integer pair and no Fraction: nothing
is scaled by 1, and the inverse scales by the unit 1/cn once per
matrix.  A matrix product, and each step of Berkowitz's A^j S chain,
passes the kernel one memo, so every entry of the right factor is
prepared for multiplication once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from supercalc.algebra import GeneratorTable, SuperPoly, _coeff_inverse

Rows = list[list[SuperPoly]]
Scaled = tuple[int, Rows]   # (den, rows): the matrix rows / den


def _as_rows(entries: Sequence[Sequence[SuperPoly]]) -> Rows:
    return [list(r) for r in entries]


def _check_rect(rows: Rows, n: int, m: int, label: str) -> None:
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"block {label} must be {n}x{m}")


def _check_entries(rows: Rows, table: GeneratorTable, want: int,
                   label: str) -> None:
    """Every entry is over ``table`` and, unless zero, of parity want."""
    for r in rows:
        for e in r:
            if e.table is not table and e.table != table:
                raise ValueError(f"block {label}: generator table mismatch")
            if e.is_zero():
                continue
            if e.parity() != want:
                raise ValueError(
                    f"block {label} needs parity-{want} entries, got {e}")


def _dot(row: Sequence[SuperPoly], col: Sequence[SuperPoly],
         table: GeneratorTable, memo: dict | None = None) -> SuperPoly:
    """Sum of row[i] * col[i] over the length of the shorter one; ``memo``
    is the kernel's, shared by the dots that reuse the entries of col."""
    return SuperPoly.sum_of_products(table, zip(row, col), memo)


def _clear_denominators(rows: Rows) -> Scaled:
    """(L, L * rows), L the lcm of the denominators of the Fraction
    coefficients, so that the scaled rows carry none; rows without a
    Fraction coefficient come back as they are, with L = 1."""
    dens = {c.denominator for r in rows for e in r for c in e.terms.values()
            if type(c) is Fraction}
    if not dens:
        return 1, rows
    scale = lcm(*dens)
    return scale, _scale_rows(rows, scale)


def _scale_rows(rows: Rows, c) -> Rows:
    """Every entry times the coefficient c; an int 1 returns rows."""
    if type(c) is int and c == 1:
        return rows
    return [[e.scale(c) for e in r] for r in rows]


def _unscaled(x: Scaled) -> Rows:
    return x[1] if x[0] == 1 else _scale_rows(x[1], Fraction(1, x[0]))


def _reduced(x: Scaled) -> Scaled:
    """The pair ``_clear_denominators`` makes of the entries x stands for.

    On int rows that is den and every coefficient divided by their gcd g:
    den / g is the lcm of the reduced entries' denominators.  A pair whose
    rows hold quotient coefficients and whose den is not 1 (an integer cn
    beside quotient entries) is unscaled and cleared, as its entries are.
    """
    den, rows = x
    if den == 1:
        return x
    coeffs = [c for r in rows for e in r for c in e.terms.values()]
    if any(type(c) is not int for c in coeffs):
        return _clear_denominators(_unscaled(x))
    g = gcd(den, *coeffs)
    if g == 1:
        return x
    return den // g, [[SuperPoly._of(e.table, {m: c // g for m, c in e.terms.items()})
                       for e in r] for r in rows]


def _mat_mul(x: Rows, y: Rows, table: GeneratorTable) -> Rows:
    cols = list(zip(*y))
    memo: dict = {}     # each entry of y is prepared once, not once per row
    return [[_dot(row, col, table, memo) for col in cols] for row in x]


def _mat_add(x: Rows, y: Rows) -> Rows:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _mat_neg(x: Rows) -> Rows:
    return [[-a for a in r] for r in x]


def _scaled_mul(x: Scaled, y: Scaled, table: GeneratorTable) -> Scaled:
    return x[0] * y[0], _mat_mul(x[1], y[1], table)


def _scaled_add(x: Scaled, y: Scaled) -> Scaled:
    """x + y over the lcm of their denominators."""
    den = lcm(x[0], y[0])
    return den, _mat_add(_scale_rows(x[1], den // x[0]),
                         _scale_rows(y[1], den // y[0]))


def _scaled_neg(x: Scaled) -> Scaled:
    return x[0], _mat_neg(x[1])


def _identity_rows(n: int, table: GeneratorTable) -> Rows:
    one, zero = SuperPoly.one(table), SuperPoly.zero(table)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _zero_rows(n: int, m: int, table: GeneratorTable) -> Rows:
    zero = SuperPoly.zero(table)
    return [[zero for _ in range(m)] for _ in range(n)]


def _charpoly(rows: Rows, table: GeneratorTable) -> list[SuperPoly]:
    """[c1, ..., cn] with det(t I - M) = t^n + c1 t^(n-1) + ... + cn.

    Berkowitz: the leading (k+1)x(k+1) block [[A, S], [R, a]] multiplies
    the coefficient vector of the k x k block A by the lower triangular
    Toeplitz matrix whose first column is (1, -a, -RS, -RAS, ...,
    -RA^(k-1)S).  Only ring operations occur, and the leading
    coefficient 1 is never multiplied.  Callers pass cleared rows, so on
    Fraction input every coefficient is integral; for the rows of a pair
    (L, R) the coefficients of the matrix R / L are c_k / L^k.
    """
    coeffs: list[SuperPoly] = []
    for k in range(len(rows)):
        toeplitz = [-rows[k][k]]
        col = [rows[i][k] for i in range(k)]
        for j in range(k):
            memo: dict = {}     # the k + 1 dots below share col's entries
            toeplitz.append(-_dot(rows[k], col, table, memo))
            if j < k - 1:   # A^(k-1) S would go unused
                col = [_dot(rows[i], col, table, memo) for i in range(k)]
        new = []
        for i in range(k + 1):
            acc = toeplitz[i] if i == k else coeffs[i] + toeplitz[i]
            if i:   # + toeplitz[j] * coeffs[i - 1 - j] for j < i
                acc = acc + _dot(toeplitz, coeffs[i - 1::-1], table)
            new.append(acc)
        coeffs = new
    return coeffs


def _det(rows: Rows, table: GeneratorTable) -> SuperPoly:
    if not rows:
        return SuperPoly.one(table)
    last = _charpoly(rows, table)[-1]
    return -last if len(rows) % 2 else last


def det_even(rows: Sequence[Sequence[SuperPoly]], table: GeneratorTable) -> SuperPoly:
    """Determinant of a square matrix with even (commuting) entries, the
    constant term of its Berkowitz characteristic polynomial, computed on
    the cleared rows L M and divided by L^n once."""
    rows = _as_rows(rows)
    n = len(rows)
    _check_rect(rows, n, n, "square")
    for r in rows:
        for e in r:
            if not e.is_zero() and e.parity() != 0:
                raise ValueError("det_even requires even entries")
    scale, rows = _clear_denominators(rows)
    det = _det(rows, table)
    return det if scale == 1 else det.scale(Fraction(1, scale ** n))


def _scalar_unit_inverse(det0: SuperPoly):
    """Inverse coefficient of an odd-free determinant that is a unit."""
    if det0.is_zero():
        raise ValueError("singular reduced matrix")
    c = det0.scalar_part()
    if len(det0.terms) != 1 or not c:
        raise ValueError(
            "reduced determinant is not a unit in the coefficient domain; "
            "absorb even variables into rational-function coefficients first")
    return _coeff_inverse(c)


def _inverse(m: Scaled, table: GeneratorTable, with_det: bool = False
             ) -> tuple[Scaled, tuple[object, SuperPoly] | None]:
    """The inverse of R / L, given and returned as (den, rows) pairs, and
    with ``with_det`` also det(R / L)^{-1} as a pair (c, P) standing for
    c P, P integral on integral rows; without it, None.

    Each entry of R splits by its keys into its reduced part, the terms
    free of odd factors, and its nilpotent part, the rest: R = R0 + N,
    with no subtraction.  With t^n + c1 t^(n-1) + ... + cn the
    characteristic polynomial of R0, Cayley-Hamilton gives R0^{-1} = -H /
    cn, H the Horner sum R0^(n-1) + c1 R0^(n-2) + ... + c(n-1) I.  An int
    cn joins the denominator: R0^{-1} = G / e with e = |cn|; any other
    unit (a RationalFunction) scales H once, with e = 1.  Then (R0 / L)^{-1}
    = L G / e, and N goes through the finite series sum_k (-G N / e)^k L G
    / e, its k-th term over e^k times the first's.

    The determinant comes from the same series by Jacobi's formula.  With
    Y = R0^{-1} N, det R = det R0 * exp(log det(I + Y)) and log det(I + Y)
    = sum_k (-1)^(k+1) tr(Y^k) / k.  The series' (k-1)-th term is L P with
    P = (-Y)^(k-1) R0^{-1}, and P N = (-1)^(k-1) Y^k, so the log is the sum
    of tr(P N) / k: one sum of n^2 products per term, no matrix product.
    Both series are exact and finite: Y's entries are even, so they
    commute, and the ring is a Q-algebra, so the 1/k and the 1/j! of exp
    are defined.  Hence det(R / L)^{-1} = L^n exp(-log) / det R0, and the
    log and exp sums go over one integer denominator each, so their
    products multiply int coefficients.

    The series, the log and the exp all stop at k = w // l, w the number
    of odd generators and l the fewest odd factors in a term of N: every
    term of Y^k, of tr(Y^k) and of log^k has at least k l odd factors, so
    none past that bound is computed (each loop still stops at its first
    zero term).  l is read from the keys, not taken to be 2: an even
    block gives l >= 2, but ``inv_even`` accepts odd entries and then l =
    1.  When N is zero, as in the D block of a split map's Jacobian, the
    inverse is the first term and exp = 1, with no G N product, trace or
    power.
    """
    den, rows = m
    n = len(rows)
    if n == 0:
        return (1, []), (1, SuperPoly.one(table)) if with_det else None
    parts = [[e.nilpotent_split() for e in r] for r in rows]
    reduced = [[x for x, _, _ in r] for r in parts]
    nil = [[x for _, x, _ in r] for r in parts]
    fewest = min((k for r in parts for _, _, k in r if k), default=0)
    bound = len(table.odd_positions) // fewest if fewest else 0
    coeffs = _charpoly(reduced, table)
    det0 = -coeffs[-1] if n % 2 else coeffs[-1]
    inv_det0 = _scalar_unit_inverse(det0)
    horner = _identity_rows(n, table)
    for k, c in enumerate(coeffs[:-1]):
        # the first step is R0 + c1 I: R0 * I needs no product
        horner = (_mat_mul(reduced, horner, table) if k
                  else [r[:] for r in reduced])
        for i in range(n):
            horner[i][i] = horner[i][i] + c
    scale = inv_det0 if n % 2 else -inv_det0      # -1/cn
    if isinstance(scale, (int, Fraction)):
        e, g = scale.denominator, _scale_rows(horner, scale.numerator)
    else:
        e, g = 1, _scale_rows(horner, scale)
    out = power = (e, _scale_rows(g, den))
    if bound:
        step = (e, _mat_neg(_mat_mul(g, nil, table)))
    log_den, log = 1, SuperPoly.zero(table)    # log / log_den
    memo: dict = {}     # every trace multiplies by the entries of N
    for k in range(1, bound + 1):
        if with_det:    # power = L P over its den: tr(P N) / k
            trace = SuperPoly.sum_of_products(table, (
                (power[1][i][j], nil[j][i]) for i in range(n) for j in range(n)),
                memo)
            if trace.terms:
                k_den = k * den * power[0]
                new_den = lcm(log_den, k_den)
                log = log.scale(new_den // log_den) + trace.scale(new_den // k_den)
                log_den = new_den
        power = _scaled_mul(step, power, table)
        if all(x.is_zero() for r in power[1] for x in r):
            break
        out = _scaled_add(out, power)
    if not with_det:
        return out, None
    # exp(-log / log_den) = sum_j (-log)^j / (j! log_den^j), to its first
    # zero term, over the denominator exp_den = j! log_den^j of the last
    exp_den, exp = 1, SuperPoly.one(table)
    term = exp
    for j in range(1, bound + 1):
        term = term * -log
        if term.is_zero():
            break
        exp = exp.scale(j * log_den) + term
        exp_den *= j * log_den
    ratio = Fraction(den ** n, exp_den)
    return out, (inv_det0 if ratio == 1 else inv_det0 * ratio, exp)


def inv_even(rows: Sequence[Sequence[SuperPoly]], table: GeneratorTable) -> Rows:
    """Exact inverse of a square even-entry matrix.  The rows are cleared
    once; ``_inverse`` carries one denominator, which cn joins, and it is
    divided out of the entries once, at the end."""
    rows = _as_rows(rows)
    n = len(rows)
    _check_rect(rows, n, n, "square")
    return _unscaled(_inverse(_clear_denominators(rows), table)[0])


def _schur(a: Scaled, b: Scaled, c: Scaled, d_inv: Scaled,
           table: GeneratorTable) -> Scaled:
    """A - B D^{-1} C from the cleared blocks and D^{-1}, or A itself when
    B or C is a zero matrix (p = 0 or q = 0 among them): then no product
    is formed, and the pair is A's, not A over the product's den."""
    if not any(x for r in b[1] for x in r) or not any(x for r in c[1] for x in r):
        return a
    b_d_inv = _scaled_mul(b, d_inv, table)
    return _scaled_add(a, _scaled_neg(_scaled_mul(b_d_inv, c, table)))


class SuperMatrix:
    """Immutable block matrix with the even/odd parity pattern enforced.

    Each block is stored as its cleared pair (den, rows), made after the
    shape, table and parity checks.  ``A``, ``B``, ``C`` and ``D`` return
    the constructor's entries; a matrix that ``*``, ``+``, ``inverse`` or
    ``parity_swap`` builds from pairs divides a block by its den when the
    block is first read, and keeps it.
    """

    __slots__ = ("table", "p", "q", "_scaled", "_blocks")

    def __init__(self, table: GeneratorTable, p: int, q: int,
                 A: Sequence[Sequence[SuperPoly]], B, C, D):
        self.table = table
        self.p = p
        self.q = q
        blocks = [_as_rows(x) for x in (A, B, C, D)]
        for rows, (n, m), label in zip(
                blocks, ((p, p), (p, q), (q, p), (q, q)), "ABCD"):
            _check_rect(rows, n, m, label)
        for i, want in ((0, 0), (3, 0), (1, 1), (2, 1)):
            _check_entries(blocks[i], table, want, "ABCD"[i])
        self._blocks = blocks
        self._scaled = tuple(map(_clear_denominators, blocks))

    @classmethod
    def _from_scaled(cls, table: GeneratorTable, p: int, q: int,
                     scaled: Sequence[Scaled], blocks=(None,) * 4) -> "SuperMatrix":
        """The matrix of four pairs over checked entries, each reduced to
        the pair the constructor would store; ``blocks`` hands on any
        blocks already unscaled."""
        out = cls.__new__(cls)
        out.table, out.p, out.q = table, p, q
        out._scaled = tuple(map(_reduced, scaled))
        out._blocks = list(blocks)
        return out

    def _block(self, i: int) -> Rows:
        rows = self._blocks[i]
        if rows is None:
            rows = self._blocks[i] = _unscaled(self._scaled[i])
        return rows

    A = property(lambda self: self._block(0))
    B = property(lambda self: self._block(1))
    C = property(lambda self: self._block(2))
    D = property(lambda self: self._block(3))

    @classmethod
    def identity(cls, table: GeneratorTable, p: int, q: int) -> "SuperMatrix":
        return cls(table, p, q,
                   _identity_rows(p, table), _zero_rows(p, q, table),
                   _zero_rows(q, p, table), _identity_rows(q, table))

    @classmethod
    def block_diagonal(cls, table: GeneratorTable, A, D) -> "SuperMatrix":
        p, q = len(A), len(D)
        return cls(table, p, q, A, _zero_rows(p, q, table),
                   _zero_rows(q, p, table), D)

    def rows(self) -> Rows:
        """The full (p+q) x (p+q) matrix."""
        out = [a + b for a, b in zip(self.A, self.B)]
        out += [c + d for c, d in zip(self.C, self.D)]
        return out

    @classmethod
    def from_rows(cls, table: GeneratorTable, p: int, q: int, rows) -> "SuperMatrix":
        rows = _as_rows(rows)
        A = [r[:p] for r in rows[:p]]
        B = [r[p:] for r in rows[:p]]
        C = [r[:p] for r in rows[p:]]
        D = [r[p:] for r in rows[p:]]
        return cls(table, p, q, A, B, C, D)

    def _check_like(self, other: "SuperMatrix") -> None:
        if (self.p, self.q) != (other.p, other.q) or self.table != other.table:
            raise ValueError("shape or table mismatch")

    def _cleared_rows(self) -> Scaled:
        """The full matrix as one pair, over the lcm of the blocks' dens."""
        den = lcm(*(x[0] for x in self._scaled))
        a, b, c, d = (_scale_rows(rows, den // k) for k, rows in self._scaled)
        return den, [x + y for x, y in zip(a, b)] + [x + y for x, y in zip(c, d)]

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_like(other)
        p = self.p
        den, rows = _scaled_mul(self._cleared_rows(), other._cleared_rows(),
                                self.table)
        top, bottom = rows[:p], rows[p:]
        return SuperMatrix._from_scaled(self.table, p, self.q, (
            (den, [r[:p] for r in top]), (den, [r[p:] for r in top]),
            (den, [r[:p] for r in bottom]), (den, [r[p:] for r in bottom])))

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_like(other)
        return SuperMatrix._from_scaled(self.table, self.p, self.q, (
            _scaled_add(x, y) for x, y in zip(self._scaled, other._scaled)))

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and \
            self.rows() == other.rows()

    def parity_swap(self) -> "SuperMatrix":
        """Swap the roles of the even and odd directions (A and D trade
        places, as do B and C)."""
        return SuperMatrix._from_scaled(self.table, self.q, self.p,
                                        self._scaled[::-1], self._blocks[::-1])

    def inverse(self) -> "SuperMatrix":
        """Exact two-sided inverse via the Schur complement of D; both
        reduced diagonal blocks must be invertible over the rationals."""
        table = self.table
        a, b, c, d = self._scaled
        if self.q == 0:
            blocks = (_inverse(a, table)[0], b, c, d)
        elif self.p == 0:
            blocks = (a, b, c, _inverse(d, table)[0])
        else:
            d_inv = _inverse(d, table)[0]
            s_inv = _inverse(_schur(a, b, c, d_inv, table), table)[0]
            top_right = _scaled_neg(_scaled_mul(_scaled_mul(s_inv, b, table),
                                                d_inv, table))
            # D^{-1} C S^{-1} starts both bottom blocks
            dcs = _scaled_mul(_scaled_mul(d_inv, c, table), s_inv, table)
            corr = _scaled_mul(_scaled_mul(dcs, b, table), d_inv, table)
            blocks = (s_inv, top_right, _scaled_neg(dcs), _scaled_add(d_inv, corr))
        return SuperMatrix._from_scaled(table, self.p, self.q, blocks)

    def map_entries(self, fn) -> "SuperMatrix":
        return SuperMatrix(self.table, self.p, self.q,
                           [[fn(e) for e in r] for r in self.A],
                           [[fn(e) for e in r] for r in self.B],
                           [[fn(e) for e in r] for r in self.C],
                           [[fn(e) for e in r] for r in self.D])

    def __str__(self):
        def fmt(rows):
            return "; ".join(", ".join(str(e) for e in r) for r in rows)
        return f"[A: {fmt(self.A)} | B: {fmt(self.B)} | C: {fmt(self.C)} | D: {fmt(self.D)}]"

    __repr__ = __str__


def supertrace(m: SuperMatrix) -> SuperPoly:
    """tr(A) - tr(D)."""
    out = SuperPoly.zero(m.table)
    for i in range(m.p):
        out = out + m.A[i][i]
    for j in range(m.q):
        out = out - m.D[j][j]
    return out


def berezinian(m: SuperMatrix) -> SuperPoly:
    """det(A - B D^{-1} C) * det(D)^{-1}; requires D invertible.  With the
    pair (ls, S) for the Schur complement, det(S) det(D)^{-1} / ls^p.

    det(D)^{-1} comes from ``_inverse``'s own series by Jacobi's formula,
    det(D) = det(D0) exp(sum_k (-1)^(k+1) tr(Y^k) / k) with D0 the reduced
    part and Y = D0^{-1} (D - D0).  It is exact: Y is nilpotent, so both
    series are finite, and the ring is a Q-algebra, so their 1/k and 1/j!
    exist.  So D needs no characteristic polynomial of its own and det(D)
    no inverse.  det(S) keeps Berkowitz: the reduced part of S is A's,
    which may be singular, and then Ber is nilpotent.
    """
    table = m.table
    a, b, c, d = m._scaled
    d_inv, (scale, inv_det) = _inverse(d, table, with_det=True)
    ls, schur = _schur(a, b, c, d_inv, table)
    out = _det(schur, table) * inv_det
    return out.scale(scale if ls == 1 else scale * Fraction(1, ls ** m.p))
