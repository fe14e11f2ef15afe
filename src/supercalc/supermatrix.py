"""Block supermatrices, even determinants, and the Berezinian.

A supermatrix over a supercommutative algebra has the block form

    [ A  B ]     A: p x p,  D: q x q   (even entries)
    [ C  D ]     B: p x q,  C: q x p   (odd entries)

The diagonal blocks therefore commute entrywise, which is what makes the
ordinary determinant of A and D meaningful, and

    Ber(M) = det(A - B D^{-1} C) * det(D)^{-1}

well defined whenever D is invertible.  Determinants are division-free
Berkowitz characteristic polynomials (Berkowitz 1984).  Inverses are
exact: Cayley-Hamilton inverts the reduced part (odd generators set to
zero), dividing only by its unit determinant, and a finite geometric
series absorbs the nilpotent remainder.

Matrix products and characteristic polynomials clear the denominators of
their Fraction coefficients first: each operand is multiplied by the lcm L
of those denominators, the work runs on int coefficients through
``SuperPoly.sum_of_products``, and each result is scaled back once (by
1/(Lx Ly) for a product, by 1/L^k for the k-th characteristic
coefficient).  Operands without a Fraction coefficient, such as the
RationalFunction entries of a chart Jacobian, have L = 1 and are used as
they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from supercalc.algebra import GeneratorTable, SuperPoly, _coeff_inverse

Rows = list[list[SuperPoly]]


def _as_rows(entries: Sequence[Sequence[SuperPoly]]) -> Rows:
    return [list(r) for r in entries]


def _check_rect(rows: Rows, n: int, m: int, label: str) -> None:
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"block {label} must be {n}x{m}")


def _check_parity(rows: Rows, want: int, label: str) -> None:
    for r in rows:
        for e in r:
            if e.is_zero():
                continue
            if e.parity() != want:
                raise ValueError(
                    f"block {label} needs parity-{want} entries, got {e}")


def _dot(row: Sequence[SuperPoly], col: Sequence[SuperPoly],
         table: GeneratorTable) -> SuperPoly:
    """Sum of row[i] * col[i] over the length of the shorter one."""
    return SuperPoly.sum_of_products(table, zip(row, col))


def _clear_denominators(rows: Rows) -> tuple[int, Rows]:
    """(L, L * rows), L the lcm of the denominators of the Fraction
    coefficients, so that the scaled rows carry none; rows without a
    Fraction coefficient come back as they are, with L = 1."""
    dens = {c.denominator for r in rows for e in r for c in e.terms.values()
            if type(c) is Fraction}
    if not dens:
        return 1, rows
    scale = lcm(*dens)
    return scale, [[e.scale(scale) for e in r] for r in rows]


def _mat_mul(x: Rows, y: Rows, table: GeneratorTable) -> Rows:
    lx, x = _clear_denominators(x)
    ly, y = _clear_denominators(y)
    cols = list(zip(*y))
    out = [[_dot(row, col, table) for col in cols] for row in x]
    if lx * ly == 1:
        return out
    back = Fraction(1, lx * ly)
    return [[e.scale(back) for e in r] for r in out]


def _mat_add(x: Rows, y: Rows) -> Rows:
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _mat_neg(x: Rows) -> Rows:
    return [[-a for a in r] for r in x]


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
    coefficient 1 is never multiplied.
    """
    scale, rows = _clear_denominators(rows)
    coeffs: list[SuperPoly] = []
    for k in range(len(rows)):
        toeplitz = [-rows[k][k]]
        col = [rows[i][k] for i in range(k)]
        for j in range(k):
            toeplitz.append(-_dot(rows[k], col, table))
            if j < k - 1:   # A^(k-1) S would go unused
                col = [_dot(rows[i], col, table) for i in range(k)]
        new = []
        for i in range(k + 1):
            acc = toeplitz[i] if i == k else coeffs[i] + toeplitz[i]
            if i:   # + toeplitz[j] * coeffs[i - 1 - j] for j < i
                acc = acc + _dot(toeplitz, coeffs[i - 1::-1], table)
            new.append(acc)
        coeffs = new
    if scale == 1:
        return coeffs
    # the characteristic coefficients of L M are L^k c_k
    return [c.scale(Fraction(1, scale ** k)) for k, c in enumerate(coeffs, 1)]


def det_even(rows: Sequence[Sequence[SuperPoly]], table: GeneratorTable) -> SuperPoly:
    """Determinant of a square matrix with even (commuting) entries, the
    constant term of its Berkowitz characteristic polynomial."""
    rows = _as_rows(rows)
    n = len(rows)
    _check_rect(rows, n, n, "square")
    for r in rows:
        for e in r:
            if not e.is_zero() and e.parity() != 0:
                raise ValueError("det_even requires even entries")
    if n == 0:
        return SuperPoly.one(table)
    last = _charpoly(rows, table)[-1]
    return -last if n % 2 else last


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


def inv_even(rows: Sequence[Sequence[SuperPoly]], table: GeneratorTable) -> Rows:
    """Exact inverse of a square even-entry matrix.

    Splits M = M0 + N with M0 the reduced part.  Cayley-Hamilton on the
    characteristic polynomial t^n + c1 t^(n-1) + ... + cn of M0 gives
    M0^{-1} = -(M0^(n-1) + c1 M0^(n-2) + ... + c(n-1) I) / cn, summed by
    Horner, and the nilpotent N goes through the finite series
    sum_k (-M0^{-1} N)^k M0^{-1}.
    """
    rows = _as_rows(rows)
    n = len(rows)
    _check_rect(rows, n, n, "square")
    if n == 0:
        return []
    reduced = [[e.set_odd_to_zero() for e in r] for r in rows]
    coeffs = _charpoly(reduced, table)
    det0 = -coeffs[-1] if n % 2 else coeffs[-1]
    inv_det0 = _scalar_unit_inverse(det0)
    horner = _identity_rows(n, table)
    for k, c in enumerate(coeffs[:-1]):
        # the first step is M0 + c1 I: M0 * I needs no product
        horner = (_mat_mul(reduced, horner, table) if k
                  else [r[:] for r in reduced])
        for i in range(n):
            horner[i][i] = horner[i][i] + c
    scale = inv_det0 if n % 2 else -inv_det0
    inv0 = [[e.scale(scale) for e in r] for r in horner]
    rest = _mat_add(rows, _mat_neg(reduced))
    step = _mat_neg(_mat_mul(inv0, rest, table))
    out = [r[:] for r in inv0]
    power = [r[:] for r in inv0]
    for _ in range(len(table.odd_positions)):
        power = _mat_mul(step, power, table)
        if all(e.is_zero() for r in power for e in r):
            break
        out = _mat_add(out, power)
    return out


class SuperMatrix:
    """Immutable block matrix with the even/odd parity pattern enforced."""

    __slots__ = ("table", "p", "q", "A", "B", "C", "D")

    def __init__(self, table: GeneratorTable, p: int, q: int,
                 A: Sequence[Sequence[SuperPoly]], B, C, D):
        self.table = table
        self.p = p
        self.q = q
        self.A, self.B, self.C, self.D = (_as_rows(x) for x in (A, B, C, D))
        _check_rect(self.A, p, p, "A")
        _check_rect(self.B, p, q, "B")
        _check_rect(self.C, q, p, "C")
        _check_rect(self.D, q, q, "D")
        _check_parity(self.A, 0, "A")
        _check_parity(self.D, 0, "D")
        _check_parity(self.B, 1, "B")
        _check_parity(self.C, 1, "C")

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

    def __mul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.p, self.q) != (other.p, other.q) or self.table != other.table:
            raise ValueError("shape or table mismatch")
        return SuperMatrix.from_rows(
            self.table, self.p, self.q,
            _mat_mul(self.rows(), other.rows(), self.table))

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return SuperMatrix.from_rows(self.table, self.p, self.q,
                                     _mat_add(self.rows(), other.rows()))

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q) and \
            self.rows() == other.rows()

    def parity_swap(self) -> "SuperMatrix":
        """Swap the roles of the even and odd directions (A and D trade
        places, as do B and C)."""
        return SuperMatrix(self.table, self.q, self.p,
                           self.D, self.C, self.B, self.A)

    def inverse(self) -> "SuperMatrix":
        """Exact two-sided inverse via the Schur complement of D; both
        reduced diagonal blocks must be invertible over the rationals."""
        table = self.table
        if self.q == 0:
            return SuperMatrix(table, self.p, 0, inv_even(self.A, table),
                               self.B, self.C, self.D)
        if self.p == 0:
            return SuperMatrix(table, 0, self.q, self.A, self.B, self.C,
                               inv_even(self.D, table))
        d_inv = inv_even(self.D, table)
        schur = _mat_add(self.A, _mat_neg(
            _mat_mul(_mat_mul(self.B, d_inv, table), self.C, table)))
        s_inv = inv_even(schur, table)
        top_right = _mat_neg(_mat_mul(_mat_mul(s_inv, self.B, table),
                                      d_inv, table))
        bottom_left = _mat_neg(_mat_mul(_mat_mul(d_inv, self.C, table),
                                        s_inv, table))
        corr = _mat_mul(_mat_mul(_mat_mul(_mat_mul(
            d_inv, self.C, table), s_inv, table), self.B, table), d_inv, table)
        bottom_right = _mat_add(d_inv, corr)
        return SuperMatrix(table, self.p, self.q,
                           s_inv, top_right, bottom_left, bottom_right)

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


def _schur_complement(m: SuperMatrix) -> tuple[Rows, Rows]:
    """(A - B D^{-1} C, D^{-1})."""
    d_inv = inv_even(m.D, m.table)
    if m.q == 0 or m.p == 0:
        return [r[:] for r in m.A], d_inv
    bdc = _mat_mul(_mat_mul(m.B, d_inv, m.table), m.C, m.table)
    return _mat_add(m.A, _mat_neg(bdc)), d_inv


def berezinian(m: SuperMatrix) -> SuperPoly:
    """det(A - B D^{-1} C) * det(D)^{-1}; requires D invertible."""
    schur, _ = _schur_complement(m)
    det_d = det_even(m.D, m.table)
    det_s = det_even(schur, m.table)
    return det_s * det_d.inverse()


def decompose(m: SuperMatrix) -> tuple[SuperMatrix, SuperMatrix, SuperMatrix]:
    """Factor M = U * Delta * L with U unit upper triangular, L unit lower
    triangular, and Delta = blockdiag(A - B D^{-1} C, D)."""
    schur, d_inv = _schur_complement(m)
    table = m.table
    upper = SuperMatrix(table, m.p, m.q,
                        _identity_rows(m.p, table),
                        _mat_mul(m.B, d_inv, table),
                        _zero_rows(m.q, m.p, table),
                        _identity_rows(m.q, table))
    delta = SuperMatrix.block_diagonal(table, schur, m.D)
    lower = SuperMatrix(table, m.p, m.q,
                        _identity_rows(m.p, table),
                        _zero_rows(m.p, m.q, table),
                        _mat_mul(d_inv, m.C, table),
                        _identity_rows(m.q, table))
    return upper, delta, lower
