"""Delta forms on the tangent bundle of a superdomain.

A delta form lives in the fiberwise distribution completion of the
differential forms on a chart with p even and q odd coordinates.  Each
term is a base coefficient f(x|th) times a square-free word in the odd
fiber letters dx_i times one delta factor per even fiber direction,

    f * (dx_1)^{e_1} .. (dx_p)^{e_p} * del^{(l_1)}(dth_1) .. del^{(l_q)}(dth_q),

where del^{(l)} denotes the l-th derivative of the delta symbol.  Every
term carries all q delta slots; that maximal picture is the only one
with a usable change-of-coordinates rule, so :class:`DeltaForm` enforces
it.

The delta symbols are formal.  No measure theory enters: the calculus is
fixed by the module relations over the fiber letters, namely that dth
acts on its own slot by del^{(l)} -> -l * del^{(l-1)}, that the formal
derivative d/d(dth) raises l by one, and that inserting or removing a
dx letter costs the sign of the odd letters it passes.  These rules make
the multiplication and derivative letters close up into commutation
relations with [d/d(dth_a), dth_b] = delta_ab on every form and
{d/d(dx_i), dx_j} = delta_ij on every form, which is the whole content
of :func:`cw_apply`.

Degree-wise a term sits in Z-degree (number of dx letters) minus (total
delta derivatives), unbounded below, capped above by p.  The degree-p
piece is spanned over functions by the pivot dx_1..dx_p del(dth_1)..
del(dth_q), which integrates along the fiber to the Berezin density of
the base chart; :func:`to_integral_form` extends that identification
mutually inversely to all degrees by matching the two one-sided
derivative actions letter for letter.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from supercalc.algebra import (
    FIBER_EVEN,
    FIBER_ODD,
    ODD_BASE,
    SuperPoly,
    absorb_even_exponents,
    release_even_exponents,
    transport,
)
from supercalc.charts import Chart, CoordinateMap
from supercalc.derham import fiber_name, form_table
from supercalc.integral_forms import (
    BerSection,
    IntegralForm,
    polyvector_name,
    polyvector_table,
)
from supercalc.integration import PiValue, _moment_ratio
from supercalc.supermatrix import det_even, inv_even

__all__ = [
    "CWOperator",
    "DeltaForm",
    "cw_apply",
    "delta_times_poly",
    "fiber_integral",
    "form_times_delta",
    "from_integral_form",
    "gaussian_fiber_integral",
    "to_integral_form",
]

# A term key is (eps, ells): eps marks which dx letters are present,
# ells lists the delta derivative orders, one entry per odd coordinate.
TermKey = tuple[tuple[int, ...], tuple[int, ...]]


def _coerce_coefficient(chart: Chart, value) -> SuperPoly:
    if isinstance(value, SuperPoly):
        if value.table != chart.table:
            raise ValueError("coefficient is not over the chart")
        return value
    return SuperPoly.constant(chart.table, value)


class DeltaForm:
    """A finite sum of delta-type terms over one chart.

    Terms are stored as a mapping from (eps, ells) to the base
    coefficient, with eps in {0,1}^p and ells a tuple of q nonnegative
    delta derivative orders.  The written order of a canonical term is
    coefficient first, then the dx letters ascending, then the delta
    factors in slot order; :meth:`from_factors` accepts other orders and
    charges the reordering sign, since dx letters and delta symbols are
    all odd.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping[TermKey, object] | None = None):
        cleaned: dict[TermKey, SuperPoly] = {}
        for (eps, ells), coeff in (terms or {}).items():
            eps = tuple(eps)
            ells = tuple(ells)
            if len(eps) != chart.p or any(e not in (0, 1) for e in eps):
                raise ValueError(f"need a 0/1 marker per even coordinate, got {eps}")
            if len(ells) != chart.q or any(l < 0 or l != int(l) for l in ells):
                raise ValueError(
                    f"need a nonnegative delta order per odd coordinate, got {ells}")
            ells = tuple(int(l) for l in ells)
            poly = _coerce_coefficient(chart, coeff)
            if poly.is_zero():
                continue
            key = (eps, ells)
            if key in cleaned:
                poly = cleaned[key] + poly
            if poly.is_zero():
                cleaned.pop(key, None)
            else:
                cleaned[key] = poly
        self.chart = chart
        self.terms = cleaned

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "DeltaForm":
        return cls(chart)

    @classmethod
    def top(cls, chart: Chart, coefficient=1) -> "DeltaForm":
        """The degree-p pivot dx_1..dx_p del(dth_1)..del(dth_q), scaled."""
        key = ((1,) * chart.p, (0,) * chart.q)
        return cls(chart, {key: _coerce_coefficient(chart, coefficient)})

    @classmethod
    def from_factors(cls, chart: Chart, coefficient,
                     factors: Sequence[object]) -> "DeltaForm":
        """Build one term from an ordered product of fiber factors.

        Each factor is either a dx letter given by its fiber name (for
        example ``"dx"`` on a chart with even coordinate ``x``) or a pair
        ``(fiber_odd_name, order)`` for a delta factor.  The factors may
        come in any order; the normalization to the canonical order
        counts transpositions of the odd letters.  A repeated dx letter
        squares to zero; a repeated or missing delta slot is an error
        because sub-maximal pictures have no delta-form calculus.
        """
        even_fibers = {fiber_name(n): i for i, n in enumerate(chart.even_names)}
        odd_fibers = {fiber_name(n): a for a, n in enumerate(chart.odd_names)}
        eps = [0] * chart.p
        orders: dict[int, int] = {}
        word: list[tuple[int, int]] = []
        for factor in factors:
            if isinstance(factor, str):
                if factor not in even_fibers:
                    raise ValueError(f"unknown dx letter {factor!r}")
                i = even_fibers[factor]
                if eps[i]:
                    return cls.zero(chart)
                eps[i] = 1
                word.append((0, i))
            else:
                name, order = factor
                if name not in odd_fibers:
                    raise ValueError(f"unknown delta direction {name!r}")
                a = odd_fibers[name]
                if a in orders:
                    raise ValueError(
                        f"delta slot {name!r} appears twice; a product of two "
                        "deltas in one fiber direction is not defined")
                if order < 0:
                    raise ValueError("delta derivative orders are nonnegative")
                orders[a] = int(order)
                word.append((1, a))
        if set(orders) != set(range(chart.q)):
            missing = [fiber_name(chart.odd_names[a])
                       for a in range(chart.q) if a not in orders]
            raise ValueError(
                f"every odd fiber direction needs exactly one delta factor "
                f"(missing {', '.join(missing)}); sub-maximal pictures have "
                "no delta-form calculus")
        inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                         if word[i] > word[j])
        poly = _coerce_coefficient(chart, coefficient)
        if inversions % 2:
            poly = -poly
        ells = tuple(orders[a] for a in range(chart.q))
        return cls(chart, {(tuple(eps), ells): poly})

    # --- ring-module structure ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "DeltaForm") -> None:
        if self.chart.table != other.chart.table:
            raise ValueError("delta forms live on different charts")

    def __add__(self, other: "DeltaForm") -> "DeltaForm":
        self._check(other)
        merged = dict(self.terms)
        for key, poly in other.terms.items():
            merged[key] = merged[key] + poly if key in merged else poly
        return DeltaForm(self.chart, merged)

    def __sub__(self, other: "DeltaForm") -> "DeltaForm":
        return self + (-other)

    def __neg__(self) -> "DeltaForm":
        return DeltaForm(self.chart,
                         {key: -poly for key, poly in self.terms.items()})

    def scale(self, c) -> "DeltaForm":
        return DeltaForm(self.chart,
                         {key: poly.scale(c) for key, poly in self.terms.items()})

    def times(self, f) -> "DeltaForm":
        """Multiply by a coordinate function from the left."""
        f = _coerce_coefficient(self.chart, f)
        return DeltaForm(self.chart,
                         {key: f * poly for key, poly in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaForm):
            return NotImplemented
        return (self.chart.table == other.chart.table
                and self.terms == other.terms)

    # --- gradings -----------------------------------------------------------

    def z_degrees(self) -> frozenset[int]:
        return frozenset(sum(eps) - sum(ells) for eps, ells in self.terms)

    def z_degree(self) -> int | None:
        """The common Z-degree, None for the zero form.

        Raises on mixed input, reporting how many terms sit in each
        degree.
        """
        degs = self.z_degrees()
        if not degs:
            return None
        if len(degs) == 1:
            return next(iter(degs))
        census = Counter(sum(eps) - sum(ells) for eps, ells in self.terms)
        raise ValueError(f"mixed degrees: {dict(sorted(census.items()))}")

    def picture(self) -> int:
        """Number of delta slots; always q here."""
        return self.chart.q

    def parity(self) -> int | None:
        """Z2 parity q + |f| + (number of dx letters), None when mixed."""
        found: int | None = None
        for (eps, _), poly in self.terms.items():
            fp = poly.parity()
            if fp is None:
                return None
            this = (self.chart.q + fp + sum(eps)) % 2
            if found is None:
                found = this
            elif found != this:
                return None
        return found

    # --- coordinate change ----------------------------------------------------

    def transform(self, m: CoordinateMap) -> "DeltaForm":
        """Express the form in the source coordinates of ``m``.

        The base coefficient pulls back, each dx letter is replaced by
        the differential of the matching coordinate image, and the delta
        block transforms through the linear rule: with dth'_a = sum_b
        G_ab dth_b plus nilpotent dx terms, the product of deltas picks
        up det(G)^{-1} after a finite Taylor expansion in the nilpotent
        summands, and delta derivatives become G^{-1}-weighted derivative
        letters.  G must be invertible over the source chart; otherwise
        the delta factors cannot be brought back to the coordinate
        directions and the computation stops.
        """
        src = m.source
        if m.target.table != self.chart.table:
            raise ValueError("form does not live on the target of the map")
        if (src.p, src.q) != (self.chart.p, self.chart.q):
            raise ValueError("transform needs equal source and target dimensions")
        p, q = src.p, src.q

        g_rows = [[absorb_even_exponents(
            m.images[tname].left_derivative(sname))
            for sname in src.odd_names]
            for tname in self.chart.odd_names]
        try:
            det_inv = det_even(g_rows, src.table).inverse()
            g_inv = inv_even(g_rows, src.table)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("delta argument not reducible") from exc

        # Each block step is a sum of fiber letters with coefficients:
        # the G^{-1}-weighted delta-raising letters of each target slot,
        # the nilpotent dx summands of each dth'_a, and the full
        # differentials of the even images.
        def differential(img: SuperPoly, names) -> list:
            return [(fiber_name(n), img.left_derivative(n)) for n in names]

        raise_steps = [[(f"dd_{fiber_name(n)}", g_inv[b][a])
                        for b, n in enumerate(src.odd_names)] for a in range(q)]
        nil_steps = [differential(m.images[t], src.even_names)
                     for t in self.chart.odd_names]
        nil_zero = [all(c.is_zero() for _, c in step) for step in nil_steps]
        dx_steps = [differential(m.images[t], src.coordinate_names)
                    for t in self.chart.even_names]

        result = DeltaForm.zero(src)
        vacuum = ((0,) * p, (0,) * q)
        for (eps, ells), f in self.terms.items():
            pulled = m.pullback(f)
            if pulled.is_zero():
                continue
            bound = p + 1 if p else 1
            for orders in product(range(bound), repeat=q):
                if sum(orders) > p:
                    continue
                if any(j and nil_zero[a] for a, j in enumerate(orders)):
                    continue
                weight = Fraction(1, prod(factorial(j) for j in orders))
                block = DeltaForm(src, {vacuum: det_inv.scale(weight)})
                for a in range(q):
                    for _ in range(ells[a] + orders[a]):
                        block = _apply_step(block, raise_steps[a])
                for a in range(q):
                    for _ in range(orders[a]):
                        block = _apply_step(block, nil_steps[a])
                for k in range(p - 1, -1, -1):
                    if eps[k]:
                        block = _apply_step(block, dx_steps[k])
                result = result + block.times(pulled)
        plain = {key: release_even_exponents(poly) for key, poly in result.terms.items()}
        return DeltaForm(src, plain)

    # --- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        odd_fibers = [fiber_name(n) for n in self.chart.odd_names]
        even_fibers = [fiber_name(n) for n in self.chart.even_names]
        parts = []
        for (eps, ells), poly in sorted(self.terms.items()):
            letters = [even_fibers[i] for i, e in enumerate(eps) if e]
            letters += [f"del({name})" if l == 0 else f"del({name},{l})"
                        for name, l in zip(odd_fibers, ells)]
            word = " ".join(letters)
            parts.append(f"({poly}) {word}" if word else f"({poly})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<DeltaForm on {self.chart.label}: {self}>"


class CWOperator:
    """A word in the fiber letters and their formal derivatives.

    Letters are written as tokens: a fiber name such as ``dx1`` or
    ``dth2`` multiplies by that letter, and the prefixed form ``dd_dx1``
    or ``dd_dth2`` applies the corresponding derivative.  The word acts
    by :func:`cw_apply`, leftmost letter last.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str | Iterable[str]):
        if isinstance(letters, str):
            letters = letters.split()
        letters = tuple(letters)
        for token in letters:
            body = token[3:] if token.startswith("dd_") else token
            if not body.startswith("d") or len(body) < 2:
                raise ValueError(f"malformed fiber letter {token!r}")
        self.letters = letters

    def __mul__(self, other: "CWOperator") -> "CWOperator":
        if not isinstance(other, CWOperator):
            return NotImplemented
        return CWOperator(self.letters + other.letters)

    def z_shift(self) -> int:
        """Net Z-degree shift: +1 per multiplication letter, -1 per derivative."""
        return sum(-1 if token.startswith("dd_") else 1 for token in self.letters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CWOperator):
            return NotImplemented
        return self.letters == other.letters

    def __repr__(self) -> str:
        return f"CWOperator({' '.join(self.letters) or '1'!r})"


def _signed_by_parity(poly: SuperPoly, sign: int) -> SuperPoly:
    """poly with each monomial scaled by sign * (-1)^{monomial parity}."""
    even, odd = poly.homogeneous_parts()
    out = even - odd
    return out if sign > 0 else -out


def _resolve_letter(chart: Chart, token: str) -> tuple[bool, int, int]:
    """(is derivative, kind 0 for dx / 1 for dth, coordinate index)."""
    derivative = token.startswith("dd_")
    body = token[3:] if derivative else token
    for i, name in enumerate(chart.even_names):
        if body == fiber_name(name):
            return derivative, 0, i
    for a, name in enumerate(chart.odd_names):
        if body == fiber_name(name):
            return derivative, 1, a
    raise ValueError(f"{token!r} is not a fiber letter of the chart")


def cw_apply(op: CWOperator | str | Iterable[str], form: DeltaForm) -> DeltaForm:
    """Act on a delta form by a word of fiber letters.

    Multiplication by dx_i inserts the letter with the sign of the dx
    letters it passes (and of the base coefficient, dx being odd), and
    annihilates terms already containing it; the derivative removes it
    under the same sign and annihilates terms without it.  In the delta
    directions, dth_a lowers the derivative order by the distribution
    rule del^{(l)} -> -l * del^{(l-1)} and kills plain deltas, while the
    derivative letter raises the order with no sign at all.  These four
    actions satisfy the commutation relations
    [d/d(dth_a), dth_b] = delta_ab and {d/d(dx_i), dx_j} = delta_ij
    on every form.
    """
    if isinstance(op, CWOperator):
        letters = op.letters
    elif isinstance(op, str):
        letters = tuple(op.split())
    else:
        letters = tuple(op)
    chart = form.chart
    terms = dict(form.terms)
    for token in reversed(letters):
        derivative, kind, idx = _resolve_letter(chart, token)
        new: dict[TermKey, SuperPoly] = {}
        for (eps, ells), poly in terms.items():
            if kind == 0:
                if eps[idx] == (0 if derivative else 1):
                    continue
                prefix = sum(eps[:idx]) % 2
                moved = _signed_by_parity(poly, -1 if prefix else 1)
                flipped = list(eps)
                flipped[idx] ^= 1
                key = (tuple(flipped), ells)
            else:
                order = ells[idx]
                if derivative:
                    moved = poly
                    shifted = list(ells)
                    shifted[idx] += 1
                else:
                    if order == 0:
                        continue
                    moved = poly.scale(-order)
                    shifted = list(ells)
                    shifted[idx] -= 1
                key = (eps, tuple(shifted))
            new[key] = new[key] + moved if key in new else moved
        terms = new
    return DeltaForm(chart, terms)


def _apply_step(form: DeltaForm, step) -> DeltaForm:
    """Sum of ``cw_apply([letter], form.times(c))`` over (letter, c) pairs."""
    out = DeltaForm.zero(form.chart)
    for letter, c in step:
        if not c.is_zero():
            out = out + cw_apply([letter], form.times(c))
    return out


# --- products with functions and differential forms ---------------------------


def delta_times_poly(form: DeltaForm, f) -> DeltaForm:
    """Right multiplication by a coordinate function.

    f moves left through each term's odd letters, its dx letters and its
    q delta symbols, so its odd part picks up their parity.
    """
    f = _coerce_coefficient(form.chart, f)
    even, odd = f.homogeneous_parts()
    out = DeltaForm.zero(form.chart)
    q = form.chart.q
    for (eps, ells), c in form.terms.items():
        shifted = even + (odd.scale(-1) if (sum(eps) + q) % 2 else odd)
        out = out + DeltaForm(form.chart, {(eps, ells): c * shifted})
    return out


def form_times_delta(omega: SuperPoly, form: DeltaForm) -> DeltaForm:
    """Left multiplication of a delta form by a differential form.

    The form lives over the chart's differential extension.  Each of its
    monomials splits into a base coefficient and a fiber word; the word
    acts through :func:`cw_apply` and the coefficient multiplies from the
    left.  Base odd factors sitting to the right of the dx letters in the
    canonical word cross back out with the usual sign.
    """
    chart = form.chart
    ftab = form_table(chart.table)
    if omega.table != ftab:
        raise ValueError("form is not over the chart's differentials")
    out = DeltaForm.zero(chart)
    for mono, c in release_even_exponents(omega).terms.items():
        base_powers: dict[str, int] = {}
        dth_letters: list[str] = []
        dx_letters: list[str] = []
        for pos, k in ftab.powers(mono):
            name = ftab.names[pos]
            if ftab.classes[pos] == FIBER_EVEN:
                dth_letters.extend([name] * k)
            elif ftab.classes[pos] == FIBER_ODD:
                dx_letters.append(name)
            else:
                base_powers[name] = k
        sign = -1 if len(dx_letters) * ftab.degree(mono, ODD_BASE) % 2 else 1
        coeff = SuperPoly.from_monomial(chart.table, base_powers,
                                        Fraction(c) * sign)
        out = out + cw_apply(dth_letters + dx_letters, form).times(coeff)
    return out


# --- the bridge to integral forms ---------------------------------------------


def _derivative_word(chart: Chart, eps: Sequence[int],
                     ells: Sequence[int]) -> list[str]:
    word = [f"dd_{fiber_name(name)}" for i, name in enumerate(chart.even_names)
            if not eps[i]]
    for a, name in enumerate(chart.odd_names):
        word += [f"dd_{fiber_name(name)}"] * ells[a]
    return word


def to_integral_form(form: DeltaForm) -> IntegralForm:
    """Rewrite a delta form as a polyvector-weighted density.

    Each term is first expressed as a derivative word applied to the
    degree-p pivot; the word then transfers letter for letter, with the
    dx derivative in slot i becoming the odd polyvector letter of x_i
    and the delta-raising letter of slot a becoming the even polyvector
    letter of th_a.  Degrees match on the nose and
    :func:`from_integral_form` inverts exactly.
    """
    chart = form.chart
    table = polyvector_table(chart)
    out = SuperPoly.zero(table)
    for (eps, ells), f in form.terms.items():
        word = _derivative_word(chart, eps, ells)
        applied = cw_apply(word, DeltaForm.top(chart))
        sign_poly = applied.terms[(tuple(eps), tuple(ells))]
        sign = sign_poly.scalar_part()
        powers = {polyvector_name(name): 1
                  for i, name in enumerate(chart.even_names) if not eps[i]}
        powers.update({polyvector_name(name): ells[a]
                       for a, name in enumerate(chart.odd_names) if ells[a]})
        letters = SuperPoly.from_monomial(table, powers, Fraction(1) / sign)
        out = out + transport(f, table) * letters
    return IntegralForm(chart, out)


def from_integral_form(sigma: IntegralForm) -> DeltaForm:
    """Rewrite a polyvector-weighted density as a delta form.

    Inverse of :func:`to_integral_form`: the polyvector letters of each
    monomial are read back as a derivative word and applied to the
    pivot, and the base factor multiplies from the left.
    """
    chart = sigma.chart
    table = sigma.table
    coordinates = set(chart.coordinate_names)
    out = DeltaForm.zero(chart)
    for mono, c in sigma.poly.terms.items():
        base_powers: dict[str, int] = {}
        ells = {name: 0 for name in chart.odd_names}
        removed: set[str] = set()
        for pos, k in table.powers(mono):
            name = table.names[pos]
            if name in coordinates:
                base_powers[name] = k
            elif table.parities[pos]:
                removed.add(name[len(polyvector_name("")):])
            else:
                ells[name[len(polyvector_name("")):]] = k
        eps = tuple(0 if name in removed else 1 for name in chart.even_names)
        orders = tuple(ells[name] for name in chart.odd_names)
        word = _derivative_word(chart, eps, orders)
        applied = cw_apply(word, DeltaForm.top(chart))
        base = SuperPoly.from_monomial(chart.table, base_powers, c)
        out = out + applied.times(base)
    return out


# --- fiber integration ---------------------------------------------------------


def fiber_integral(form: DeltaForm) -> BerSection:
    """Integrate along the fiber directions.

    Only the pivot-shaped terms survive: all dx letters present (the
    fiber Berezin integral needs the top odd monomial) and every delta
    underived (a derived delta integrates to zero against 1).  Their
    base coefficients assemble the resulting density.
    """
    chart = form.chart
    key = ((1,) * chart.p, (0,) * chart.q)
    coeff = form.terms.get(key)
    if coeff is None:
        coeff = SuperPoly.zero(chart.table)
    return BerSection(chart, coeff)


def gaussian_fiber_integral(chart: Chart, form, gaussian: Iterable[str] = ()
                            ) -> tuple[PiValue, BerSection]:
    """Fiber integral of a polynomial pseudoform with Gaussian weights.

    Here the input is an honest polynomial in the fiber letters (the
    even dth letters appear with plain powers, not as delta symbols),
    given over the differential extension of the chart table, together
    with the set of dth directions that carry an implicit Gaussian
    factor.  The dx directions integrate as before by extracting the
    top letter block; each weighted dth direction contributes its
    Gaussian moment, a square root of pi times a rational number.

    Returns the overall PiValue weight (pi to half the number of
    weighted directions) and the density holding the rational content.
    Any dth direction left unweighted makes the fiber integral diverge,
    which is reported as an error.
    """
    ftab = form_table(chart.table)
    if not isinstance(form, SuperPoly):
        form = SuperPoly.constant(ftab, form)
    if form.table != ftab:
        raise ValueError("element is not over the chart or its differentials")
    even_fibers = {fiber_name(name) for name in chart.odd_names}
    gaussian = frozenset(gaussian)
    for name in sorted(gaussian):
        if name not in even_fibers:
            raise ValueError(f"{name!r} is not an even fiber direction of the chart")
    missing = even_fibers - gaussian
    if missing:
        raise ValueError(f"divergent fiber integral: {min(sorted(missing))!r} "
                         "carries no Gaussian weight")
    out = SuperPoly.zero(chart.table)
    for mono, c in form.terms.items():
        if ftab.degree(mono, FIBER_ODD) != chart.p:
            continue
        factor = Fraction(1)
        base_powers: dict[str, int] = {}
        for pos, k in ftab.powers(mono):
            if ftab.classes[pos] == FIBER_EVEN:
                factor *= _moment_ratio(k)
            elif ftab.classes[pos] != FIBER_ODD:
                base_powers[ftab.names[pos]] = k
        if factor:
            out = out + SuperPoly.from_monomial(chart.table, base_powers, c * factor)
    weight = PiValue.pi_power(Fraction(len(gaussian), 2))
    return weight, BerSection(chart, out)

