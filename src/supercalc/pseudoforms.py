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

These forms are the integral forms in another notation, and a
:class:`DeltaForm` stores exactly the polynomial its
:class:`IntegralForm` holds, over ``polyvector_table(chart)``.  Both
derive from :class:`~supercalc.integral_forms.PolyvectorForm`, so they
share their module arithmetic, degrees, parity and coordinate change, and
:func:`to_integral_form` and :func:`from_integral_form` only rewrap.  A dx
letter that is absent becomes the odd polyvector letter pdx_i and a
derived delta the even letter pdth_a to the power of its order:

    f dx^eps del^{(ells)}  is stored as  s(eps) f prod_{e_i = 0} pdx_i prod_a pdth_a^{l_a},

with s(eps) = (-1)^{sum of the indices i, counted from 0, with e_i = 0}.
The pivot dx_1..dx_p del(dth_1)..del(dth_q) is the polynomial 1, and it
integrates along the fiber to the Berezin density of the base chart.

A :class:`DeltaForm` prints each term in exactly that written order,
``(f) dx1 dx3 del(dth1) del(dth2,1)``: the coefficient in parentheses,
the present dx letters ascending, then one delta factor per odd slot in
slot order, its order written only when it is not zero.  The expression
evaluator reads a term in that order or any other through
:meth:`DeltaForm.from_factors`, which stores s(eps) f times the letters
with the sign of the reordering, and folds a sum of terms into one
stored polynomial.

The delta symbols are formal; the calculus is fixed by four letter rules
on the stored polynomial, applied by :func:`cw_apply`, which compiles
each word once per table and applies it in one pass over the stored keys:

    d/d(dx_i)    left multiplication by pdx_i,
    dx_i         the left derivative along pdx_i,
    d/d(dth_a)   multiplication by pdth_a,
    dth_a        minus the left derivative along pdth_a,

so dth acts on its slot by del^{(l)} -> -l * del^{(l-1)}, d/d(dth)
raises l by one, and a dx letter costs the sign of the odd letters it
passes.  They satisfy [d/d(dth_a), dth_b] = delta_ab and
{d/d(dx_i), dx_j} = delta_ij on every form.  A term sits in Z-degree
(number of dx letters) minus (total delta derivatives), which is p minus
the polyvector degree of its stored monomials, the degree that
:meth:`~supercalc.integral_forms.PolyvectorForm.degrees` reads.

A differential form multiplies from the left through :func:`form_times_delta`,
the action that :func:`supercalc.integral_forms.pair` shares: pair(u, omega)
= (-1)^{deg omega + |u||omega|} omega . u.  Its coefficients must be
polynomial, so a quotient inside a delta term is refused, where pair takes one.

A coordinate change is the one
:meth:`~supercalc.integral_forms.PolyvectorForm.transform` of both pictures,
the integral-form law on the stored polynomial: the coordinates pull back, pd_t
goes to sum_s pd_s (J^-1)_st and the whole picks up Ber J.  Read back in
the letters above, that is the term-by-term rule: each dx letter becomes
the differential of its coordinate image, and with dth'_a = sum_b G_ab
dth_b plus nilpotent dx terms the delta block picks up det(G)^-1 after a
finite Taylor expansion in those terms, its derived deltas becoming
G^-1-weighted raising letters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from supercalc.algebra import (
    FIBER_EVEN,
    FIBER_ODD,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    GeneratorTable,
    SuperPoly,
    release_even_exponents,
    transport,
)
from supercalc.charts import Chart
from supercalc.derham import fiber_name, form_table
from supercalc.integral_forms import (
    IntegralForm,
    PolyvectorForm,
    _form_action,
    _polyvector_table,
    _word,
    polyvector_table,
)
from supercalc.integration import PiValue, _moment_ratio

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


@cache
def _letter_positions(table: GeneratorTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions of pdx_1..pdx_p and of pdth_1..pdth_q in a polyvector
    table, which lists them in coordinate order."""
    return (table.positions_of_class(POLYVECTOR_ODD),
            table.positions_of_class(POLYVECTOR_EVEN))


@cache
def _fiber_slots(table: GeneratorTable) -> tuple[dict[str, int], dict[str, int],
                                                 GeneratorTable]:
    """For a chart table: each dx letter's index among the even
    coordinates, each odd fiber letter's delta slot, and the polyvector
    table."""
    return ({fiber_name(table.names[pos]): i
             for i, pos in enumerate(table.even_positions)},
            {fiber_name(table.names[pos]): a
             for a, pos in enumerate(table.odd_positions)},
            _polyvector_table(table))


def _sign(eps: Sequence[int]) -> int:
    """s(eps): the sign of the stored letters of the dx word ``eps``."""
    return -1 if sum(i for i, e in enumerate(eps) if not e) % 2 else 1


def _term_key(table: GeneratorTable, eps: Sequence[int],
              ells: Sequence[int]) -> tuple[int, int]:
    """(s(eps), key) for the term dx^eps del^(ells) over a polyvector
    table: the key of prod_{e_i = 0} pdx_i prod_a pdth_a^{l_a}.  An order
    too large for its field raises ``OverflowError``."""
    dx, dth = _letter_positions(table)
    powers = list(zip(dth, ells))
    shift = 0
    for i, e in enumerate(eps):
        if not e:
            powers.append((dx[i], 1))
            shift += i
    _, key = table.monomial(powers)
    return -1 if shift % 2 else 1, key


class DeltaForm(PolyvectorForm):
    """A finite sum of delta-type terms over one chart.

    The form is stored as one polynomial ``poly`` over
    ``polyvector_table(chart)``, as the module docstring describes;
    :attr:`terms` reads it back as a mapping from (eps, ells) to the base
    coefficient, with eps in {0,1}^p and ells a tuple of q nonnegative
    delta derivative orders.  The written order of a canonical term is
    coefficient first, then the dx letters ascending, then the delta
    factors in slot order; :meth:`from_factors` accepts other orders and
    charges the reordering sign, since dx letters and delta symbols are
    all odd.
    """

    __slots__ = ()
    _mismatch = "delta forms live on different charts"

    def __init__(self, chart: Chart, terms: Mapping[TermKey, object] | None = None):
        table = polyvector_table(chart)
        acc: dict = {}
        for (eps, ells), coeff in (terms or {}).items():
            eps = tuple(eps)
            ells = tuple(ells)
            if len(eps) != chart.p or any(e not in (0, 1) for e in eps):
                raise ValueError(f"need a 0/1 marker per even coordinate, got {eps}")
            if len(ells) != chart.q or any(l < 0 or l != int(l) for l in ells):
                raise ValueError(
                    f"need a nonnegative delta order per odd coordinate, got {ells}")
            sign, letters = _term_key(table, eps, [int(l) for l in ells])
            transport(_coerce_coefficient(chart, coeff), table).add_times_monomial(
                acc, letters, sign)
        self.chart = chart
        self.poly = SuperPoly(table, acc)

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "DeltaForm":
        return cls._of(chart, SuperPoly.zero(polyvector_table(chart)))

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
        counts transpositions of the odd letters.  A repeated or missing
        delta slot is an error because sub-maximal pictures have no
        delta-form calculus; once the slots check out, a repeated dx
        letter squares to zero.
        """
        even_fibers, odd_fibers, table = _fiber_slots(chart.table)
        p = len(even_fibers)
        eps = [0] * p
        ells: list = [None] * len(odd_fibers)
        # the letters so far as bits, dx_i at i and the delta slot a at
        # p + a, and the parity of the transpositions that sort them
        seen = inversions = squares = 0
        for factor in factors:
            if isinstance(factor, str):
                bit = even_fibers.get(factor)
                if bit is None:
                    raise ValueError(f"unknown dx letter {factor!r}")
                squares |= eps[bit]
                eps[bit] = 1
            else:
                name, order = factor
                a = odd_fibers.get(name)
                if a is None:
                    raise ValueError(f"unknown delta direction {name!r}")
                if ells[a] is not None:
                    raise ValueError(
                        f"delta slot {name!r} appears twice; a product of two "
                        "deltas in one fiber direction is not defined")
                if order < 0:
                    raise ValueError("delta derivative orders are nonnegative")
                ells[a] = int(order)
                bit = p + a
            inversions ^= (seen >> bit).bit_count() & 1
            seen |= 1 << bit
        if None in ells:
            missing = [name for name, a in odd_fibers.items() if ells[a] is None]
            raise ValueError(
                f"every odd fiber direction needs exactly one delta factor "
                f"(missing {', '.join(missing)}); sub-maximal pictures have "
                "no delta-form calculus")
        sign, key = _term_key(table, eps, ells)
        if squares:
            return cls.zero(chart)
        acc: dict = {}
        transport(_coerce_coefficient(chart, coefficient), table).add_times_monomial(
            acc, key, -sign if inversions else sign)
        return cls._of(chart, SuperPoly._of(table, acc))

    # --- the term view --------------------------------------------------------

    @property
    def terms(self) -> Mapping[TermKey, SuperPoly]:
        """The form term by term: a read-only map from (eps, ells) to the
        base coefficient over the chart, with no zero entries."""
        chart = self.chart.table
        return MappingProxyType({key: transport(f, chart) for key, f in self._groups()})

    def _groups(self) -> Iterable[tuple[TermKey, SuperPoly]]:
        """Each term's (eps, ells) and its base coefficient, still over
        the polyvector table, which prints as it would over the chart."""
        table = self.poly.table
        dx, dth = _letter_positions(table)
        for letters, f in self.poly.collect(dx + dth).items():
            powers = dict(table.powers(letters))
            eps = tuple(0 if pos in powers else 1 for pos in dx)
            yield (eps, tuple(powers.get(pos, 0) for pos in dth)), \
                f if _sign(eps) > 0 else -f

    # --- ring-module structure ---------------------------------------------

    def times(self, f) -> "DeltaForm":
        """Multiply by a coordinate function from the left."""
        f = transport(_coerce_coefficient(self.chart, f), self.poly.table)
        return self._with(f * self.poly)

    # --- presentation ---------------------------------------------------------

    def __str__(self) -> str:
        if self.poly.is_zero():
            return "0"
        odd_fibers = [fiber_name(n) for n in self.chart.odd_names]
        even_fibers = [fiber_name(n) for n in self.chart.even_names]
        parts = []
        for (eps, ells), poly in sorted(self._groups(), key=lambda kv: kv[0]):
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CWOperator):
            return NotImplemented
        return self.letters == other.letters

    def __repr__(self) -> str:
        return f"CWOperator({' '.join(self.letters) or '1'!r})"


def cw_apply(op: CWOperator | str | Iterable[str], form: DeltaForm) -> DeltaForm:
    """Act on a delta form by a word of fiber letters.

    Each letter is one operation on the stored polynomial, by the four
    rules of the module docstring: a dx derivative multiplies by its
    odd polyvector letter from the left and dx takes the left derivative
    along it; a delta-raising letter multiplies by its even polyvector
    letter and dth takes minus the left derivative along it.  The word is
    compiled once per table and applied in one pass over the stored keys
    (:meth:`SuperPoly.apply_word`).
    """
    if isinstance(op, CWOperator):
        letters = op.letters
    elif isinstance(op, str):
        letters = tuple(op.split())
    else:
        letters = tuple(op)
    poly = form.poly
    return form._with(poly.apply_word(_word(poly.table, letters)))


# --- products with functions and differential forms ---------------------------


def delta_times_poly(form: DeltaForm, f) -> DeltaForm:
    """Right multiplication by a coordinate function.

    f moves left through each term's odd letters, its dx letters and its
    q delta symbols, so its odd part picks up their parity.  On the
    stored polynomial that is right multiplication by f with its odd part
    negated when p + q is odd.
    """
    f = _coerce_coefficient(form.chart, f)
    if (form.chart.p + form.chart.q) % 2:
        even, odd = f.homogeneous_parts()
        f = even - odd
    return form._with(form.poly * transport(f, form.poly.table))


def form_times_delta(omega: SuperPoly, form: DeltaForm) -> DeltaForm:
    """Left multiplication of a delta form by a differential form over the
    chart's differential extension, with polynomial coefficients: each
    fiber word acts through :func:`cw_apply`'s compiled word and the base
    coefficient in front of it multiplies from the left, the action
    :func:`~supercalc.integral_forms.pair` shares."""
    if omega.table != form_table(form.chart.table):
        raise ValueError("form is not over the chart's differentials")
    return form._with(_form_action(release_even_exponents(omega), form.poly))


# --- the bridge to integral forms ---------------------------------------------


def to_integral_form(form: DeltaForm) -> IntegralForm:
    """The same form as a polyvector-weighted density.

    Both hold one polynomial over ``polyvector_table(chart)``, so this
    only rewraps it; degrees match on the nose and
    :func:`from_integral_form` inverts exactly.
    """
    return IntegralForm._of(form.chart, form.poly)


def from_integral_form(sigma: IntegralForm) -> DeltaForm:
    """The same density as a delta form: the inverse of
    :func:`to_integral_form`, again a rewrap."""
    return DeltaForm._of(sigma.chart, sigma.poly)


# --- fiber integration ---------------------------------------------------------


def fiber_integral(form: DeltaForm) -> IntegralForm:
    """Integrate along the fiber directions.

    Only the pivot-shaped terms survive: all dx letters present (the
    fiber Berezin integral needs the top odd monomial) and every delta
    underived (a derived delta integrates to zero against 1).  Their
    base coefficients assemble the resulting density, an integral form
    of degree p.
    """
    chart = form.chart
    key = ((1,) * chart.p, (0,) * chart.q)
    return IntegralForm(chart, form.terms.get(key, SuperPoly.zero(chart.table)))


def gaussian_fiber_integral(chart: Chart, form, gaussian: Iterable[str] = ()
                            ) -> tuple[PiValue, IntegralForm]:
    """Fiber integral of a polynomial pseudoform with Gaussian weights.

    Here the input is an honest polynomial in the fiber letters (the
    even dth letters appear with plain powers, not as delta symbols),
    given over the differential extension of the chart table, together
    with the set of dth directions that carry an implicit Gaussian
    factor.  The dx directions integrate as before by extracting the
    top letter block; each weighted dth direction contributes its
    Gaussian moment, a square root of pi times a rational number.

    Returns the overall PiValue weight (pi to half the number of
    weighted directions) and the density holding the rational content,
    an integral form of degree p.
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
    return weight, IntegralForm(chart, out)
