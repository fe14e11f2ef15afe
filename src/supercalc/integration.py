"""Exact Berezin integration for Gaussian-class densities.

Integrands are densities whose even coordinates each carry one of the
:class:`~supercalc.integral_forms.Markers`: a factor of the global
Gaussian weight exp(-sum z_i^2), or a point evaluation delta(z_i - a_i)
at a rational point.  That class is closed under coordinate derivatives
and every moment is a rational multiple of a power of sqrt(pi), so the
integral stays exact; values live in :class:`PiValue`.

The module also provides a Stokes checker, which integrates the
weighted integral-form differential of :mod:`supercalc.integral_forms`,
evaluation of the duality pairing between integral and differential
forms, and the supersymmetry generators with their algebra and
invariance checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Sequence

from .algebra import SuperPoly, release_even_exponents
from .charts import Chart
from .derham import fiber_degree, form_table
from .diffops import DiffOp
from .integral_forms import (
    IntegralForm,
    Markers,
    _density_coefficient,
    lie_derivative_ber,
    pair,
    spencer_delta,
)

__all__ = [
    "PiValue",
    "berezin_integral",
    "gaussian_moment",
    "stokes_check",
    "duality_pair_integral",
    "susy_generator",
    "susy_algebra_check",
    "susy_variation",
]


class PiValue:
    """A finite rational combination of half-integer powers of pi.

    Gaussian moments produce nothing else, so this tiny ring is the
    exact value domain for every integral in this module.  ``terms``
    maps the exponent (a Fraction with denominator 1 or 2) to a nonzero
    rational coefficient; the empty map is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean: dict[Fraction, Fraction] = {}
        for k, c in (terms or {}).items():
            k = Fraction(k)
            if k.denominator > 2:
                raise ValueError("pi exponents must be half-integers")
            c = Fraction(c)
            if c:
                clean[k] = c
        self.terms = clean

    @classmethod
    def rational(cls, c) -> "PiValue":
        return cls({Fraction(0): Fraction(c)})

    @classmethod
    def pi_power(cls, exponent, coeff=1) -> "PiValue":
        return cls({Fraction(exponent): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent) -> Fraction:
        return self.terms.get(Fraction(exponent), Fraction(0))

    def __add__(self, other) -> "PiValue":
        other = _as_pi_value(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return PiValue(out)

    def __radd__(self, other) -> "PiValue":
        return self.__add__(other)

    def __sub__(self, other) -> "PiValue":
        return self.__add__(-_as_pi_value(other))

    def __neg__(self) -> "PiValue":
        return PiValue({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "PiValue":
        other = _as_pi_value(other)
        out: dict[Fraction, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return PiValue(out)

    def __rmul__(self, other) -> "PiValue":
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiValue.rational(other)
        if not isinstance(other, PiValue):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if k == 0:
                bits.append(str(c))
                continue
            if k == Fraction(1, 2):
                base = "sqrt(pi)"
            elif k == 1:
                base = "pi"
            elif k.denominator == 1:
                base = f"pi^{k}"
            else:
                base = f"pi^({k})"
            if c == 1:
                bits.append(base)
            elif c == -1:
                bits.append(f"-{base}")
            else:
                bits.append(f"{c}*{base}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"PiValue({self})"


def _as_pi_value(value) -> PiValue:
    if isinstance(value, PiValue):
        return value
    if isinstance(value, (int, Fraction)):
        return PiValue.rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to PiValue")


def _moment_ratio(e: int) -> Fraction:
    """``int z^e exp(-z^2) dz / sqrt(pi)``: (e-1)!! / 2^(e/2), 0 for odd e."""
    if e % 2:
        return Fraction(0)
    return Fraction(prod(range(1, e, 2)), 2 ** (e // 2))


def gaussian_moment(n: int) -> PiValue:
    """``int z^(2n) exp(-z^2) dz`` over the line: (2n-1)!! sqrt(pi) / 2^n."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return PiValue.pi_power(Fraction(1, 2), _moment_ratio(2 * n))


def berezin_integral(density: IntegralForm, *, gaussian: Iterable[str] = (),
                     dirac: Mapping[str, object] | None = None,
                     formal: Iterable[str] = ()) -> PiValue:
    """Exact Berezin integral of a Gaussian-class density.

    Takes a density (an :class:`IntegralForm` of degree p, with no
    polyvector letter) and the :class:`Markers` of its even coordinates
    as keywords: every even coordinate must carry exactly one marker,
    otherwise its integral would be an honest divergent improper
    integral and the exact story ends.  The odd directions contribute
    the coefficient of the full odd monomial theta_1 .. theta_q, in
    table order; Dirac-pinned coordinates are evaluated at their
    points; every Gaussian coordinate is then integrated out with

        int z^(2n) exp(-z^2) dz = (2n-1)!! sqrt(pi) / 2^n

    and odd powers dropping out by symmetry.  A formal coordinate has
    no integral, so its presence is an error here.
    """
    if not isinstance(density, IntegralForm):
        raise TypeError("expected a density")
    chart = density.chart
    ftop = _density_coefficient(density)
    markers = Markers.of(gaussian, dirac, formal).check(chart)
    uncovered = set(chart.even_names).difference(
        markers.gaussian, dict(markers.dirac), markers.formal)
    if uncovered:
        raise ValueError(f"even coordinate {min(uncovered)!r} carries no "
                         "Gaussian weight, point evaluation, or formal marker")
    if markers.formal:
        raise ValueError(f"divergent/formal variable: {min(markers.formal)}")
    table = chart.table
    for name in chart.odd_names:
        ftop = ftop.left_derivative(name)
    ftop = release_even_exponents(ftop)
    if markers.dirac:
        points = {name: SuperPoly.constant(table, a) for name, a in markers.dirac}
        ftop = release_even_exponents(ftop.substitute(points))
    power = Fraction(len(markers.gaussian), 2)
    total = PiValue()
    for mono, c in ftop.terms.items():
        coeff = Fraction(c)
        for pos, e in table.powers(mono):
            name = table.names[pos]
            assert name in markers.gaussian
            coeff *= _moment_ratio(e)
            if not coeff:
                break
        if coeff:
            total = total + PiValue.pi_power(power, coeff)
    return total


def stokes_check(u: IntegralForm,
                 gaussian: Iterable[str] | None = None) -> tuple[PiValue, bool]:
    """Integrate the differential of a degree p-1 Gaussian-class form.

    Returns the value and whether it vanished; total derivatives of
    rapidly decaying data always integrate to zero, so a False flag
    means the input was not in the advertised class.  The weight
    defaults to every even coordinate and must cover all of them, since
    the differential has to act on whatever multiplies each coordinate.
    """
    chart = u.chart
    if not u.is_zero() and u.degree() != chart.p - 1:
        raise ValueError("expected a form of degree one below the top")
    gaussian = frozenset(chart.even_names if gaussian is None else gaussian)
    boundary = spencer_delta(u, gaussian)
    value = berezin_integral(boundary, gaussian=gaussian)
    return value, value.is_zero()


def duality_pair_integral(sigma: IntegralForm, eta: SuperPoly, *,
                          gaussian: Iterable[str] = (),
                          dirac: Mapping[str, object] | None = None) -> PiValue:
    """Contract an integral form against a differential form, then integrate.

    The two degrees must be complementary, deg sigma + deg eta = p, so
    that the contraction consumes every polyvector letter and lands in
    the top degree.  Marker keywords describe the even coordinates of
    the combined coefficient, exactly as in :func:`berezin_integral`.
    """
    chart = sigma.chart
    if eta.table == chart.table:
        eta_degrees = {0} if not eta.is_zero() else set()
    else:
        ftab = form_table(chart.table)
        if eta.table != ftab:
            raise ValueError("form is not over the chart or its differentials")
        eta_degrees = {fiber_degree(ftab, mono) for mono in eta.terms}
    if sigma.is_zero() or not eta_degrees:
        return PiValue()
    sd = sigma.degree()
    if sd is None or len(eta_degrees) > 1 or sd + next(iter(eta_degrees)) != chart.p:
        raise ValueError("degrees are not complementary; the pairing needs "
                         "deg sigma + deg eta = p")
    return berezin_integral(pair(sigma, eta), gaussian=gaussian, dirac=dirac)


def _checked_gamma(chart: Chart, gamma) -> tuple:
    p, q = chart.p, chart.q
    mats = tuple(tuple(tuple(Fraction(x) for x in row) for row in mat)
                 for mat in gamma)
    if len(mats) != p:
        raise ValueError(f"need {p} coefficient matrices, one per even coordinate")
    for mat in mats:
        if len(mat) != q or any(len(row) != q for row in mat):
            raise ValueError(f"each coefficient matrix must be {q} by {q}")
        for a in range(q):
            for b in range(a + 1, q):
                if mat[a][b] != mat[b][a]:
                    raise ValueError("the coefficient tensor must be symmetric "
                                     "in its two odd indices")
    return mats


def susy_generator(chart: Chart, gamma: Sequence, a: int) -> DiffOp:
    """The a-th supersymmetry generator Q_a, a vector field and so a
    first-order differential operator (:meth:`DiffOp.vector_field`).

    Components: 1 on theta_a and (1/2) sum_b gamma^mu_ab theta_b on
    each x_mu.  The tensor gamma is indexed [mu][a][b] and must be
    symmetric in (a, b).
    """
    gamma = _checked_gamma(chart, gamma)
    if not 0 <= a < chart.q:
        raise ValueError(f"generator index {a} out of range for q={chart.q}")
    table = chart.table
    components: dict[str, object] = {chart.odd_names[a]: 1}
    for mu, x in enumerate(chart.even_names):
        comp = SuperPoly.zero(table)
        for b, th in enumerate(chart.odd_names):
            g = gamma[mu][a][b]
            if g:
                comp = comp + SuperPoly.generator(table, th).scale(Fraction(g, 2))
        components[x] = comp
    return DiffOp.vector_field(table, components)


def susy_algebra_check(chart: Chart, gamma: Sequence) -> bool:
    """Do the generators close on translations with structure gamma?

    Checks [Q_a, Q_b] = sum_mu gamma^mu_ab d/dx_mu for every pair of
    indices; the bracket of two odd operators is the anticommutator.
    """
    gamma = _checked_gamma(chart, gamma)
    table = chart.table
    ops = [susy_generator(chart, gamma, a) for a in range(chart.q)]
    for a in range(chart.q):
        for b in range(a, chart.q):
            expected = DiffOp.zero(table)
            for mu, x in enumerate(chart.even_names):
                g = gamma[mu][a][b]
                if g:
                    expected = expected + DiffOp.partial(table, x).scale(g)
            if ops[a].bracket(ops[b]) != expected:
                return False
    return True


def susy_variation(lagrangian: IntegralForm, gamma: Sequence, a: int,
                   gaussian: Iterable[str] | None = None) -> PiValue:
    """Variation of the action along the a-th supersymmetry generator.

    Computes the integral of the Lie derivative of the Lagrangian
    density (a degree-p :class:`IntegralForm`, refused when it carries a
    polyvector letter) along Q_a, with the Gaussian weight (default: all
    even coordinates) standing in for compact support.  A well-posed
    setup always returns zero: the Lie derivative of a density is a
    total derivative, and those integrate away.
    """
    chart = lagrangian.chart
    gaussian = frozenset(chart.even_names if gaussian is None else gaussian)
    varied = lie_derivative_ber(lagrangian, susy_generator(chart, gamma, a), gaussian)
    return berezin_integral(varied, gaussian=gaussian)
