"""Berezinian densities and the complex of integral forms over a chart.

With odd coordinates present the de Rham complex has no top: powers of the
even coordinate differentials never terminate, and nothing in sight is a
candidate measure.  The objects a Berezin integral consumes are organised
the other way around.  Start from the density symbol ``Ber`` of the chart
(written ``D`` in formulas below) and tensor it with polyvectors, i.e. with
polynomials in the parity-reversed coordinate derivations.  We name those
generators ``pd<coordinate>``; reversal makes ``pdz`` odd and ``pdth``
even, so they span a second supercommutative family on top of the
coordinate ring and everything stays inside one :class:`SuperPoly`.

A density ``Ber @ f``, with f a function of the coordinates alone, is
the integral form of degree p (the number of even coordinates), and every
polyvector letter lowers the degree by one.  Densities have no type of
their own: the functions that take or return one take or return a
degree-p :class:`IntegralForm`, and refuse a form that carries a
polyvector letter.  An integral form and a
:class:`~supercalc.pseudoforms.DeltaForm` store the same polynomial over
the polyvector table, so both derive from :class:`PolyvectorForm`, which
gives them their degrees, parity and coordinate change; their sums,
negation, scaling and equality come from
:class:`~supercalc.algebra.PolyElement`.  The complex carries

* a degree-lowering differential :func:`spencer_delta`,
* an explicit contracting homotopy :func:`homotopy_int` whose defect
  :func:`cohomology_projection` picks out the single generator
  ``Ber @ th_1..th_q pdz_1..pdz_p``,
* a right action of differential operators :func:`right_action` making the
  densities a right module over the Weyl superalgebra of the chart,
* Lie derivatives :func:`lie_derivative_ber` along vector fields, which are
  first-order :class:`~supercalc.diffops.DiffOp` operators sum_z X^z d_z,
* coordinate changes :meth:`PolyvectorForm.transform`, on every degree, and
* a contraction pairing :func:`pair` against differential forms, filling
  the role a wedge product cannot play here: two integral forms never
  multiply, an integral form and a form do.

A form acts on the polyvector polynomial in one place, :func:`_form_action`,
shared with :func:`supercalc.pseudoforms.form_times_delta`.  The pairing is
that action with a Koszul sign, pair(u, omega) = (-1)^{deg omega +
|u||omega|} omega . u, and takes quotient coefficients on both sides, while
a form inside a delta term still refuses them.

The weights of an integral are one value, :class:`Markers`: each even
coordinate carries the Gaussian weight exp(-z^2), a point evaluation, or
a formal marker.  It checks its names against a chart and prints as the
tags that :mod:`supercalc.expr` reads back.  :func:`spencer_delta` and
:func:`lie_derivative_ber` take an optional set of Gaussian coordinates,
checked as markers.  The weight stays factored out of the coefficient,
and the derivative along each of those coordinates picks up its
contribution -2z.

All coefficients are exact rationals and every object is immutable once
built, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, NamedTuple

from supercalc.algebra import (
    DERIVE,
    EVEN_BASE,
    FIBER_EVEN,
    FIBER_ODD,
    GeneratorTable,
    MULTIPLY,
    Monomial,
    ODD_BASE,
    POLYVECTOR_EVEN,
    POLYVECTOR_ODD,
    RIGHT_DERIVE,
    PolyElement,
    SuperPoly,
    release_even_exponents,
    transport,
)
from supercalc.charts import Chart, CoordinateMap
from supercalc.derham import (DERIV_PREFIX, _weighted_pair_sum, fiber_degree, fiber_name,
                              form_table)
from supercalc.diffops import DiffOp
from supercalc.supermatrix import berezinian

POLYVECTOR_PREFIX = "pd"


def polyvector_name(name: str) -> str:
    return POLYVECTOR_PREFIX + name


def polyvector_table(chart: Chart) -> GeneratorTable:
    """The chart table extended by its parity-reversed derivations.

    The new symbols are appended after the coordinates, so a canonical
    monomial always reads (coefficient part) * (polyvector part) with no
    reordering sign between the two blocks.  Equal charts share one table.
    """
    return _polyvector_table(chart.table)


@cache
def _polyvector_table(base: GeneratorTable) -> GeneratorTable:
    extra = [(polyvector_name(n), POLYVECTOR_ODD) for n in base.names_of_class(EVEN_BASE)]
    extra += [(polyvector_name(n), POLYVECTOR_EVEN) for n in base.names_of_class(ODD_BASE)]
    return base.extend(extra)


def polyvector_degree(table: GeneratorTable, mono: Monomial) -> int:
    """Number of polyvector letters in a monomial, with multiplicity."""
    return table.degree(mono, POLYVECTOR_EVEN, POLYVECTOR_ODD)


# --- densities ------------------------------------------------------------------


class Markers(NamedTuple):
    """How an integral treats each even coordinate: the weights of a density.

    A coordinate in ``gaussian`` sits under the weight exp(-z^2), one in
    ``dirac`` is pinned by a point evaluation delta(z - a) at a rational
    point, and one in ``formal`` carries no integration data at all.
    ``dirac`` holds (name, Fraction) pairs sorted by name.  The value
    prints as the tags the expression language reads back, for example
    ``gauss(z1) dirac(z2,1/2)``, and is false when it holds no tag.
    """

    gaussian: frozenset
    dirac: tuple
    formal: frozenset

    @classmethod
    def none(cls) -> "Markers":
        return cls(frozenset(), (), frozenset())

    @classmethod
    def of(cls, gaussian: Iterable[str] = (), dirac=None,
           formal: Iterable[str] = ()) -> "Markers":
        """The markers of the library's keywords; ``dirac`` maps names to
        points, or lists (name, point) pairs of which the last one for a
        name wins."""
        pins = sorted((name, Fraction(a)) for name, a in dict(dirac).items()) if dirac else ()
        return cls(frozenset(gaussian), tuple(pins), frozenset(formal))

    def merged(self, other: "Markers") -> "Markers":
        """Both sets of tags.  Two pins on one name, from either side, are
        refused: two point evaluations of one coordinate have no value.  So
        is a Gaussian weight on one name from both sides, which would make
        the weight exp(-2z^2) that no tag spells."""
        pins = self.dirac + other.dirac
        if self.gaussian & other.gaussian or len({name for name, _ in pins}) < len(pins):
            raise ValueError("each even coordinate takes at most one marker")
        return Markers.of(self.gaussian | other.gaussian, pins,
                          self.formal | other.formal)

    def kwargs(self) -> dict:
        """The keyword arguments of :func:`berezin_integral`."""
        return {"gaussian": sorted(self.gaussian), "dirac": dict(self.dirac),
                "formal": sorted(self.formal)}

    def check(self, chart: Chart) -> "Markers":
        """``self``, once every name is an even coordinate of ``chart`` and
        no name carries two markers."""
        pinned = [name for name, _ in self.dirac]
        names = self.gaussian.union(pinned, self.formal)
        unknown = names.difference(chart.even_names)
        if unknown:
            raise ValueError(f"{min(unknown)!r} is not an even coordinate of the chart")
        if len(names) < len(self.gaussian) + len(pinned) + len(self.formal):
            raise ValueError("each even coordinate takes at most one marker")
        return self

    def __bool__(self):
        return bool(self.gaussian or self.dirac or self.formal)

    def __str__(self):
        tags = []
        if self.gaussian:
            tags.append("gauss(" + ",".join(sorted(self.gaussian)) + ")")
        tags += (f"dirac({name},{point})" for name, point in self.dirac)
        if self.formal:
            tags.append("formal(" + ",".join(sorted(self.formal)) + ")")
        return " ".join(tags)


def lie_derivative_ber(density: IntegralForm, field: DiffOp,
                       gaussian: Iterable[str] = ()) -> IntegralForm:
    """Dressed Lie derivative of a density along a vector field.

    The field is a first-order :class:`~supercalc.diffops.DiffOp` sum_z
    X^z d_z (:meth:`DiffOp.vector_field` builds one), and the Lie
    derivative is minus its right action: the coefficient f goes to the
    divergence sum_z (-1)^{|z| (|f| + |X^z|)} d/dz (f X^z), with the
    derivative taken from the left.  An operator with a term of order 0 or
    of order 2 or more is refused, and so is one of mixed parity, whose
    signs are not defined.  On the even coordinates listed in
    ``gaussian`` the density carries the weight exp(-z^2), which stays
    factored out: their derivative picks up the weight's contribution
    -2z, so each such z adds -2 z f X^z.
    """
    f = _density_coefficient(density)
    chart = density.chart
    if field.table != chart.table:
        raise ValueError("field and density live on different charts")
    weyl = field.poly.table
    letters = weyl.positions_of_class(POLYVECTOR_EVEN, POLYVECTOR_ODD)
    components = {}
    for word, comp in field.poly.collect(letters).items():
        order = weyl.degree(word, POLYVECTOR_EVEN, POLYVECTOR_ODD)
        if order != 1:
            raise ValueError(f"not a vector field: the operator has a term of order {order}")
        (pos, _), = weyl.powers(word)
        components[weyl.names[pos][len(DERIV_PREFIX):]] = comp
    if field and field.parity() is None:
        raise ValueError("vector field must have homogeneous parity")
    gaussian = Markers.of(gaussian).check(chart).gaussian
    out = -right_action(density, field)
    for name in sorted(gaussian & components.keys()):
        z = SuperPoly.generator(f.table, name)
        x = transport(components[name], f.table)
        out = out - IntegralForm(chart, (z * f * x).scale(2))
    return out


def right_action(density: IntegralForm, op: DiffOp) -> IntegralForm:
    """Right action of a differential operator on a density.

    One derivative moves through the symbol as (Ber @ g) . d/dz = Ber @
    -(-1)^{|z||g|} (left d/dz g), which is T_z = -(left d/dz) o (left
    d/d dd_z) on the operator's polynomial.  The T_z commute, so (Ber @ f)
    . A is Ber @ (dd-free part of) exp(sum_z T_z)(f A).  On a term h * D of
    f A that part is h differentiated from the right along D's letters,
    leftmost first, negated once per even letter: the step above is
    (g)(right d/dz) for odd z and its negative for even z.  Each D is one
    compiled word (:func:`_right_word`), quotient rule included, and the
    work stays in the operator's table.

    Satisfies ``right_action(s, P.compose(Q)) ==
    right_action(right_action(s, P), Q)`` and annihilates the generator
    on every bare coordinate derivative.
    """
    if op.table != density.chart.table:
        raise ValueError("operator and density live on different charts")
    weyl = op.poly.table
    product = _density_coefficient(density, weyl) * op.poly
    out = SuperPoly.zero(weyl)
    for word, h in product.collect(weyl.positions_of_class(POLYVECTOR_EVEN,
                                                          POLYVECTOR_ODD)).items():
        if word:
            h = h.apply_word(_right_word(weyl, word))
        out = out + h if out else h
    return density._with(transport(out, density.table))


@lru_cache(maxsize=4096)
def _right_word(weyl: GeneratorTable, word: Monomial) -> tuple:
    """A word of derivative letters as the compiled word of right
    derivatives along their coordinates, leftmost first, negated once per
    even letter."""
    pairs = weyl.powers(word)
    letters = [(weyl.index(weyl.names[pos][len(DERIV_PREFIX):]), RIGHT_DERIVE)
               for pos, k in reversed(pairs) for _ in range(k)]
    return weyl.compile_word(letters, (-1) ** sum(k for pos, k in pairs
                                                  if not weyl.parities[pos]))


# --- integral forms -------------------------------------------------------------


class PolyvectorForm(PolyElement):
    """One polynomial ``poly`` over ``polyvector_table(chart)``: the
    stored data of an :class:`IntegralForm` and of a
    :class:`~supercalc.pseudoforms.DeltaForm`, the two pictures of one
    form, which share their gradings and their coordinate change here."""

    __slots__ = ("chart", "poly")

    @classmethod
    def _of(cls, chart: Chart, poly: SuperPoly):
        """Wrap a polynomial over ``polyvector_table(chart)`` as it is."""
        out = cls.__new__(cls)
        out.chart = chart
        out.poly = poly
        return out

    def _with(self, poly: SuperPoly):
        return self._of(self.chart, poly)

    @property
    def table(self) -> GeneratorTable:
        return self.poly.table

    def degrees(self) -> frozenset[int]:
        """p minus the polyvector degree, over the stored monomials."""
        p = self.chart.p
        return frozenset(p - polyvector_degree(self.table, mono)
                         for mono in self.poly.terms)

    def degree(self) -> int | None:
        degs = self.degrees()
        return next(iter(degs)) if len(degs) == 1 else None

    def parity(self) -> int | None:
        """Z2 parity p + q + |poly|, None when mixed or zero."""
        pp = self.poly.parity()
        return None if pp is None else (self.chart.p + self.chart.q + pp) % 2

    def transform(self, m: CoordinateMap):
        """Express the form in the source coordinates of ``m``.

        The coordinates pull back along the map, each polyvector letter
        moves as pd_t -> sum_s pd_s (J^-1)_st, J the Jacobian (rows the
        target coordinates, columns the source ones), and the whole picks
        up Ber J.  J^-1 is formed only when a polyvector letter occurs, so
        a density costs the pullback and the Berezinian alone.  A Jacobian
        that does not invert is refused, and so is a result that fails to
        be polynomial (the map divides by a coordinate somewhere): the
        quotients are released once, at the end.
        """
        if m.target.table != self.chart.table:
            raise ValueError("form does not live on the target of the map")
        src = m.source
        table = polyvector_table(src)
        jac = m.jacobian()
        # the letters pd_t sit in the order of the target coordinates t
        letters = self.table.positions_of_class(POLYVECTOR_EVEN, POLYVECTOR_ODD)
        words = self.poly.collect(letters)
        try:
            ber = berezinian(jac)
            if any(words):      # a nonzero key holds a polyvector letter
                inv = jac.inverse().rows()
                pds = [SuperPoly.generator(table, polyvector_name(n))
                       for n in src.coordinate_names]
                images = {pos: SuperPoly.sum_of_products(
                              table, [(pd, transport(row[t], table))
                                      for pd, row in zip(pds, inv)])
                          for t, pos in enumerate(letters)}
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("the Jacobian does not invert: delta argument "
                             "not reducible") from exc
        pairs = []
        for word, f in words.items():
            image = SuperPoly.one(table)
            for pos, k in self.table.powers(word):
                image = image * images[pos] ** k
            pulled = m.pullback(transport(f, self.chart.table))
            pairs.append((transport(pulled, table), image))
        moved = transport(ber, table) * SuperPoly.sum_of_products(table, pairs)
        return self._of(src, release_even_exponents(moved))


class IntegralForm(PolyvectorForm):
    """``Ber @ h`` with h a polynomial in coordinates and polyvector letters.

    The numerical degree of a monomial is p minus its polyvector degree,
    so plain densities sit on top and the bottom is reached after p + q
    contractions are no longer possible (odd letters square to zero, even
    letters do not, hence the complex is unbounded below for q > 0).
    A density, the section ``Ber @ f`` of the Berezinian sheaf that a
    Berezin integral consumes, is an integral form of degree p: one with
    no polyvector letter.

    Integral forms add and scale, multiply by functions and polyvectors
    through :meth:`times`, and pair with differential forms through
    :func:`pair`.  There is deliberately no product of two integral
    forms; the density symbol cannot appear twice.
    """

    __slots__ = ()
    _mismatch = "integral forms live on different charts"

    def __init__(self, chart: Chart, poly):
        table = polyvector_table(chart)
        if isinstance(poly, SuperPoly):
            if poly.table == chart.table:
                poly = transport(poly, table)
            elif poly.table != table:
                raise ValueError("element is not over the chart or its "
                                 "polyvector extension")
        else:
            poly = SuperPoly.constant(table, poly)
        self.chart = chart
        self.poly = poly

    @classmethod
    def cohomology_generator(cls, chart: Chart) -> "IntegralForm":
        """``Ber @ th_1..th_q pdz_1..pdz_p``, the surviving class."""
        powers = {name: 1 for name in chart.odd_names}
        powers.update({polyvector_name(n): 1 for n in chart.even_names})
        table = polyvector_table(chart)
        return cls(chart, SuperPoly.from_monomial(table, powers))

    def times(self, factor) -> "IntegralForm":
        """Right multiplication by a function or polyvector polynomial."""
        return self._with(self.poly * IntegralForm(self.chart, factor).poly)

    def __str__(self):
        return f"Ber @ {self.poly}"

    __repr__ = __str__


# The forms and cli workloads of perfbench/workloads.py build their
# densities under this earlier name.
BerSection = IntegralForm


def _density_coefficient(u: IntegralForm, table: GeneratorTable | None = None) -> SuperPoly:
    """The coefficient f of a density ``u = Ber @ f``, over ``table``: the
    chart table, or a table that extends it by letters other than the
    polyvector ones.

    Raises when a polyvector letter remains, so that u is not a density.
    """
    try:    # the target table lacks the polyvector letters
        return transport(u.poly, table or u.chart.table)
    except KeyError:
        raise ValueError("polyvector letters remain; not a plain density") from None


def spencer_delta(u: IntegralForm, gaussian: Iterable[str] = ()) -> IntegralForm:
    """The degree-lowering differential of the integral form complex.

    On a monomial ``Ber @ h`` it reads

        sum_a (-1)^{|x_a| + p + q + 1} (left d/dx_a)(left d/dpdx_a) h,

    transferring one polyvector letter into an honest coordinate
    derivative.  Squares to zero and anticommutes with nothing else it
    needs to; see :func:`homotopy_int` for the contraction identity.
    With the Gaussian weight on the even coordinates in ``gaussian``,
    their derivative picks up -2z as in :func:`lie_derivative_ber`, one
    more pair that multiplies by x_a; the differential still squares to
    zero.  The whole sum is one ``SuperPoly.pair_sum``.
    """
    gaussian = Markers.of(gaussian).check(u.chart).gaussian
    return u._with(u.poly.pair_sum(_integral_steps(u.table, gaussian)[0]))


@cache
def _integral_steps(table: GeneratorTable, gaussian=frozenset()) -> tuple[tuple, tuple]:
    """The ``pair_images`` steps of :func:`spencer_delta` and of
    :func:`homotopy_int` over a polyvector table, once per table and set
    of weighted coordinates, each pair signed (-1)^{|x_a| + p + q + 1}."""
    coordinates = table.positions_of_class(EVEN_BASE, ODD_BASE)
    delta, homotopy = [], []
    for x in coordinates:
        pd = table.index(polyvector_name(table.names[x]))
        sign = -1 if (table.parities[x] + len(coordinates) + 1) % 2 else 1
        delta.append((x, DERIVE, pd, DERIVE, sign))
        if table.names[x] in gaussian:
            delta.append((x, MULTIPLY, pd, DERIVE, -2 * sign))
        homotopy.append((x, MULTIPLY, pd, MULTIPLY, sign))
    return tuple(delta), tuple(homotopy)


def cohomology_projection(u: IntegralForm) -> IntegralForm:
    """Projection onto the span of the surviving generator.

    Keeps exactly the monomials proportional to
    ``th_1..th_q pdz_1..pdz_p``: full odd coordinate content, all odd
    polyvector letters, no even ones, and a constant coefficient.
    """
    mono = _surviving_key(u.table)
    c = release_even_exponents(u.poly).coefficient(mono)
    return u._with(SuperPoly(u.table, {mono: c}))


@cache
def _surviving_key(table: GeneratorTable) -> Monomial:
    """The key of ``th_1..th_q pdz_1..pdz_p`` in a polyvector table, once
    per table."""
    _, mono = table.monomial((pos, 1) for pos in
                             table.positions_of_class(ODD_BASE, POLYVECTOR_ODD))
    return mono


def homotopy_int(u: IntegralForm) -> IntegralForm:
    """Contracting homotopy for :func:`spencer_delta`.

    Together they satisfy, exactly and in every degree,

        spencer_delta(homotopy_int(u)) + homotopy_int(spencer_delta(u))
            == u - cohomology_projection(u).

    Monomial by monomial the operator multiplies by x_b and pdx_b for
    every coordinate, with weight 1 / (K + deg f + 1) where f is the
    coefficient part, deg is its total coordinate degree, and

        K = p + q + (even polyvector degree) - (odd polyvector degree)
              - 2 (odd coordinate degree) - 1.

    K + deg f + 1 simplifies to the int

        w = p + q + (even coordinate and polyvector degree)
              - (odd coordinate and polyvector degree).

    It vanishes only on scalar multiples of the surviving generator, where
    every product x_b f pdx_b X is already zero; the assertion below
    guards that analysis rather than user input.  The weighted sum is one
    ``SuperPoly.pair_sum`` over the integer numerators c * D / w, with D
    the lcm over the terms of w times the coefficient's denominator, and
    x_b (pdx_b f X) carries the sign of :func:`spencer_delta`'s pair.
    """
    pq = u.chart.p + u.chart.q
    table = u.table
    steps = _integral_steps(table)[1]
    weights = []
    for mono, c in release_even_exponents(u.poly).terms.items():
        w = (pq + table.degree(mono, EVEN_BASE, POLYVECTOR_EVEN)
             - table.degree(mono, ODD_BASE, POLYVECTOR_ODD))
        if w <= 0:
            assert not any(next(table.pair_images((mono,), steps))), \
                "nonzero product on a generator monomial"
            continue
        weights.append((mono, c, w))
    return u._with(_weighted_pair_sum(table, weights, steps))


def pair(u: IntegralForm, omega: SuperPoly) -> IntegralForm:
    """Contract a differential form into an integral form.

    The form may be given over the chart table (a function) or over the
    chart's exterior table.  Each fiber symbol of the form consumes one
    matching polyvector letter of ``u`` from the right, in the written
    order of the form monomial, and the remaining coordinate factor
    multiplies the result.  That is the delta-form action with a sign,
    pair(u, omega) = (-1)^{deg omega + |u||omega|} omega . u (see
    :func:`_form_action`), deg the fiber degree and |u| the parity of u's
    polynomial; both may carry quotient coefficients.  The operation is
    associative against the wedge product: pairing with ``omega1 *
    omega2`` equals pairing with ``omega1`` and then with ``omega2``.

    Raises when the fiber degree of the form exceeds the polyvector
    degree of the integral form anywhere (the contraction would
    overshoot past the densities).
    """
    base = u.chart.table
    ftab = form_table(base)
    if omega.table == base:
        omega = transport(omega, ftab)
    elif omega.table != ftab:
        raise ValueError("form is not over the chart's coordinates")
    if u.poly.is_zero() or omega.is_zero():
        return IntegralForm(u.chart, 0)
    max_fiber = max(fiber_degree(ftab, mono) for mono in omega.terms)
    min_pv = min(polyvector_degree(u.table, mono) for mono in u.poly.terms)
    if max_fiber > min_pv:
        raise ValueError("form degree exceeds the polyvector degree of the "
                         "integral form")
    even, odd = (SuperPoly._of(ftab, {m: -c if fiber_degree(ftab, m) % 2 else c
                                      for m, c in part.terms.items()})
                 for part in omega.homogeneous_parts())
    u_even, u_odd = u.poly.homogeneous_parts()
    return u._with(_form_action(even, u.poly) + _form_action(odd, u_even - u_odd))


def _form_action(omega: SuperPoly, poly: SuperPoly) -> SuperPoly:
    """omega . h for a form over ``form_table(chart)`` and h over
    ``polyvector_table(chart)``: each fiber word of omega acts through its
    compiled word (:func:`_word`), and the base coefficient before it, with
    the sign of crossing the word's dx letters, multiplies from the left,
    moved to the polyvector table with any quotient it holds."""
    ftab, ptab = omega.table, poly.table
    pairs = []
    for word, f in omega.collect(ftab.positions_of_class(FIBER_EVEN, FIBER_ODD)).items():
        letters = tuple(ftab.names[pos] for pos, k in ftab.powers(word) for _ in range(k))
        pairs.append((transport(f, ptab), poly.apply_word(_word(ptab, letters))))
    return SuperPoly.sum_of_products(ptab, pairs)


@lru_cache(maxsize=4096)
def _word(table: GeneratorTable, letters: tuple[str, ...]) -> tuple:
    """The word of fiber letters over a polyvector table, compiled: each
    letter becomes a multiplication by or a derivative along its
    polyvector letter, and the minus sign of each dth letter is folded
    into the word's coefficient."""
    names = {fiber_name(n): table.index(polyvector_name(n))
             for n in table.names_of_class(EVEN_BASE, ODD_BASE)}
    sign, ops = 1, []
    for token in letters:
        derivative = token.startswith("dd_")
        pos = names.get(token[3:] if derivative else token)
        if pos is None:
            raise ValueError(f"{token!r} is not a fiber letter of the chart")
        if not (derivative or table.parities[pos]):
            sign = -sign
        ops.append((pos, MULTIPLY if derivative else DERIVE))
    return table.compile_word(ops, sign)
