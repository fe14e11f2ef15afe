"""Coordinate charts, coordinate maps, super-Jacobians, and pullbacks.

A chart is just a named generator table with p even and q odd base
coordinates.  Its elements are kept in absorbed form: every even-coordinate
dependence lives inside :class:`RationalFunction` coefficients, so monomials
show only odd factors.  That makes quotients like 1/z first-class and keeps
every division that the Berezinian needs a scalar operation.

The price is that every coefficient is a quotient, even where it is a
polynomial: most of the coefficients of a split map, its Jacobian and its
powers have a constant denominator.  Such quotients skip the quotient
rule and the polynomial gcd, their sums share a denominator (see
:class:`RationalFunction`), and a pullback maps no denominator of 1.
:func:`compose_maps` pulls every image back through one evaluator, so the
images share its powers of the first map's coordinate images.

The Jacobian of a map uses right derivatives of the coordinate images
(rows indexed by target coordinates, columns by source coordinates).  With
that convention the chain rule is a literal block-matrix product,

    Jac(m2 o m1) = pullback(m1, Jac(m2)) * Jac(m1),

and the Berezinian of the Jacobian satisfies the multiplicative cocycle
that makes densities glue across charts.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from supercalc.algebra import (
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    _pull_back,
    absorb_even_exponents,
)
from supercalc.supermatrix import SuperMatrix, berezinian


class Chart:
    """A coordinate system on R^{p|q} with rational-function coefficients."""

    __slots__ = ("label", "table")

    def __init__(self, evens: Sequence[str], odds: Sequence[str], label: str = "U"):
        self.label = label
        self.table = GeneratorTable.chart(evens, odds)

    @classmethod
    def standard(cls, p: int, q: int) -> "Chart":
        """R^{p|q} with coordinates x1..xp | th1..thq."""
        if p < 0 or q < 0:
            raise ValueError(f"dimensions must be nonnegative, got {p}|{q}")
        return cls([f"x{i}" for i in range(1, p + 1)],
                   [f"th{a}" for a in range(1, q + 1)], label=f"R{p}|{q}")

    @property
    def p(self) -> int:
        return len(self.table.even_positions)

    @property
    def q(self) -> int:
        return len(self.table.odd_positions)

    @property
    def even_names(self) -> tuple[str, ...]:
        return tuple(self.table.names[i] for i in self.table.even_positions)

    @property
    def odd_names(self) -> tuple[str, ...]:
        return tuple(self.table.names[i] for i in self.table.odd_positions)

    @property
    def coordinate_names(self) -> tuple[str, ...]:
        return self.even_names + self.odd_names

    def generator(self, name: str) -> SuperPoly:
        return absorb_even_exponents(SuperPoly.generator(self.table, name))

    def one(self) -> SuperPoly:
        return SuperPoly.one(self.table)

    def __repr__(self):
        ev = " ".join(self.even_names)
        od = " ".join(self.odd_names)
        return f"Chart({self.label}: {ev} | {od})"


class CoordinateMap:
    """A morphism between charts, given by the images of the target
    coordinates as elements over the source chart."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Chart, target: Chart,
                 images: Mapping[str, SuperPoly]):
        missing = set(target.coordinate_names) - set(images)
        extra = set(images) - set(target.coordinate_names)
        if missing or extra:
            raise ValueError(
                f"images must cover exactly the target coordinates; "
                f"missing {sorted(missing)}, extra {sorted(extra)}")
        absorbed: dict[str, SuperPoly] = {}
        for name, img in images.items():
            if img.table != source.table:
                raise ValueError(f"image of {name!r} is not over the source chart")
            want = target.table.parity(name)
            if not img.is_zero() and img.parity() != want:
                raise ValueError(
                    f"image of {name!r} must have parity {want}")
            absorbed[name] = absorb_even_exponents(img)
        self.source = source
        self.target = target
        self.images = absorbed

    @classmethod
    def identity(cls, chart: Chart) -> "CoordinateMap":
        return cls(chart, chart, {n: SuperPoly.generator(chart.table, n)
                                  for n in chart.coordinate_names})

    def pullback(self, f: SuperPoly) -> SuperPoly:
        """Substitute the coordinate images into an element over the target."""
        if f.table != self.target.table:
            raise ValueError("element is not over the target chart")
        return f.substitute(self.images, self.source.table)

    def jacobian(self) -> SuperMatrix:
        """Right derivatives of the images, rows = target coordinates."""
        if (self.source.p, self.source.q) != (self.target.p, self.target.q):
            raise ValueError("Jacobian needs equal source and target dimensions")
        src = self.source
        rows = [[self.images[a].right_derivative(b)
                 for b in src.coordinate_names]
                for a in self.target.coordinate_names]
        return SuperMatrix.from_rows(src.table, src.p, src.q, rows)

    def ber_jacobian(self) -> SuperPoly:
        return berezinian(self.jacobian())

    def __repr__(self):
        body = "; ".join(f"{n} = {img}" for n, img in self.images.items())
        return (f"map {self.source.label} -> {self.target.label} "
                f"{{ {body} }}")


def compose_maps(m1: CoordinateMap, m2: CoordinateMap) -> CoordinateMap:
    """m1: U -> V followed by m2: V -> W, as a map U -> W."""
    if m2.source.table != m1.target.table:
        raise ValueError("charts do not chain: m2 must start where m1 ends")
    # one evaluator for all the images, so they share its powers of m1's images
    pulled = _pull_back(m1.target.table, m2.images.values(), m1.images, m1.source.table)
    return CoordinateMap(m1.source, m2.target, dict(zip(m2.images, pulled)))


def cocycle_check(m1: CoordinateMap, m2: CoordinateMap) -> bool:
    """Does Ber(Jac(m2 o m1)) equal pullback(m1, Ber(Jac(m2))) * Ber(Jac(m1))?"""
    composite = compose_maps(m1, m2)
    lhs = composite.ber_jacobian()
    rhs = m1.pullback(m2.ber_jacobian()) * m1.ber_jacobian()
    return lhs == rhs


def conic_transition(z: str = "z", w: str = "w",
                     source_odds: Sequence[str] = ("th1", "th2"),
                     target_odds: Sequence[str] = ("psi1", "psi2")) -> CoordinateMap:
    """The punctured-plane transition  w = 1/z + th1 th2/z^3,
    psi_a = th_a/z^2.  It is an involution up to renaming, so composing it
    with its mirror gives the identity."""
    U = Chart([z], list(source_odds), label="U")
    V = Chart([w], list(target_odds), label="V")
    zz = SuperPoly.generator(U.table, z)
    th1 = SuperPoly.generator(U.table, source_odds[0])
    th2 = SuperPoly.generator(U.table, source_odds[1])
    one = SuperPoly.one(U.table)
    inv_z = SuperPoly.constant(U.table, RationalFunction(one, zz))
    inv_z2 = SuperPoly.constant(U.table, RationalFunction(one, zz * zz))
    inv_z3 = SuperPoly.constant(U.table, RationalFunction(one, zz * zz * zz))
    images = {w: inv_z + th1 * th2 * inv_z3,
              target_odds[0]: th1 * inv_z2,
              target_odds[1]: th2 * inv_z2}
    return CoordinateMap(U, V, images)
