"""Command line front end: expression parsing, printing and the commands.

One invocation works over one ring R^{p|q}, declared as ``--ring p|q``;
the coordinates are then named x1..xp and th1..thq, their fiber letters
dx1../dth1.., and the polyvector letters pdx1../pdth1...  Expressions in
those generators parse to polynomials, differential forms, delta forms,
densities (written ``Ber @ coefficient``) and differential operators
(words in dd_x1../dd_th1..), and every printer emits text the parser
accepts back, so command outputs can be fed to further commands.

Exit codes follow one convention across subcommands: 0 means the
computation succeeded (and, for check-style commands, the identity
holds), 1 means a checked identity was violated, 2 means the input
could not be used (usage, syntax, unknown generator, parity).

The randomized identity suites live in :mod:`supercalc.suites`; the
``verify`` subcommand runs them, and ``con3-check`` and ``susy-check``
reuse their check loops.  Every randomized command takes an explicit seed
(``--seed`` or the SUPERCALC_SEED environment variable) so failures
replay exactly.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from typing import NamedTuple

import click

from supercalc.algebra import (
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    transport,
)
from supercalc.charts import Chart, CoordinateMap, cocycle_check
from supercalc.derham import d, fiber_name, form_table, homotopy_h
from supercalc.diffops import DiffOp
from supercalc.integral_forms import (
    BerSection,
    IntegralForm,
    VectorField,
    homotopy_int,
    lie_derivative_ber,
    pair,
    polyvector_name,
    polyvector_table,
    spencer_delta,
)
from supercalc.integration import (
    berezin_integral,
    duality_pair_integral,
    lie_derivative_gaussian,
    spencer_delta_gaussian,
    stokes_check,
    susy_algebra_check,
)
from supercalc.koszul import KoszulAlgebra
from supercalc.pseudoforms import (
    CWOperator,
    DeltaForm,
    cw_apply,
    fiber_integral,
    gaussian_fiber_integral,
)
from supercalc.suites import (
    SUITES,
    operator_homotopy_failures,
    run_suite,
    susy_variation_failures,
)
from supercalc.supermatrix import SuperMatrix, berezinian

JSON_FORMAT = "supercalc.v1"
MATRIX_FORMAT = "supercalc.matrix.v1"


# --- errors ----------------------------------------------------------------


class ExpressionError(click.UsageError):
    """Input text the parser or evaluator cannot use; exits with code 2."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# --- tokens ----------------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|\*\*|[-+*/^@(),=]|\S")


class Token(NamedTuple):
    kind: str  # "name", "int", a punctuation string, or "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _TOKEN.finditer(line):
            piece = m.group()
            col = m.start() + 1
            if piece[0].isdigit():
                out.append(Token("int", piece, lineno, col))
            elif piece[0].isalpha() or piece[0] == "_":
                out.append(Token("name", piece, lineno, col))
            elif piece == "**":
                out.append(Token("^", "^", lineno, col))
            elif piece in "+-*/^@(),=":
                out.append(Token(piece, piece, lineno, col))
            else:
                raise ExpressionError(
                    f"syntax error: unexpected character {piece!r}",
                    lineno, col)
    last = out[-1] if out else None
    out.append(Token("end", "", last.line if last else 1,
                     last.column + len(last.text) if last else 1))
    return out


# --- syntax trees ----------------------------------------------------------
#
# Nodes are plain tuples: ("int", Fraction, tok), ("name", str, tok),
# ("call", fname, [args], tok), ("neg", a), ("add", a, b), ("sub", a, b),
# ("mul", a, b), ("div", a, b, tok), ("pow", a, k, tok), ("at", a, b, tok).

_CALLS = ("del", "gauss", "dirac", "formal")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ExpressionError(
                f"syntax error: expected {kind!r}, found {shown!r}",
                tok.line, tok.column)
        return tok

    def parse(self):
        node = self.sum()
        if self.peek().kind == "@":
            tok = self.take()
            node = ("at", node, self.sum(), tok)
            if self.peek().kind == "@":
                bad = self.peek()
                raise ExpressionError(
                    "syntax error: a density takes a single '@' separator",
                    bad.line, bad.column)
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(
                f"syntax error: unexpected {tok.text!r}", tok.line, tok.column)
        return node

    def sum(self):
        node = self.product()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.product()
            node = ("add" if op.kind == "+" else "sub", node, rhs)
        return node

    def product(self):
        node = self.power()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.take()
                node = ("mul", node, self.power())
            elif tok.kind == "/":
                self.take()
                node = ("div", node, self.power(), tok)
            elif tok.kind in ("name", "int", "("):
                # juxtaposition reads as multiplication, so rendered
                # delta forms like "(x1) dx1 del(dth1)" parse back
                node = ("mul", node, self.power())
            else:
                return node

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            tok = self.take()
            exp = self.expect("int")
            node = ("pow", node, int(exp.text), tok)
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "-":
            return ("neg", self.power())
        if tok.kind == "+":
            return self.power()
        if tok.kind == "(":
            node = self.sum()
            self.expect(")")
            return node
        if tok.kind == "int":
            return ("int", Fraction(tok.text), tok)
        if tok.kind == "name":
            if tok.text in _CALLS:
                self.expect("(")
                args = [self.sum()]
                while self.peek().kind == ",":
                    self.take()
                    args.append(self.sum())
                self.expect(")")
                return ("call", tok.text, args, tok)
            return ("name", tok.text, tok)
        shown = tok.text or "end of input"
        raise ExpressionError(f"syntax error: unexpected {shown!r}",
                              tok.line, tok.column)


# --- the ring --------------------------------------------------------------


class Ring:
    """The single chart of an invocation, with every generator layer.

    Names follow one scheme so the three tables resolve without
    declarations: x1..xp and th1..thq on the base, dx*/dth* on the form
    layer, pdx*/pdth* on the polyvector layer, dd_x*/dd_th* for
    derivative symbols.
    """

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.chart = Chart.standard(p, q)
        self.ftab = form_table(self.chart.table)
        self.ptab = polyvector_table(self.chart)
        names = self.chart.coordinate_names
        self.fiber_names = {fiber_name(n): n for n in names}
        self.pv_names = {polyvector_name(fiber_name(n)): n for n in names}

    def describe(self) -> str:
        return f"{self.p}|{self.q}"


def _parse_ring(text: str) -> Ring:
    m = re.fullmatch(r"(\d+)\|(\d+)", text.strip())
    if not m:
        raise click.UsageError(
            f"ring must look like p|q (for example 2|2), got {text!r}")
    return Ring(int(m.group(1)), int(m.group(2)))


# --- evaluated values ------------------------------------------------------

BASE, FORM, PV = "base", "form", "pv"


class Poly(NamedTuple):
    poly: SuperPoly
    layer: str


class Markers(NamedTuple):
    gaussian: frozenset
    dirac: tuple  # sorted (name, Fraction) pairs
    formal: frozenset

    @classmethod
    def none(cls) -> "Markers":
        return cls(frozenset(), (), frozenset())

    def merged(self, other: "Markers") -> "Markers":
        return Markers(self.gaussian | other.gaussian,
                       tuple(sorted(dict(self.dirac + other.dirac).items())),
                       self.formal | other.formal)

    def __bool__(self):
        return bool(self.gaussian or self.dirac or self.formal)


class Marked(NamedTuple):
    value: object
    markers: Markers


class BerPending(NamedTuple):
    """A ``Ber`` factor whose coefficient is still being collected."""
    poly: SuperPoly  # over the polyvector table


_BER = object()


def _table(ring: Ring, layer: str):
    if layer == BASE:
        return ring.chart.table
    return ring.ftab if layer == FORM else ring.ptab


def _lift(ring: Ring, value: Poly, layer: str) -> SuperPoly:
    if value.layer == layer:
        return value.poly
    if value.layer == BASE:
        return transport(value.poly, _table(ring, layer))
    raise ExpressionError(
        "differential letters and polyvector letters cannot mix")


def _join_layers(a: str, b: str) -> str:
    if a == b or b == BASE:
        return a
    if a == BASE:
        return b
    raise ExpressionError(
        "differential letters and polyvector letters cannot mix")


def _as_poly(ring: Ring, value, layer: str) -> SuperPoly:
    if isinstance(value, Fraction):
        return SuperPoly.constant(_table(ring, layer), value)
    if isinstance(value, Poly):
        return _lift(ring, value, layer)
    raise ExpressionError(f"expected a polynomial, got {_kind(value)}")


def _kind(value) -> str:
    if isinstance(value, Fraction):
        return "a number"
    if isinstance(value, Poly):
        return {BASE: "a polynomial", FORM: "a differential form",
                PV: "a polyvector"}[value.layer]
    if isinstance(value, DiffOp):
        return "a differential operator"
    if isinstance(value, DeltaForm):
        return "a delta form"
    if isinstance(value, IntegralForm):
        return "a density"
    if isinstance(value, (BerPending,)) or value is _BER:
        return "a density"
    if isinstance(value, Marked):
        return _kind(value.value)
    return type(value).__name__


# --- evaluation ------------------------------------------------------------


class Evaluator:
    def __init__(self, ring: Ring):
        self.ring = ring

    def run(self, node):
        return self._finish(self.eval(node))

    def _finish(self, value):
        if isinstance(value, Marked):
            return Marked(self._finish(value.value), value.markers)
        if value is _BER:
            return IntegralForm(self.ring.chart, SuperPoly.one(self.ring.ptab))
        if isinstance(value, BerPending):
            return IntegralForm(self.ring.chart, value.poly)
        return value

    def eval(self, node):
        head = node[0]
        if head == "int":
            return node[1]
        if head == "name":
            return self.name(node[1], node[2])
        if head == "neg":
            return self.neg(self.eval(node[1]))
        if head == "add":
            return self.add(self.eval(node[1]), self.eval(node[2]))
        if head == "sub":
            return self.add(self.eval(node[1]), self.neg(self.eval(node[2])))
        if head == "mul":
            return self.product(_flatten_mul(node))
        if head == "div":
            return self.div(self.eval(node[1]), self.eval(node[2]), node[3])
        if head == "pow":
            return self.pow(node[1], node[2], node[3])
        if head == "at":
            return self.at(node[1], node[2], node[3])
        if head == "call":
            return self.call(node)
        raise AssertionError(head)

    def name(self, text: str, tok: Token):
        ring = self.ring
        if text == "Ber":
            return _BER
        if text in ring.chart.coordinate_names:
            return Poly(SuperPoly.generator(ring.chart.table, text), BASE)
        if text in ring.fiber_names:
            return Poly(SuperPoly.generator(ring.ftab, text), FORM)
        if text in ring.pv_names:
            return Poly(SuperPoly.generator(ring.ptab, text), PV)
        if text.startswith("dd_"):
            coord = text[3:]
            if coord in ring.chart.coordinate_names:
                return DiffOp.partial(ring.chart.table, coord)
        raise ExpressionError(f"unknown generator {text!r}",
                              tok.line, tok.column)

    def call(self, node):
        _, fname, args, tok = node
        if fname == "del":
            raise ExpressionError(
                "a delta factor must multiply the rest of its term",
                tok.line, tok.column)
        if fname == "dirac":
            if len(args) != 2:
                raise ExpressionError("dirac takes a coordinate and a point",
                                      tok.line, tok.column)
            name = _marker_name(args[0], tok)
            point = self.eval(args[1])
            if not isinstance(point, Fraction):
                raise ExpressionError("dirac points must be rational numbers",
                                      tok.line, tok.column)
            return Markers(frozenset(), ((name, point),), frozenset())
        names = frozenset(_marker_name(a, tok) for a in args)
        if fname == "gauss":
            return Markers(names, (), frozenset())
        return Markers(frozenset(), (), names)

    def neg(self, value):
        if isinstance(value, Fraction):
            return -value
        if isinstance(value, Poly):
            return Poly(-value.poly, value.layer)
        if isinstance(value, (DiffOp, DeltaForm, IntegralForm)):
            return -value
        if value is _BER:
            return BerPending(SuperPoly.constant(self.ring.ptab, -1))
        if isinstance(value, BerPending):
            return BerPending(-value.poly)
        if isinstance(value, Marked):
            return Marked(self.neg(value.value), value.markers)
        raise ExpressionError(f"cannot negate {_kind(value)}")

    def add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        if isinstance(a, DeltaForm) or isinstance(b, DeltaForm):
            return self._delta_sum(a, b)
        if isinstance(a, (IntegralForm, BerPending)) or \
                isinstance(b, (IntegralForm, BerPending)) or \
                a is _BER or b is _BER:
            return self._density_sum(a, b)
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            return self._as_op(a) + self._as_op(b)
        if isinstance(a, (Fraction, Poly)) and isinstance(b, (Fraction, Poly)):
            layer = _join_layers(a.layer if isinstance(a, Poly) else BASE,
                                 b.layer if isinstance(b, Poly) else BASE)
            return Poly(_as_poly(self.ring, a, layer)
                        + _as_poly(self.ring, b, layer), layer)
        raise ExpressionError(
            f"cannot add {_kind(a)} and {_kind(b)}")

    def _density_sum(self, a, b):
        out = IntegralForm(self.ring.chart, SuperPoly.zero(self.ring.ptab))
        for v in (a, b):
            v = self._finish(v)
            if isinstance(v, IntegralForm):
                out = out + v
            elif isinstance(v, Fraction) and v == 0:
                continue
            else:
                raise ExpressionError(
                    f"cannot add a density and {_kind(v)}")
        return out

    def _delta_sum(self, a, b):
        out = DeltaForm.zero(self.ring.chart)
        for v in (a, b):
            if isinstance(v, DeltaForm):
                out = out + v
            elif isinstance(v, Fraction) and v == 0:
                continue
            else:
                raise ExpressionError(
                    f"cannot add a delta form and {_kind(v)}")
        return out

    def _as_op(self, value) -> DiffOp:
        if isinstance(value, DiffOp):
            return value
        if isinstance(value, (Fraction, Poly)):
            return DiffOp.multiplication(_as_poly(self.ring, value, BASE))
        raise ExpressionError(
            f"cannot use {_kind(value)} in an operator expression")

    def product(self, factors: list):
        if any(_is_delta_letter(f) for f in factors):
            return self._delta_term(factors)
        value = self.eval(factors[0])
        for node in factors[1:]:
            value = self.mul(value, self.eval(node))
        return value

    def mul(self, a, b):
        ring = self.ring
        if isinstance(b, Markers):
            if isinstance(a, Markers):
                return a.merged(b)
            if isinstance(a, Marked):
                return Marked(a.value, a.markers.merged(b))
            return Marked(a, b)
        if isinstance(a, Markers):
            raise ExpressionError(
                "marker tags (gauss, dirac, formal) go after the expression")
        if isinstance(a, Marked) or isinstance(b, Marked):
            raise ExpressionError(
                "marker tags must close the expression they weight")
        if a is _BER:
            return self.mul(BerPending(SuperPoly.one(ring.ptab)), b)
        if b is _BER:
            if isinstance(a, Fraction):
                return BerPending(SuperPoly.constant(ring.ptab, a))
            raise ExpressionError(
                "write densities with Ber leftmost: Ber * coefficient")
        if isinstance(a, BerPending):
            return BerPending(a.poly * _as_poly(ring, b, PV))
        if isinstance(b, BerPending):
            if isinstance(a, Fraction):
                return BerPending(b.poly.scale(a))
            raise ExpressionError(
                "write densities with Ber leftmost: Ber * coefficient")
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        if isinstance(a, Fraction):
            return self._scale(b, a)
        if isinstance(b, Fraction):
            return self._scale_right(a, b)
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            if isinstance(a, DiffOp) and isinstance(b, DiffOp):
                return a.compose(b)
            if isinstance(a, Poly):
                return self._as_op(b).left_multiply(
                    _as_poly(ring, a, BASE))
            return a.compose(self._as_op(b))
        if isinstance(a, DeltaForm) and isinstance(b, DeltaForm):
            raise ExpressionError(
                "the product of two full delta forms vanishes identically; "
                "build one term with all its delta factors instead")
        if isinstance(a, DeltaForm):
            return _delta_times_poly(a, _as_poly(ring, b, BASE))
        if isinstance(b, DeltaForm):
            if isinstance(a, Poly) and a.layer == FORM:
                return _form_times_delta(ring, a.poly, b)
            return b.times(_as_poly(ring, a, BASE))
        if isinstance(a, Poly) and isinstance(b, Poly):
            layer = _join_layers(a.layer, b.layer)
            return Poly(_lift(ring, a, layer) * _lift(ring, b, layer), layer)
        raise ExpressionError(f"cannot multiply {_kind(a)} and {_kind(b)}")

    def _scale(self, value, c: Fraction):
        if isinstance(value, Poly):
            return Poly(value.poly.scale(c), value.layer)
        if isinstance(value, (DiffOp, DeltaForm)):
            return value.scale(c)
        if value is _BER:
            return BerPending(SuperPoly.constant(self.ring.ptab, c))
        if isinstance(value, BerPending):
            return BerPending(value.poly.scale(c))
        raise ExpressionError(f"cannot scale {_kind(value)}")

    def _scale_right(self, value, c: Fraction):
        if isinstance(value, BerPending):
            return BerPending(value.poly.scale(c))
        return self._scale(value, c)

    def div(self, a, b, tok: Token):
        if isinstance(b, Fraction):
            if b == 0:
                raise ExpressionError("division by zero",
                                      tok.line, tok.column)
            return self.mul(a, 1 / b)
        if isinstance(b, Poly):
            layer = b.layer
            try:
                inv = absorb_even_exponents(b.poly).inverse()
            except (ValueError, ZeroDivisionError) as exc:
                raise ExpressionError(f"cannot divide: {exc}",
                                      tok.line, tok.column)
            return self.mul(a, Poly(inv, layer))
        raise ExpressionError(f"cannot divide by {_kind(b)}",
                              tok.line, tok.column)

    def pow(self, base_node, k: int, tok: Token):
        if _is_delta_letter(base_node):
            raise ExpressionError(
                "raise delta factors inside their own term",
                tok.line, tok.column)
        value = self.eval(base_node)
        if k == 0:
            return Fraction(1)
        if isinstance(value, Fraction):
            return value ** k
        if isinstance(value, Poly):
            return Poly(value.poly ** k, value.layer)
        if isinstance(value, DiffOp):
            out = value
            for _ in range(k - 1):
                out = out.compose(value)
            return out
        raise ExpressionError(f"cannot raise {_kind(value)} to a power",
                              tok.line, tok.column)

    def at(self, lhs_node, rhs_node, tok: Token):
        lhs = self.eval(lhs_node)
        if lhs is _BER:
            lhs = BerPending(SuperPoly.one(self.ring.ptab))
        if not isinstance(lhs, BerPending):
            raise ExpressionError(
                "'@' attaches a coefficient to Ber; the left side must be "
                "Ber or Ber * f", tok.line, tok.column)
        rhs = self.eval(rhs_node)
        markers = Markers.none()
        if isinstance(rhs, Marked):
            rhs, markers = rhs.value, rhs.markers
        poly = lhs.poly * _as_poly(self.ring, rhs, PV)
        form = IntegralForm(self.ring.chart, poly)
        return Marked(form, markers) if markers else form

    # -- delta terms --------------------------------------------------------

    def _delta_term(self, factors: list):
        """One product containing delta factors, in the written order.

        Polynomial factors collect in front of the fiber letters; the
        odd part of each one picks up a sign for every odd letter it
        crosses on the way.  The letters themselves go to the term
        constructor, which normalizes their order.
        """
        ring = self.ring
        letters: list = []
        coefficient = SuperPoly.one(ring.chart.table)
        for node in factors:
            letter = self._delta_letter(node)
            if letter is _ZERO_LETTER:
                return DeltaForm.zero(ring.chart)
            if letter is not None:
                letters.append(letter)
                continue
            value = self.eval(node)
            if isinstance(value, Poly) and value.layer == FORM:
                name = _single_fiber_letter(ring, value.poly)
                if name is not None:
                    letters.append(name)
                    continue
            poly = _as_poly(ring, value, BASE)
            even, odd = poly.homogeneous_parts()
            if len(letters) % 2:
                poly = even - odd
            coefficient = coefficient * poly
        try:
            return DeltaForm.from_factors(ring.chart, coefficient, letters)
        except ValueError as exc:
            raise ExpressionError(str(exc))

    def _delta_letter(self, node):
        """A del(...) factor or a power of one, else None."""
        if node[0] == "pow":
            inner = self._delta_letter(node[1])
            if inner is None:
                return None
            k = node[2]
            if k == 0:
                raise ExpressionError(
                    "a delta factor to the power zero drops its slot; "
                    "remove it or give every odd fiber direction a factor",
                    node[3].line, node[3].column)
            return inner if k == 1 else _ZERO_LETTER
        if node[0] != "call" or node[1] != "del":
            return None
        _, _, args, tok = node
        if not 1 <= len(args) <= 2:
            raise ExpressionError("del takes a fiber letter and an "
                                  "optional order", tok.line, tok.column)
        name = _marker_name(args[0], tok)
        if name not in self.ring.fiber_names or \
                self.ring.fiber_names[name] not in self.ring.chart.odd_names:
            raise ExpressionError(
                f"del expects an odd fiber letter such as dth1, got {name!r}",
                tok.line, tok.column)
        order = 0
        if len(args) == 2:
            val = self.eval(args[1])
            if not isinstance(val, Fraction) or val.denominator != 1 or val < 0:
                raise ExpressionError("delta orders are nonnegative integers",
                                      tok.line, tok.column)
            order = int(val)
        return (name, order)


_ZERO_LETTER = object()


def _flatten_mul(node) -> list:
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "mul":
            stack.append(n[2])
            stack.append(n[1])
        else:
            out.append(n)
    return out


def _is_delta_letter(node) -> bool:
    if node[0] == "pow":
        return _is_delta_letter(node[1])
    return node[0] == "call" and node[1] == "del"


def _marker_name(node, tok: Token) -> str:
    if node[0] != "name":
        raise ExpressionError("expected a coordinate or fiber letter here",
                              tok.line, tok.column)
    return node[1]


def _single_fiber_letter(ring: Ring, poly: SuperPoly) -> str | None:
    """The fiber name when the form poly is exactly one odd fiber letter."""
    if len(poly.terms) != 1:
        return None
    ((ev, od), c), = poly.terms.items()
    if c != 1 or any(ev) or len(od) != 1:
        return None
    name = ring.ftab.names[od[0]]
    base = ring.fiber_names.get(name)
    if base in ring.chart.even_names:
        return name
    return None


def _delta_times_poly(form: DeltaForm, f: SuperPoly) -> DeltaForm:
    """Right multiplication, moving f left through each term's letters."""
    even, odd = f.homogeneous_parts()
    out = DeltaForm.zero(form.chart)
    q = form.chart.q
    for (eps, ells), c in form.terms.items():
        odd_letters = sum(eps) + q
        shifted = even + (odd.scale(-1) if odd_letters % 2 else odd)
        out = out + DeltaForm(form.chart, {(eps, ells): c * shifted})
    return out


def _form_times_delta(ring: Ring, fpoly: SuperPoly,
                      form: DeltaForm) -> DeltaForm:
    """Left multiplication of a delta form by a differential form.

    Each monomial of the form splits into a base coefficient and a
    fiber word; the word acts through the letter calculus and the
    coefficient multiplies from the left.  Base odd factors sitting to
    the right of dx letters in the canonical word cross back out with
    the usual sign.
    """
    chart = ring.chart
    base_even = {ring.ftab.index(n) for n in chart.even_names}
    out = DeltaForm.zero(chart)
    for (ev, od), c in fpoly.terms.items():
        if isinstance(c, RationalFunction):
            raise ExpressionError(
                "delta forms carry polynomial coefficients only")
        sign = 1
        base_powers: dict[str, int] = {}
        dth_letters: list[str] = []
        dx_letters: list[str] = []
        for slot, k in enumerate(ev):
            if not k:
                continue
            pos = ring.ftab.even_positions[slot]
            name = ring.ftab.names[pos]
            if pos in base_even:
                base_powers[name] = k
            else:
                dth_letters.extend([name] * k)
        base_odds: list[str] = []
        for pos in od:
            name = ring.ftab.names[pos]
            if name in ring.fiber_names:
                dx_letters.append(name)
            else:
                if len(dx_letters) % 2:
                    sign = -sign
                base_odds.append(name)
        for name in base_odds:
            base_powers[name] = 1
        coeff = SuperPoly.from_monomial(chart.table, base_powers,
                                        Fraction(c) * sign)
        piece = cw_apply(dth_letters + dx_letters, form).times(coeff)
        out = out + piece
    return out


# --- coercions for command arguments ---------------------------------------


def parse_value(text: str, ring: Ring):
    """Parse one expression; the value plus any marker tags it carried."""
    try:
        node = _Parser(text).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    value = Evaluator(ring).run(node)
    if isinstance(value, Marked):
        return value.value, value.markers
    if isinstance(value, Markers):
        raise ExpressionError("marker tags need an expression to weight")
    return value, Markers.none()


def _want_form(ring: Ring, value) -> SuperPoly:
    if isinstance(value, (Fraction, Poly)):
        return _as_poly(ring, value, FORM)
    raise ExpressionError(f"expected a differential form, got {_kind(value)}")


def _want_density(ring: Ring, value) -> IntegralForm:
    if isinstance(value, IntegralForm):
        return value
    raise ExpressionError(
        f"expected a density (written Ber @ coefficient), got {_kind(value)}")


def _want_section(ring: Ring, value) -> BerSection:
    u = _want_density(ring, value)
    try:
        return u.as_section()
    except ValueError as exc:
        raise ExpressionError(str(exc))


def _want_delta(ring: Ring, value) -> DeltaForm:
    if isinstance(value, DeltaForm):
        return value
    if isinstance(value, Fraction) and value == 0:
        return DeltaForm.zero(ring.chart)
    if ring.q == 0 and isinstance(value, (Fraction, Poly)):
        vacuum = DeltaForm(ring.chart,
                           {((0,) * ring.p, ()): SuperPoly.one(ring.chart.table)})
        return _form_times_delta(ring, _as_poly(ring, value, FORM), vacuum)
    raise ExpressionError(
        "expected a delta form with one del(...) factor per odd fiber "
        f"direction, got {_kind(value)}")


def _marker_kwargs(markers: Markers) -> dict:
    return {"gaussian": sorted(markers.gaussian),
            "dirac": dict(markers.dirac),
            "formal": sorted(markers.formal)}


# --- printers --------------------------------------------------------------


def render(value) -> str:
    if isinstance(value, Poly):
        return str(value.poly)
    if isinstance(value, Marked):
        inner = render(value.value)
        tags = []
        if value.markers.gaussian:
            tags.append("gauss(" + ",".join(sorted(value.markers.gaussian)) + ")")
        for name, point in value.markers.dirac:
            tags.append(f"dirac({name},{point})")
        if value.markers.formal:
            tags.append("formal(" + ",".join(sorted(value.markers.formal)) + ")")
        return " ".join([inner] + tags)
    return str(value)


# --- files -----------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.UsageError(str(exc))


def read_expression_file(path: str, ring: Ring):
    """An expression file: comment lines start with '#', the rest is
    one expression (line breaks allowed)."""
    lines = [line for line in _read_text(path).splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise click.UsageError(f"{path}: no expression found")
    return parse_value(" ".join(lines), ring)


def read_map_file(path: str, ring: Ring) -> CoordinateMap:
    """A coordinate change written one line per coordinate: name = expr."""
    images: dict[str, SuperPoly] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, rhs = line.partition("=")
        name = name.strip()
        if not eq or name not in ring.chart.coordinate_names:
            raise ExpressionError(
                f"{path}: expected 'coordinate = expression', got {line!r}",
                lineno, 1)
        value, markers = parse_value(rhs, ring)
        if markers:
            raise ExpressionError(f"{path}: marker tags do not belong in a "
                                  "coordinate change", lineno, 1)
        images[name] = _as_poly(ring, value, BASE)
    missing = [n for n in ring.chart.coordinate_names if n not in images]
    if missing:
        raise click.UsageError(
            f"{path}: no image given for {', '.join(missing)}")
    try:
        return CoordinateMap(ring.chart, ring.chart, images)
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}")


def format_map(m: CoordinateMap) -> str:
    return "\n".join(f"{name} = {m.images[name]}"
                     for name in m.target.coordinate_names)


def read_matrix_file(path: str, ring: Ring) -> SuperMatrix:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path}: {exc}")
    for key in ("p", "q", "rows"):
        if key not in data:
            raise click.UsageError(f"{path}: missing field {key!r}")
    p, q = int(data["p"]), int(data["q"])
    rows_text = data["rows"]
    if len(rows_text) != p + q or any(len(r) != p + q for r in rows_text):
        raise click.UsageError(
            f"{path}: rows must form a square of side p+q = {p + q}")
    rows = []
    for r in rows_text:
        row = []
        for entry in r:
            value, markers = parse_value(str(entry), ring)
            if markers:
                raise click.UsageError(
                    f"{path}: marker tags do not belong in a matrix")
            row.append(_as_poly(ring, value, BASE))
        rows.append(row)
    try:
        return SuperMatrix.from_rows(ring.chart.table, p, q, rows)
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}")


def matrix_json(m: SuperMatrix) -> dict:
    return {"format": MATRIX_FORMAT, "p": m.p, "q": m.q,
            "rows": [[str(e) for e in row] for row in m.rows()]}


# --- command plumbing ------------------------------------------------------


def _emit(json_mode: bool, command: str, text: str, ring: Ring | None = None,
          **extra):
    if not json_mode:
        click.echo(text)
        return
    payload = {"format": JSON_FORMAT, "command": command, "result": text}
    if ring is not None:
        payload["ring"] = ring.describe()
    payload.update(extra)
    click.echo(json.dumps(payload, sort_keys=True))


def _ring_option(f):
    return click.option("--ring", "ring_text", default="2|2",
                        show_default=True, metavar="P|Q",
                        help="coordinates x1..xP (even) and th1..thQ (odd)")(f)


def _json_option(f):
    return click.option("--json", "json_mode", is_flag=True,
                        help="emit a versioned JSON envelope")(f)


def _seed_option(f):
    return click.option("--seed", type=int, default=None,
                        envvar="SUPERCALC_SEED", metavar="N",
                        help="seed for the randomized checks "
                             "(default: SUPERCALC_SEED or 0)")(f)


def _markers_options(f):
    f = click.option("--gaussian", multiple=True, metavar="NAME",
                     help="coordinate carrying the Gaussian weight")(f)
    f = click.option("--dirac", multiple=True, metavar="NAME=POINT",
                     help="coordinate pinned at a rational point")(f)
    f = click.option("--formal", multiple=True, metavar="NAME",
                     help="coordinate left uninterpreted")(f)
    return f


def _collect_markers(markers: Markers, gaussian, dirac, formal) -> Markers:
    pins = []
    for item in dirac:
        name, eq, point = item.partition("=")
        if not eq:
            raise click.UsageError(f"--dirac expects NAME=POINT, got {item!r}")
        try:
            pins.append((name.strip(), Fraction(point.strip())))
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"--dirac point must be rational: {item!r}")
    flagged = Markers(frozenset(gaussian), tuple(sorted(pins)),
                      frozenset(formal))
    return markers.merged(flagged)


@click.group()
def main():
    """Exact calculator for superspace forms, densities and delta forms."""


@main.command("d")
@click.argument("expression")
@_ring_option
@_json_option
def cmd_d(expression, ring_text, json_mode):
    """Exterior differential of a form."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the differential takes no marker tags")
    out = d(_want_form(ring, value))
    _emit(json_mode, "d", str(out), ring)


@main.command("homotopy")
@click.argument("expression")
@click.option("--degree", type=int, default=None,
              help="insist on this fiber degree for forms")
@_ring_option
@_json_option
def cmd_homotopy(expression, degree, ring_text, json_mode):
    """Contracting homotopy: forms (fiber degree >= 1) or densities."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the homotopy takes no marker tags")
    if isinstance(value, IntegralForm):
        out = homotopy_int(value)
    else:
        try:
            out = homotopy_h(_want_form(ring, value), degree)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    _emit(json_mode, "homotopy", str(out), ring)


@main.command("spencer-delta")
@click.argument("expression")
@_markers_options
@_ring_option
@_json_option
def cmd_spencer_delta(expression, gaussian, dirac, formal, ring_text,
                      json_mode):
    """Differential of a density; Gaussian weights ride along."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    markers = _collect_markers(markers, gaussian, dirac, formal)
    u = _want_density(ring, value)
    try:
        if markers.gaussian:
            out = spencer_delta_gaussian(u, markers.gaussian)
        else:
            out = spencer_delta(u)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "spencer-delta", str(out), ring)


@main.command("lie-ber")
@click.argument("density")
@click.argument("field")
@_markers_options
@_ring_option
@_json_option
def cmd_lie_ber(density, field, gaussian, dirac, formal, ring_text,
                json_mode):
    """Lie derivative of a density along a vector field.

    FIELD lists components as 'name = expr' separated by semicolons,
    for example 'x1 = th1; th1 = 1'.
    """
    ring = _parse_ring(ring_text)
    value, markers = parse_value(density, ring)
    markers = _collect_markers(markers, gaussian, dirac, formal)
    section = _want_section(ring, value)
    comps = {}
    for piece in field.split(";"):
        if not piece.strip():
            continue
        name, eq, rhs = piece.partition("=")
        name = name.strip()
        if not eq or name not in ring.chart.coordinate_names:
            raise click.UsageError(
                f"field components read 'name = expr', got {piece.strip()!r}")
        v, extra = parse_value(rhs, ring)
        if extra:
            raise click.UsageError("field components take no marker tags")
        comps[name] = _as_poly(ring, v, BASE)
    try:
        x = VectorField(ring.chart, comps)
        if markers.gaussian:
            out = lie_derivative_gaussian(section, x, markers.gaussian)
        else:
            out = lie_derivative_ber(section, x)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "lie-ber", str(out), ring)


@main.command("pair")
@click.argument("density")
@click.argument("form")
@_ring_option
@_json_option
def cmd_pair(density, form, ring_text, json_mode):
    """Contract a density's polyvector letters against a form."""
    ring = _parse_ring(ring_text)
    u, m1 = parse_value(density, ring)
    omega, m2 = parse_value(form, ring)
    if m1 or m2:
        raise click.UsageError("the pairing takes no marker tags; "
                               "use pd-pair to integrate")
    out = pair(_want_density(ring, u), _want_form(ring, omega))
    _emit(json_mode, "pair", str(out), ring)


@main.command("ber-matrix")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_ber_matrix(matrix_file, ring_text, json_mode):
    """Berezinian of a supermatrix given as a JSON file."""
    ring = _parse_ring(ring_text)
    m = read_matrix_file(matrix_file, ring)
    try:
        out = berezinian(m)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "ber-matrix", str(out), ring)


@main.command("jacobian")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_jacobian(map_file, ring_text, json_mode):
    """Jacobian supermatrix of a coordinate change."""
    ring = _parse_ring(ring_text)
    m = read_map_file(map_file, ring)
    data = matrix_json(m.jacobian())
    if json_mode:
        click.echo(json.dumps({"format": JSON_FORMAT, "command": "jacobian",
                               "ring": ring.describe(), "result": data},
                              sort_keys=True))
    else:
        click.echo(json.dumps(data, indent=2, sort_keys=True))


@main.command("ber-jacobian")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_ber_jacobian(map_file, ring_text, json_mode):
    """Berezinian of the Jacobian of a coordinate change."""
    ring = _parse_ring(ring_text)
    m = read_map_file(map_file, ring)
    try:
        out = m.ber_jacobian()
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "ber-jacobian", str(out), ring)


@main.command("cocycle")
@click.argument("map_file_1", type=click.Path(exists=True, dir_okay=False))
@click.argument("map_file_2", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
@click.pass_context
def cmd_cocycle(ctx, map_file_1, map_file_2, ring_text, json_mode):
    """Check the chain rule for Berezinians of two coordinate changes."""
    ring = _parse_ring(ring_text)
    m1 = read_map_file(map_file_1, ring)
    m2 = read_map_file(map_file_2, ring)
    try:
        ok = cocycle_check(m1, m2)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "cocycle", "cocycle holds" if ok else "cocycle violated",
          ring, passed=ok)
    if not ok:
        ctx.exit(1)


@main.command("koszul")
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--which", type=click.Choice(["koszul", "dual"]),
              default="koszul", show_default=True)
@click.option("--degree", type=int, default=None,
              help="one homological degree (default: a small scan)")
@click.option("--cutoff", type=int, default=6, show_default=True,
              help="module-side degree bound for the exact ranks")
@_json_option
def cmd_koszul(p, q, which, degree, cutoff, json_mode):
    """Exact homology ranks of the free Koszul complex or its dual."""
    algebra = KoszulAlgebra(p, q)
    if degree is not None:
        degrees = [degree]
    elif which == "koszul":
        degrees = [0, -1, -2, -3, -4]
    else:
        degrees = list(range(0, p + 2))
    rows = []
    for deg in degrees:
        try:
            ranks = algebra.homology_ranks(which, deg, cutoff)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        rows.append({"degree": deg, "kernel": ranks.kernel_dim,
                     "image": ranks.image_dim,
                     "homology": ranks.homology_dim})
    if json_mode:
        click.echo(json.dumps({"format": JSON_FORMAT, "command": "koszul",
                               "p": p, "q": q, "which": which,
                               "cutoff": cutoff, "result": rows},
                              sort_keys=True))
    else:
        for row in rows:
            click.echo(f"degree {row['degree']}: kernel {row['kernel']} "
                       f"image {row['image']} homology {row['homology']}")


@main.command("con3-check")
@click.option("--trials", type=int, default=25, show_default=True)
@_seed_option
@_ring_option
@_json_option
@click.pass_context
def cmd_con3_check(ctx, trials, seed, ring_text, json_mode):
    """Operator homotopy identity on random monomials, factor included."""
    ring = _parse_ring(ring_text)
    failures = operator_homotopy_failures(random.Random(seed or 0),
                                          ring.chart, trials)
    ok = failures == 0
    _emit(json_mode, "con3-check",
          f"{trials} monomials checked, {failures} violations", ring,
          passed=ok, trials=trials, failures=failures)
    if not ok:
        ctx.exit(1)


@main.command("berezin-int")
@click.argument("expression")
@_markers_options
@_ring_option
@_json_option
def cmd_berezin_int(expression, gaussian, dirac, formal, ring_text,
                    json_mode):
    """Berezin integral of a top-degree density."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    markers = _collect_markers(markers, gaussian, dirac, formal)
    section = _want_section(ring, value)
    try:
        out = berezin_integral(section, **_marker_kwargs(markers))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "berezin-int", str(out), ring)


@main.command("stokes")
@click.argument("expression")
@click.option("--gaussian", multiple=True, metavar="NAME",
              help="Gaussian-weighted coordinates (default: all evens)")
@_ring_option
@_json_option
@click.pass_context
def cmd_stokes(ctx, expression, gaussian, ring_text, json_mode):
    """Integrate the differential of a degree p-1 density; expect zero."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    weights = set(markers.gaussian) | set(gaussian)
    u = _want_density(ring, value)
    try:
        value_out, vanished = stokes_check(u, weights or None)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "stokes", str(value_out), ring, passed=vanished)
    if not vanished:
        ctx.exit(1)


@main.command("pd-pair")
@click.argument("density_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("form_file", type=click.Path(exists=True, dir_okay=False))
@_markers_options
@_ring_option
@_json_option
def cmd_pd_pair(density_file, form_file, gaussian, dirac, formal, ring_text,
                json_mode):
    """Pair a density against a form and integrate the result."""
    ring = _parse_ring(ring_text)
    sigma, m1 = read_expression_file(density_file, ring)
    eta, m2 = read_expression_file(form_file, ring)
    markers = _collect_markers(m1.merged(m2), gaussian, dirac, formal)
    kwargs = _marker_kwargs(markers)
    if kwargs.pop("formal"):
        raise click.UsageError("formal coordinates cannot be integrated")
    try:
        out = duality_pair_integral(_want_density(ring, sigma),
                                    _want_form(ring, eta), **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "pd-pair", str(out), ring)


@main.command("susy-check")
@click.option("--gamma", required=True,
              help="structure constants as JSON: a number for 1|1, a q by q "
                   "matrix for one even direction, or a list of p matrices")
@click.option("--trials", type=int, default=10, show_default=True,
              help="random Lagrangians for the invariance check")
@_seed_option
@_ring_option
@_json_option
@click.pass_context
def cmd_susy_check(ctx, gamma, trials, seed, ring_text, json_mode):
    """Check the supersymmetry bracket and action invariance."""
    ring = _parse_ring(ring_text)
    tensor = _parse_gamma(gamma, ring.p, ring.q)
    try:
        bracket_ok = susy_algebra_check(ring.chart, tensor)
        failures = susy_variation_failures(random.Random(seed or 0),
                                           ring.chart, tensor, trials)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    ok = bracket_ok and failures == 0
    text = (f"bracket {'holds' if bracket_ok else 'violated'}; "
            f"{trials} Lagrangians, {failures} non-invariant variations")
    _emit(json_mode, "susy-check", text, ring, passed=ok,
          bracket=bracket_ok, failures=failures)
    if not ok:
        ctx.exit(1)


def _parse_gamma(text: str, p: int, q: int):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--gamma is not valid JSON: {exc}")

    def depth(x):
        return 1 + depth(x[0]) if isinstance(x, list) and x else 0

    if depth(data) == 0:
        data = [[[data]]]
    elif depth(data) == 2:
        data = [data]
    if depth(data) != 3:
        raise click.UsageError("--gamma must be a number, a matrix, or a "
                               "list of matrices")
    return data


@main.command("cw-apply")
@click.argument("word")
@click.argument("expression")
@_ring_option
@_json_option
def cmd_cw_apply(word, expression, ring_text, json_mode):
    """Apply a word of fiber letters (dx1, dd_dth1, ...) to a delta form."""
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("letter words take no marker tags")
    form = _want_delta(ring, value)
    try:
        out = cw_apply(CWOperator(word), form)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "cw-apply", str(out), ring)


@main.command("pseudo-transform")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("expression")
@_ring_option
@_json_option
def cmd_pseudo_transform(map_file, expression, ring_text, json_mode):
    """Pull a delta form through a coordinate change."""
    ring = _parse_ring(ring_text)
    m = read_map_file(map_file, ring)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the transform takes no marker tags")
    form = _want_delta(ring, value)
    try:
        out = form.transform(m)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "pseudo-transform", str(out), ring)


@main.command("fiber-int")
@click.argument("expression")
@click.option("--gaussian", multiple=True, metavar="NAME",
              help="even fiber letter carrying a Gaussian weight")
@_ring_option
@_json_option
def cmd_fiber_int(expression, gaussian, ring_text, json_mode):
    """Integrate out the fiber directions of a delta form.

    With --gaussian weights the input is instead a polynomial form in
    the fiber letters and the weighted moments are used.
    """
    ring = _parse_ring(ring_text)
    value, markers = parse_value(expression, ring)
    weights = set(markers.gaussian) | set(gaussian)
    try:
        if weights:
            if isinstance(value, DeltaForm):
                raise click.UsageError(
                    "Gaussian fiber weights apply to polynomial fiber "
                    "dependence; delta forms integrate without them")
            weight, section = gaussian_fiber_integral(
                ring.chart, _want_form(ring, value), sorted(weights))
            text = f"{weight} * ({section})"
            _emit(json_mode, "fiber-int", text, ring,
                  weight=str(weight), section=str(section))
            return
        out = fiber_integral(_want_delta(ring, value))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit(json_mode, "fiber-int", str(out), ring)


# --- verify ----------------------------------------------------------------


@main.command("verify", help="Run one named identity suite, or all of "
              f"them.\n\nSuites: {', '.join(SUITES)}.")
@click.argument("suite", default="all")
@click.option("--trials", type=int, default=None,
              help="override the suite's sample count")
@click.option("--p", "p", type=int, default=2, show_default=True)
@click.option("--q", "q", type=int, default=2, show_default=True)
@_seed_option
@_json_option
@click.pass_context
def cmd_verify(ctx, suite, trials, p, q, seed, json_mode):
    if suite != "all" and suite not in SUITES:
        raise click.UsageError(
            f"unknown suite {suite!r}; pick from "
            f"{', '.join(sorted(SUITES))} or 'all'")
    names = sorted(SUITES) if suite == "all" else [suite]
    seed = seed or 0
    all_ok = True
    report = []
    for name in names:
        results = run_suite(name, seed=seed, trials=trials, p=p, q=q)
        ok = all(r.ok for r in results)
        all_ok = all_ok and ok
        report.append({"suite": name, "passed": ok,
                       "checks": [{"label": r.label, "ok": r.ok,
                                   "detail": r.detail} for r in results]})
        if not json_mode:
            for r in results:
                status = "ok" if r.ok else "FAIL"
                detail = f" ({r.detail})" if r.detail else ""
                click.echo(f"{status:4} {name}: {r.label}{detail}")
    if json_mode:
        click.echo(json.dumps({"format": JSON_FORMAT, "command": "verify",
                               "seed": seed, "passed": all_ok,
                               "suites": report}, sort_keys=True))
    else:
        click.echo(f"{'all suites passed' if all_ok else 'FAILURES above'}"
                   f" (seed {seed})")
    if not all_ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()
