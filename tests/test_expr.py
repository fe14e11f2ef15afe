"""The expression reader against the line-by-line tokenizer and binary
evaluator it replaced: printed values and hand-written inputs read back
to equal values and identical refusals, malformed inputs are refused at
the line and column the reference names, positions are worked out only
for a refusal, long sums stay flat, and printed polynomials and delta
forms are built without SuperPoly or DeltaForm arithmetic."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from typing import NamedTuple

import pytest
from click.testing import CliRunner

from supercalc import expr, pseudoforms
from supercalc.algebra import GeneratorTable, RationalFunction, SuperPoly
from supercalc.cli import main
from supercalc.derham import DERIV_PREFIX, fiber_name
from supercalc.diffops import DiffOp
from supercalc.expr import (
    BASE,
    FORM,
    BerPending,
    Evaluator,
    ExpressionError,
    Marked,
    Markers,
    Poly,
    Ring,
    _is_delta_letter,
    _ZERO_LETTER,
    parse_value,
    render,
)
from supercalc.integral_forms import IntegralForm
from supercalc.pseudoforms import DeltaForm, form_times_delta, from_integral_form
from supercalc.randoms import random_superpoly

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]


# --- the oracle: the line-by-line token stream and left-nested binary trees --
#
# A copy of the tokenizer and recursive-descent parser that came before the
# one-findall tokenizer, kept as the reference for values, positions and
# refusal texts; it shares no code with expr's parser.  Its changes are
# the end of input after '**', which stands two characters after the '**',
# and the text of a '**' token, which stays '**'.

_REFERENCE_TOKEN = re.compile(
    r"([A-Za-z_][A-Za-z_0-9]*)|([0-9]+)|(\*\*)|([-+*/^@(),=])|(\S)")
# the kind of a token by the group it matched; punctuation is its own kind
_GROUP_KINDS = (None, "name", "int", "^", None, None)


class Token(NamedTuple):
    kind: str  # "name", "int", a punctuation string, or "end"
    text: str
    line: int
    column: int


def reference_tokens(text: str) -> list[Token]:
    out: list[Token] = []
    end = (1, 1)
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for m in _REFERENCE_TOKEN.finditer(line):
            group, piece = m.lastindex, m.group()
            kind = _GROUP_KINDS[group] or piece
            if group == 5:
                kind = "name" if piece.isalpha() else None
                if kind is None:
                    raise ExpressionError(
                        f"syntax error: unexpected character {piece!r}",
                        lineno, m.start() + 1)
            out.append(Token(kind, piece, lineno, m.start() + 1))
            end = (lineno, m.end() + 1)
    out.append(Token("end", "", *end))
    return out


class BinaryParser:
    """Sums and products as left-nested ("add", a, b), ("sub", a, b),
    ("mul", a, b) and ("div", a, b, tok) chains, over reference tokens."""

    def __init__(self, text: str):
        self.tokens = reference_tokens(text)
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
            return ("int", Fraction(int(tok.text)), tok)
        if tok.kind == "name":
            if tok.text in ("del", "gauss", "dirac", "formal"):
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


class BinaryEvaluator(Evaluator):
    """One SuperPoly per letter, one binary + or * per node."""

    def eval(self, node):
        head = node[0]
        if head == "add":
            return self.add(self.eval(node[1]), self.eval(node[2]))
        if head == "sub":
            return self.add(self.eval(node[1]), self.neg(self.eval(node[2])))
        if head == "mul":
            return self.product(_flatten_mul(node))
        if head == "div":
            return self.div(self.eval(node[1]), self.eval(node[2]), node[3])
        return super().eval(node)

    def name(self, text, tok):
        ring = self.ring
        if text == "Ber":
            return BerPending(SuperPoly.one(ring.ptab))
        if text in ring.chart.coordinate_names:
            return Poly(SuperPoly.generator(ring.chart.table, text), BASE)
        if text in map(fiber_name, ring.chart.coordinate_names):
            return Poly(SuperPoly.generator(ring.ftab, text), FORM)
        if text.startswith(DERIV_PREFIX):
            coord = text[len(DERIV_PREFIX):]
            if coord in ring.chart.coordinate_names:
                return DiffOp.partial(ring.chart.table, coord)
        raise ExpressionError(f"unknown generator {text!r}",
                              tok.line, tok.column)

    def product(self, factors):
        if any(_is_delta_letter(f) for f in factors):
            return self._delta_term(factors)
        value = self.eval(factors[0])
        for node in factors[1:]:
            value = self.mul(value, self.eval(node))
        return value

    def _delta_term(self, factors):
        """The del(...) factors alone make the term's delta symbols; every
        other factor, dx letters included, moves left past the delta
        symbols before it and acts from the left: a function as a
        coefficient, a form through form_times_delta."""
        ring = self.ring
        letters = []
        actions = []
        for node in factors:
            letter = self._delta_letter(node)
            if letter is _ZERO_LETTER:
                return DeltaForm.zero(ring.chart)
            if letter is not None:
                letters.append(letter)
                continue
            value = self.eval(node)
            is_form = isinstance(value, Poly) and value.layer == FORM
            poly = value.poly if is_form else expr.want(ring, value, BASE)
            if len(letters) % 2:
                even, odd = poly.homogeneous_parts()
                poly = even - odd
            if actions and actions[-1][0] == is_form:
                actions[-1] = (is_form, actions[-1][1] * poly)
            else:
                actions.append((is_form, poly))
        inner = actions.pop()[1] if actions and not actions[-1][0] else 1
        out = DeltaForm.from_factors(ring.chart, inner, letters)
        for is_form, poly in reversed(actions):
            out = form_times_delta(poly, out) if is_form else out.times(poly)
        return out


def binary_parse_value(text: str, ring: Ring):
    try:
        node = BinaryParser(text).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    try:
        value = BinaryEvaluator(ring).run(node)
    except expr._Refusal as exc:
        # the evaluator names the reference token it refuses at
        raise ExpressionError(exc.message, exc.at.line, exc.at.column) from None
    if isinstance(value, Marked):
        return value.value, value.markers
    if isinstance(value, Markers):
        raise ExpressionError("marker tags need an expression to weight")
    return value, Markers.none()


def outcome(parse, text: str, ring: Ring):
    """What ``parse`` makes of ``text``: the value, its text and its
    markers, or the refusal's type and message."""
    try:
        value, markers = parse(text, ring)
    except Exception as exc:    # every refusal is compared, whatever its type
        return "refused", type(exc).__name__, str(exc)
    return type(value).__name__, value, str(value), markers


def mismatches(cases) -> list:
    return [(str(ring.describe()), text) for ring, text in cases
            if outcome(parse_value, text, ring)
            != outcome(binary_parse_value, text, ring)]


# --- the inputs -------------------------------------------------------------


def random_diffop(rng: random.Random, ring: Ring) -> DiffOp:
    table = ring.chart.table
    out = DiffOp.zero(table)
    for _ in range(rng.randint(1, 3)):
        word = DiffOp.multiplication(random_superpoly(rng, table, terms=2,
                                                      max_exp=2))
        for _k in range(rng.randint(0, 3)):
            word = word.compose(DiffOp.partial(
                table, rng.choice(ring.chart.coordinate_names)))
        out = out + word
    return out


def random_delta_form(rng: random.Random, ring: Ring, size: int) -> DeltaForm:
    """A delta form of ``size`` terms with distinct (eps, ells), some with
    quotient coefficients."""
    chart = ring.chart
    keys = list(itertools.product(itertools.product((0, 1), repeat=chart.p),
                                  itertools.product(range(8), repeat=chart.q)))
    terms = {}
    for key in rng.sample(keys, size):
        coeff = random_superpoly(rng, chart.table, terms=3, max_exp=2)
        if not rng.randrange(4):
            x = SuperPoly.generator(chart.table, chart.even_names[0])
            coeff = coeff.scale(RationalFunction(SuperPoly.one(chart.table),
                                                 x + rng.randint(0, 2)))
        terms[key] = coeff if coeff else 1
    return DeltaForm(chart, terms)


def printed_delta_forms():
    """Seeded multi-term delta forms of 1 to 16 terms on every shape."""
    rng = random.Random(2303)
    for p, q in SHAPES:
        ring = Ring(p, q)
        for size in range(1, 17):
            yield ring, str(random_delta_form(rng, ring, size))


def printed(count: int = 40):
    """Seeded output of every printer, on every shape."""
    rng = random.Random(2301)
    for p, q in SHAPES:
        ring = Ring(p, q)
        even = ring.chart.even_names
        for _ in range(count):
            size = rng.choice((1, 2, 4, 8, 16))
            yield ring, str(random_superpoly(rng, ring.chart.table, terms=size,
                                             max_exp=3))
            omega = random_superpoly(rng, ring.ftab, terms=size, max_exp=2)
            yield ring, str(omega)
            # polyvector densities name pdx1.., which the parser refuses
            density = IntegralForm(ring.chart, random_superpoly(
                rng, ring.ptab, terms=size, max_exp=2))
            yield ring, str(density)
            yield ring, str(from_integral_form(density))
            top = IntegralForm(ring.chart, random_superpoly(
                rng, ring.chart.table, terms=size, max_exp=2))
            yield ring, str(top)
            yield ring, str(random_diffop(rng, ring))
            markers = Markers(frozenset(even[:1]), tuple(
                (n, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for n in even[1:2]), frozenset(even[2:]))
            if markers:
                yield ring, render(Marked(top, markers))
                yield ring, render(Marked(Poly(omega, FORM), markers))
    yield from printed_delta_forms()


HAND_WRITTEN = {
    (1, 1): [
        "th1^2", "x1^0", "th1^0", "x1^0*2", "2/0", "x1/0", "0/0", "1/x1",
        "-(-x1)", "-x1^2", "(-x1)^2", "x1/-2", "2/3*x1/4*th1", "x1*th1/x1",
        "0*x1", "th1*th1", "x1 - x1", "1 - 1", "x1^40000", "x1^32767*x1",
        "x1^32767 + x1^32767*x1", "x1^0*dx1^0", "dx1^2", "dth1^3*x1",
        "1/(x1^2)*dx1 - x1", "x1/(1 + x1*dth1)", "1/dth1",
        # delta terms and their neighbours
        "del(dth1)", "del(dth1)/x1", "x1/del(dth1)", "del(dth1)^2*dx1",
        "del(dth1)^0*dx1", "dx1*del(dth1)/x1*x1", "1/x1*dx1*del(dth1)",
        "dx1*del(dth1)/x1*dx1", "x1*del(dth1,2) + 0", "0 + x1*del(dth1)",
        "1 - 1 + dx1*del(dth1)", "x1 - x1 + dx1*del(dth1)",
        "dx1*del(dth1) + x1", "dx1*del(dth1) - dx1*del(dth1)",
        "(x1 + dx1)*del(dth1)", "del(dx1)*x1", "del(dth1, x1)*x1",
        # mixed dx1 and Ber layers
        "dx1 + Ber", "Ber + dx1", "Ber*dx1", "dx1*Ber", "Ber @ dx1",
        "x1*dx1 + Ber @ x1", "Ber @ x1 + dx1", "Ber*x1 + Ber*th1",
        "Ber*x1 - Ber*x1 + 0", "Ber*x1 + 1", "2*Ber*x1/3", "Ber @ 1 @ 2",
        "Ber @ 2*th1*x1 - x1^2*th1 + 3", "Ber @ (1 + x1) gauss(x1)",
        "Ber @ 1 + x1 gauss(x1)", "x1 + Ber @ 1", "Ber @ Ber",
        # operators, markers and unknown letters
        "dd_x1 + x1", "x1 + dd_x1", "-dd_x1 + 1", "x1*dd_x1*x2 - dd_th1",
        "dd_x1^2 - dd_x1*dd_x1", "dd_x1/x1", "dd_x1 + dx1", "dx1 + dd_x1",
        "gauss(x1)", "gauss(x1) + x1", "x1 + gauss(x1)", "x1 gauss(x1) + 1",
        "(x1 + th1) gauss(x1) formal(x1)", "gauss(x1) x1", "dirac(x1, 1/2)",
        "pdx1", "pdx1^0*x1", "x1*pdx1", "x1 + pdx1", "1 + pdx1 + y",
        "dd_y", "x1 + th1 +", "x1 ** 2 * th1", "x1^2^3", "x1 **", "x1**",
        "x1 ** ** 2", "** 2", "x1 ^",
    ],
    (2, 2): [
        # each way out of the printed delta shape
        "(x1) dx2 dx1 del(dth1) del(dth2)", "(x1) dx1 dx1 del(dth1) del(dth2)",
        "(x1) dx2 dx2 del(dth1) del(dth2)", "(th1) dx1 del(dth2) del(dth1)",
        "(x1) dx1 del(dth1)", "(x1) dx1 del(dth2)", "(th2) del(dth1)",
        "(x1) del(dth1) del(dth1) del(dth2)", "(x1) del(dth1) del(dth2) del(dth2)",
        "(dx1) del(dth1) del(dth2)", "(x1*dx1) dx2 del(dth1) del(dth2)",
        "(x1) dx1 del(dth1) th2 del(dth2)", "(x1) del(dth1) del(dth2) th1",
        "(x1) dth1 del(dth1) del(dth2)", "(x1) th1 del(dth1) del(dth2)",
        "(x1) dx1 del(dth1, -1) del(dth2)", "(x1) del(dth1) del(dth2, -2)",
        "(x1) del(dth1, 32767) del(dth2)", "(x1) del(dth1) del(dth2, 32768)",
        "(x1) del(dth1, 40000) del(dth2)", "(1/0) del(dth1, 40000) del(dth2)",
        "(x1) del(dth1, 1/1) del(dth2, 2*1)",
        "(x1) del(dth1, x1) del(dth2)", "(x1) del(dth1, 1, 2) del(dth2)",
        "(x1) del(dth1) del(dth2) + 0", "0 + (x1) del(dth1) del(dth2)",
        "(x1) del(dth1) del(dth2) + 0 + (th1) dx2 del(dth1) del(dth2,3)",
        "(x1) dx1 del(dth1) del(dth2) + x1",
        "(x1) del(dth1) del(dth2) + (th1) dx1 del(dth1) del(dth2) + x1*th1",
        "(x1) del(dth1) del(dth2) + (th1) dx1 del(dth1) del(dth2) - dx1",
        "(x1) del(dth1) del(dth2) + Ber @ x1", "(x1) del(dth1) del(dth2) + dd_x1",
        "(x1) del(dth1) del(dth2) - (x1) del(dth1) del(dth2)",
        "-(x1) dx1 dx2 del(dth1) del(dth2) - (th1*th2) dx2 del(dth1,1) del(dth2)",
        "(1/x1) dx1 del(dth1,1) del(dth2) + (1/(1 + x2)*th1) del(dth1) del(dth2)",
        "(0) del(dth1) del(dth2) + (3/2) dx2 del(dth1) del(dth2)",
        "(x1/0) del(dth1) del(dth2)", "(y) del(dth1) del(dth2)",
        "(pdx1) del(dth1) del(dth2)", "(Ber) del(dth1) del(dth2)",
        "(dd_x1) del(dth1) del(dth2)", "gauss(x1) del(dth1) del(dth2)",
        "del(dth1)^1 del(dth1) del(dth2)", "del(dth2) del(dth1) del(dth2)",
        "(x1) dx1 / x1 del(dth1) del(dth2)", "(x1) dx1^1 del(dth1) del(dth2)",
        "(x1) del(dth1)^1 del(dth2)", "(x1) del(dth1) del(dth2) gauss(x1)",
        "(x1) del(th1) del(dth2)", "(x1) del(dth1) del((dth2))",
        "x1 dx1 del(dth1) del(dth2)", "dx1 del(dth1) del(dth2)",
        "th2*th1", "2*th2*th1 + th1*th2", "th2 th1 x1 dx2 dx1",
        "x1 x2 th1 th2 - th2 th1 x2 x1", "-th2*-th1", "dth1*dth2^2*th2*dx2",
        "(x1 + th1)^2 - x1^2", "x1*th1 + dx1 + x2*th2 - dx1",
        "x1/x2", "x1/(x2*x1)*th2", "1/x1 + 1/x2 - 1/x1",
        "dx1*del(dth1)*del(dth2)", "del(dth2)*dx1*del(dth1)*th1",
        "Ber @ th2*th1*x1", "dd_th2*dd_th1 + dd_th1*dd_th2",
    ],
    (0, 2): [
        "(th1) del(dth1) del(dth2)", "(2) del(dth1,3) del(dth2) + (th2) del(dth1) del(dth2)",
        "(th1*th2) del(dth2) del(dth1)", "(1) dx1 del(dth1) del(dth2)",
    ],
    (1, 0): ["(x1) dx1 del(dth1)", "(x1) del(dx1)", "(x1) dx1 + (2) dx1"],
}


def hand_written():
    for (p, q), texts in HAND_WRITTEN.items():
        ring = Ring(p, q)
        for text in texts:
            yield ring, text


def shuffled_delta_products(count: int, seed: int = 2304):
    """Seeded delta products with their factors in random order: a
    coefficient, dx letters, del factors and stray function or form
    factors, some inside sums with leading or trailing number and
    polynomial terms.  A few repeat a dx letter or miss a delta slot."""
    rng = random.Random(seed)
    shapes = SHAPES + [(0, 2)]
    for _ in range(count):
        ring = Ring(*rng.choice(shapes))
        chart = ring.chart
        dx = [f"d{n}" for n in chart.even_names]
        dth = [f"d{n}" for n in chart.odd_names]
        coefficient = random_superpoly(rng, chart.table, terms=2, max_exp=2)
        factors = [f"({coefficient})"]
        factors += rng.sample(dx, rng.randint(0, len(dx)))
        if dx and not rng.randrange(12):
            factors.append(rng.choice(dx))
        slots = dth if rng.randrange(16) else dth[1:]
        factors += [f"del({name},{k})" if k else f"del({name})"
                    for name, k in ((n, rng.choice((0, 0, 1, 3))) for n in slots)]
        strays = list(chart.coordinate_names) + dth + [
            f"({n} + {d})" for n, d in zip(chart.coordinate_names, dx)] + [
            f"{d}^1" for d in dx]
        factors += rng.sample(strays, min(len(strays), rng.choice((0, 0, 1, 2))))
        rng.shuffle(factors)
        text = rng.choice((" ", "*")).join(factors)
        roll = rng.randrange(6)
        if roll == 0:
            text = rng.choice(("0 + ", "1 - 1 + ", "x1 - x1 + ", "3 + ")) + text
        elif roll == 1:
            text += rng.choice((" + 0", " - 0*th1", " + x1", " - " + text))
        yield ring, text


# --- the tests --------------------------------------------------------------


class TestAgainstTheBinaryEvaluator:
    def test_printed_values_match(self):
        cases = list(printed())
        assert mismatches(cases) == []
        refused = sum(outcome(parse_value, text, ring)[0] == "refused"
                      for ring, text in cases)
        # only the pdx1.. densities are refused
        assert 0 < refused < len(cases) // 4

    def test_hand_written_inputs_match(self):
        cases = list(hand_written())
        assert mismatches(cases) == []
        # the refusals name their line and column where they can
        assert outcome(parse_value, "2/0", Ring(1, 1)) == (
            "refused", "ExpressionError", "line 1, column 2: division by zero")
        assert outcome(parse_value, "1 + pdx1", Ring(1, 1)) == (
            "refused", "ExpressionError",
            "line 1, column 5: unknown generator 'pdx1'")

    def test_a_dropped_reordering_sign_is_caught(self, monkeypatch):
        monomial = GeneratorTable.monomial

        def unsigned(self, powers):
            sign, key = monomial(self, powers)
            return abs(sign), key
        cases = list(printed(10)) + list(hand_written())
        want = [outcome(binary_parse_value, text, ring) for ring, text in cases]
        monkeypatch.setattr(GeneratorTable, "monomial", unsigned)
        got = [outcome(parse_value, text, ring) for ring, text in cases]
        assert sum(g != w for g, w in zip(got, want)) > 0


def delta_cases() -> list:
    """The printed delta forms and the hand-written inputs with a del."""
    return list(printed_delta_forms()) + [
        (ring, text) for ring, text in hand_written() if "del(" in text]


def changed_outcomes(cases, monkeypatch, name: str, mutant) -> int:
    """How many of ``cases`` read differently from the binary evaluator
    once ``DeltaForm.<name>`` or ``pseudoforms.<name>`` is ``mutant``."""
    want = [outcome(binary_parse_value, text, ring) for ring, text in cases]
    if name == "from_factors":
        monkeypatch.setattr(DeltaForm, name, classmethod(mutant))
    else:
        monkeypatch.setattr(pseudoforms, name, mutant)
    got = [outcome(parse_value, text, ring) for ring, text in cases]
    return sum(g != w for g, w in zip(got, want))


class TestThePrintedDeltaFold:
    def test_shuffled_delta_products_match(self):
        cases = list(shuffled_delta_products(400))
        assert mismatches(cases) == []
        refused = sum(outcome(parse_value, text, ring)[0] == "refused"
                      for ring, text in cases)
        assert 0 < refused < len(cases) // 3

    def test_a_dropped_term_sign_is_caught(self, monkeypatch):
        term_key = pseudoforms._term_key

        def unsigned(table, eps, ells):
            return 1, term_key(table, eps, ells)[1]
        cases = delta_cases()
        assert mismatches(cases) == []
        assert changed_outcomes(cases, monkeypatch, "_term_key",
                                unsigned) > len(cases) // 4

    def test_accepting_descending_dx_letters_is_caught(self, monkeypatch):
        from_factors = DeltaForm.from_factors.__func__

        def in_order(cls, chart, coefficient, factors):
            # the letters sorted into canonical order: no reordering sign
            return from_factors(cls, chart, coefficient, sorted(
                factors, key=lambda f: (not isinstance(f, str), f)))
        cases = list(shuffled_delta_products(200))
        assert mismatches(cases) == []
        assert changed_outcomes(cases, monkeypatch, "from_factors",
                                in_order) > len(cases) // 8


def test_a_long_printed_delta_sum_is_folded_without_delta_arithmetic(monkeypatch):
    ring = Ring(2, 2)
    chart = ring.chart
    keys = itertools.product(itertools.product((0, 1), repeat=2),
                             itertools.product(range(32), repeat=2))
    terms = {}
    for k, key in zip(range(4000), keys):
        terms[key] = SuperPoly.from_monomial(
            chart.table, {"x1": k % 3, f"th{k % 2 + 1}": k % 5 // 3}, k % 7 - 3 or 5)
    want = DeltaForm(chart, terms)
    text = str(want)
    calls = {"__add__": 0, "form_times_delta": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy
    monkeypatch.setattr(DeltaForm, "__add__", counted("__add__", DeltaForm.__add__))
    for module in (expr, pseudoforms):
        monkeypatch.setattr(module, "form_times_delta", counted(
            "form_times_delta", pseudoforms.form_times_delta))
    value, markers = parse_value(text, ring)
    assert calls == {"__add__": 0, "form_times_delta": 0}
    assert not markers and value == want
    assert dict(value.terms) == terms
    # the spies see the binary path: a zero term hands the sum to add,
    # and a form factor acts through form_times_delta
    parse_value("(x1) del(dth1) del(dth2) + 0 + (x1 + dx1) del(dth1) del(dth2)",
                ring)
    assert calls == {"__add__": 3, "form_times_delta": 1}


def test_trailing_tags_still_bind_to_the_last_product():
    result = CliRunner().invoke(main, ["berezin-int", "--ring", "1|1", "--",
                                       "Ber @ 1 + x1 gauss(x1)"])
    assert result.exit_code == 2
    assert result.output.endswith(
        "Error: cannot add a number and a polynomial\n")


def test_a_long_flat_sum_is_folded_without_recursion():
    terms = [f"{k % 7 - 3}*x1^{k % 5}*th{k % 2 + 1}" for k in range(5000)]
    result = CliRunner().invoke(main, ["d", "--ring", "2|2", "--",
                                       " + ".join(terms)])
    want = SuperPoly.zero(Ring(2, 2).chart.table)
    for k in range(5000):
        want = want + SuperPoly.from_monomial(
            want.table, {"x1": k % 5, f"th{k % 2 + 1}": 1}, k % 7 - 3)
    expected = CliRunner().invoke(main, ["d", "--ring", "2|2", "--", str(want)])
    assert result.exit_code == 0, result.output
    assert expected.exit_code == 0
    assert result.output == expected.output != "0\n"


def test_deep_evaluation_is_an_expression_error(monkeypatch):
    def deep(self, node):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(Evaluator, "run", deep)
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_value("x1", Ring(1, 1))
    result = CliRunner().invoke(main, ["d", "--", "x1"])
    assert result.exit_code == 2
    assert "nested too deeply" in result.output


def test_a_printed_form_is_built_without_superpoly_arithmetic(monkeypatch):
    ring = Ring(2, 2)
    rng = random.Random(2302)
    omega = SuperPoly.zero(ring.ftab)
    while len(omega.terms) < 200:
        omega = omega + random_superpoly(rng, ring.ftab, terms=1, max_exp=3)
    text = str(omega)
    calls = {"sum_of_products": 0, "__add__": 0}
    sum_of_products, add = SuperPoly.sum_of_products, SuperPoly.__add__

    def counted_products(*args):
        calls["sum_of_products"] += 1
        return sum_of_products(*args)

    def counted_add(self, other):
        calls["__add__"] += 1
        return add(self, other)
    monkeypatch.setattr(SuperPoly, "sum_of_products",
                        staticmethod(counted_products))
    monkeypatch.setattr(SuperPoly, "__add__", counted_add)
    value, _ = parse_value(text, ring)
    assert calls == {"sum_of_products": 0, "__add__": 0}
    assert value == Poly(omega, FORM)


def test_parsed_rings_are_shared_and_read_only():
    assert Ring.parse("2|2") is Ring.parse(" 2|2 ")
    assert Ring.parse("2|2") is not Ring.parse("2|1")
    with pytest.raises(AttributeError):
        Ring.parse("2|2").q = 3


# --- positions: the one-findall tokenizer against the reference locator -----

_JUNK = ["**", "*", "+", "-", "/", "^", "@", "(", ")", ",", "=", "$", "x1",
         "7", "del(", "dth1", "Ber", "gauss(", "**2", "^x1", "\u00e9", "\u00df",
         "\u00b2", "\u0663", "\u0301"]
# blanks and every kind of line break str.splitlines knows
_GAPS = [" ", "\t", "\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
         "\u2028", "\u2029", "\n\n  "]


def malformed_inputs(count: int, seed: int = 2305):
    """Seeded malformed inputs: printed values and hand-written inputs with
    stray tokens, characters outside ASCII, unbalanced parentheses and
    trailing operators put in, and blanks turned into tabs and line
    breaks."""
    rng = random.Random(seed)
    sources = list(printed(2)) + list(hand_written()) + list(
        shuffled_delta_products(100, seed))
    for _ in range(count):
        ring, text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            roll = rng.randrange(5)
            at = rng.randint(0, len(text))
            if roll == 0:
                text = text[:at] + rng.choice(_JUNK) + text[at:]
            elif roll == 1:
                text += rng.choice((" +", " *", "**", " -", "/", "^", "(", " @"))
            elif roll == 2:
                parens = [k for k, c in enumerate(text) if c in "()"]
                if parens:
                    k = rng.choice(parens)
                    text = text[:k] + text[k + 1:]
                else:
                    text = "(" + text
            elif roll == 3:
                text = text[:at] + rng.choice(_GAPS) + text[at:]
            else:
                text = "".join(rng.choice(_GAPS) if c == " " and rng.random() < 0.3
                               else c for c in text)
        yield ring, text


class TestPositions:
    def test_malformed_inputs_are_refused_as_the_reference_refuses(self):
        cases = list(malformed_inputs(2400))
        assert mismatches(cases) == []
        refusals = [outcome(parse_value, text, ring) for ring, text in cases]
        refusals = [r[2] for r in refusals if r[0] == "refused"]
        assert len(refusals) > len(cases) * 3 // 4
        # positions past the first line, and every kind of syntax error
        lines = [re.match(r"line ([0-9]+), column", r) for r in refusals]
        assert sum(m is not None and int(m.group(1)) > 1 for m in lines) > 100
        for kind in ("unexpected character", "unexpected ')'", "expected ')'",
                     "'end of input'", "expected 'int'"):
            assert any(kind in r for r in refusals), kind

    def test_the_end_of_input_after_a_double_star(self):
        ring = Ring(1, 1)
        end = "syntax error: expected 'int', found 'end of input'"
        assert outcome(parse_value, "x1 **", ring)[2] == f"line 1, column 6: {end}"
        assert outcome(parse_value, "x1**", ring)[2] == f"line 1, column 5: {end}"
        assert outcome(parse_value, "x1 ^", ring)[2] == f"line 1, column 5: {end}"
        # a '**' is quoted as written
        assert outcome(parse_value, "x1 ** ** 2", ring)[2] == (
            "line 1, column 7: syntax error: expected 'int', found '**'")

    def test_printed_values_are_read_without_locating_a_token(self, monkeypatch):
        located = []
        locate = expr._locate

        def spy(*args):
            located.append(args)
            return locate(*args)
        monkeypatch.setattr(expr, "_locate", spy)
        read = refused = 0
        for ring, text in printed():
            before = len(located)
            try:
                parse_value(text, ring)
            except ExpressionError as exc:
                # the pdx1.. densities: refused at the token they name
                refused += 1
                assert len(located) == before + 1
                assert str(exc).startswith("line 1, column ")
            else:
                read += 1
                assert len(located) == before
        assert read > refused > 0

    @pytest.mark.parametrize("mutant", [
        lambda locate, text, index, line, column: (
            lambda at: (at[0], at[1] + 1))(locate(text, index, line, column)),
        lambda locate, text, index, line, column: locate(
            text, index + 1, line, column),
        lambda locate, text, index, line, column: (
            lambda at: (at[0] - 1, at[1]) if at[0] > 1 else at)(
                locate(text, index, line, column)),
        # lines broken at '\n' alone
        lambda locate, text, index, line, column: locate(
            "".join(" " if c in "\r\x0b\x0c\x1c\x85\u2028\u2029" else c
                    for c in text), index, line, column),
    ], ids=["column", "token", "line", "line-breaks"])
    def test_an_off_by_one_locator_is_caught(self, monkeypatch, mutant):
        cases = list(malformed_inputs(600))
        assert mismatches(cases) == []
        locate = expr._locate
        monkeypatch.setattr(expr, "_locate",
                            lambda text, index, line=1, column=1:
                            mutant(locate, text, index, line, column))
        assert len(mismatches(cases)) > 0
