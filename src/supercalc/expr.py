"""The expression language of the command line: text to values and back.

One invocation works over one ring R^{p|q} (:class:`Ring`); the
coordinates are then named x1..xp and th1..thq, their fiber letters
dx1../dth1.., and the polyvector letters pdx1../pdth1...  Expressions in
those generators parse to polynomials, differential forms, delta forms,
densities (written ``Ber @ coefficient``) and differential operators
(words in dd_x1../dd_th1..), and every printer emits text the parser
accepts back, so command outputs can be fed to further commands.

The grammar is the usual one for polynomials: sums, differences,
products (``*`` or juxtaposition, so a printed delta term such as
``(x1) dx1 del(dth1)`` reads back), quotients, integer powers (``^`` or
``**``) and parentheses.  ``Ber @ f`` and ``Ber * f`` build a density;
``del(dth1)`` and ``del(dth1, l)`` are the delta factors of a delta term,
one for each odd fiber direction; trailing ``gauss(x1,..)``,
``dirac(x1, point)`` and ``formal(x1,..)`` tags weight the expression for
integration.

Printed values are read back in one pass.  The parser makes one node per
sum and one per product, holding all its terms or factors, and the
:class:`Evaluator` folds a sum of numbers and polynomials, or a sum of
delta forms, into one term map, each monomial term (numbers, integer
quotients, generator names and their powers) encoded by one
:meth:`GeneratorTable.monomial` call.  A delta term, printed as
``(f) dx1 dx3 del(dth1) del(dth2,1)`` or written in any other factor
order, is read by one reader: its dx letters and del factors make one
word for :meth:`DeltaForm.from_factors`, which charges the reordering
sign.  Other sums and products fold left to right, one binary step at a
time, so their values and refusals are those of the binary evaluator.  A
sum of any length evaluates without recursion.

The tokens are what one ``findall`` of one regular expression returns:
a name (an ASCII letter or '_', then letters, digits and '_'), a run of
ASCII digits, ``**``, one of ``-+*/^@(),=``, or any other character
that is not blank.  Such a character reads as a name when it is a
letter and is refused otherwise, so a digit outside ASCII ('²', '٣') is
no number.  The parser takes each token's kind from its text, and the
syntax tree holds a token's index, not its position.

Input that cannot be used raises :class:`ExpressionError`, a
``ValueError``; a refusal at a token names its line and column, and
input nested too deeply to parse or evaluate is refused as such.  A
position is worked out only for a refusal, by scanning the text again
up to the refused token.  Lines break where ``str.splitlines`` breaks
them (``\\n``, ``\\r\\n``, ``\\r``, ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
``\\x85``, ``\\u2028``, ``\\u2029``); every one of them is blank to the
tokenizer, so no token spans two lines.  Columns count characters from 1,
and the end of input stands just after the last token.  The module does
not depend on any command line toolkit.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from typing import Callable, NamedTuple

from supercalc.algebra import PolyElement, SuperPoly, absorb_even_exponents, transport
from supercalc.charts import Chart, CoordinateMap
from supercalc.derham import DERIV_PREFIX, fiber_name, form_table
from supercalc.diffops import DiffOp
from supercalc.integral_forms import IntegralForm, Markers, polyvector_table
from supercalc.pseudoforms import DeltaForm, delta_times_poly, form_times_delta
from supercalc.supermatrix import SuperMatrix

MATRIX_FORMAT = "supercalc.matrix.v1"


class ExpressionError(ValueError):
    """Input text the parser or evaluator cannot use."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class _Refusal(Exception):
    """A refusal at a token, raised inside the parser and the evaluator;
    :func:`parse_value` locates the token and raises the
    :class:`ExpressionError`."""

    def __init__(self, message: str, at):
        super().__init__(message)
        self.message = message
        self.at = at    # the token: its index in the text


# --- tokens ----------------------------------------------------------------

# names, integers, '**', one punctuation character, or any other character
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|\*\*|[-+*/^@(),=]|\S")
# a character only the last branch of _TOKEN takes
_STRAY = re.compile(r"[^\sA-Za-z_0-9*+\-/^@(),=]")
# the tokens that are neither a name nor an integer; "" ends the input
_PUNCT = frozenset(("-", "+", "*", "/", "^", "**", "@", "(", ")", ",", "=", ""))


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text``, then "" for the end of input."""
    tokens = _TOKEN.findall(text)
    m = _STRAY.search(text)
    while m is not None:
        # a letter outside ASCII reads as a name; a digit outside ASCII
        # ('²', '٣') is refused like any other character
        if not m.group().isalpha():
            raise _Refusal(f"syntax error: unexpected character {m.group()!r}",
                           len(_TOKEN.findall(text, 0, m.start())))
        m = _STRAY.search(text, m.end())
    tokens.append("")
    return tokens


def _shown(token: str) -> str:
    """A token as a syntax error quotes it: as written."""
    return token or "end of input"


def _locate(text: str, index: int, line: int = 1,
            column: int = 1) -> tuple[int, int]:
    """The line and column of token ``index`` of ``text``, whose first
    character stands at ``line`` and ``column``.  The end of input stands
    just after the last token; lines break where ``str.splitlines`` breaks
    them."""
    offset = 0
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            offset = m.start()
            break
        offset = m.end()
    # the token is on the last line that starts at or before it
    row = row_start = start = 0
    for k, piece in enumerate(text.splitlines(keepends=True)):
        if start > offset:
            break
        row, row_start = k, start
        start += len(piece)
    return line + row, (column if row == 0 else 1) + offset - row_start


# --- syntax trees ----------------------------------------------------------
#
# Nodes are plain tuples: ("int", int, tok), ("name", str, tok),
# ("call", fname, [args], tok), ("neg", a), ("pow", a, k, tok),
# ("at", a, b, tok), ("sum", [(term, negated), ...]) for two or more terms
# and ("product", [(factor, slash), ...]) for two or more factors, where
# ``slash`` is the '/' token of a divisor and None for a factor.  A tok is
# the index of the token in the text.  The evaluator wraps a value it
# already holds as ("value", v).

_CALLS = frozenset(("del", "gauss", "dirac", "formal"))
_POWER = frozenset(("^", "**"))
_ARGUMENT_END = frozenset((",", ")"))


class _Parser:
    """Recursive descent over the token strings of one text.  Each rule
    takes the index of its first token and returns its node and the index
    after it."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)

    def parse(self):
        tokens = self.tokens
        node, i = self.sum(0)
        if tokens[i] == "@":
            rhs, j = self.sum(i + 1)
            node, i = ("at", node, rhs, i), j
            if tokens[i] == "@":
                raise _Refusal(
                    "syntax error: a density takes a single '@' separator", i)
        if tokens[i]:   # not the end of input
            raise _Refusal(f"syntax error: unexpected {_shown(tokens[i])!r}", i)
        return node

    def expect(self, token: str, i: int) -> int:
        if self.tokens[i] != token:
            raise _Refusal(f"syntax error: expected {token!r}, found "
                           f"{_shown(self.tokens[i])!r}", i)
        return i + 1

    def sum(self, i: int):
        tokens = self.tokens
        node, i = self.product(i)
        op = tokens[i]
        if op != "+" and op != "-":
            return node, i
        terms = [(node, False)]
        while op == "+" or op == "-":
            node, i = self.product(i + 1)
            terms.append((node, op == "-"))
            op = tokens[i]
        return ("sum", terms), i

    def product(self, i: int):
        tokens, punct = self.tokens, _PUNCT
        factors = []
        slash = None
        while True:
            tok = tokens[i]
            if tok in punct or tok in _CALLS or tokens[i + 1] in _POWER:
                node, i = self.power(i)
            else:   # a bare name or integer, as most printed factors are
                node, i = _operand(tok, i), i + 1
            factors.append((node, slash))
            tok = tokens[i]
            if tok == "*":
                slash = None
                i += 1
            elif tok == "/":
                slash = i
                i += 1
            elif tok == "(" or tok not in punct:
                # juxtaposition reads as multiplication, so rendered
                # delta forms like "(x1) dx1 del(dth1)" parse back
                slash = None
            else:
                break
        return (factors[0][0] if len(factors) == 1 else ("product", factors)), i

    def power(self, i: int):
        tokens = self.tokens
        tok = tokens[i]
        if tok in _PUNCT:
            node, i = self.group(i)
        elif tok in _CALLS:
            node, i = self.call(i)
        else:
            node, i = _operand(tok, i), i + 1
        tok = tokens[i]
        if tok in _POWER:
            exp = tokens[i + 1]
            if exp in _PUNCT or exp >= ":":
                raise _Refusal("syntax error: expected 'int', found "
                               f"{_shown(exp)!r}", i + 1)
            node, i = ("pow", node, int(exp), i), i + 2
        return node, i

    def group(self, i: int):
        """A signed power, a parenthesized sum, or a refusal."""
        tok = self.tokens[i]
        if tok == "-":
            node, i = self.power(i + 1)
            return ("neg", node), i
        if tok == "+":
            return self.power(i + 1)
        if tok == "(":
            node, i = self.sum(i + 1)
            return node, self.expect(")", i)
        raise _Refusal(f"syntax error: unexpected {_shown(tok)!r}", i)

    def call(self, i: int):
        tokens = self.tokens
        args = []
        j = self.expect("(", i + 1)
        while True:
            tok = tokens[j]
            if tok not in _PUNCT and tok not in _CALLS and \
                    tokens[j + 1] in _ARGUMENT_END:
                # a bare name or integer, as in del(dth1, 2)
                args.append(_operand(tok, j))
                j += 1
            else:
                node, j = self.sum(j)
                args.append(node)
            if tokens[j] != ",":
                return ("call", tokens[i], args, i), self.expect(")", j)
            j += 1


def _operand(token: str, i: int) -> tuple:
    """The node of a name or an integer token."""
    # digits sort before every letter
    return ("int", int(token), i) if token < ":" else ("name", token, i)


# --- the ring --------------------------------------------------------------

BASE, FORM, PV = "base", "form", "pv"
# the layer of a sum of delta forms, which the polyvector table holds
DELTA = "delta"


class Ring:
    """The single chart of an invocation, with every generator layer.

    Names follow one scheme so the three tables resolve without
    declarations: x1..xp and th1..thq on the base, dx*/dth* on the form
    layer, pdx*/pdth* on the polyvector layer, dd_x*/dd_th* for
    derivative symbols.  A ring is read-only, so :meth:`parse` hands out
    one shared ring per ``p|q``.
    """

    __slots__ = ("p", "q", "chart", "ftab", "ptab", "letters")

    def __init__(self, p: int, q: int):
        chart = Chart.standard(p, q)
        ftab = form_table(chart.table)
        names = chart.coordinate_names
        # each generator name: its layer, its position in that layer's
        # table and its position in the form table, where sums and
        # products of both layers meet
        letters = {n: (BASE, chart.table.index(n), ftab.index(n))
                   for n in names}
        for n in names:
            pos = ftab.index(fiber_name(n))
            letters[fiber_name(n)] = (FORM, pos, pos)
        for slot, value in (("p", p), ("q", q), ("chart", chart),
                            ("ftab", ftab), ("ptab", polyvector_table(chart)),
                            ("letters", letters)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError("a Ring is read-only")

    @classmethod
    def parse(cls, text: str) -> "Ring":
        """The shared ring written ``p|q``."""
        m = re.fullmatch(r"(\d+)\|(\d+)", text.strip())
        if not m:
            raise ValueError(
                f"ring must look like p|q (for example 2|2), got {text!r}")
        return _shared_ring(int(m.group(1)), int(m.group(2)))

    def describe(self) -> str:
        return f"{self.p}|{self.q}"


_shared_ring = functools.lru_cache(maxsize=32)(Ring)


# --- evaluated values ------------------------------------------------------


class Poly(NamedTuple):
    poly: SuperPoly
    layer: str


class Marked(NamedTuple):
    value: object
    markers: Markers


class BerPending(NamedTuple):
    """A ``Ber`` factor whose coefficient is still being collected."""
    poly: SuperPoly  # over the polyvector table


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


# --- value kinds -----------------------------------------------------------


def _on_layer(layer: str):
    """A number or a polynomial of a lower layer, as a polynomial on
    ``layer``."""
    def coerce(ring: Ring, value):
        if isinstance(value, Fraction):
            return SuperPoly.constant(_table(ring, layer), value)
        if isinstance(value, Poly):
            return _lift(ring, value, layer)
        return None
    return coerce


def _delta_form(ring: Ring, value):
    if isinstance(value, DeltaForm):
        return value
    if isinstance(value, Fraction) and value == 0:
        return DeltaForm.zero(ring.chart)
    if ring.q == 0 and isinstance(value, (Fraction, Poly)):
        # with no odd fiber direction a delta term is just a form
        vacuum = DeltaForm(ring.chart, {((0,) * ring.p, ()): 1})
        return form_times_delta(want(ring, value, FORM), vacuum)
    return None


def _density(ring: Ring, value):
    return value if isinstance(value, IntegralForm) else None


class _Kind(NamedTuple):
    noun: str  # what a refusal calls a value of this kind
    coerce: Callable | None = None  # (ring, value) -> the value as one, or None
    wanted: str | None = None  # what a refusal calls it when it was expected


# One row per kind of value, keyed by a polynomial's layer and otherwise by
# the value's type.
_KINDS = {
    Fraction: _Kind("a number"),
    BASE: _Kind("a polynomial", _on_layer(BASE)),
    FORM: _Kind("a differential form", _on_layer(FORM)),
    # the coefficient of Ber: a polynomial in base and polyvector letters
    PV: _Kind("a polyvector", _on_layer(PV), "a polynomial"),
    DiffOp: _Kind("a differential operator"),
    DeltaForm: _Kind("a delta form", _delta_form, "a delta form with one "
                     "del(...) factor per odd fiber direction"),
    IntegralForm: _Kind("a density", _density,
                        "a density (written Ber @ coefficient)"),
    BerPending: _Kind("a density"),
    Markers: _Kind("marker tags"),
}


def _describe(value) -> str:
    """What a refusal calls ``value``."""
    if isinstance(value, Marked):
        value = value.value
    kind = _KINDS.get(value.layer if isinstance(value, Poly) else type(value))
    return kind.noun if kind else type(value).__name__


def want(ring: Ring, value, key):
    """``value`` as the kind ``key`` names: a polynomial on the layer BASE,
    FORM or PV, a DeltaForm or an IntegralForm.  Anything else raises an
    :class:`ExpressionError` naming both kinds."""
    kind = _KINDS[key]
    out = kind.coerce(ring, value)
    if out is None:
        raise ExpressionError(
            f"expected {kind.wanted or kind.noun}, got {_describe(value)}")
    return out


# --- evaluation ------------------------------------------------------------


class Evaluator:
    """Evaluates a syntax tree over one ring.

    Sums and products are n-ary.  A sum folds its numbers and polynomials
    left to right into one term map, lifting it to the joined layer as
    terms of a higher layer arrive; a sum that starts with delta forms,
    or with a zero number, folds them into one polyvector term map,
    wrapped once as a :class:`DeltaForm`.  At the first term of another
    kind (a density, an operator, a tagged value, or a delta form beside
    a polynomial or a nonzero number) it hands the value so far and the
    remaining terms to :meth:`add`, one at a time.  A product of numbers, integer
    quotients, generator names and their powers is one coefficient and
    one :meth:`GeneratorTable.monomial` key, the codec giving the sign of
    reordering its odd letters.  A product with a del factor is one delta
    term (:meth:`_delta_term`); every other product folds its factors
    left to right through :meth:`mul` and :meth:`div`.  Values and
    refusals are those of the binary fold.
    """

    def __init__(self, ring: Ring):
        self.ring = ring

    def run(self, node):
        return self._finish(self.eval(node))

    def _finish(self, value):
        if isinstance(value, Marked):
            return Marked(self._finish(value.value), value.markers)
        if isinstance(value, BerPending):
            return IntegralForm(self.ring.chart, value.poly)
        return value

    def eval(self, node):
        head = node[0]
        if head == "int":
            return Fraction(node[1])
        if head == "name":
            return self.name(node[1], node[2])
        if head == "sum":
            return self.sum(node[1])
        if head == "product":
            return self.product(node)
        if head == "neg":
            return self.neg(self.eval(node[1]))
        if head == "pow":
            return self.pow(node[1], node[2], node[3])
        if head == "at":
            return self.at(node[1], node[2], node[3])
        if head == "call":
            return self.call(node)
        if head == "value":
            return node[1]
        raise AssertionError(head)

    def name(self, text: str, tok: int):
        ring = self.ring
        letter = ring.letters.get(text)
        if letter is not None:
            return Poly(SuperPoly.generator(_table(ring, letter[0]), text),
                        letter[0])
        if text == "Ber":
            return BerPending(SuperPoly.one(ring.ptab))
        if text.startswith(DERIV_PREFIX):
            coord = text[len(DERIV_PREFIX):]
            if ring.letters.get(coord, (None,))[0] == BASE:
                return DiffOp.partial(ring.chart.table, coord)
        raise _Refusal(f"unknown generator {text!r}", tok)

    def _monomial(self, node, layer: str | None):
        """``node`` as (layer, coefficient, key) when it is a product of
        numbers, integer quotients, generator names and their powers, else
        None.  The key is encoded over the join of ``layer`` (None for a
        number) and the node's letters; a number keeps ``layer``, key 0."""
        factors = node[1] if node[0] == "product" else ((node, None),)
        letters = self.ring.letters
        num = den = 1
        pairs = []
        form = layer == FORM
        for f, slash in factors:
            head = f[0]
            while head == "neg":
                num = -num
                f = f[1]
                head = f[0]
            k = 1
            if head == "pow":
                f, k = f[1], f[2]
                head = f[0]
            if head == "int":
                v = f[1].numerator ** k
                if slash is None:
                    num *= v
                elif v:
                    den *= v
                else:
                    return None     # the full path refuses the division
            elif head == "name" and slash is None:
                letter = letters.get(f[1])
                if letter is None:
                    return None
                if k:
                    pairs.append((letter, k))
                    if letter[0] == FORM:
                        form = True
            else:
                return None
        c = num if den == 1 else Fraction(num, den)
        if not pairs:
            return layer, c, 0
        # names are base or form letters, so no fold reaches the polyvector layer
        if form:
            layer, slot, table = FORM, 2, self.ring.ftab
        else:
            layer, slot, table = BASE, 1, self.ring.chart.table
        try:
            sign, key = table.monomial([(lt[slot], k) for lt, k in pairs])
        except OverflowError:
            return None     # the full path raises its own message
        if not sign:
            return layer, 0, 0      # an odd letter occurs twice
        return layer, -c if sign < 0 else c, key

    def _settled(self, layer: str | None, terms: dict):
        """The value of a folded term map: a number, a polynomial or a
        delta form."""
        if layer is None:
            return Fraction(terms.get(0, 0))
        poly = SuperPoly(_table(self.ring, layer), terms)
        return DeltaForm._of(self.ring.chart, poly) if layer == DELTA \
            else Poly(poly, layer)

    def sum(self, terms: list):
        ring = self.ring
        layer, acc = None, {}
        for i, (node, negated) in enumerate(terms):
            mono = self._monomial(node, layer) if layer != DELTA else None
            if mono is not None:
                joined, c, key = mono
                pieces = {key: -c if negated else c} if c else {}
            else:
                # a product's monomial reading, if any, was tried above
                value = self._runs(node) if node[0] == "product" \
                    else self.eval(node)
                if negated:
                    value = self.neg(value)
                delta = layer == DELTA
                if isinstance(value, DeltaForm) and (
                        delta or layer is None and not acc):
                    # a delta form adds to delta forms or to a zero number
                    joined, pieces = DELTA, value.poly.terms
                elif isinstance(value, Fraction) and not delta:
                    joined, pieces = layer, {0: value} if value else {}
                elif isinstance(value, Poly) and not delta:
                    joined = value.layer if layer is None else \
                        _join_layers(layer, value.layer)
                    pieces = _lift(ring, value, joined).terms
                else:
                    out = value if i == 0 else self.add(
                        self._settled(layer, acc), value)
                    for node, negated in terms[i + 1:]:
                        value = self.eval(node)
                        out = self.add(out, self.neg(value) if negated else value)
                    return out
            if joined != layer and layer is not None and acc:
                acc = transport(SuperPoly._of(_table(ring, layer), acc),
                                _table(ring, joined)).terms
            layer = joined
            if acc.keys().isdisjoint(pieces):
                acc.update(pieces)  # no zero terms: pieces are canonical
                continue
            for key, c in pieces.items():
                old = acc.get(key)
                if old is None:
                    acc[key] = c
                else:
                    c = old + c
                    if c:
                        acc[key] = c
                    else:
                        del acc[key]    # as the binary fold drops it
        return self._settled(layer, acc)

    def call(self, node):
        _, fname, args, tok = node
        if fname == "del":
            raise _Refusal(
                "a delta factor must multiply the rest of its term", tok)
        if fname == "dirac":
            if len(args) != 2:
                raise _Refusal("dirac takes a coordinate and a point", tok)
            name = _marker_name(args[0], tok)
            point = self.eval(args[1])
            if not isinstance(point, Fraction):
                raise _Refusal("dirac points must be rational numbers", tok)
            return Markers.of(dirac={name: point})
        names = [_marker_name(a, tok) for a in args]
        if fname == "gauss":
            if len(set(names)) < len(names):    # exp(-z^2) twice is no tag's weight
                raise _Refusal("each even coordinate takes at most one marker", tok)
            return Markers.of(gaussian=names)
        return Markers.of(formal=names)

    def neg(self, value):
        if isinstance(value, Fraction):
            return -value
        if isinstance(value, Poly):
            return Poly(-value.poly, value.layer)
        if isinstance(value, PolyElement):
            return -value
        if isinstance(value, BerPending):
            return BerPending(-value.poly)
        if isinstance(value, Marked):
            return Marked(self.neg(value.value), value.markers)
        raise ExpressionError(f"cannot negate {_describe(value)}")

    def add(self, a, b):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b
        ring = self.ring
        if isinstance(a, DeltaForm) or isinstance(b, DeltaForm):
            return self._sum_of(DeltaForm.zero(ring.chart), a, b)
        if isinstance(a, (IntegralForm, BerPending)) or \
                isinstance(b, (IntegralForm, BerPending)):
            return self._sum_of(
                IntegralForm(ring.chart, SuperPoly.zero(ring.ptab)), a, b)
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            return self._as_op(a) + self._as_op(b)
        if isinstance(a, (Fraction, Poly)) and isinstance(b, (Fraction, Poly)):
            layer = _join_layers(a.layer if isinstance(a, Poly) else BASE,
                                 b.layer if isinstance(b, Poly) else BASE)
            return Poly(want(ring, a, layer) + want(ring, b, layer), layer)
        raise ExpressionError(
            f"cannot add {_describe(a)} and {_describe(b)}")

    def _sum_of(self, zero, a, b):
        """a + b, each a value of the kind of ``zero`` or a zero number."""
        out = zero
        for v in (a, b):
            v = self._finish(v)
            if isinstance(v, type(zero)):
                out = out + v
            elif not (isinstance(v, Fraction) and v == 0):
                raise ExpressionError(
                    f"cannot add {_describe(zero)} and {_describe(v)}")
        return out

    def _as_op(self, value) -> DiffOp:
        if isinstance(value, DiffOp):
            return value
        if isinstance(value, (Fraction, Poly)):
            return DiffOp.multiplication(want(self.ring, value, BASE))
        raise ExpressionError(
            f"cannot use {_describe(value)} in an operator expression")

    def product(self, node):
        mono = self._monomial(node, None)
        if mono is not None:
            layer, c, key = mono
            if layer is None:
                return Fraction(c)
            return Poly(SuperPoly(_table(self.ring, layer), {key: c}), layer)
        return self._runs(node)

    def _runs(self, node):
        """A product node folded factor by factor, in runs between its '/'
        divisors."""
        value, run = _NOTHING, []
        for f, slash in node[1]:
            if slash is None:
                run.append(f)
            else:
                value = self.div(self._run(value, run), self.eval(f), slash)
                run = []
        return self._run(value, run)

    def _run(self, value, run: list):
        """``value`` times the factors of ``run``, which no '/' separates,
        left to right; a run with a delta factor is one delta term.  The
        first factor is ``value`` unless that is _NOTHING."""
        if value is not _NOTHING:
            run = [("value", value), *run]
        if len(run) > 1 and any(map(_is_delta_letter, run)):
            return self._delta_term(run)
        value = self.eval(run[0])
        for f in run[1:]:
            value = self.mul(value, self.eval(f))
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
        if isinstance(b, BerPending):
            if isinstance(a, Fraction):
                return BerPending(b.poly.scale(a))
            raise ExpressionError(
                "write densities with Ber leftmost: Ber * coefficient")
        if isinstance(a, BerPending):
            return BerPending(a.poly * want(ring, b, PV))
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        if isinstance(a, Fraction):
            return self._scale(b, a)
        if isinstance(b, Fraction):
            return self._scale(a, b)
        if isinstance(a, DiffOp) or isinstance(b, DiffOp):
            if isinstance(a, DiffOp) and isinstance(b, DiffOp):
                return a.compose(b)
            if isinstance(a, Poly):
                return self._as_op(b).left_multiply(want(ring, a, BASE))
            return a.compose(self._as_op(b))
        if isinstance(a, DeltaForm) and isinstance(b, DeltaForm):
            raise ExpressionError(
                "the product of two full delta forms vanishes identically; "
                "build one term with all its delta factors instead")
        if isinstance(a, DeltaForm):
            return delta_times_poly(a, want(ring, b, BASE))
        if isinstance(b, DeltaForm):
            if isinstance(a, Poly) and a.layer == FORM:
                return form_times_delta(a.poly, b)
            return b.times(want(ring, a, BASE))
        if isinstance(a, Poly) and isinstance(b, Poly):
            layer = _join_layers(a.layer, b.layer)
            return Poly(_lift(ring, a, layer) * _lift(ring, b, layer), layer)
        raise ExpressionError(
            f"cannot multiply {_describe(a)} and {_describe(b)}")

    def _scale(self, value, c: Fraction):
        if isinstance(value, Poly):
            return Poly(value.poly.scale(c), value.layer)
        if isinstance(value, (DiffOp, DeltaForm)):
            return value.scale(c)
        raise ExpressionError(f"cannot scale {_describe(value)}")

    def div(self, a, b, tok: int):
        if isinstance(b, Fraction):
            if b == 0:
                raise _Refusal("division by zero", tok)
            return self.mul(a, 1 / b)
        if isinstance(b, Poly):
            layer = b.layer
            try:
                inv = absorb_even_exponents(b.poly).inverse()
            except (ValueError, ZeroDivisionError) as exc:
                raise _Refusal(f"cannot divide: {exc}", tok)
            if isinstance(a, Poly):
                # absorbed on both sides, the quotient collects into one
                # coefficient per monomial
                a = Poly(absorb_even_exponents(a.poly), a.layer)
            return self.mul(a, Poly(inv, layer))
        raise _Refusal(f"cannot divide by {_describe(b)}", tok)

    def pow(self, base_node, k: int, tok: int):
        if _is_delta_letter(base_node):
            raise _Refusal("raise delta factors inside their own term", tok)
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
        raise _Refusal(f"cannot raise {_describe(value)} to a power", tok)

    def at(self, lhs_node, rhs_node, tok: int):
        lhs = self.eval(lhs_node)
        if not isinstance(lhs, BerPending):
            raise _Refusal(
                "'@' attaches a coefficient to Ber; the left side must be "
                "Ber or Ber * f", tok)
        rhs = self.eval(rhs_node)
        markers = Markers.none()
        if isinstance(rhs, Marked):
            rhs, markers = rhs.value, rhs.markers
        poly = lhs.poly * want(self.ring, rhs, PV)
        form = IntegralForm(self.ring.chart, poly)
        return Marked(form, markers) if markers else form

    # -- delta terms --------------------------------------------------------

    def _delta_term(self, factors: list):
        """One product containing delta factors, in the written order.

        The del(...) factors and the bare dx letters make the term's word
        of odd fiber letters, which :meth:`DeltaForm.from_factors` reads
        in any order.  Every other factor first moves left past the
        letters written before it, its odd part changing sign at each, and
        then acts from the left, innermost first: a function as a
        coefficient, a form through :func:`form_times_delta`.
        """
        ring = self.ring
        names, parities = ring.letters, ring.ftab.parities
        letters: list = []
        actions: list = []
        for node in factors:
            head = node[0]
            if head == "name":
                layer, pos, _ = names.get(node[1], (None, 0, 0))
                if layer == FORM and parities[pos]:
                    letters.append(node[1])     # a dx letter
                    continue
            elif head == "call" or head == "pow":
                letter = self._delta_letter(node)
                if letter is _ZERO_LETTER:
                    return DeltaForm.zero(ring.chart)
                if letter is not None:
                    letters.append(letter)
                    continue
            value = self.eval(node)
            if isinstance(value, Poly) and value.layer != PV:
                is_form, poly = value.layer == FORM, value.poly
            else:
                is_form, poly = False, want(ring, value, BASE)
            if len(letters) % 2:
                even, odd = poly.homogeneous_parts()
                poly = even - odd
            if actions and actions[-1][0] == is_form:
                # neighbours of one kind act as their product
                actions[-1] = (is_form, actions[-1][1] * poly)
            else:
                actions.append((is_form, poly))
        # a function next to the deltas is the coefficient of their term
        inner = actions.pop()[1] if actions and not actions[-1][0] else 1
        out = DeltaForm.from_factors(ring.chart, inner, letters)
        for is_form, poly in reversed(actions):
            out = form_times_delta(poly, out) if is_form else out.times(poly)
        return out

    def _delta_letter(self, node):
        """A del(...) factor or a power of one, else None."""
        if node[0] == "pow":
            inner = self._delta_letter(node[1])
            if inner is None:
                return None
            k = node[2]
            if k == 0:
                raise _Refusal(
                    "a delta factor to the power zero drops its slot; "
                    "remove it or give every odd fiber direction a factor",
                    node[3])
            return inner if k == 1 else _ZERO_LETTER
        if node[0] != "call" or node[1] != "del":
            return None
        _, _, args, tok = node
        if not 1 <= len(args) <= 2:
            raise _Refusal("del takes a fiber letter and an optional order",
                           tok)
        name = _marker_name(args[0], tok)
        # the fiber letters of the odd coordinates are the even form letters
        ring = self.ring
        letter = ring.letters.get(name)
        if letter is None or letter[0] != FORM or ring.ftab.parities[letter[1]]:
            raise _Refusal(
                f"del expects an odd fiber letter such as dth1, got {name!r}",
                tok)
        order = 0
        if len(args) == 2:
            if args[1][0] == "int":
                order = int(args[1][1])     # digits: a nonnegative integer
            else:
                val = self.eval(args[1])
                if not isinstance(val, Fraction) or val.denominator != 1 \
                        or val < 0:
                    raise _Refusal("delta orders are nonnegative integers", tok)
                order = int(val)
        return (name, order)


_ZERO_LETTER = object()
_NOTHING = object()


def _is_delta_letter(node) -> bool:
    if node[0] == "pow":
        return _is_delta_letter(node[1])
    return node[0] == "call" and node[1] == "del"


def _marker_name(node, tok: int) -> str:
    if node[0] != "name":
        raise _Refusal("expected a coordinate or fiber letter here", tok)
    return node[1]


def parse_value(text: str, ring: Ring, origin: tuple = (None, 1, 1)):
    """Parse one expression; the value plus any marker tags it carried.

    ``origin`` is (source, line, column): what a refusal calls the place
    the text came from, None for nothing, and where the text's first
    character stands there.  A refusal at a token names its line and
    column counted from that character."""
    try:
        value = Evaluator(ring).run(_Parser(text).parse())
    except _Refusal as exc:
        source, line, column = origin
        message = exc.message if source is None else f"{source}: {exc.message}"
        raise ExpressionError(message,
                              *_locate(text, exc.at, line, column)) from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    if isinstance(value, Marked):
        return value.value, value.markers
    if isinstance(value, Markers):
        raise ExpressionError("marker tags need an expression to weight")
    return value, Markers.none()


# --- printers --------------------------------------------------------------


def render(value) -> str:
    """Text that :func:`parse_value` reads back as ``value``."""
    if isinstance(value, Poly):
        return str(value.poly)
    if isinstance(value, Marked):
        # tags weight the product they close, so the value goes in
        # parentheses: a density's coefficient, anything else whole
        inner = value.value
        text = (f"Ber @ ({inner.poly})" if isinstance(inner, IntegralForm)
                else f"({render(inner)})")
        return f"{text} {value.markers}"
    return str(value)


def matrix_json(m: SuperMatrix) -> dict:
    """The JSON object :func:`read_matrix_file` reads back as ``m``."""
    return {"format": MATRIX_FORMAT, "p": m.p, "q": m.q,
            "rows": [[str(e) for e in row] for row in m.rows()]}


# --- files -----------------------------------------------------------------
#
# The readers' own refusals name the file.  A refusal at a token names its
# line and column in the file and then the file; in a matrix, lines and
# columns count within the entry, which the refusal names after the file.


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc))


def read_expression_file(path: str, ring: Ring):
    """An expression file: comment lines start with '#', the rest is
    one expression (line breaks allowed).  Comment lines read as blank
    ones, so a refusal names its line in the file."""
    lines = ["" if line.lstrip().startswith("#") else line
             for line in _read_text(path).splitlines()]
    if not any(line.strip() for line in lines):
        raise ValueError(f"{path}: no expression found")
    return parse_value("\n".join(lines), ring, (path, 1, 1))


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
        # the right side starts just after the line's first '='
        value, markers = parse_value(rhs, ring,
                                     (path, lineno, raw.index("=") + 2))
        if markers:
            raise ExpressionError(f"{path}: marker tags do not belong in a "
                                  "coordinate change", lineno, 1)
        images[name] = want(ring, value, BASE)
    missing = [n for n in ring.chart.coordinate_names if n not in images]
    if missing:
        raise ValueError(f"{path}: no image given for {', '.join(missing)}")
    try:
        return CoordinateMap(ring.chart, ring.chart, images)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_matrix_file(path: str, ring: Ring) -> SuperMatrix:
    """A supermatrix as JSON: ``p``, ``q`` and ``rows`` of expressions.

    Each entry is read in absorbed form, its even powers moved into
    rational-function coefficients as a coordinate change keeps its
    images, so an entry such as ``1 + x1`` in D stays invertible and a
    printed Jacobian reads back as the matrix it was."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object with fields 'p', "
                         f"'q' and 'rows'")
    for key in ("p", "q", "rows"):
        if key not in data:
            raise ValueError(f"{path}: missing field {key!r}")
    for key in ("p", "q"):
        if type(data[key]) is not int or data[key] < 0:
            raise ValueError(f"{path}: field {key!r} must be a non-negative "
                             f"integer, got {json.dumps(data[key])}")
    p, q = data["p"], data["q"]
    rows_text = data["rows"]
    if type(rows_text) is not list or any(type(r) is not list
                                          for r in rows_text):
        raise ValueError(f"{path}: field 'rows' must be a list of lists")
    if len(rows_text) != p + q or any(len(r) != p + q for r in rows_text):
        raise ValueError(
            f"{path}: rows must form a square of side p+q = {p + q}")
    rows = []
    for i, r in enumerate(rows_text, start=1):
        row = []
        for j, entry in enumerate(r, start=1):
            # a refusal's line and column count within the entry
            value, markers = parse_value(str(entry), ring,
                                         (f"{path}: entry ({i}, {j})", 1, 1))
            if markers:
                raise ValueError(
                    f"{path}: marker tags do not belong in a matrix")
            row.append(absorb_even_exponents(want(ring, value, BASE)))
        rows.append(row)
    try:
        return SuperMatrix.from_rows(ring.chart.table, p, q, rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
