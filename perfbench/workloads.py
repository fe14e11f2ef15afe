"""The four benchmark workloads: seeded inputs and the identity checks.

Every check compares against an answer the code under test does not
produce itself: the other side of an identity, a determinant computed
here in plain Fractions, the known Koszul ranks, or (for the command
line) the library's own result for the same input, worked out during
set-up so that a timed cli check runs only the command line.  Each
library call a check makes goes through ``Tracer.call`` so that the
traced run can time it by layer; the untraced run makes exactly the same
calls.  Only the traced linalg run also wraps the steps inside
``KoszulAlgebra.homology_ranks``, to time them apart.

A workload is a ``Batch``: a list of timed checks that a timed run passes
over again and again, at least ``passes`` times and until its time is up,
then untimed checks that it makes once.  Every pass checks the same
inputs; worker.py says how the times of the passes are combined.
"""

from __future__ import annotations

import math
import operator
import random
import re
from fractions import Fraction
from itertools import permutations
from typing import Callable, NamedTuple

from supercalc.algebra import GeneratorTable, RationalFunction, SuperPoly, transport
from supercalc.charts import Chart, compose_maps, conic_transition
from supercalc.derham import d, degree_parts, fiber_name, form_table, homotopy_h
from supercalc.diffops import DiffOp
from supercalc.integral_forms import (
    BerSection,
    IntegralForm,
    cohomology_projection,
    homotopy_int,
    polyvector_name,
    polyvector_table,
    right_action,
    spencer_delta,
)
from supercalc.integration import berezin_integral
from supercalc import koszul as koszul_module
from supercalc.koszul import KoszulAlgebra
from supercalc.pseudoforms import (
    CWOperator,
    DeltaForm,
    cw_apply,
    from_integral_form,
    to_integral_form,
)
from supercalc.randoms import (
    random_invertible_fraction_matrix,
    random_invertible_supermatrix,
    random_split_map,
    random_superpoly,
)
from supercalc.supermatrix import SuperMatrix, berezinian, det_even

from tracer import Tracer


class Refused(Exception):
    """The code under test gave no answer: a non-zero exit or an output
    that does not parse back.  Counted as failed, not as a wrong answer."""


class Check(NamedTuple):
    label: str  # the identity, for the failure report
    layer: str  # module the identity is about, for <module>.errors
    text: str  # the input as text, for replay
    run: Callable[[Tracer], bool]
    # A regular expression for the way this check is known to be refused
    # at the commit this benchmark was made at; such a failure counts as
    # failed but leaves the run correct.  Empty: every failure is a fault.
    known: str = ""


class Batch(NamedTuple):
    checks: list[Check]  # timed
    passes: int  # a timed run makes at least this many passes
    traced: int  # the traced run makes one pass over this many checks
    untimed: tuple[Check, ...] = ()  # checked once per run, never timed


# --- helpers shared by the checks ------------------------------------------


def _note_poly(T: Tracer, poly: SuperPoly) -> SuperPoly:
    """Record the largest rational-function denominator in a result."""
    if T.on:
        for c in poly.terms.values():
            if isinstance(c, RationalFunction):
                T.maximum("algebra.rf_den_terms", len(c.den.terms))
    return poly


def _mul(T: Tracer, a, b):
    out = T.call("algebra.mul", operator.mul, a, b)
    if T.on:
        T.count("algebra.mul_terms_out", len(out.terms))
    return _note_poly(T, out)


def _eq(T: Tracer, a, b) -> bool:
    return T.call("algebra.eq", operator.eq, a, b)


def _add(T: Tracer, module: str, a, b):
    return T.call(module + ".add", operator.add, a, b)


def _sub(T: Tracer, module: str, a, b):
    return T.call(module + ".sub", operator.sub, a, b)


def _ber(T: Tracer, m: SuperMatrix) -> SuperPoly:
    out = T.call(f"supermatrix.berezinian.n{max(m.p, m.q)}", berezinian, m)
    # Computed, not measured: the Leibniz expansion behind det(A - B D^-1 C)
    # and det(D) has p! and q! terms.
    T.count("supermatrix.leibniz_terms",
            math.factorial(m.p) + math.factorial(m.q))
    return _note_poly(T, out)


def _det_even(T: Tracer, rows, table: GeneratorTable) -> SuperPoly:
    out = T.call("supermatrix.det_even", det_even, rows, table)
    T.count("supermatrix.leibniz_terms", math.factorial(len(rows)))
    return out


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Leibniz determinant in plain Fractions: the benchmark's own oracle."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = -1 if sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n)) % 2 else 1
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _nonzero(make):
    while True:
        value = make()
        if not value.is_zero():
            return value


# --- cocycle ---------------------------------------------------------------

# The denominator swell of chain-rule checks on R^{2|2} is heavy tailed:
# of the first 60 pairs drawn for `supercalc verify cocycle --seed 1`, half
# take under 0.03 s, one takes 2.3 s and one 80 s.  A seeded sample of such
# pairs would make each run's numbers depend on its seed, so the timed 2|2
# pairs are a fixed reference set: the first 16 pairs of that stream, whose
# slowest pair takes 2-4 s.  The seed picks further pairs on R^{2|1} and
# R^{1|2}; their cost also varies from seed to seed by a quarter, so they
# are checked once per run and not timed.
COCYCLE_REFERENCE_SEED = 1
COCYCLE_REFERENCE_PAIRS = 16
COCYCLE_SEEDED_PAIRS = 16  # per shape
COCYCLE_PASSES = 5


def _charts(p: int, q: int) -> tuple[Chart, Chart, Chart]:
    def chart(even, odd, label):
        return Chart([f"{even}{i}" for i in range(1, p + 1)],
                     [f"{odd}{i}" for i in range(1, q + 1)], label=label)
    return chart("u", "et", "U"), chart("v", "ps", "V"), chart("w", "ch", "W")


def _ber_jacobian(T: Tracer, m) -> SuperPoly:
    return _ber(T, T.call("charts.jacobian", m.jacobian))


def _pullback(T: Tracer, m, f: SuperPoly) -> SuperPoly:
    return _note_poly(T, T.call("charts.pullback", m.pullback, f))


def _chain_rule(m1, m2):
    """Ber J(m2 o m1) == m1^*(Ber J(m2)) * Ber J(m1), as cocycle_check."""
    def run(T):
        composite = T.call("charts.compose", compose_maps, m1, m2)
        lhs = _ber_jacobian(T, composite)
        rhs = _mul(T, _pullback(T, m1, _ber_jacobian(T, m2)),
                   _ber_jacobian(T, m1))
        return _eq(T, lhs, rhs)
    return run


def _map_text(m) -> str:
    return "; ".join(f"{n} = {m.images[n]}" for n in m.target.coordinate_names)


def _pair_checks(T: Tracer, rng: random.Random, p: int, q: int, count: int,
                 tag: str) -> list[Check]:
    """Chain rule on pairs U -> V -> W drawn as `verify cocycle` draws them."""
    u, v, w = _charts(p, q)
    out = []
    for _ in range(count):
        m1 = T.call("randoms.generate", random_split_map, rng, u, v)
        m2 = T.call("randoms.generate", random_split_map, rng, v, w)
        out.append(Check(f"chain rule on R^{{{p}|{q}}} ({tag})", "charts",
                         f"m1: {_map_text(m1)} | m2: {_map_text(m2)}",
                         _chain_rule(m1, m2)))
    return out


def _conic_checks() -> list[Check]:
    m = conic_transition()
    back = conic_transition(z="w", w="z", source_odds=("psi1", "psi2"),
                            target_odds=("th1", "th2"))
    one = SuperPoly.one(m.source.table)

    def round_trip(T):
        composite = T.call("charts.compose", compose_maps, m, back)
        return _eq(T, _ber_jacobian(T, composite), one)

    def inverse(T):
        # Ber J(back), pulled back along m, is the inverse of Ber J(m).
        ber_m = _ber_jacobian(T, m)
        inv = _note_poly(T, T.call("algebra.inverse", ber_m.inverse))
        return _eq(T, _pullback(T, m, _ber_jacobian(T, back)), inv)

    text = f"m: {_map_text(m)} | back: {_map_text(back)}"
    return [Check("conic transition chain rule", "charts", text,
                  _chain_rule(m, back)),
            Check("conic round trip has Berezinian 1", "charts", text,
                  round_trip),
            Check("conic Berezinian pulls back to its inverse", "algebra",
                  text, inverse)]


def build_cocycle(seed: int, T: Tracer) -> Batch:
    reference = _pair_checks(T, random.Random(COCYCLE_REFERENCE_SEED), 2, 2,
                             COCYCLE_REFERENCE_PAIRS, "reference")
    rng = random.Random(seed)
    tag = f"seed {seed}"
    seeded = (_pair_checks(T, rng, 2, 1, COCYCLE_SEEDED_PAIRS, tag)
              + _pair_checks(T, rng, 1, 2, COCYCLE_SEEDED_PAIRS, tag))
    timed = _conic_checks() + reference
    return Batch(timed, COCYCLE_PASSES, len(timed), tuple(seeded))


# --- linalg ----------------------------------------------------------------

KOSZUL_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))
KOSZUL_CUTOFF = 6
LINALG_SIZES = (1, 2, 3, 4, 5, 6)  # n|n for Ber(MN) = Ber(M) Ber(N)
BLOCK_SIZES = (1, 2, 3, 4, 5)  # n|n for the block-diagonal oracle
LINALG_PASSES = 2


def _koszul_check(p: int, q: int, which: str, degree: int) -> Check:
    """Homology at one degree from KoszulAlgebra.homology_ranks.  Known
    answer: the Koszul complex is acyclic below degree 0 with rank one at
    0; the dual has rank one in degree p and nothing else."""
    want = int(degree == 0) if which == "koszul" else int(degree == p)

    def run(T):
        algebra = KoszulAlgebra(p, q)
        ranks = T.call("koszul.homology_ranks", algebra.homology_ranks,
                       which, degree, KOSZUL_CUTOFF)
        return ranks.homology_dim == want

    return Check(f"{which} homology rank {want} at degree {degree} on "
                 f"{p}|{q}", "koszul",
                 f"supercalc koszul --p {p} --q {q} --which {which} "
                 f"--degree {degree} --cutoff {KOSZUL_CUTOFF}", run)


def _trace_koszul_steps(T: Tracer) -> None:
    """Traced run only: put spans and counts around the two steps that
    homology_ranks takes for each bidegree, building a differential matrix
    and ranking it, by wrapping them where homology_ranks looks them up.
    Should homology_ranks stop using them, their figures read 0 and the
    whole call stays timed under koszul.homology_ranks."""
    build = KoszulAlgebra.differential_matrix
    rank = koszul_module.exact_rank

    def differential_matrix(self, *args):
        matrix = T.call("koszul.matrix", build, self, *args)
        T.count("koszul.matrix_cells",
                len(matrix) * len(matrix[0]) if matrix else 0)
        T.count("koszul.matrix_nnz", sum(1 for row in matrix for x in row if x))
        return matrix

    KoszulAlgebra.differential_matrix = differential_matrix
    koszul_module.exact_rank = lambda matrix: T.call("koszul.rank", rank, matrix)


def _multiplicative(m: SuperMatrix, n: SuperMatrix):
    def run(T):
        product = T.call("supermatrix.mul", operator.mul, m, n)
        return _eq(T, _ber(T, product), _mul(T, _ber(T, m), _ber(T, n)))
    return run


def _block_diagonal(table: GeneratorTable, a_rows, d_rows):
    """det_even(A) and Ber(blockdiag(A, D)) against Fraction Leibniz."""
    det_a, det_d = fraction_det(a_rows), fraction_det(d_rows)
    A = [[SuperPoly.constant(table, e) for e in r] for r in a_rows]
    D = [[SuperPoly.constant(table, e) for e in r] for r in d_rows]
    m = SuperMatrix.block_diagonal(table, A, D)

    def run(T):
        ok_det = _eq(T, _det_even(T, A, table), SuperPoly.constant(table, det_a))
        return ok_det and _eq(T, _ber(T, m),
                              SuperPoly.constant(table, det_a / det_d))
    return run


def _rows_text(rows) -> str:
    return "[" + "; ".join(", ".join(str(e) for e in r) for r in rows) + "]"


def build_linalg(seed: int, T: Tracer) -> Batch:
    if T.on:
        _trace_koszul_steps(T)
    checks = []
    for p, q in KOSZUL_SHAPES:
        for degree in (0, -1, -2, -3, -4):
            checks.append(_koszul_check(p, q, "koszul", degree))
        for degree in range(0, p + 2):
            checks.append(_koszul_check(p, q, "dual", degree))
    rng = random.Random(seed)
    table = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])
    for n in LINALG_SIZES:
        m = T.call("randoms.generate", random_invertible_supermatrix,
                   rng, table, n, n)
        k = T.call("randoms.generate", random_invertible_supermatrix,
                   rng, table, n, n)
        checks.append(Check(
            f"Ber(MN) = Ber(M) Ber(N) at {n}|{n}", "supermatrix",
            f"M = {_rows_text(m.rows())}  N = {_rows_text(k.rows())}",
            _multiplicative(m, k)))
    for n in BLOCK_SIZES:
        a_rows = T.call("randoms.generate", random_invertible_fraction_matrix,
                        rng, n)
        d_rows = T.call("randoms.generate", random_invertible_fraction_matrix,
                        rng, n)
        checks.append(Check(
            f"block diagonal {n}|{n}: det_even(A) and Ber = detA/detD",
            "supermatrix", f"A = {_rows_text(a_rows)}  D = {_rows_text(d_rows)}",
            _block_diagonal(table, a_rows, d_rows)))
    return Batch(checks, LINALG_PASSES, len(checks))


# --- forms -----------------------------------------------------------------

FORMS_ROUNDS = 500
FORMS_TRACE_ROUNDS = 250
FORMS_PASSES = 2


class _Space(NamedTuple):
    chart: Chart
    ftab: GeneratorTable
    ptab: GeneratorTable


def _space(p: int, q: int) -> _Space:
    chart = Chart([f"x{i}" for i in range(1, p + 1)],
                  [f"th{a}" for a in range(1, q + 1)], label=f"R{p}|{q}")
    return _Space(chart, form_table(chart.table), polyvector_table(chart))


def _gen(T: Tracer, fn, *args, **kwargs):
    return T.call("randoms.generate", fn, *args, **kwargs)


def _form_of_degree(T, rng, sp: _Space, degree: int, terms: int = 2):
    """A nonzero form of pure fiber degree, built as a base polynomial
    times fiber letters."""
    letters = [fiber_name(n) for n in sp.chart.coordinate_names]
    while True:
        omega = SuperPoly.zero(sp.ftab)
        for _ in range(terms):
            f = transport(_gen(T, random_superpoly, rng, sp.chart.table,
                               terms=2, max_exp=2), sp.ftab)
            for _k in range(degree):
                f = f * SuperPoly.generator(sp.ftab, rng.choice(letters))
            omega = omega + f
        if not omega.is_zero() and set(degree_parts(omega)) == {degree}:
            return omega


def _density(T, rng, sp: _Space, letters: int, terms: int = 2) -> IntegralForm:
    """A nonzero density: a base polynomial times polyvector letters."""
    names = [polyvector_name(n) for n in sp.chart.coordinate_names]
    while True:
        poly = SuperPoly.zero(sp.ptab)
        for _ in range(terms):
            f = transport(_gen(T, random_superpoly, rng, sp.chart.table,
                               terms=2, max_exp=2), sp.ptab)
            for _k in range(letters):
                f = f * SuperPoly.generator(sp.ptab, rng.choice(names))
            poly = poly + f
        if not poly.is_zero():
            return IntegralForm(sp.chart, poly)


def _delta_form(T, rng, sp: _Space, terms: int = 2) -> DeltaForm:
    chart = sp.chart
    while True:
        out = DeltaForm.zero(chart)
        for _ in range(terms):
            eps = tuple(rng.randint(0, 1) for _ in range(chart.p))
            ells = tuple(rng.choice((0, 0, 1, 2)) for _ in range(chart.q))
            coeff = _gen(T, random_superpoly, rng, chart.table, terms=2,
                         max_exp=1)
            out = out + DeltaForm(chart, {(eps, ells): coeff})
        if not out.is_zero():
            return out


def _diffop(T, rng, table: GeneratorTable) -> DiffOp:
    out = DiffOp.zero(table)
    for _ in range(rng.randint(1, 2)):
        w = DiffOp.multiplication(_gen(T, random_superpoly, rng, table,
                                       terms=2, max_exp=1))
        for _k in range(rng.randint(0, 2)):
            w = w.compose(DiffOp.partial(table, rng.choice(table.names)))
        out = out + w
    return out


def _d(T, omega):
    return T.call("derham.d", d, omega)


def _h(T, omega):
    return T.call("derham.homotopy_h", homotopy_h, omega)


def _spencer(T, u):
    return T.call("integral_forms.spencer_delta", spencer_delta, u)


def _hint(T, u):
    return T.call("integral_forms.homotopy_int", homotopy_int, u)


def _act(T, s, op):
    return T.call("integral_forms.right_action", right_action, s, op)


def _cw(T, word, w):
    return T.call("pseudoforms.cw_apply", cw_apply, word, w)


def _forms_round(T: Tracer, rng: random.Random, sp: _Space,
                 index: int) -> list[Check]:
    chart, ftab = sp.chart, sp.ftab
    checks = []

    omega = _nonzero(lambda: _gen(T, random_superpoly, rng, ftab,
                                  parity=rng.randint(0, 1), terms=3, max_exp=2))
    checks.append(Check("d d = 0", "derham", str(omega),
                        lambda T, w=omega: _d(T, _d(T, w)).is_zero()))

    a_par, b_par = rng.randint(0, 1), rng.randint(0, 1)
    a = _nonzero(lambda: _gen(T, random_superpoly, rng, ftab, parity=a_par,
                              terms=2, max_exp=2))
    b = _nonzero(lambda: _gen(T, random_superpoly, rng, ftab, parity=b_par,
                              terms=2, max_exp=2))

    def leibniz(T, a=a, b=b, sign=a_par):
        lhs = _d(T, _mul(T, a, b))
        right = _mul(T, a, _d(T, b))
        if sign:
            right = -right
        rhs = _add(T, "algebra", _mul(T, _d(T, a), b), right)
        return _eq(T, lhs, rhs)
    checks.append(Check("graded Leibniz rule for d", "derham",
                        f"a = {a}  b = {b}", leibniz))

    degree = index % 3 + 1
    omega = _form_of_degree(T, rng, sp, degree)

    def form_homotopy(T, w=omega):
        total = _add(T, "algebra", _h(T, _d(T, w)), _d(T, _h(T, w)))
        return _eq(T, total, w)
    checks.append(Check(f"h d + d h = id in form degree {degree}", "derham",
                        str(omega), form_homotopy))

    u = _density(T, rng, sp, rng.randint(0, 3))
    checks.append(Check("spencer_delta^2 = 0", "integral_forms", str(u),
                        lambda T, u=u: _spencer(T, _spencer(T, u)).is_zero()))

    u = _density(T, rng, sp, index % 4)

    def density_homotopy(T, u=u):
        total = _add(T, "integral_forms", _spencer(T, _hint(T, u)),
                     _hint(T, _spencer(T, u)))
        proj = T.call("integral_forms.cohomology_projection",
                      cohomology_projection, u)
        return _eq(T, total, _sub(T, "integral_forms", u, proj))
    checks.append(Check("delta h + h delta = id - projection", "integral_forms",
                        str(u), density_homotopy))

    w = _delta_form(T, rng, sp)

    def round_trip(T, w=w):
        sigma = T.call("pseudoforms.to_integral_form", to_integral_form, w)
        back = T.call("pseudoforms.from_integral_form", from_integral_form,
                      sigma)
        return _eq(T, back, w)
    checks.append(Check("delta and density pictures invert each other",
                        "pseudoforms", str(w), round_trip))

    w = _delta_form(T, rng, sp)
    i, j = rng.sample(range(chart.p), 2)
    a_odd = rng.randrange(chart.q)
    dx, dy = fiber_name(chart.even_names[i]), fiber_name(chart.even_names[j])
    dth = fiber_name(chart.odd_names[a_odd])

    def letters(T, w=w, dx=dx, dy=dy, dth=dth):
        anti = _add(T, "pseudoforms", _cw(T, f"dd_{dx} {dx}", w),
                    _cw(T, f"{dx} dd_{dx}", w))
        comm = _sub(T, "pseudoforms", _cw(T, f"dd_{dth} {dth}", w),
                    _cw(T, f"{dth} dd_{dth}", w))
        square = _add(T, "pseudoforms", _cw(T, f"{dx} {dy}", w),
                      _cw(T, f"{dy} {dx}", w))
        return _eq(T, anti, w) and _eq(T, comm, w) and square.is_zero()
    checks.append(Check(f"letter relations for {dx}, {dy}, {dth}",
                        "pseudoforms", str(w), letters))

    s = BerSection(chart, _nonzero(lambda: _gen(
        T, random_superpoly, rng, chart.table, terms=2, max_exp=1)))
    op1, op2 = _diffop(T, rng, chart.table), _diffop(T, rng, chart.table)

    def associative(T, s=s, op1=op1, op2=op2):
        composed = T.call("diffops.compose", op1.compose, op2)
        return _eq(T, _act(T, _act(T, s, op1), op2), _act(T, s, composed))
    checks.append(Check("right action associative over compose",
                        "integral_forms", f"s = {s}  P = {op1}  Q = {op2}",
                        associative))
    return checks


def build_forms(seed: int, T: Tracer) -> Batch:
    rng = random.Random(seed)
    sp = _space(3, 3)
    rounds = [_forms_round(T, rng, sp, i) for i in range(FORMS_ROUNDS)]
    return Batch([check for r in rounds for check in r], FORMS_PASSES,
                 sum(len(r) for r in rounds[:FORMS_TRACE_ROUNDS]))


# --- cli -------------------------------------------------------------------

CLI_RING = (2, 2)
CLI_SIZES = (1, 2, 4, 8)  # terms per generated expression
CLI_ROUNDS = 40
CLI_TRACE_ROUNDS = 20
CLI_PASSES = 2
_KOSZUL_LINE = re.compile(r"degree (-?\d+): kernel (\d+) image (\d+) "
                          r"homology (\d+)")


class _Cli:
    """The command line, driven in this process through click's runner."""

    def __init__(self):
        # Imported here so that only this workload's set-up pays for click.
        from click.testing import CliRunner

        from supercalc import cli

        self.cli = cli
        self.runner = CliRunner()
        self.ring = cli.Ring(*CLI_RING)
        self.ring_arg = f"{CLI_RING[0]}|{CLI_RING[1]}"

    def invoke(self, T: Tracer, args: list[str]) -> str:
        T.count("cli.input_chars", sum(len(a) for a in args))
        result = T.call("cli.invoke", self.runner.invoke, self.cli.main, args)
        if result.exit_code != 0:
            last = result.output.strip().splitlines()[-1:]
            raise Refused(f"exit {result.exit_code}: {' '.join(last)}")
        return result.stdout.strip()

    def parse(self, T: Tracer, text: str):
        try:
            value, markers = T.call("cli.parse_value", self.cli.parse_value,
                                    text, self.ring)
        except self.cli.ExpressionError as exc:
            raise Refused(f"output {text!r} does not parse back: {exc}")
        return value

    def form(self, value) -> SuperPoly:
        if isinstance(value, Fraction):
            return SuperPoly.constant(self.ring.ftab, value)
        return transport(value.poly, self.ring.ftab)

    def render(self, T: Tracer, value) -> str:
        return T.call("cli.render", self.cli.render, value)


# Ways the command line refuses inputs at the commit this benchmark was
# made at.  The documented polyvector letters pdx1..pdth2 are rejected as
# unknown generators, because cli.py names them pddx1...  berezin-int prints
# Gaussian integrals as multiples of pi, which parse_value does not read,
# and its input `Ber @ f`, as the printer writes it, does not parse back
# when f has several terms (the parser takes `Ber @ -3 + ...` as a sum).
_PD_LETTERS_REFUSED = r"unknown generator 'pd"
_BEREZIN_INT_REFUSED = r"unknown generator 'pi'|cannot add a \w+ and a polynomial"


def _expected(fn, *args, **kwargs):
    """The library's direct result, worked out during set-up so that the
    timed check runs only the command line.  Should the library raise,
    the check raises the same exception when it runs, and fails."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def _want(value):
    if isinstance(value, Exception):
        raise value
    return value


def _cli_round(T: Tracer, rng: random.Random, c: _Cli,
               index: int) -> list[Check]:
    ring = c.ring
    sp = _Space(ring.chart, ring.ftab, ring.ptab)
    r = c.ring_arg
    checks = []
    for size in CLI_SIZES:
        omega = _nonzero(lambda: _gen(T, random_superpoly, rng, ring.ftab,
                                      terms=size, max_exp=2))
        text, want = c.render(T, omega), _expected(d, omega)

        def cmd_d(T, text=text, want=want):
            out = c.form(c.parse(T, c.invoke(T, ["d", "--ring", r, "--", text])))
            return _eq(T, out, _want(want))
        checks.append(Check("cli d", "cli", f"supercalc d --ring {r} -- '{text}'",
                            cmd_d))

        omega = _form_of_degree(T, rng, sp, rng.randint(1, 3), terms=size)
        text, want = c.render(T, omega), _expected(homotopy_h, omega)

        def cmd_h(T, text=text, want=want):
            out = c.form(c.parse(T, c.invoke(T, ["homotopy", "--ring", r, "--", text])))
            return _eq(T, out, _want(want))
        checks.append(Check("cli homotopy on a form", "cli",
                            f"supercalc homotopy --ring {r} -- '{text}'", cmd_h))

        # Densities carry at least one polyvector letter (pdx1..pdth2), the
        # documented spelling of the density directions.
        u = _density(T, rng, sp, rng.randint(1, 3), terms=size)
        text, want = c.render(T, u), _expected(homotopy_int, u)

        def cmd_hint(T, text=text, want=want):
            out = c.parse(T, c.invoke(T, ["homotopy", "--ring", r, "--", text]))
            return _eq(T, out, _want(want))
        checks.append(Check("cli homotopy on a density", "cli",
                            f"supercalc homotopy --ring {r} -- '{text}'",
                            cmd_hint, _PD_LETTERS_REFUSED))

        u = _density(T, rng, sp, rng.randint(1, 3), terms=size)
        text, want = c.render(T, u), _expected(spencer_delta, u)

        def cmd_spencer(T, text=text, want=want):
            out = c.parse(T, c.invoke(T, ["spencer-delta", "--ring", r, "--", text]))
            return _eq(T, out, _want(want))
        checks.append(Check("cli spencer-delta", "cli",
                            f"supercalc spencer-delta --ring {r} -- '{text}'",
                            cmd_spencer, _PD_LETTERS_REFUSED))

        w = _delta_form(T, rng, sp, terms=size)
        letters = [fiber_name(n) for n in ring.chart.coordinate_names]
        word = " ".join(rng.choice(("", "dd_")) + rng.choice(letters)
                        for _ in range(rng.randint(1, 3)))
        text, want = c.render(T, w), _expected(cw_apply, CWOperator(word), w)

        def cmd_cw(T, text=text, word=word, want=want):
            out = c.parse(T, c.invoke(T, ["cw-apply", "--ring", r, "--", word, text]))
            if isinstance(out, Fraction) and out == 0:
                out = DeltaForm.zero(ring.chart)
            return _eq(T, out, _want(want))
        checks.append(Check("cli cw-apply", "cli",
                            f"supercalc cw-apply --ring {r} -- '{word}' '{text}'",
                            cmd_cw))

        f = _nonzero(lambda: _gen(T, random_superpoly, rng, ring.chart.table,
                                  terms=size, max_exp=2))
        gauss = list(ring.chart.even_names)
        text = c.render(T, IntegralForm(ring.chart, f)) + \
            f" gauss({','.join(gauss)})"
        want = _expected(berezin_integral, BerSection(ring.chart, f),
                         gaussian=gauss)

        def cmd_int(T, text=text, want=want):
            out = c.parse(T, c.invoke(T, ["berezin-int", "--ring", r, "--", text]))
            return _eq(T, out, _want(want))
        checks.append(Check("cli berezin-int", "cli",
                            f"supercalc berezin-int --ring {r} -- '{text}'",
                            cmd_int, _BEREZIN_INT_REFUSED))

        # No expression to generate here; the shape is fixed so that the
        # Koszul ranks, which the linalg workload measures, stay a small and
        # constant share of this workload.
        p, q, cutoff = 1, 1, 2
        which = ("koszul", "dual")[index % 2]
        degree = -(size % 3) if which == "koszul" else size % 3
        args = ["koszul", "--p", str(p), "--q", str(q), "--which", which,
                "--degree", str(degree), "--cutoff", str(cutoff)]
        want = _expected(KoszulAlgebra(p, q).homology_ranks, which, degree,
                         cutoff)

        def cmd_koszul(T, args=args, degree=degree, want=want):
            line = c.invoke(T, args)
            found = _KOSZUL_LINE.fullmatch(line)
            if not found:
                raise Refused(f"output {line!r} is not a rank line")
            return tuple(int(x) for x in found.groups()) == (degree, *_want(want))
        checks.append(Check("cli koszul", "cli",
                            "supercalc " + " ".join(args), cmd_koszul))
    return checks


def build_cli(seed: int, T: Tracer) -> Batch:
    rng = random.Random(seed)
    cli = _Cli()
    rounds = [_cli_round(T, rng, cli, i) for i in range(CLI_ROUNDS)]
    return Batch([check for r in rounds for check in r], CLI_PASSES,
                 sum(len(r) for r in rounds[:CLI_TRACE_ROUNDS]))


BATCHES = {"cocycle": build_cocycle, "linalg": build_linalg,
            "forms": build_forms, "cli": build_cli}
