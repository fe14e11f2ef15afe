"""Randomized identity suites: the paper's identities as executable checks.

Every suite draws its inputs from one seeded ``random.Random`` and
returns a list of :class:`CheckResult`, so a failure replays exactly from
its seed.  :func:`run_suite` runs one suite by name; ``SUITES`` lists
them with their default trial counts:

nilpotency
    d² = 0 for the de Rham differential on forms, the Spencer
    differential on integral forms, the operator-complex differential D,
    and the Koszul differential and its dual.
berezinian
    Ber(MN) = Ber(M) Ber(N); Ber = det A / det D on block-diagonal
    matrices; Ber(1 + εX) = 1 + ε Str X for nilpotent ε.
cocycle
    The chain rule Ber J(m2 ∘ m1) = m1*(Ber J(m2)) Ber J(m1) on random
    coordinate changes and on the punctured-plane transition, whose
    round trip has Berezinian 1.
homotopies
    The Poincaré lemma hd + dh = 1 on forms of positive degree; δh + hδ
    = 1 − (projection to the generator class) on integral forms; the
    operator homotopy HD + DH scales each monomial by its counting factor
    and kills the density monomials.
koszul
    The Koszul complex, on the de Rham form table, is acyclic below
    degree 0 with rank-one H_0; the dual complex, on the total complex's
    symbol table, has homology only in degree p, and its class is a
    density of the total complex (the Koszul and the total de Rham
    definitions of the Berezinian meet); the class transforms by the
    reciprocal Berezinian.
dmodule
    Densities are a right module over differential operators: the
    generator is killed by every derivative, the action is flat on field
    brackets, obeys the connection-style product rules, and is
    associative over composition.
integrals
    Berezin integrals of the benchmark densities: the odd tangent line
    with a Gaussian fiber weight gives √π, the odd plane gives 1, and the
    point class pairs to 1 with a pinned line form and any exact shift.
stokes
    Stokes' theorem: the Berezin integral of δu vanishes.
susy
    The supersymmetry generators close on translations and leave the
    action invariant.
delta-forms
    The delta-form / density isomorphism: the letter relations hold, the
    top delta form transforms by the Berezinian, each density monomial is
    its derivative word applied to the pivot, the two pictures commute
    with coordinate changes, and fiber integration reproduces the
    benchmark integrals.

Only ``nilpotency``, ``dmodule`` and the two operator checks of
``homotopies`` run on the chart R^{p|q} given by ``p`` and ``q``; every
other check uses fixed charts.  A randomized check makes ``trials``
draws (the density homotopy 4 * trials per chart, the susy invariance
trials * q variations per chart), except for four counts that
``trials`` does not scale: ``berezinian``'s block-diagonal and
infinitesimal checks draw 10 matrices each, and ``delta-forms`` draws
max(trials // 2, 20) maps for the pivot check and max(trials // 3, 12)
rounds for the transform check.  Checks that draw nothing run once.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from supercalc.algebra import (
    GeneratorTable,
    SuperPoly,
    release_even_exponents,
    transport,
)
from supercalc.charts import (
    Chart,
    CoordinateMap,
    cocycle_check,
    compose_maps,
    conic_transition,
)
from supercalc.derham import (
    UniversalElement,
    con3_identity_factor,
    d,
    degree_parts,
    fiber_name,
    form_table,
    homotopy_h,
    pullback_form,
    script_D,
    script_H,
)
from supercalc.diffops import DiffOp
from supercalc.integral_forms import (
    IntegralForm,
    cohomology_projection,
    homotopy_int,
    pair,
    polyvector_name,
    polyvector_table,
    right_action,
    spencer_delta,
)
from supercalc.integration import (
    PiValue,
    berezin_integral,
    duality_pair_integral,
    stokes_check,
    susy_algebra_check,
    susy_variation,
)
from supercalc.koszul import KoszulAlgebra
from supercalc.pseudoforms import (
    DeltaForm,
    cw_apply,
    fiber_integral,
    gaussian_fiber_integral,
    to_integral_form,
)
from supercalc.randoms import (
    random_invertible_fraction_matrix,
    random_invertible_supermatrix,
    random_nonzero_rational,
    random_rational,
    random_split_map,
    random_superpoly,
)
from supercalc.supermatrix import SuperMatrix, berezinian, det_even, supertrace


class CheckResult(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class SuiteSpec(NamedTuple):
    run: Callable  # (rng, trials, p, q) -> list[CheckResult]
    trials: int
    summary: str


def _failures(n: int, failed: Callable[[], object]) -> int:
    return sum(1 for _ in range(n) if failed())


def _count(label: str, total: int, bad: int) -> CheckResult:
    return CheckResult(label, bad == 0, f"{bad} of {total} failed" if bad else f"{total} checked")


def _trials(label: str, n: int, failed: Callable[[], object]) -> CheckResult:
    """Run one randomized check ``n`` times and count the draws that fail.

    Each call of ``failed`` draws its own inputs from the suite's
    generator and returns something truthy exactly when the identity
    fails on them; a draw it skips (a zero input, say) counts as passing.
    All ``n`` calls run, in order, so a suite's draws depend only on its
    seed and trial counts, and a failure replays from its seed.  A check
    keeps the order of its draws: reordering them moves every later draw
    of the suite, and each seed then tests other inputs.
    """
    return _count(label, n, _failures(n, failed))


def _with_letters(rng: random.Random, poly: SuperPoly, letters, k: int) -> SuperPoly:
    """``poly`` times ``k`` generators of its table drawn from ``letters``."""
    for _ in range(k):
        poly = poly * SuperPoly.generator(poly.table, rng.choice(letters))
    return poly


def _gaussian_line_is_sqrt_pi() -> bool:
    """Whether the odd tangent line with a Gaussian fiber weight integrates to √π."""
    line = Chart.standard(0, 1)
    theta = transport(SuperPoly.generator(line.table, "th1"), form_table(line.table))
    weight, section = gaussian_fiber_integral(line, theta, [fiber_name("th1")])
    return weight * berezin_integral(section) == PiValue.pi_power(Fraction(1, 2))


def _random_universal_monomial(rng: random.Random, chart: Chart,
                               ftab: GeneratorTable) -> UniversalElement:
    fiber = [fiber_name(n) for n in chart.even_names if rng.random() < 0.4]
    for name in chart.odd_names:
        fiber += [fiber_name(name)] * rng.choice((0, 0, 1, 2))
    deriv = [n for n in chart.even_names for _ in range(rng.choice((0, 0, 1, 2)))]
    deriv += [n for n in chart.odd_names if rng.random() < 0.4]
    f = transport(random_superpoly(rng, chart.table, terms=2, max_exp=1), ftab)
    return UniversalElement.monomial(ftab, fiber, deriv, f)


def operator_homotopy_failures(rng: random.Random, chart: Chart, trials: int) -> int:
    """How many of ``trials`` random universal monomials u break
    H(D(u)) + D(H(u)) = c(u) u, c(u) being the counting factor.
    Monomials that come out zero are drawn but not checked."""
    ftab = form_table(chart.table)

    def failed():
        u = _random_universal_monomial(rng, chart, ftab)
        if u.is_zero():
            return False
        factor = con3_identity_factor(u)
        return script_H(script_D(u)) + script_D(script_H(u)) != u.scale(factor)
    return _failures(trials, failed)


def susy_variation_failures(rng: random.Random, chart: Chart, gamma, trials: int) -> int:
    """How many supersymmetry variations of ``trials`` random Lagrangian
    densities, one per odd generator, fail to vanish."""
    lagrangians = (IntegralForm(chart, random_superpoly(rng, chart.table, terms=3, max_exp=2))
                   for _ in range(trials))
    variations = ((lagrangian, a) for lagrangian in lagrangians for a in range(chart.q))

    def failed():
        lagrangian, a = next(variations)
        return not susy_variation(lagrangian, gamma, a).is_zero()
    return _failures(trials * chart.q, failed)


def _suite_nilpotency(rng, trials, p, q):
    chart = Chart.standard(p, q)
    ftab = form_table(chart.table)
    ptab = polyvector_table(chart)
    algebra = KoszulAlgebra(p, q)

    def poly(table):
        return random_superpoly(rng, table, terms=3, max_exp=2)

    def squares_to_zero(label, op, draw):
        return _trials(f"{label} squares to zero", trials, lambda: not op(op(draw())).is_zero())

    return [
        squares_to_zero("exterior differential", d, lambda: poly(ftab)),
        squares_to_zero("density differential", spencer_delta,
                        lambda: IntegralForm(chart, poly(ptab))),
        squares_to_zero("operator-complex differential", script_D,
                        lambda: _random_universal_monomial(rng, chart, ftab)),
        squares_to_zero("koszul differential", algebra.koszul_delta, lambda: poly(algebra.table)),
        squares_to_zero("dual koszul differential", algebra.dual_delta,
                        lambda: poly(algebra.dual_table)),
    ]


def _suite_berezinian(rng, trials, p, q):
    table = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])
    shapes = ((1, 1), (2, 1), (2, 2))
    eps = SuperPoly.generator(table, "e1") * SuperPoly.generator(table, "e2")

    def multiplicative(shape):
        def failed():
            m = random_invertible_supermatrix(rng, table, *shape)
            n = random_invertible_supermatrix(rng, table, *shape)
            return berezinian(m * n) != berezinian(m) * berezinian(n)
        return _trials(f"multiplicative on shape {shape[0]}|{shape[1]}", trials, failed)

    def constant_block(n):
        return [[SuperPoly.constant(table, e) for e in row]
                for row in random_invertible_fraction_matrix(rng, n)]

    def block_diagonal():
        n = rng.choice((1, 2))
        A = constant_block(n)
        D = constant_block(n)
        expected = det_even(A, table) * det_even(D, table).inverse()
        return berezinian(SuperMatrix.block_diagonal(table, A, D)) != expected

    def infinitesimal():
        shape = rng.choice(shapes)
        x = random_invertible_supermatrix(rng, table, *shape)
        m = SuperMatrix.identity(table, *shape) + x.map_entries(lambda e: eps * e)
        return berezinian(m) != SuperPoly.one(table) + eps * supertrace(x)

    return [multiplicative(shape) for shape in shapes] + [
        _trials("block diagonal gives detA/detD", 10, block_diagonal),
        _trials("infinitesimally 1 + eps Str", 10, infinitesimal),
    ]


def _suite_cocycle(rng, trials, p, q):
    m = conic_transition()
    back = conic_transition(z="w", w="z", source_odds=("psi1", "psi2"), target_odds=("th1", "th2"))
    u = Chart(["u1", "u2"], ["et1", "et2"], label="U")
    v = Chart(["v1", "v2"], ["ps1", "ps2"], label="V")
    w = Chart(["w1", "w2"], ["ch1", "ch2"], label="W")
    return [
        CheckResult("punctured-plane transition chain rule", cocycle_check(m, back)),
        CheckResult("punctured-plane round trip has Berezinian 1",
                    compose_maps(m, back).ber_jacobian() == SuperPoly.one(m.source.table)),
        _trials("chain rule on random coordinate changes", trials,
                lambda: not cocycle_check(random_split_map(rng, u, v),
                                          random_split_map(rng, v, w))),
    ]


def _suite_homotopies(rng, trials, p, q):
    chart = Chart.standard(2, 2)
    ftab = form_table(chart.table)
    fiber_letters = [fiber_name(n) for n in chart.coordinate_names]

    def form_homotopy(degree):
        def failed():
            omega = SuperPoly.zero(ftab)
            for _ in range(2):
                f = transport(random_superpoly(rng, chart.table, terms=2, max_exp=2), ftab)
                omega = omega + _with_letters(rng, f, fiber_letters, degree)
            return (not omega.is_zero() and set(degree_parts(omega)) == {degree}
                    and homotopy_h(d(omega)) + d(homotopy_h(omega)) != omega)
        return _trials(f"form homotopy is the identity in degree {degree}", trials, failed)

    def density_homotopy(pp, qq):
        c = Chart.standard(pp, qq)
        ptab = polyvector_table(c)
        pv_letters = [polyvector_name(n) for n in c.coordinate_names]
        degrees = (k for k in range(4) for _ in range(trials))

        def failed():
            poly = transport(random_superpoly(rng, c.table, terms=2, max_exp=2), ptab)
            u = IntegralForm(c, _with_letters(rng, poly, pv_letters, next(degrees)))
            if u.is_zero():
                return False
            anti = spencer_delta(homotopy_int(u)) + homotopy_int(spencer_delta(u))
            return anti != u - cohomology_projection(u)
        return _trials(f"density homotopy hits the identity off the generator on R{pp}|{qq}",
                       4 * trials, failed)

    checks = [form_homotopy(degree) for degree in (1, 2, 3, 4)]
    checks += [density_homotopy(1, 1), density_homotopy(2, 2)]

    chart = Chart.standard(p, q)
    checks.append(_count("operator homotopy scales each monomial by its counting factor", trials,
                         operator_homotopy_failures(rng, chart, trials)))

    density = UniversalElement.monomial(form_table(chart.table),
                                        [fiber_name(n) for n in chart.even_names],
                                        list(chart.odd_names))
    total = script_H(script_D(density)) + script_D(script_H(density))
    checks.append(CheckResult("density monomials sit in the operator-homotopy kernel",
                              con3_identity_factor(density) == 0 and total.is_zero()))
    return checks


def _suite_koszul(rng, trials, p, q):
    checks = []
    cutoff = 6
    densities = []
    for pp, qq in ((1, 1), (1, 2), (2, 1)):
        algebra = KoszulAlgebra(pp, qq)
        u = UniversalElement(algebra.table, algebra.dual_homology_generator())
        densities.append(con3_identity_factor(u) == 0
                         and (script_H(script_D(u)) + script_D(script_H(u))).is_zero())
        koszul = [ranks.homology_dim for ranks in algebra.homology_scan(
            "koszul", (0, -1, -2, -3, -4), cutoff)]
        dual = [ranks.homology_dim for ranks in algebra.homology_scan(
            "dual", range(pp + 2), cutoff)]
        checks += [
            CheckResult(f"koszul complex on {pp}|{qq} acyclic below degree zero",
                        not any(koszul[1:])),
            CheckResult(f"koszul degree zero rank one on {pp}|{qq}", koszul[0] == 1),
            CheckResult(f"dual homology concentrated in degree {pp} on {pp}|{qq}",
                        dual == [int(deg == pp) for deg in range(pp + 2)]),
        ]
    checks.append(CheckResult("dual class is a total de Rham density on 1|1, 1|2 and 2|1",
                              all(densities)))

    odds = ["e1", "e2", "e3", "e4"]
    coeff = GeneratorTable.chart([], odds)

    def failed():
        pp, qq = rng.choice(((1, 1), (1, 2), (2, 1)))
        algebra = KoszulAlgebra(pp, qq, coefficient_odds=odds)
        m = random_invertible_supermatrix(rng, coeff, pp, qq)
        return algebra.induced_automorphism_scalar(m) != transport(
            berezinian(m).inverse(), algebra.coefficient_table)
    checks.append(_trials("class transforms by the reciprocal Berezinian", trials, failed))
    return checks


def _random_parity_field(rng, chart):
    table = chart.table
    parity = rng.choice((0, 1))
    return DiffOp.vector_field(table, {
        name: random_superpoly(rng, table, parity=(parity + table.parity(name)) % 2, terms=2,
                               max_exp=1)
        for name in chart.coordinate_names})


def _random_diffop(rng, table, terms=2, letters=2):
    out = DiffOp.zero(table)
    names = list(table.names)
    for _ in range(rng.randint(1, terms)):
        w = DiffOp.multiplication(random_superpoly(rng, table, terms=2, max_exp=1))
        for _k in range(rng.randint(0, letters)):
            w = w.compose(DiffOp.partial(table, rng.choice(names)))
        out = out + w
    return out


def _suite_dmodule(rng, trials, p, q):
    chart = Chart.standard(p, q)
    table = chart.table

    def poly():
        return random_superpoly(rng, table, terms=2, max_exp=1)

    def flat():
        s = IntegralForm(chart, poly())
        x = _random_parity_field(rng, chart)
        y = _random_parity_field(rng, chart)
        lhs = right_action(s, x.bracket(y))
        first = right_action(right_action(s, x), y)
        second = right_action(right_action(s, y), x)
        return lhs != (first + second if x.parity() and y.parity() else first - second)

    def product_rules():
        s = IntegralForm(chart, poly())
        f = poly()
        x = _random_parity_field(rng, chart)
        mult = DiffOp.multiplication(f)
        left = right_action(s, mult.compose(x)) != right_action(s.times(f), x)
        right = right_action(s, x.compose(mult)) != right_action(right_action(s, x), mult)
        return left or right

    def associative():
        s = IntegralForm(chart, poly())
        op1 = _random_diffop(rng, table)
        op2 = _random_diffop(rng, table)
        return right_action(right_action(s, op1), op2) != right_action(s, op1.compose(op2))

    return [
        CheckResult("generator density killed by every derivative",
                    all(right_action(IntegralForm(chart, 1), DiffOp.partial(table, n)).is_zero()
                        for n in chart.coordinate_names)),
        _trials("right action flat on field brackets", trials, flat),
        _trials("connection-style product rules", trials, product_rules),
        _trials("action associative over operator composition", trials, associative),
    ]


def _suite_integrals(rng, trials, p, q):
    plane = Chart.standard(0, 2)
    top = SuperPoly.generator(plane.table, "th1") * SuperPoly.generator(plane.table, "th2")
    chart = Chart.standard(1, 2)
    sigma0 = IntegralForm.cohomology_generator(chart)
    ftab = form_table(chart.table)
    dx1 = SuperPoly.generator(ftab, fiber_name("x1"))
    eta = SuperPoly.from_monomial(ftab, {n: 1 for n in chart.odd_names})
    paired = duality_pair_integral(sigma0, dx1, dirac={"x1": 0})
    return [
        CheckResult("odd tangent line with Gaussian fiber weight integrates to sqrt(pi)",
                    _gaussian_line_is_sqrt_pi()),
        CheckResult("purely odd plane normalizes to 1",
                    berezin_integral(IntegralForm(plane, top)) == 1),
        CheckResult("point class against the pinned line form pairs to 1", paired == 1),
        CheckResult("pairing unchanged by an exact shift of the form",
                    duality_pair_integral(sigma0, dx1 + d(eta), dirac={"x1": 0}) == paired == 1),
    ]


def _suite_stokes(rng, trials, p, q):
    def boundary(pp, qq):
        chart = Chart.standard(pp, qq)
        ptab = polyvector_table(chart)
        pv_letters = [polyvector_name(n) for n in chart.coordinate_names]

        def failed():
            poly = transport(random_superpoly(rng, chart.table, terms=3, max_exp=2), ptab)
            u = IntegralForm(chart, _with_letters(rng, poly, pv_letters, 1))
            return not u.is_zero() and not stokes_check(u)[1]
        return _trials(f"boundary integral vanishes on R{pp}|{qq}", trials, failed)
    return [boundary(pp, qq) for pp, qq in ((1, 1), (1, 2), (2, 2))]


def _suite_susy(rng, trials, p, q):
    checks = []
    for qq, gamma in ((1, [[[2]]]), (2, [[[2, 0], [0, 2]]])):
        chart = Chart.standard(1, qq)
        checks += [
            CheckResult(f"bracket closes on translations for 1|{qq}",
                        susy_algebra_check(chart, gamma)),
            _count(f"action invariant under every generator for 1|{qq}", trials * qq,
                   susy_variation_failures(rng, chart, gamma, trials)),
        ]
    return checks


def _unimodular_split_map(rng, source: Chart, target: Chart) -> CoordinateMap:
    """A coordinate change whose Jacobian blocks have constant
    determinants, so delta forms transform with polynomial output."""
    table = source.table
    xs = [SuperPoly.generator(table, n) for n in source.even_names]
    ths = [SuperPoly.generator(table, n) for n in source.odd_names]
    images = {}
    for i, name in enumerate(target.even_names):
        img = xs[i].scale(random_nonzero_rational(rng, 3))
        for j in range(i):
            img = img + (xs[j] * xs[j]).scale(random_rational(rng, 2))
        images[name] = img
    for a, name in enumerate(target.odd_names):
        img = ths[a].scale(random_nonzero_rational(rng, 3))
        for b in range(a):
            coeff = random_superpoly(rng, table, parity=0, terms=1, max_exp=2)
            img = img + coeff.set_odd_to_zero() * ths[b]
        images[name] = img
    return CoordinateMap(source, target, images)


def _random_delta_form(rng, chart: Chart, terms: int = 2) -> DeltaForm:
    out = DeltaForm.zero(chart)
    for _ in range(rng.randint(1, terms)):
        eps = tuple(rng.randint(0, 1) for _ in range(chart.p))
        ells = tuple(rng.choice((0, 0, 1, 2)) for _ in range(chart.q))
        coeff = random_superpoly(rng, chart.table, terms=2, max_exp=1)
        out = out + DeltaForm(chart, {(eps, ells): coeff})
    return out


def _pivot_words(sigma: IntegralForm) -> DeltaForm:
    """Sum of ``cw_apply(word, pivot).times(f)`` over the parts f * L of a
    density, L a monomial in the polyvector letters and the word holding
    d/d(dx_i) for each pdx_i in L and d/d(dth_a) for each pdth_a."""
    chart, table = sigma.chart, sigma.table
    letters = {table.index(polyvector_name(n)): f"dd_{fiber_name(n)}"
               for n in chart.coordinate_names}
    out = DeltaForm.zero(chart)
    for mono, f in sigma.poly.collect(letters).items():
        word = [letters[pos] for pos, k in table.powers(mono) for _ in range(k)]
        out = out + cw_apply(word, DeltaForm.top(chart)).times(transport(f, chart.table))
    return out


def _suite_delta_forms(rng, trials, p, q):
    charts = [Chart.standard(1, 1), Chart.standard(2, 1),
              Chart.standard(1, 2), Chart.standard(2, 2)]
    pairs = [(Chart(["u1", "u2"], ["et1", "et2"], label="U"),
              Chart(["v1", "v2"], ["ps1", "ps2"], label="V")),
             (Chart(["u"], ["et1", "et2"], label="U"),
              Chart(["v"], ["ps1", "ps2"], label="V"))]
    src, tgt = pairs[0]
    ftab = form_table(tgt.table)
    fiber_letters = [fiber_name(n) for n in tgt.coordinate_names]

    def letter_relations():
        chart = rng.choice(charts)
        w = _random_delta_form(rng, chart)
        i = rng.randrange(chart.p)
        a = rng.randrange(chart.q)
        dx = fiber_name(chart.even_names[i])
        dth = fiber_name(chart.odd_names[a])
        anti = cw_apply(f"dd_{dx} {dx}", w) + cw_apply(f"{dx} dd_{dx}", w)
        comm = cw_apply(f"dd_{dth} {dth}", w) - cw_apply(f"{dth} dd_{dth}", w)
        broken = anti != w or comm != w
        if chart.p > 1:
            other = fiber_name(chart.even_names[(i + 1) % chart.p])
            broken |= not (cw_apply(f"{dx} {other}", w) + cw_apply(f"{other} {dx}", w)).is_zero()
        return broken

    def pivot_transforms():
        source, target = rng.choice(pairs)
        m = _unimodular_split_map(rng, source, target)
        ber = release_even_exponents(m.ber_jacobian())
        return DeltaForm.top(target).transform(m) != DeltaForm.top(source, ber)

    def pictures_invert():
        w = _random_delta_form(rng, rng.choice(charts))
        return _pivot_words(to_integral_form(w)) != w

    def transform_commutes():
        m = _unimodular_split_map(rng, src, tgt)
        w = _random_delta_form(rng, tgt)
        degs = w.degrees()
        if len(degs) != 1 or max(degs) > tgt.p:  # zero, of mixed degree, or above the top
            return False
        eta = transport(random_superpoly(rng, tgt.table, terms=2, max_exp=1), ftab)
        eta = _with_letters(rng, eta, fiber_letters, tgt.p - max(degs))
        if eta.is_zero():
            return False
        lhs = pair(to_integral_form(w.transform(m)), release_even_exponents(pullback_form(m, eta)))
        return lhs != pair(to_integral_form(w), eta).transform(m)

    plane = Chart.standard(0, 2)
    sigma = DeltaForm.top(plane, SuperPoly.from_monomial(plane.table, {"th1": 1, "th2": 1}))
    return [
        _trials("letter relations hold on random delta forms", trials, letter_relations),
        _trials("pivot transforms by the Berezinian", max(trials // 2, 20), pivot_transforms),
        _trials("delta and density pictures invert each other", trials, pictures_invert),
        _trials("transform commutes with the density picture", max(trials // 3, 12),
                transform_commutes),
        CheckResult("fiber integration reproduces the benchmark integrals",
                    _gaussian_line_is_sqrt_pi()
                    and berezin_integral(fiber_integral(sigma)) == 1),
    ]


SUITES: dict[str, SuiteSpec] = {
    "nilpotency": SuiteSpec(_suite_nilpotency, 50, "every differential squares to zero"),
    "berezinian": SuiteSpec(_suite_berezinian, 100, "Berezinian multiplicativity and expansions"),
    "cocycle": SuiteSpec(_suite_cocycle, 50, "chain rule for Berezinians of coordinate changes"),
    "homotopies": SuiteSpec(_suite_homotopies, 12, "contracting homotopies hit the identity"),
    "koszul": SuiteSpec(_suite_koszul, 20, "homology ranks and class transport"),
    "dmodule": SuiteSpec(_suite_dmodule, 50, "right module structure on densities"),
    "integrals": SuiteSpec(_suite_integrals, 1, "benchmark integral values"),
    "stokes": SuiteSpec(_suite_stokes, 50, "boundary integrals vanish"),
    "susy": SuiteSpec(_suite_susy, 10, "supersymmetry algebra and invariance"),
    "delta-forms": SuiteSpec(_suite_delta_forms, 50, "delta form calculus and transforms"),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              p: int = 2, q: int = 2) -> list[CheckResult]:
    """Run one suite with a fresh seeded generator."""
    spec = SUITES[name]
    rng = random.Random(seed)
    return spec.run(rng, trials if trials is not None else spec.trials, p, q)
