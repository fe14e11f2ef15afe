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
    VectorField,
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


def _random_universal_monomial(rng: random.Random, chart: Chart,
                               ftab: GeneratorTable) -> UniversalElement:
    fiber = []
    for name in chart.even_names:
        if rng.random() < 0.4:
            fiber.append(fiber_name(name))
    for name in chart.odd_names:
        fiber.extend([fiber_name(name)] * rng.choice((0, 0, 1, 2)))
    deriv = []
    for name in chart.even_names:
        deriv.extend([name] * rng.choice((0, 0, 1, 2)))
    for name in chart.odd_names:
        if rng.random() < 0.4:
            deriv.append(name)
    f = transport(random_superpoly(rng, chart.table, terms=2, max_exp=1), ftab)
    return UniversalElement.monomial(ftab, fiber, deriv, f)


def operator_homotopy_failures(rng: random.Random, chart: Chart,
                               trials: int) -> int:
    """How many of ``trials`` random universal monomials u break
    H(D(u)) + D(H(u)) = c(u) u, c(u) being the counting factor.
    Monomials that come out zero are drawn but not checked."""
    ftab = form_table(chart.table)
    bad = 0
    for _ in range(trials):
        u = _random_universal_monomial(rng, chart, ftab)
        if u.is_zero():
            continue
        factor = con3_identity_factor(u)
        if script_H(script_D(u)) + script_D(script_H(u)) != u.scale(factor):
            bad += 1
    return bad


def susy_variation_failures(rng: random.Random, chart: Chart, gamma,
                            trials: int) -> int:
    """How many supersymmetry variations of ``trials`` random Lagrangian
    densities, one per odd generator, fail to vanish."""
    bad = 0
    for _ in range(trials):
        lagrangian = IntegralForm(
            chart, random_superpoly(rng, chart.table, terms=3, max_exp=2))
        for a in range(chart.q):
            if not susy_variation(lagrangian, gamma, a).is_zero():
                bad += 1
    return bad


def _count(label: str, total: int, bad: int) -> CheckResult:
    return CheckResult(label, bad == 0, f"{bad} of {total} failed" if bad
                       else f"{total} checked")


def _suite_nilpotency(rng, trials, p, q):
    chart = Chart.standard(p, q)
    ftab = form_table(chart.table)
    ptab = polyvector_table(chart)
    checks = []

    bad = sum(1 for _ in range(trials)
              if not d(d(random_superpoly(rng, ftab, terms=3,
                                          max_exp=2))).is_zero())
    checks.append(_count("exterior differential squares to zero",
                         trials, bad))

    bad = 0
    for _ in range(trials):
        u = IntegralForm(chart, random_superpoly(rng, ptab, terms=3,
                                                 max_exp=2))
        if not spencer_delta(spencer_delta(u)).is_zero():
            bad += 1
    checks.append(_count("density differential squares to zero",
                         trials, bad))

    bad = 0
    for _ in range(trials):
        u = _random_universal_monomial(rng, chart, ftab)
        if not script_D(script_D(u)).is_zero():
            bad += 1
    checks.append(_count("operator-complex differential squares to zero",
                         trials, bad))

    algebra = KoszulAlgebra(p, q)
    bad = sum(1 for _ in range(trials) if not algebra.koszul_delta(
        algebra.koszul_delta(random_superpoly(
            rng, algebra.table, terms=3, max_exp=2))).is_zero())
    checks.append(_count("koszul differential squares to zero", trials, bad))

    bad = sum(1 for _ in range(trials) if not algebra.dual_delta(
        algebra.dual_delta(random_superpoly(
            rng, algebra.dual_table, terms=3, max_exp=2))).is_zero())
    checks.append(_count("dual koszul differential squares to zero",
                         trials, bad))
    return checks


def _suite_berezinian(rng, trials, p, q):
    table = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])
    checks = []
    for shape in ((1, 1), (2, 1), (2, 2)):
        bad = 0
        for _ in range(trials):
            m = random_invertible_supermatrix(rng, table, *shape)
            n = random_invertible_supermatrix(rng, table, *shape)
            if berezinian(m * n) != berezinian(m) * berezinian(n):
                bad += 1
        checks.append(_count(
            f"multiplicative on shape {shape[0]}|{shape[1]}", trials, bad))

    bad = 0
    for _ in range(10):
        n = rng.choice((1, 2))
        a_rows = random_invertible_fraction_matrix(rng, n)
        d_rows = random_invertible_fraction_matrix(rng, n)
        A = [[SuperPoly.constant(table, e) for e in r] for r in a_rows]
        D = [[SuperPoly.constant(table, e) for e in r] for r in d_rows]
        m = SuperMatrix.block_diagonal(table, A, D)
        expected = det_even(A, table) * det_even(D, table).inverse()
        if berezinian(m) != expected:
            bad += 1
    checks.append(_count("block diagonal gives detA/detD", 10, bad))

    eps = (SuperPoly.generator(table, "e1")
           * SuperPoly.generator(table, "e2"))
    bad = 0
    for _ in range(10):
        shape = rng.choice(((1, 1), (2, 1), (2, 2)))
        x = random_invertible_supermatrix(rng, table, *shape)
        m = SuperMatrix.identity(table, *shape) + x.map_entries(
            lambda e: eps * e)
        if berezinian(m) != SuperPoly.one(table) + eps * supertrace(x):
            bad += 1
    checks.append(_count("infinitesimally 1 + eps Str", 10, bad))
    return checks


def _suite_cocycle(rng, trials, p, q):
    checks = []
    m = conic_transition()
    back = conic_transition(z="w", w="z", source_odds=("psi1", "psi2"),
                            target_odds=("th1", "th2"))
    chain = cocycle_check(m, back)
    round_trip = compose_maps(m, back).ber_jacobian() == SuperPoly.one(
        m.source.table)
    checks.append(CheckResult("punctured-plane transition chain rule",
                              chain))
    checks.append(CheckResult("punctured-plane round trip has Berezinian 1",
                              round_trip))

    u = Chart(["u1", "u2"], ["et1", "et2"], label="U")
    v = Chart(["v1", "v2"], ["ps1", "ps2"], label="V")
    w = Chart(["w1", "w2"], ["ch1", "ch2"], label="W")
    bad = 0
    for _ in range(trials):
        m1 = random_split_map(rng, u, v)
        m2 = random_split_map(rng, v, w)
        if not cocycle_check(m1, m2):
            bad += 1
    checks.append(_count("chain rule on random coordinate changes",
                         trials, bad))
    return checks


def _suite_homotopies(rng, trials, p, q):
    checks = []
    chart = Chart.standard(2, 2)
    ftab = form_table(chart.table)
    fiber_letters = [fiber_name(n) for n in chart.coordinate_names]
    for degree in (1, 2, 3, 4):
        bad = 0
        for _ in range(trials):
            omega = SuperPoly.zero(ftab)
            for _ in range(2):
                f = transport(random_superpoly(rng, chart.table, terms=2,
                                               max_exp=2), ftab)
                for _k in range(degree):
                    f = f * SuperPoly.generator(ftab,
                                                rng.choice(fiber_letters))
                omega = omega + f
            if omega.is_zero():
                continue
            parts = degree_parts(omega)
            if set(parts) != {degree}:
                continue
            if homotopy_h(d(omega)) + d(homotopy_h(omega)) != omega:
                bad += 1
        checks.append(_count(f"form homotopy is the identity in degree "
                             f"{degree}", trials, bad))

    for pp, qq in ((1, 1), (2, 2)):
        c = Chart.standard(pp, qq)
        ptab = polyvector_table(c)
        pv_letters = [polyvector_name(n) for n in c.coordinate_names]
        bad = 0
        for k in range(0, 4):
            for _ in range(trials):
                poly = random_superpoly(rng, c.table, terms=2, max_exp=2)
                poly = transport(poly, ptab)
                for _j in range(k):
                    poly = poly * SuperPoly.generator(
                        ptab, rng.choice(pv_letters))
                u = IntegralForm(c, poly)
                if u.is_zero():
                    continue
                anti = (spencer_delta(homotopy_int(u))
                        + homotopy_int(spencer_delta(u)))
                if anti != u - cohomology_projection(u):
                    bad += 1
        checks.append(_count(
            f"density homotopy hits the identity off the generator "
            f"on R{pp}|{qq}", 4 * trials, bad))

    chart = Chart.standard(p, q)
    ftab = form_table(chart.table)
    checks.append(_count("operator homotopy scales each monomial by its "
                         "counting factor", trials,
                         operator_homotopy_failures(rng, chart, trials)))

    density = UniversalElement.monomial(
        ftab, [fiber_name(n) for n in chart.even_names],
        list(chart.odd_names))
    factor = con3_identity_factor(density)
    total = script_H(script_D(density)) + script_D(script_H(density))
    checks.append(CheckResult(
        "density monomials sit in the operator-homotopy kernel",
        factor == 0 and total.is_zero()))
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
        checks.append(CheckResult(
            f"koszul complex on {pp}|{qq} acyclic below degree zero",
            not any(koszul[1:])))
        checks.append(CheckResult(
            f"koszul degree zero rank one on {pp}|{qq}", koszul[0] == 1))
        checks.append(CheckResult(
            f"dual homology concentrated in degree {pp} on {pp}|{qq}",
            dual == [int(deg == pp) for deg in range(pp + 2)]))
    checks.append(CheckResult(
        "dual class is a total de Rham density on 1|1, 1|2 and 2|1",
        all(densities)))

    coeff = GeneratorTable.chart([], ["e1", "e2", "e3", "e4"])
    bad = 0
    for _ in range(trials):
        pp, qq = rng.choice(((1, 1), (1, 2), (2, 1)))
        algebra = KoszulAlgebra(pp, qq,
                                coefficient_odds=["e1", "e2", "e3", "e4"])
        m = random_invertible_supermatrix(rng, coeff, pp, qq)
        scalar = algebra.induced_automorphism_scalar(m)
        expected = transport(berezinian(m).inverse(),
                             algebra.coefficient_table)
        if scalar != expected:
            bad += 1
    checks.append(_count("class transforms by the reciprocal Berezinian",
                         trials, bad))
    return checks


def _random_parity_field(rng, chart):
    table = chart.table
    comps = {}
    parity = rng.choice((0, 1))
    for name in chart.coordinate_names:
        want = (parity + table.parity(name)) % 2
        comps[name] = random_superpoly(rng, table, parity=want, terms=2,
                                       max_exp=1)
    field = VectorField(chart, comps)
    return field if field.parity() is not None else None


def _random_diffop(rng, table, terms=2, letters=2):
    out = DiffOp.zero(table)
    names = list(table.names)
    for _ in range(rng.randint(1, terms)):
        w = DiffOp.multiplication(random_superpoly(rng, table, terms=2,
                                                   max_exp=1))
        for _k in range(rng.randint(0, letters)):
            w = w.compose(DiffOp.partial(table, rng.choice(names)))
        out = out + w
    return out


def _suite_dmodule(rng, trials, p, q):
    chart = Chart.standard(p, q)
    table = chart.table
    checks = []

    one = IntegralForm(chart, 1)
    killed = all(right_action(one, DiffOp.partial(table, name)).is_zero()
                 for name in chart.coordinate_names)
    checks.append(CheckResult("generator density killed by every "
                              "derivative", killed))

    bad = 0
    for _ in range(trials):
        s = IntegralForm(chart, random_superpoly(rng, table, terms=2,
                                                 max_exp=1))
        x = _random_parity_field(rng, chart)
        y = _random_parity_field(rng, chart)
        if x is None or y is None:
            continue
        xop, yop = x.as_diffop(), y.as_diffop()
        lhs = right_action(s, xop.bracket(yop))
        first = right_action(right_action(s, xop), yop)
        second = right_action(right_action(s, yop), xop)
        rhs = first + second if (x.parity() and y.parity()) else \
            first - second
        if lhs != rhs:
            bad += 1
    checks.append(_count("right action flat on field brackets", trials, bad))

    bad = 0
    for _ in range(trials):
        s = IntegralForm(chart, random_superpoly(rng, table, terms=2,
                                                 max_exp=1))
        f = random_superpoly(rng, table, terms=2, max_exp=1)
        x = _random_parity_field(rng, chart)
        if x is None:
            continue
        mult = DiffOp.multiplication(f)
        xop = x.as_diffop()
        if right_action(s, mult.compose(xop)) != right_action(
                s.times(f), xop):
            bad += 1
        if right_action(s, xop.compose(mult)) != right_action(
                right_action(s, xop), mult):
            bad += 1
    checks.append(_count("connection-style product rules", trials, bad))

    bad = 0
    for _ in range(trials):
        s = IntegralForm(chart, random_superpoly(rng, table, terms=2,
                                                 max_exp=1))
        op1 = _random_diffop(rng, table)
        op2 = _random_diffop(rng, table)
        if right_action(right_action(s, op1), op2) != right_action(
                s, op1.compose(op2)):
            bad += 1
    checks.append(_count("action associative over operator composition",
                         trials, bad))
    return checks


def _suite_integrals(rng, trials, p, q):
    checks = []
    half = Fraction(1, 2)

    line = Chart.standard(0, 1)
    ftab = form_table(line.table)
    theta = transport(SuperPoly.generator(line.table, "th1"), ftab)
    weight, section = gaussian_fiber_integral(line, theta,
                                              [fiber_name("th1")])
    value = weight * berezin_integral(section)
    checks.append(CheckResult(
        "odd tangent line with Gaussian fiber weight integrates to "
        "sqrt(pi)", value == PiValue.pi_power(half)))

    plane = Chart.standard(0, 2)
    top = SuperPoly.generator(plane.table, "th1") * SuperPoly.generator(
        plane.table, "th2")
    checks.append(CheckResult(
        "purely odd plane normalizes to 1",
        berezin_integral(IntegralForm(plane, top)) == 1))

    chart = Chart.standard(1, 2)
    sigma0 = IntegralForm.cohomology_generator(chart)
    ftab = form_table(chart.table)
    dx1 = SuperPoly.generator(ftab, fiber_name("x1"))
    paired = duality_pair_integral(sigma0, dx1, dirac={"x1": 0})
    checks.append(CheckResult(
        "point class against the pinned line form pairs to 1", paired == 1))

    eta = SuperPoly.from_monomial(ftab, {n: 1 for n in chart.odd_names})
    shifted = duality_pair_integral(sigma0, dx1 + d(eta), dirac={"x1": 0})
    checks.append(CheckResult(
        "pairing unchanged by an exact shift of the form",
        shifted == paired == 1))
    return checks


def _suite_stokes(rng, trials, p, q):
    checks = []
    for pp, qq in ((1, 1), (1, 2), (2, 2)):
        chart = Chart.standard(pp, qq)
        ptab = polyvector_table(chart)
        pv_letters = [polyvector_name(n) for n in chart.coordinate_names]
        bad = 0
        for _ in range(trials):
            poly = transport(random_superpoly(rng, chart.table, terms=3,
                                              max_exp=2), ptab)
            poly = poly * SuperPoly.generator(ptab, rng.choice(pv_letters))
            u = IntegralForm(chart, poly)
            if u.is_zero():
                continue
            _value, vanished = stokes_check(u)
            if not vanished:
                bad += 1
        checks.append(_count(
            f"boundary integral vanishes on R{pp}|{qq}", trials, bad))
    return checks


def _suite_susy(rng, trials, p, q):
    checks = []
    cases = [((1, 1), [[[2]]]), ((1, 2), [[[2, 0], [0, 2]]])]
    for (pp, qq), gamma in cases:
        chart = Chart.standard(pp, qq)
        checks.append(CheckResult(
            f"bracket closes on translations for 1|{qq}",
            susy_algebra_check(chart, gamma)))
        checks.append(_count(
            f"action invariant under every generator for 1|{qq}",
            trials * qq, susy_variation_failures(rng, chart, gamma, trials)))
    return checks


def _unimodular_split_map(rng, source: Chart, target: Chart) -> CoordinateMap:
    """A coordinate change whose Jacobian blocks have constant
    determinants, so delta forms transform with polynomial output."""
    p, q = source.p, source.q
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
    checks = []
    charts = [Chart.standard(1, 1), Chart.standard(2, 1),
              Chart.standard(1, 2), Chart.standard(2, 2)]

    bad = 0
    for _ in range(trials):
        chart = rng.choice(charts)
        w = _random_delta_form(rng, chart)
        i = rng.randrange(chart.p)
        a = rng.randrange(chart.q)
        dx = fiber_name(chart.even_names[i])
        dth = fiber_name(chart.odd_names[a])
        anti = cw_apply(f"dd_{dx} {dx}", w) + cw_apply(f"{dx} dd_{dx}", w)
        comm = cw_apply(f"dd_{dth} {dth}", w) - cw_apply(f"{dth} dd_{dth}", w)
        if anti != w or comm != w:
            bad += 1
        if chart.p > 1:
            other = fiber_name(chart.even_names[(i + 1) % chart.p])
            square = cw_apply(f"{dx} {other}", w) + cw_apply(
                f"{other} {dx}", w)
            if not square.is_zero():
                bad += 1
    checks.append(_count("letter relations hold on random delta forms",
                         trials, bad))

    bad = 0
    maps = max(trials // 2, 20)
    pairs = [(Chart(["u1", "u2"], ["et1", "et2"], label="U"),
              Chart(["v1", "v2"], ["ps1", "ps2"], label="V")),
             (Chart(["u"], ["et1", "et2"], label="U"),
              Chart(["v"], ["ps1", "ps2"], label="V"))]
    for _ in range(maps):
        src, tgt = rng.choice(pairs)
        m = _unimodular_split_map(rng, src, tgt)
        ber = release_even_exponents(m.ber_jacobian())
        if DeltaForm.top(tgt).transform(m) != DeltaForm.top(src, ber):
            bad += 1
    checks.append(_count("pivot transforms by the Berezinian", maps, bad))

    bad = 0
    for _ in range(trials):
        chart = rng.choice(charts)
        w = _random_delta_form(rng, chart)
        if _pivot_words(to_integral_form(w)) != w:
            bad += 1
    checks.append(_count("delta and density pictures invert each other",
                         trials, bad))

    bad = 0
    rounds = max(trials // 3, 12)
    for _ in range(rounds):
        src, tgt = pairs[0]
        m = _unimodular_split_map(rng, src, tgt)
        w = _random_delta_form(rng, tgt)
        degs = w.z_degrees()
        if len(degs) != 1:  # zero or of mixed degree
            continue
        (deg,) = degs
        if not tgt.p - deg >= 0:
            continue
        eta = transport(random_superpoly(rng, tgt.table, terms=2, max_exp=1),
                        form_table(tgt.table))
        for _k in range(tgt.p - deg):
            eta = eta * SuperPoly.generator(
                form_table(tgt.table),
                rng.choice([fiber_name(n) for n in tgt.coordinate_names]))
        if eta.is_zero():
            continue
        lhs = pair(to_integral_form(w.transform(m)),
                   release_even_exponents(pullback_form(m, eta)))
        rhs = pair(to_integral_form(w), eta).transform(m)
        if lhs != rhs:
            bad += 1
    checks.append(_count("transform commutes with the density picture",
                         rounds, bad))

    line = Chart.standard(0, 1)
    theta = transport(SuperPoly.generator(line.table, "th1"),
                      form_table(line.table))
    weight, section = gaussian_fiber_integral(line, theta,
                                              [fiber_name("th1")])
    value = weight * berezin_integral(section)
    sqrt_pi = value == PiValue.pi_power(Fraction(1, 2))

    plane = Chart.standard(0, 2)
    sigma = DeltaForm.top(
        plane, SuperPoly.from_monomial(plane.table, {"th1": 1, "th2": 1}))
    unit = berezin_integral(fiber_integral(sigma)) == 1
    checks.append(CheckResult(
        "fiber integration reproduces the benchmark integrals",
        sqrt_pi and unit))
    return checks


SUITES: dict[str, SuiteSpec] = {
    "nilpotency": SuiteSpec(_suite_nilpotency, 50,
                            "every differential squares to zero"),
    "berezinian": SuiteSpec(_suite_berezinian, 100,
                            "Berezinian multiplicativity and expansions"),
    "cocycle": SuiteSpec(_suite_cocycle, 50,
                         "chain rule for Berezinians of coordinate changes"),
    "homotopies": SuiteSpec(_suite_homotopies, 12,
                            "contracting homotopies hit the identity"),
    "koszul": SuiteSpec(_suite_koszul, 20,
                        "homology ranks and class transport"),
    "dmodule": SuiteSpec(_suite_dmodule, 50,
                         "right module structure on densities"),
    "integrals": SuiteSpec(_suite_integrals, 1,
                           "benchmark integral values"),
    "stokes": SuiteSpec(_suite_stokes, 50,
                        "boundary integrals vanish"),
    "susy": SuiteSpec(_suite_susy, 10,
                      "supersymmetry algebra and invariance"),
    "delta-forms": SuiteSpec(_suite_delta_forms, 50,
                             "delta form calculus and transforms"),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None,
              p: int = 2, q: int = 2) -> list[CheckResult]:
    """Run one suite with a fresh seeded generator."""
    spec = SUITES[name]
    rng = random.Random(seed)
    return spec.run(rng, trials if trials is not None else spec.trials, p, q)
