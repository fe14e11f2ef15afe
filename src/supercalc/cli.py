"""Command line front end: one click command per operation.

The expression language the commands read and print (one ring R^{p|q}
per invocation, declared as ``--ring p|q``) lives in
:mod:`supercalc.expr`; every printer emits text the parser accepts back,
so command outputs can be fed to further commands.

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
from fractions import Fraction

import click

from supercalc.charts import cocycle_check
from supercalc.derham import d, homotopy_h
from supercalc.diffops import DiffOp
# ExpressionError, Poly and render are imported for callers that reach the
# expression language through this module.
from supercalc.expr import (  # noqa: F401
    BASE,
    FORM,
    ExpressionError,
    Markers,
    Poly,
    Ring,
    matrix_json,
    parse_value,
    read_expression_file,
    read_map_file,
    read_matrix_file,
    render,
    want,
)
from supercalc.integral_forms import (
    IntegralForm,
    homotopy_int,
    lie_derivative_ber,
    pair,
    spencer_delta,
)
from supercalc.integration import (
    berezin_integral,
    duality_pair_integral,
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
from supercalc.supermatrix import berezinian

JSON_FORMAT = "supercalc.v1"


# --- command plumbing ------------------------------------------------------


def _echo(text: str) -> None:
    # click.echo's default stdout is cached per sys.stdout object and the
    # cache entry keeps its key alive, so each in-process invocation (as
    # under click's CliRunner) would leak its captured output stream
    click.echo(text, file=click.get_text_stream("stdout"))


def _emit(json_mode: bool, command: str, text: str, ring: Ring | None = None,
          **extra):
    if not json_mode:
        _echo(text)
        return
    payload = {"format": JSON_FORMAT, "command": command, "result": text}
    if ring is not None:
        payload["ring"] = ring.describe()
    payload.update(extra)
    _echo(json.dumps(payload, sort_keys=True))


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


def _gaussian_option(f):
    return click.option("--gaussian", multiple=True, metavar="NAME",
                        help="coordinate carrying the Gaussian weight")(f)


def _markers_options(f):
    f = _gaussian_option(f)
    f = click.option("--dirac", multiple=True, metavar="NAME=POINT",
                     help="coordinate pinned at a rational point")(f)
    f = click.option("--formal", multiple=True, metavar="NAME",
                     help="coordinate left uninterpreted")(f)
    return f


def _gaussian_flags(gaussian) -> frozenset:
    """The ``--gaussian`` names; one given twice would weigh exp(-2z^2)."""
    names = frozenset(gaussian)
    if len(names) < len(gaussian):
        raise ValueError("each even coordinate takes at most one marker")
    return names


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
    # every pin kept (``of`` would keep the last per name), so that
    # ``merged`` refuses two on one coordinate
    return markers.merged(Markers(_gaussian_flags(gaussian), tuple(sorted(pins)),
                                  frozenset(formal)))


def _gaussian_weights(markers: Markers, gaussian, what: str) -> set:
    """The coordinates weighted by gauss(...) tags or ``--gaussian``, for a
    command that has no use for dirac(...) or formal(...) tags."""
    if markers.dirac or markers.formal:
        raise click.UsageError(f"the {what} takes gauss(...) tags only")
    return set(markers.merged(Markers.of(_gaussian_flags(gaussian))).gaussian)


class _Command(click.Command):
    """Reports a library refusal (``ValueError``, ``ZeroDivisionError``) as
    a usage error of the command, so bad input exits 2 without a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, ZeroDivisionError) as exc:
            raise click.UsageError(str(exc), ctx) from None


class _Commands(click.Group):
    """Reports an exponent too large for its key field as a usage error."""

    command_class = _Command

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OverflowError as exc:
            raise click.UsageError(str(exc)) from None


@click.group(cls=_Commands)
def main():
    """Exact calculator for superspace forms, densities and delta forms."""


@main.command("d")
@click.argument("expression")
@_ring_option
@_json_option
def cmd_d(expression, ring_text, json_mode):
    """Exterior differential of a form."""
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the differential takes no marker tags")
    out = d(want(ring, value, FORM))
    _emit(json_mode, "d", str(out), ring)


@main.command("homotopy")
@click.argument("expression")
@click.option("--degree", type=int, default=None,
              help="insist on this fiber degree for forms")
@_ring_option
@_json_option
def cmd_homotopy(expression, degree, ring_text, json_mode):
    """Contracting homotopy: forms (fiber degree >= 1) or densities."""
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the homotopy takes no marker tags")
    if isinstance(value, IntegralForm):
        if degree is not None:
            raise click.UsageError("--degree applies to forms only, not to densities")
        out = homotopy_int(value)
    else:
        out = homotopy_h(want(ring, value, FORM), degree)
    _emit(json_mode, "homotopy", str(out), ring)


@main.command("spencer-delta")
@click.argument("expression")
@_gaussian_option
@_ring_option
@_json_option
def cmd_spencer_delta(expression, gaussian, ring_text, json_mode):
    """Differential of a density; Gaussian weights ride along."""
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    weights = _gaussian_weights(markers, gaussian, "Spencer differential")
    u = want(ring, value, IntegralForm)
    out = spencer_delta(u, weights)
    _emit(json_mode, "spencer-delta", str(out), ring)


@main.command("lie-ber")
@click.argument("density")
@click.argument("field")
@_gaussian_option
@_ring_option
@_json_option
def cmd_lie_ber(density, field, gaussian, ring_text, json_mode):
    """Lie derivative of a density along a vector field.

    FIELD lists components as 'name = expr' separated by semicolons,
    for example 'x1 = th1; th1 = 1'.
    """
    ring = Ring.parse(ring_text)
    value, markers = parse_value(density, ring)
    weights = _gaussian_weights(markers, gaussian, "Lie derivative")
    u = want(ring, value, IntegralForm)
    comps = {}
    end = -1    # where the previous piece ended in FIELD
    for piece in field.split(";"):
        end += len(piece) + 1
        if not piece.strip():
            continue
        name, eq, rhs = piece.partition("=")
        name = name.strip()
        if not eq or name not in ring.chart.coordinate_names:
            raise click.UsageError(
                f"field components read 'name = expr', got {piece.strip()!r}")
        # a refusal names its place in FIELD: rows runs up to the '='
        rows = field[:end - len(rhs)].splitlines()
        v, extra = parse_value(rhs, ring, ("FIELD", len(rows), len(rows[-1]) + 1))
        if extra:
            raise click.UsageError("field components take no marker tags")
        comps[name] = want(ring, v, BASE)
    out = lie_derivative_ber(u, DiffOp.vector_field(ring.chart.table, comps), weights)
    _emit(json_mode, "lie-ber", str(out), ring)


@main.command("pair")
@click.argument("density")
@click.argument("form")
@_ring_option
@_json_option
def cmd_pair(density, form, ring_text, json_mode):
    """Contract a density's polyvector letters against a form."""
    ring = Ring.parse(ring_text)
    u, m1 = parse_value(density, ring)
    omega, m2 = parse_value(form, ring)
    if m1 or m2:
        raise click.UsageError("the pairing takes no marker tags; "
                               "use pd-pair to integrate")
    out = pair(want(ring, u, IntegralForm), want(ring, omega, FORM))
    _emit(json_mode, "pair", str(out), ring)


@main.command("ber-matrix")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_ber_matrix(matrix_file, ring_text, json_mode):
    """Berezinian of a supermatrix given as a JSON file."""
    ring = Ring.parse(ring_text)
    m = read_matrix_file(matrix_file, ring)
    out = berezinian(m)
    _emit(json_mode, "ber-matrix", str(out), ring)


@main.command("jacobian")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_jacobian(map_file, ring_text, json_mode):
    """Jacobian supermatrix of a coordinate change."""
    ring = Ring.parse(ring_text)
    m = read_map_file(map_file, ring)
    data = matrix_json(m.jacobian())
    if json_mode:
        _echo(json.dumps({"format": JSON_FORMAT, "command": "jacobian",
                          "ring": ring.describe(), "result": data},
                         sort_keys=True))
    else:
        _echo(json.dumps(data, indent=2, sort_keys=True))


@main.command("ber-jacobian")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
def cmd_ber_jacobian(map_file, ring_text, json_mode):
    """Berezinian of the Jacobian of a coordinate change."""
    ring = Ring.parse(ring_text)
    m = read_map_file(map_file, ring)
    out = m.ber_jacobian()
    _emit(json_mode, "ber-jacobian", str(out), ring)


@main.command("cocycle")
@click.argument("map_file_1", type=click.Path(exists=True, dir_okay=False))
@click.argument("map_file_2", type=click.Path(exists=True, dir_okay=False))
@_ring_option
@_json_option
@click.pass_context
def cmd_cocycle(ctx, map_file_1, map_file_2, ring_text, json_mode):
    """Check the chain rule for Berezinians of two coordinate changes."""
    ring = Ring.parse(ring_text)
    m1 = read_map_file(map_file_1, ring)
    m2 = read_map_file(map_file_2, ring)
    ok = cocycle_check(m1, m2)
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
    rows = [{"degree": deg, "kernel": ranks.kernel_dim,
             "image": ranks.image_dim, "homology": ranks.homology_dim}
            for deg, ranks in zip(degrees,
                                  algebra.homology_scan(which, degrees, cutoff))]
    if json_mode:
        _echo(json.dumps({"format": JSON_FORMAT, "command": "koszul",
                          "p": p, "q": q, "which": which,
                          "cutoff": cutoff, "result": rows},
                         sort_keys=True))
    else:
        for row in rows:
            _echo(f"degree {row['degree']}: kernel {row['kernel']} "
                  f"image {row['image']} homology {row['homology']}")


@main.command("con3-check")
@click.option("--trials", type=click.IntRange(min=0), default=25, show_default=True)
@_seed_option
@_ring_option
@_json_option
@click.pass_context
def cmd_con3_check(ctx, trials, seed, ring_text, json_mode):
    """Operator homotopy identity on random monomials, factor included."""
    ring = Ring.parse(ring_text)
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
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    markers = _collect_markers(markers, gaussian, dirac, formal)
    out = berezin_integral(want(ring, value, IntegralForm), **markers.kwargs())
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
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    weights = _gaussian_weights(markers, gaussian, "Stokes check")
    u = want(ring, value, IntegralForm)
    value_out, vanished = stokes_check(u, weights or None)
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
    ring = Ring.parse(ring_text)
    sigma, m1 = read_expression_file(density_file, ring)
    eta, m2 = read_expression_file(form_file, ring)
    markers = _collect_markers(m1.merged(m2), gaussian, dirac, formal)
    kwargs = markers.kwargs()
    if kwargs.pop("formal"):
        raise click.UsageError("formal coordinates cannot be integrated")
    out = duality_pair_integral(want(ring, sigma, IntegralForm),
                                want(ring, eta, FORM), **kwargs)
    _emit(json_mode, "pd-pair", str(out), ring)


@main.command("susy-check")
@click.option("--gamma", required=True,
              help="structure constants as JSON: a number for 1|1, a q by q "
                   "matrix for one even direction, or a list of p matrices")
@click.option("--trials", type=click.IntRange(min=0), default=10, show_default=True,
              help="random Lagrangians for the invariance check")
@_seed_option
@_ring_option
@_json_option
@click.pass_context
def cmd_susy_check(ctx, gamma, trials, seed, ring_text, json_mode):
    """Check the supersymmetry bracket and action invariance."""
    ring = Ring.parse(ring_text)
    tensor = _parse_gamma(gamma, ring.p, ring.q)
    bracket_ok = susy_algebra_check(ring.chart, tensor)
    failures = susy_variation_failures(random.Random(seed or 0),
                                       ring.chart, tensor, trials)
    ok = bracket_ok and failures == 0
    text = (f"bracket {'holds' if bracket_ok else 'violated'}; "
            f"{trials} Lagrangians, {failures} non-invariant variations")
    _emit(json_mode, "susy-check", text, ring, passed=ok,
          bracket=bracket_ok, failures=failures)
    if not ok:
        ctx.exit(1)


def _parse_gamma(text: str, p: int, q: int):
    """The --gamma tensor as nested lists indexed [mu][a][b]: a number
    stands for one 1 by 1 matrix and a matrix for a list of one.  JSON
    numbers are read exactly (0.1 is 1/10); any other leaf is refused."""
    def refuse(constant):
        raise click.UsageError(f"--gamma entries must be rational, got {constant}")

    try:
        data = json.loads(text, parse_float=Fraction, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"--gamma is not valid JSON: {exc}")

    def nested(x, levels):
        if not levels:
            return type(x) in (int, Fraction)   # bool is not a number here
        return isinstance(x, list) and all(nested(y, levels - 1) for y in x)

    if nested(data, 0):
        return [[[data]]]
    if nested(data, 3):
        return data
    if nested(data, 2):
        return [data]
    raise click.UsageError("--gamma must be a number, a matrix, or a list of "
                           "matrices, with rational entries")


@main.command("cw-apply")
@click.argument("word")
@click.argument("expression")
@_ring_option
@_json_option
def cmd_cw_apply(word, expression, ring_text, json_mode):
    """Apply a word of fiber letters (dx1, dd_dth1, ...) to a delta form."""
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("letter words take no marker tags")
    form = want(ring, value, DeltaForm)
    out = cw_apply(CWOperator(word), form)
    _emit(json_mode, "cw-apply", str(out), ring)


@main.command("pseudo-transform")
@click.argument("map_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("expression")
@_ring_option
@_json_option
def cmd_pseudo_transform(map_file, expression, ring_text, json_mode):
    """Pull a delta form through a coordinate change."""
    ring = Ring.parse(ring_text)
    m = read_map_file(map_file, ring)
    value, markers = parse_value(expression, ring)
    if markers:
        raise click.UsageError("the transform takes no marker tags")
    form = want(ring, value, DeltaForm)
    out = form.transform(m)
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
    ring = Ring.parse(ring_text)
    value, markers = parse_value(expression, ring)
    weights = _gaussian_weights(markers, gaussian, "fiber integral")
    if weights:
        if isinstance(value, DeltaForm):
            raise click.UsageError(
                "Gaussian fiber weights apply to polynomial fiber "
                "dependence; delta forms integrate without them")
        weight, section = gaussian_fiber_integral(
            ring.chart, want(ring, value, FORM), sorted(weights))
        text = f"{weight} * ({section})"
        _emit(json_mode, "fiber-int", text, ring,
              weight=str(weight), section=str(section))
        return
    out = fiber_integral(want(ring, value, DeltaForm))
    _emit(json_mode, "fiber-int", str(out), ring)


# --- verify ----------------------------------------------------------------


@main.command("verify", help="Run one named identity suite, or all of "
              f"them.\n\nSuites: {', '.join(SUITES)}.\n\n"
              "--p and --q set the chart of nilpotency, dmodule and the operator "
              "checks of homotopies; every other check uses fixed charts. --trials "
              "does not scale berezinian's block-diagonal and infinitesimal checks "
              "(10 draws each), delta-forms' pivot and transform checks "
              "(max(trials // 2, 20) and max(trials // 3, 12) draws), or the checks "
              "that draw nothing.")
@click.argument("suite", default="all")
@click.option("--trials", type=click.IntRange(min=0), default=None,
              help="override the suite's sample count")
@click.option("--p", "p", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--q", "q", type=click.IntRange(min=0), default=2, show_default=True)
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
                _echo(f"{status:4} {name}: {r.label}{detail}")
    if json_mode:
        _echo(json.dumps({"format": JSON_FORMAT, "command": "verify",
                          "seed": seed, "passed": all_ok,
                          "suites": report}, sort_keys=True))
    else:
        _echo(f"{'all suites passed' if all_ok else 'FAILURES above'}"
              f" (seed {seed})")
    if not all_ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()
