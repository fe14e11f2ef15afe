"""The command line's text format: printed values parse back, and bad
input is a usage error, never a traceback."""

from __future__ import annotations

import gc
import io
import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from supercalc.algebra import SuperPoly, transport
from supercalc.cli import main
from supercalc.derham import d
from supercalc.diffops import DiffOp
from supercalc.expr import (
    FORM,
    ExpressionError,
    Marked,
    Markers,
    Poly,
    Ring,
    parse_value,
    render,
    want,
)
from supercalc.integral_forms import IntegralForm
from supercalc.pseudoforms import DeltaForm, from_integral_form
from supercalc.randoms import random_superpoly

RING = Ring(2, 2)
SAMPLES = 300


def parse_poly(text: str, table) -> SuperPoly:
    """Parse printer text and read it as an element over ``table``."""
    value, markers = parse_value(text, RING)
    assert not markers
    if isinstance(value, Fraction):
        return SuperPoly.constant(table, value)
    assert isinstance(value, Poly)
    return value.poly if value.poly.table == table else transport(value.poly,
                                                                  table)


def random_diffop(rng: random.Random) -> DiffOp:
    table = RING.chart.table
    out = DiffOp.zero(table)
    for _ in range(rng.randint(1, 3)):
        word = DiffOp.multiplication(random_superpoly(rng, table, terms=2,
                                                      max_exp=2))
        for _k in range(rng.randint(0, 3)):
            word = word.compose(DiffOp.partial(
                table, rng.choice(RING.chart.coordinate_names)))
        out = out + word
    return out


@pytest.mark.parametrize("layer", ["base", "form"])
def test_printed_polynomials_parse_back(layer):
    table = RING.chart.table if layer == "base" else RING.ftab
    rng = random.Random(7)
    for _ in range(SAMPLES):
        v = random_superpoly(rng, table, terms=4, max_exp=2)
        assert parse_poly(str(v), table) == v, str(v)


def test_printed_diffops_parse_back():
    rng = random.Random(7)
    for _ in range(SAMPLES):
        op = random_diffop(rng)
        value, _ = parse_value(str(op), RING)
        if not isinstance(value, DiffOp):
            value = DiffOp.multiplication(parse_poly(str(op),
                                                     RING.chart.table))
        assert value == op, str(op)


SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
ROUND_TRIPS = 100  # draws per shape


def parse_as(text: str, ring: Ring, kind):
    """Parse printer text as the kind a command would want."""
    value, markers = parse_value(text, ring)
    return want(ring, value, kind), markers


@pytest.mark.parametrize("p, q", SHAPES)
def test_printed_delta_forms_parse_back(p, q):
    ring = Ring(p, q)
    rng = random.Random(10 * p + q)
    for _ in range(ROUND_TRIPS):
        density = IntegralForm(ring.chart, random_superpoly(
            rng, ring.ptab, terms=3, max_exp=2))
        w = from_integral_form(density)
        assert parse_as(str(w), ring, DeltaForm) == (w, Markers.none()), str(w)


@pytest.mark.parametrize("p, q", SHAPES)
def test_printed_top_degree_densities_parse_back(p, q):
    ring = Ring(p, q)
    rng = random.Random(20 * p + q)
    for _ in range(ROUND_TRIPS):
        u = IntegralForm(ring.chart, random_superpoly(
            rng, ring.chart.table, terms=4, max_exp=2))
        assert parse_as(str(u), ring, IntegralForm) == (u, Markers.none()), str(u)


def random_markers(rng: random.Random, ring: Ring) -> Markers:
    """At least one tag, and each even coordinate in at most one."""
    tags = {n: rng.choice(("gauss", "dirac", "formal", None))
            for n in ring.chart.even_names}
    if not any(tags.values()):
        tags[ring.chart.even_names[0]] = "gauss"
    names = {tag: [n for n, t in tags.items() if t == tag] for tag in tags.values()}
    pins = tuple((n, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 for n in names.get("dirac", []))
    return Markers(frozenset(names.get("gauss", [])), pins,
                   frozenset(names.get("formal", [])))


@pytest.mark.parametrize("p, q", SHAPES)
def test_printed_tagged_values_parse_back(p, q):
    ring = Ring(p, q)
    rng = random.Random(30 * p + q)
    for _ in range(ROUND_TRIPS):
        markers = random_markers(rng, ring)
        u = IntegralForm(ring.chart, random_superpoly(
            rng, ring.chart.table, terms=4, max_exp=2))
        text = render(Marked(u, markers))
        assert parse_as(text, ring, IntegralForm) == (u, markers), text
        omega = random_superpoly(rng, ring.ftab, terms=4, max_exp=2)
        text = render(Marked(Poly(omega, FORM), markers))
        assert parse_as(text, ring, FORM) == (omega, markers), text


def test_a_delta_term_takes_any_form_factor():
    def cw_apply(word, text):
        return CliRunner().invoke(main, ["cw-apply", "--ring", "1|1", "--",
                                         word, text])

    product = cw_apply("dd_dth1", "(dx1+x1*dx1)*del(dth1)")
    expanded = cw_apply("dd_dth1", "dx1*del(dth1) + x1*dx1*del(dth1)")
    assert product.exit_code == 0, product.output
    assert product.output == expanded.output == "(1 + x1) dx1 del(dth1,1)\n"
    # a quotient by a coordinate may scale the term but not sit in a form
    quotient = cw_apply("dd_dth1", "dx1/x1*del(dth1)")
    assert quotient.exit_code == 2
    assert "Error: non-polynomial coefficient" in quotient.output
    assert cw_apply("dd_dth1", "1/x1*dx1*del(dth1)").output == \
        "(1/x1) dx1 del(dth1,1)\n"
    assert cw_apply("", "del(dth1)*dx1*th1").output == "(-th1) dx1 del(dth1)\n"


def test_a_quotient_form_pairs_with_a_quotient_density():
    result = CliRunner().invoke(main, ["pair", "--ring", "1|1", "--",
                                       "Ber @ th1/(1+x1)", "1/(1+x1)"])
    assert result.exit_code == 0, result.output
    # the quotient holds x1 alone, no polyvector letter
    assert result.output == "Ber @ 1/(1 + 2*x1 + x1^2)*th1\n"
    ring = Ring(1, 1)
    assert parse_value(result.output, ring) == parse_value("Ber @ th1/(1+x1)^2", ring)


def test_invocations_leave_no_output_stream_alive():
    def live_streams():
        gc.collect()
        return sum(isinstance(o, io.TextIOWrapper) for o in gc.get_objects())
    runner = CliRunner()
    before = live_streams()
    for args in (["d", "--", "x1*th1"], ["d", "--json", "--", "x1"],
                 ["koszul", "--p", "1", "--q", "1", "--degree", "0"]) * 10:
        assert runner.invoke(main, args).exit_code == 0
    assert live_streams() == before


def test_deep_nesting_is_an_expression_error():
    text = "(" * 3000 + "x1" + ")" * 3000
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_value(text, RING)
    result = CliRunner().invoke(main, ["d", "--", text])
    assert result.exit_code == 2
    assert "nested too deeply" in result.output


@pytest.mark.parametrize("args, expected", [
    (["lie-ber", "--ring", "1|1", "--gaussian", "x1", "--",
      "Ber @ x1*th1", "x1 = x1; th1 = th1"],
     "Ber @ 2*x1*th1 - 2*x1^3*th1"),
    (["lie-ber", "--ring", "2|1", "--",
      "Ber @ x1*x2*th1 gauss(x1,x2)", "x1 = x2; x2 = x1"],
     "Ber @ x2^2*th1 + x1^2*th1 - 4*x1^2*x2^2*th1"),
])
def test_gaussian_weight_enters_the_lie_derivative(args, expected):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.output.strip() == expected


@pytest.mark.parametrize("text", ["th2/(x2*x1)", "x1/(x2*x1)*th2", "th1/(3*x1^2*x2)"])
def test_a_one_term_denominator_of_several_letters_reads_back(text):
    # x2*x1 in a denominator prints in parentheses: 1/x1*x2 reads as x2/x1
    value = parse_value(text, RING)[0].poly
    assert parse_value(str(value), RING)[0].poly == value
    result = CliRunner().invoke(main, ["d", "--ring", "2|2", "--", text])
    assert result.exit_code == 0, result.output
    assert str(parse_value(result.output, RING)[0].poly) == result.output.strip()
    if text == "th2/(x2*x1)":
        assert result.output.startswith("1/(x1*x2)*dth2 - ")


@pytest.mark.parametrize("text, expected", [
    ("(x1^2 - 1)/(x1^2 + 3*x1 + 2)", "3/(4 + 4*x1 + x1^2)*dx1"),
    ("x1^2/(1+x1)", "(2*x1 + x1^2)/(1 + 2*x1 + x1^2)*dx1"),
])
def test_a_typed_quotient_prints_collected(text, expected):
    # the numerator is absorbed beside the divisor, so its even powers
    # join the quotient instead of staying in the monomial
    ring = Ring(1, 1)
    result = CliRunner().invoke(main, ["d", "--ring", "1|1", "--", text])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == expected
    value = parse_value(text, ring)[0].poly
    assert parse_value(expected, ring)[0].poly == d(transport(value, ring.ftab))


@pytest.mark.parametrize("ring, delta, output", [
    ("2|0", "3", "(3) dx1"),
    ("1|1", "(x1) * ((1) del(dth1))", "(x1) dx1 del(dth1)"),
])
def test_cw_apply_reads_constants_and_products(ring, delta, output):
    result = CliRunner().invoke(main, ["cw-apply", "--ring", ring, "--", "dx1", delta])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == output


def test_printing_releases_absorbed_powers():
    # left_derivative leaves x1^2/x1 as 2/x1*x1 - 1/(x1^2)*x1^2; equal
    # elements must print alike
    args = ["lie-ber", "--ring", "1|1", "--"]
    result = CliRunner().invoke(main, args + ["Ber @ x1^2/x1*th1", "x1 = 1"])
    assert result.exit_code == 0, result.output
    assert result.output == "Ber @ th1\n"
    assert CliRunner().invoke(main, args + ["Ber @ x1*th1", "x1 = 1"]).output \
        == result.output


@pytest.mark.parametrize("name", ["th1", "y"])
@pytest.mark.parametrize("command, operands", [
    ("spencer-delta", ["Ber @ x1*th1"]),
    ("lie-ber", ["Ber @ x1*th1", "x1 = x1"]),
])
def test_gaussian_weight_needs_an_even_coordinate(command, operands, name):
    result = CliRunner().invoke(main, [command, "--ring", "1|1",
                                       "--gaussian", name, "--", *operands])
    assert result.exit_code == 2
    assert f"{name!r} is not an even coordinate" in result.output


@pytest.mark.parametrize("command, operands", [
    ("spencer-delta", ["Ber @ x1*th1"]),
    ("lie-ber", ["Ber @ x1*th1", "x1 = x1"]),
])
@pytest.mark.parametrize("option", ["--dirac=x1=0", "--formal=x1"])
def test_only_integrals_take_dirac_and_formal_options(command, operands, option):
    result = CliRunner().invoke(main, [command, "--ring", "1|1", option, "--",
                                       *operands])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert option.split("=")[0] in result.output


@pytest.mark.parametrize("p, q", [(-1, 1), (1, -1)])
def test_koszul_negative_rank_is_a_usage_error(p, q):
    result = CliRunner().invoke(main, ["koszul", "--p", str(p),
                                       "--q", str(q)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "ranks must be nonnegative" in result.output


# `supercalc koszul` output at 0|0, 1|1 and 2|1 on both sides, as text and
# as --json, byte for byte; the Koszul complexes must keep these however
# their tables are built.
KOSZUL_GOLDEN = {
    (0, 0, "koszul"): (
        "degree 0: kernel 1 image 0 homology 1\n"
        "degree -1: kernel 0 image 0 homology 0\n"
        "degree -2: kernel 0 image 0 homology 0\n"
        "degree -3: kernel 0 image 0 homology 0\n"
        "degree -4: kernel 0 image 0 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 0, "q": 0, '
        '"result": [{"degree": 0, "homology": 1, "image": 0, "kernel": 1}, {"degree": '
        '-1, "homology": 0, "image": 0, "kernel": 0}, {"degree": -2, "homology": 0, '
        '"image": 0, "kernel": 0}, {"degree": -3, "homology": 0, "image": 0, "kernel": '
        '0}, {"degree": -4, "homology": 0, "image": 0, "kernel": 0}], "which": '
        '"koszul"}\n'),
    (0, 0, "dual"): (
        "degree 0: kernel 1 image 0 homology 1\n"
        "degree 1: kernel 0 image 0 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 0, "q": 0, '
        '"result": [{"degree": 0, "homology": 1, "image": 0, "kernel": 1}, {"degree": '
        '1, "homology": 0, "image": 0, "kernel": 0}], "which": "dual"}\n'),
    (1, 1, "koszul"): (
        "degree 0: kernel 13 image 12 homology 1\n"
        "degree -1: kernel 12 image 12 homology 0\n"
        "degree -2: kernel 12 image 12 homology 0\n"
        "degree -3: kernel 12 image 12 homology 0\n"
        "degree -4: kernel 12 image 12 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 1, "q": 1, '
        '"result": [{"degree": 0, "homology": 1, "image": 12, "kernel": 13}, {"degree": '
        '-1, "homology": 0, "image": 12, "kernel": 12}, {"degree": -2, "homology": 0, '
        '"image": 12, "kernel": 12}, {"degree": -3, "homology": 0, "image": 12, '
        '"kernel": 12}, {"degree": -4, "homology": 0, "image": 12, "kernel": 12}], '
        '"which": "koszul"}\n'),
    (1, 1, "dual"): (
        "degree 0: kernel 0 image 0 homology 0\n"
        "degree 1: kernel 12 image 11 homology 1\n"
        "degree 2: kernel 12 image 12 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 1, "q": 1, '
        '"result": [{"degree": 0, "homology": 0, "image": 0, "kernel": 0}, {"degree": '
        '1, "homology": 1, "image": 11, "kernel": 12}, {"degree": 2, "homology": 0, '
        '"image": 12, "kernel": 12}], "which": "dual"}\n'),
    (2, 1, "koszul"): (
        "degree 0: kernel 49 image 48 homology 1\n"
        "degree -1: kernel 84 image 84 homology 0\n"
        "degree -2: kernel 84 image 84 homology 0\n"
        "degree -3: kernel 84 image 84 homology 0\n"
        "degree -4: kernel 84 image 84 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 2, "q": 1, '
        '"result": [{"degree": 0, "homology": 1, "image": 48, "kernel": 49}, {"degree": '
        '-1, "homology": 0, "image": 84, "kernel": 84}, {"degree": -2, "homology": 0, '
        '"image": 84, "kernel": 84}, {"degree": -3, "homology": 0, "image": 84, '
        '"kernel": 84}, {"degree": -4, "homology": 0, "image": 84, "kernel": 84}], '
        '"which": "koszul"}\n'),
    (2, 1, "dual"): (
        "degree 0: kernel 0 image 0 homology 0\n"
        "degree 1: kernel 36 image 36 homology 0\n"
        "degree 2: kernel 84 image 83 homology 1\n"
        "degree 3: kernel 84 image 84 homology 0\n",
        '{"command": "koszul", "cutoff": 6, "format": "supercalc.v1", "p": 2, "q": 1, '
        '"result": [{"degree": 0, "homology": 0, "image": 0, "kernel": 0}, {"degree": '
        '1, "homology": 0, "image": 36, "kernel": 36}, {"degree": 2, "homology": 1, '
        '"image": 83, "kernel": 84}, {"degree": 3, "homology": 0, "image": 84, '
        '"kernel": 84}], "which": "dual"}\n'),
}


@pytest.mark.parametrize("p, q, which", sorted(KOSZUL_GOLDEN))
def test_koszul_output_is_pinned(p, q, which):
    text, as_json = KOSZUL_GOLDEN[p, q, which]
    args = ["koszul", "--p", str(p), "--q", str(q), "--which", which]
    for extra, expected in (([], text), (["--json"], as_json)):
        result = CliRunner().invoke(main, args + extra)
        assert result.exit_code == 0, result.output
        assert result.output == expected


@pytest.mark.parametrize("args, option", [
    (["verify", "homotopies", "--p", "-1", "--q", "1"], "--p"),
    (["verify", "homotopies", "--p", "1", "--q", "-1"], "--q"),
    (["verify", "nilpotency", "--trials", "-1"], "--trials"),
    (["con3-check", "--ring", "1|1", "--trials", "-2"], "--trials"),
    (["susy-check", "--ring", "1|1", "--gamma", "1", "--trials", "-1"], "--trials"),
])
def test_negative_sizes_are_usage_errors(args, option):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Usage:" in result.output and f"Invalid value for '{option}'" in result.output


@pytest.mark.parametrize("command, text, message", [
    ("d", "pddx1", "unknown generator 'pddx1'"),
    ("d", "x1^40000", "an even exponent exceeds 32767"),
    ("homotopy", "x1^32767*dx1", "an even exponent exceeds 32767"),
])
def test_bad_letters_and_huge_powers_are_usage_errors(command, text, message):
    result = CliRunner().invoke(main, [command, "--", text])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output


@pytest.mark.parametrize("args, message", [
    (["pair", "--ring", "1|1", "--", "Ber @ 1", "dx1"],
     "form degree exceeds the polyvector degree"),
    (["homotopy", "--", "Ber*1/x1"], "non-polynomial coefficient"),
    (["cw-apply", "--ring", "1|1", "--", "dd_dth1 dz", "dx1*del(dth1)"],
     "'dz' is not a fiber letter of the chart"),
    (["cw-apply", "--ring", "1|1", "--", "dth1 dd_dth1", "dx1*del(dth1,32767)"],
     "an even exponent exceeds 32767"),
    (["cw-apply", "--ring", "1|1", "--", "dx1", "((1) del(dth1)) * ((1) del(dth1))"],
     "the product of two full delta forms vanishes identically"),
])
def test_library_refusals_are_usage_errors(args, message):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert message in result.output


GAMMA_SHAPE = ("--gamma must be a number, a matrix, or a list of matrices, "
               "with rational entries")


@pytest.mark.parametrize("gamma, message", [
    ("[]", "need 1 coefficient matrices, one per even coordinate"),
    ("null", GAMMA_SHAPE),
    ("{}", GAMMA_SHAPE),
    ("[[[true]]]", GAMMA_SHAPE),
    ("true", GAMMA_SHAPE),
    ('"1/2"', GAMMA_SHAPE),
    ("[[[1], 2]]", GAMMA_SHAPE),
    ("NaN", "--gamma entries must be rational, got NaN"),
    ("[[Infinity]]", "--gamma entries must be rational, got Infinity"),
])
def test_bad_gamma_is_a_usage_error(gamma, message):
    result = CliRunner().invoke(main, ["susy-check", "--ring", "1|1", "--gamma", gamma])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"Error: {message}\n" in result.output


def test_gamma_decimals_are_read_exactly():
    from supercalc.cli import _parse_gamma

    tensor = _parse_gamma("0.1", 1, 1)
    assert tensor == [[[Fraction(1, 10)]]] and type(tensor[0][0][0]) is Fraction
    assert _parse_gamma("[[1, 0.5], [0.5, 2]]", 1, 2) == [[[1, Fraction(1, 2)],
                                                           [Fraction(1, 2), 2]]]
    result = CliRunner().invoke(main, ["susy-check", "--ring", "1|1", "--gamma", "0.1"])
    assert result.exit_code == 0, result.output


def test_homotopy_degree_on_a_density_is_a_usage_error():
    result = CliRunner().invoke(main, ["homotopy", "--ring", "1|1", "--degree", "3",
                                       "--", "Ber @ x1*th1"])
    assert result.exit_code == 2
    assert result.output == _usage("homotopy", "EXPRESSION",
                                   "--degree applies to forms only, not to densities")
    result = CliRunner().invoke(main, ["homotopy", "--ring", "1|1", "--degree", "1",
                                       "--", "x1*dx1"])
    assert (result.exit_code, result.output) == (0, "1/2*x1^2\n")


@pytest.mark.parametrize("density", ["Ber @ x1^2/x1", "Ber*x1^3/x1^2"])
def test_homotopy_ignores_where_even_powers_sit(density):
    want = CliRunner().invoke(main, ["homotopy", "--ring", "1|1", "--", "Ber @ x1"])
    result = CliRunner().invoke(main, ["homotopy", "--ring", "1|1", "--", density])
    assert want.output == "Ber @ 1/3*x1*pdth1*th1 - 1/3*x1^2*pdx1\n"
    assert result.exit_code == 0, result.output
    assert result.output == want.output


# A 4|4 supermatrix over the ring 2|2; the printed Berezinian was pinned
# from the Leibniz determinant and adjugate inverse that det_even and
# inv_even replaced.
BER_MATRIX_4_4 = [
    ["2 + x1", "1", "0", "th1*th2", "th1", "0", "x1*th2", "0"],
    ["x2", "3", "1", "0", "0", "th2", "0", "th1"],
    ["0", "1", "1 + x1*x2", "2", "th1 + th2", "0", "0", "0"],
    ["1", "0", "x1", "1", "0", "0", "x2*th1", "th2"],
    ["th2", "0", "0", "th1", "1", "2", "0", "0"],
    ["0", "th1", "0", "0", "0", "1", "th1*th2", "0"],
    ["0", "0", "th2", "x1*th1", "1", "0", "3", "1"],
    ["th1", "0", "0", "0", "0", "0", "1", "2"],
]
BER_4_4 = (
    "2/5 - 1/5*x2 - 2*x1 + 8/5*x1*x2 - 6/5*x1^2 - 21/25*th1*th2"
    " - 1/5*x1*x2^2 + 3/5*x1^2*x2 + 23/25*x2*th1*th2 + 4/5*x1*th1*th2"
    " - 4/25*x2^2*th1*th2 - 36/25*x1*x2*th1*th2 - 1/25*x1^2*th1*th2"
    " + 3/25*x1*x2^2*th1*th2 + 3/25*x1^2*x2*th1*th2"
    " - 3/25*x1^2*x2^2*th1*th2 - 11/25*x1^3*x2*th1*th2")


def test_ber_matrix_prints_the_berezinian(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 4, "q": 4, "rows": BER_MATRIX_4_4}))
    result = CliRunner().invoke(main, ["ber-matrix", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == BER_4_4


def test_ber_matrix_with_singular_reduced_d_is_a_usage_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"p": 1, "q": 2, "rows": [
        ["1", "th1", "th2"],
        ["th2", "1", "2"],
        ["th1", "2", "4 + th1*th2"]]}))
    result = CliRunner().invoke(main, ["ber-matrix", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "singular reduced matrix" in result.output


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_printed_jacobian_reads_back_into_ber_matrix(tmp_path, p, q):
    # A D block such as "1 + x1" is a unit only once its even powers are
    # absorbed, as the coordinate change that printed it held them.
    from supercalc.randoms import random_split_map
    ring, runner = f"{p}|{q}", CliRunner()
    chart = Ring.parse(ring).chart
    map_path, jac_path = tmp_path / "map.txt", tmp_path / "j.json"
    rng = random.Random(90 + 10 * p + q)
    for _ in range(3):
        m = random_split_map(rng, chart, chart)
        map_path.write_text("".join(f"{n} = {m.images[n]}\n"
                                    for n in chart.coordinate_names))
        jacobian = runner.invoke(main, ["jacobian", "--ring", ring,
                                        str(map_path)])
        assert jacobian.exit_code == 0, jacobian.output
        jac_path.write_text(jacobian.output)
        ber = runner.invoke(main, ["ber-matrix", "--ring", ring,
                                   str(jac_path)])
        expected = runner.invoke(main, ["ber-jacobian", "--ring", ring,
                                        str(map_path)])
        assert expected.exit_code == 0, expected.output
        assert ber.exit_code == 0, ber.output
        assert ber.output == expected.output


@pytest.mark.parametrize("text, error", [
    ("5", "expected a JSON object with fields 'p', 'q' and 'rows'"),
    ("null", "expected a JSON object with fields 'p', 'q' and 'rows'"),
    ('{"p": 1, "q": 1, "rows": 5}', "field 'rows' must be a list of lists"),
    ('{"p": 1, "q": 1, "rows": [5, 6]}',
     "field 'rows' must be a list of lists"),
    ('{"p": true, "q": 1, "rows": []}',
     "field 'p' must be a non-negative integer, got true"),
    ('{"p": 1.5, "q": 1, "rows": []}',
     "field 'p' must be a non-negative integer, got 1.5"),
    ('{"p": -1, "q": 1, "rows": []}',
     "field 'p' must be a non-negative integer, got -1"),
    ('{"p": 1, "q": "1", "rows": []}',
     "field 'q' must be a non-negative integer, got \"1\""),
])
def test_ber_matrix_malformed_file_is_a_usage_error(tmp_path, text, error):
    path = tmp_path / "m.json"
    path.write_text(text)
    result = CliRunner().invoke(main, ["ber-matrix", "--ring", "2|2",
                                       str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.endswith(f"Error: {path}: {error}\n")


def _usage(command: str, operands: str, error: str) -> str:
    return (f"Usage: main {command} [OPTIONS] {operands}\n"
            f"Try 'main {command} --help' for help.\n\nError: {error}\n")


# Every way of refusing input, pinned to the byte: the usage lines come from
# the command's click context, the error text from the parser, the
# evaluator, the library or the file readers.  {path} is the input file.
@pytest.mark.parametrize("args, files, output", [
    (["d", "--", "x1 +* x2"], {},
     _usage("d", "EXPRESSION", "line 1, column 5: syntax error: unexpected '*'")),
    (["d", "--ring", "1|1", "--", "pdx1"], {},
     _usage("d", "EXPRESSION", "line 1, column 1: unknown generator 'pdx1'")),
    (["spencer-delta", "--", "Ber + x1"], {},
     _usage("spencer-delta", "EXPRESSION",
            "cannot add a density and a polynomial")),
    (["pair", "--ring", "1|1", "--", "Ber @ 1", "dx1"], {},
     _usage("pair", "DENSITY FORM", "form degree exceeds the polyvector "
            "degree of the integral form")),
    (["d", "--ring", "2x2", "--", "x1"], {},
     _usage("d", "EXPRESSION",
            "ring must look like p|q (for example 2|2), got '2x2'")),
    (["jacobian", "--ring", "1|1", "{path}"], {"map": "x1 = x1\n"},
     _usage("jacobian", "MAP_FILE", "{path}: no image given for th1")),
    (["jacobian", "--ring", "1|1", "{path}"], {"map": "x1 = x1\nfoo\n"},
     _usage("jacobian", "MAP_FILE", "line 2, column 1: {path}: expected "
            "'coordinate = expression', got 'foo'")),
    (["ber-matrix", "--ring", "1|1", "{path}"],
     {"matrix": '{"p": 1, "q": 1, "rows": [["1"]]}'},
     _usage("ber-matrix", "MATRIX_FILE",
            "{path}: rows must form a square of side p+q = 2")),
    # a quotient holds even base coordinates only
    (["d", "--ring", "1|1", "--", "x1/(1 + x1*dth1)"], {},
     _usage("d", "EXPRESSION", "line 1, column 3: cannot divide: cannot invert: "
            "remainder has an odd-free monomial (not nilpotent); only even base "
            "coordinates can move into rational-function coefficients")),
    (["d", "--ring", "1|1", "--", "1/dth1"], {},
     _usage("d", "EXPRESSION", "line 1, column 2: cannot divide: scalar part is "
            "zero; element is not invertible")),
    # a digit outside ASCII is no number
    (["d", "--ring", "1|1", "--", "x1 + \u00b2"], {},
     _usage("d", "EXPRESSION",
            "line 1, column 6: syntax error: unexpected character '\u00b2'")),
    (["d", "--ring", "1|1", "--", "\u0663*x1"], {},
     _usage("d", "EXPRESSION",
            "line 1, column 1: syntax error: unexpected character '\u0663'")),
    # a tag inside a delta term is no coefficient
    (["cw-apply", "--ring", "1|1", "--", "dx1", "(x1) del(dth1) gauss(x1)"], {},
     _usage("cw-apply", "WORD EXPRESSION",
            "expected a polynomial, got marker tags")),
    (["fiber-int", "--ring", "1|1", "--", "(x1) dx1 del(dth1) formal(x1)"], {},
     _usage("fiber-int", "EXPRESSION",
            "expected a polynomial, got marker tags")),
    # commands that integrate nothing have no use for pins or formal names
    (["spencer-delta", "--ring", "1|1", "--", "Ber @ x1*th1 dirac(x1,0)"], {},
     _usage("spencer-delta", "EXPRESSION",
            "the Spencer differential takes gauss(...) tags only")),
    (["lie-ber", "--ring", "1|1", "--", "Ber @ x1*th1 formal(x1)", "x1 = x1"],
     {}, _usage("lie-ber", "DENSITY FIELD",
                "the Lie derivative takes gauss(...) tags only")),
    (["stokes", "--ring", "1|1", "--", "Ber @ th1 gauss(x1) dirac(x1,0)"], {},
     _usage("stokes", "EXPRESSION", "the Stokes check takes gauss(...) tags only")),
    (["fiber-int", "--ring", "1|1", "--", "((x1) dx1 del(dth1)) formal(x1)"], {},
     _usage("fiber-int", "EXPRESSION",
            "the fiber integral takes gauss(...) tags only")),
    (["fiber-int", "--ring", "1|1", "--", "(dx1*dth1^2) gauss(dth1) dirac(x1,1)"],
     {}, _usage("fiber-int", "EXPRESSION",
                "the fiber integral takes gauss(...) tags only")),
    # the end of input after '**' stands after both stars
    (["d", "--", "x1 **"], {}, _usage(
        "d", "EXPRESSION",
        "line 1, column 6: syntax error: expected 'int', found 'end of input'")),
    (["d", "--", "x1**"], {}, _usage(
        "d", "EXPRESSION",
        "line 1, column 5: syntax error: expected 'int', found 'end of input'")),
    # the file readers name the file and count lines and columns in it
    (["jacobian", "--ring", "2|2", "{path}"], {"map": "x1 = x1\nx2 = x2 +* 3\n"},
     _usage("jacobian", "MAP_FILE",
            "line 2, column 10: {path}: syntax error: unexpected '*'")),
    (["jacobian", "--ring", "1|1", "{path}"], {"map": "\tx1 =  x1^\n"},
     _usage("jacobian", "MAP_FILE", "line 1, column 11: {path}: syntax error: "
            "expected 'int', found 'end of input'")),
    (["pd-pair", "--ring", "1|1", "{density}", "{form}"],
     {"density": "Ber @ x1\n", "form": "# comment\nx1 +\n  x2 *\n  ) \n"},
     _usage("pd-pair", "DENSITY_FILE FORM_FILE",
            "line 4, column 3: {form}: syntax error: unexpected ')'")),
    (["pd-pair", "--ring", "1|1", "{density}", "{form}"],
     {"density": "# a density\n\n  # on R^{1|1}\nBer @ x1 $\n", "form": "dx1\n"},
     _usage("pd-pair", "DENSITY_FILE FORM_FILE", "line 4, column 10: {density}: "
            "syntax error: unexpected character '$'")),
    (["ber-matrix", "--ring", "1|1", "{path}"],
     {"matrix": '{"p": 1, "q": 1, "rows": [["1", "0"], ["0", "th1 +* 2"]]}'},
     _usage("ber-matrix", "MATRIX_FILE",
            "line 1, column 6: {path}: entry (2, 2): syntax error: unexpected '*'")),
    # a field component's refusal names its place in FIELD
    (["lie-ber", "--ring", "1|1", "--", "Ber @ x1", "x1 = th1; th1 = 1 +* 2"], {},
     _usage("lie-ber", "DENSITY FIELD",
            "line 1, column 20: FIELD: syntax error: unexpected '*'")),
    (["lie-ber", "--ring", "1|1", "--", "Ber @ x1", "x1 = th1;\n th1 =\n 1 +"], {},
     _usage("lie-ber", "DENSITY FIELD", "line 3, column 5: FIELD: syntax error: "
            "unexpected 'end of input'")),
    # two point evaluations of one coordinate, however they are written
    (["berezin-int", "--ring", "2|1", "--",
      "Ber @ (x1^2*x2^2*th1) gauss(x1) dirac(x2,3) dirac(x2,1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["berezin-int", "--ring", "2|1", "--dirac", "x2=1", "--dirac", "x2=3",
      "--", "Ber @ (x1^2*x2^2*th1) gauss(x1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["berezin-int", "--ring", "2|1", "--dirac", "x2=1", "--",
      "Ber @ (x1^2*x2^2*th1) gauss(x1) dirac(x2,1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["pd-pair", "--ring", "1|1", "{density}", "{form}"],
     {"density": "Ber @ th1 dirac(x1,1)\n", "form": "x1 dirac(x1,2)\n"},
     _usage("pd-pair", "DENSITY_FILE FORM_FILE",
            "each even coordinate takes at most one marker")),
    # two Gaussian weights on one coordinate, however they are written: the
    # single weight's value would be printed for exp(-2 x1^2)
    (["berezin-int", "--ring", "1|1", "--", "Ber @ th1*x1^2 gauss(x1) gauss(x1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["berezin-int", "--ring", "1|1", "--", "Ber @ th1*x1^2 gauss(x1,x1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "line 1, column 16: each even coordinate takes at most one marker")),
    (["berezin-int", "--ring", "1|1", "--gaussian", "x1", "--",
      "Ber @ th1*x1^2 gauss(x1)"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["berezin-int", "--ring", "1|1", "--gaussian", "x1", "--gaussian", "x1", "--",
      "Ber @ th1*x1^2"], {},
     _usage("berezin-int", "EXPRESSION",
            "each even coordinate takes at most one marker")),
    (["lie-ber", "--ring", "1|1", "--gaussian", "x1", "--",
      "Ber @ x1*th1 gauss(x1)", "x1 = 1"], {},
     _usage("lie-ber", "DENSITY FIELD",
            "each even coordinate takes at most one marker")),
    (["lie-ber", "--ring", "1|1", "--gaussian", "x1", "--gaussian", "x1", "--",
      "Ber @ x1*th1", "x1 = 1"], {},
     _usage("lie-ber", "DENSITY FIELD",
            "each even coordinate takes at most one marker")),
    (["pd-pair", "--ring", "1|1", "{density}", "{form}"],
     {"density": "Ber @ th1 gauss(x1)\n", "form": "x1 gauss(x1)\n"},
     _usage("pd-pair", "DENSITY_FILE FORM_FILE",
            "each even coordinate takes at most one marker")),
])
def test_refusals_print_usage_and_the_exact_error(tmp_path, args, files,
                                                  output):
    # {path} is the last file, {<name>} the file of that name
    paths = {"path": ""}
    for name, text in files.items():
        paths[name] = paths["path"] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    result = CliRunner().invoke(main, [a.format(**paths) for a in args])
    assert result.exit_code == 2
    assert result.output == output.format(**paths)
