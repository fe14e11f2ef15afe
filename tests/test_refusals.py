"""Library refusals that no other test reaches, pinned by type and message."""

from __future__ import annotations

import re

import pytest

from supercalc.algebra import (
    EVEN_BASE,
    ODD_BASE,
    GeneratorTable,
    SuperPoly,
    parity_of_class,
    transport,
)
from supercalc.charts import Chart, CoordinateMap, compose_maps
from supercalc.derham import form_table, pullback_form
from supercalc.diffops import DiffOp
from supercalc.integration import gaussian_moment
from supercalc.koszul import KoszulAlgebra
from supercalc.pseudoforms import DeltaForm

R11 = Chart(("x1",), ("th1",))
S11 = Chart(("y1",), ("eta1",))
R21 = Chart(("x1", "x2"), ("th1",))


def gen(chart, name):
    return SuperPoly.generator(chart.table, name)


def identity_to(source, target):
    """The map sending each target coordinate to the source coordinate in
    the same slot."""
    return CoordinateMap(source, target, {
        t: gen(source, s) for s, t in zip(source.coordinate_names, target.coordinate_names)})


def cross_table_substitution():
    # only x1 gets an image over S11, so th1 has none
    (gen(R11, "x1") + gen(R11, "th1")).substitute({"x1": gen(S11, "y1")}, S11.table)


def swapped_parity_transport():
    swapped = GeneratorTable([("th1", EVEN_BASE), ("x1", ODD_BASE)])
    transport(gen(R11, "x1"), swapped)


def foreign_image():
    CoordinateMap(R11, R11, {"x1": gen(S11, "y1"), "th1": gen(R11, "th1")})


@pytest.mark.parametrize("refused, error, message", [
    (lambda: parity_of_class("weird"), ValueError, "unknown generator class 'weird'"),
    (lambda: GeneratorTable([("a", EVEN_BASE), ("a", ODD_BASE)]), ValueError,
     "generator names must be unique"),
    (cross_table_substitution, ValueError,
     "no image given for generator 'th1' in a cross-table substitution"),
    (lambda: gen(R11, "x1").substitute({"x1": gen(R11, "x1") + gen(R11, "th1")}),
     ValueError, "parity violation: image of 'x1' is inhomogeneous"),
    (swapped_parity_transport, ValueError, "generator 'x1' changes parity"),
    (lambda: compose_maps(identity_to(R11, S11), identity_to(R11, S11)), ValueError,
     "charts do not chain: m2 must start where m1 ends"),
    (lambda: identity_to(R11, S11).pullback(gen(R11, "x1")), ValueError,
     "element is not over the target chart"),
    (lambda: CoordinateMap(R11, R21, {"x1": gen(R11, "x1"), "x2": gen(R11, "x1"),
                                      "th1": gen(R11, "th1")}).jacobian(),
     ValueError, "Jacobian needs equal source and target dimensions"),
    (foreign_image, ValueError, "image of 'x1' is not over the source chart"),
    (lambda: gaussian_moment(-1), ValueError, "moment order must be nonnegative"),
    (lambda: KoszulAlgebra(1, 1).koszul_delta(gen(R11, "x1")), ValueError,
     "element is not in the Koszul algebra"),
    (lambda: KoszulAlgebra(1, 1).dual_delta(gen(R11, "x1")), ValueError,
     "element is not in the dual algebra"),
    (lambda: KoszulAlgebra(1, 1).class_coefficient(gen(R11, "x1")), ValueError,
     "element is not in the dual algebra"),
    (lambda: KoszulAlgebra(1, 1).homology_scan("other", [0], 1), ValueError,
     "which must be 'koszul' or 'dual'"),
    (lambda: KoszulAlgebra(1, 1).homology_scan("koszul", [0], -1), ValueError,
     "cutoff must be nonnegative"),
    (lambda: DiffOp(R11.table, gen(R11, "x1")), ValueError,
     "polynomial is not over the operator's Weyl table"),
    (lambda: DiffOp.partial(form_table(R11.table), "dx1"), ValueError,
     "'dx1' is not a base coordinate"),
    (lambda: pullback_form(identity_to(R11, S11), gen(R11, "x1")), ValueError,
     "form is not over the target chart"),
    (lambda: DeltaForm.from_factors(R11, 1, ["dy1", ("dth1", 0)]), ValueError,
     "unknown dx letter 'dy1'"),
    (lambda: DeltaForm.from_factors(R11, 1, ["dx1", ("deta1", 0)]), ValueError,
     "unknown delta direction 'deta1'"),
    (lambda: DeltaForm.from_factors(R11, 1, ["dx1", ("dth1", -1)]), ValueError,
     "delta derivative orders are nonnegative"),
], ids=["class", "unique-names", "cross-table-image", "inhomogeneous-image",
        "transport-parity", "compose-chain", "pullback-table", "jacobian-dimensions",
        "map-image-table", "gaussian-moment", "koszul-delta", "dual-delta",
        "class-coefficient", "scan-which", "scan-cutoff", "diffop-table",
        "partial-letter", "pullback-form-table", "dx-letter", "delta-direction",
        "delta-order"])
def test_refusal_type_and_message(refused, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        refused()
