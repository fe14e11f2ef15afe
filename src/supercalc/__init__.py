"""Exact symbolic computation on superspaces R^{p|q}.

Supercommutative polynomial algebra, differential operators, supermatrices
and Berezinians, differential and integral forms with their contracting
homotopies, delta-function pseudoforms, and Berezin integration, all over
rational (or rational-function) coefficients.
"""

from supercalc.algebra import (
    GeneratorTable,
    RationalFunction,
    SuperPoly,
    absorb_even_exponents,
    release_even_exponents,
)
from supercalc.charts import Chart, CoordinateMap
from supercalc.diffops import DiffOp
from supercalc.integral_forms import IntegralForm, Markers
from supercalc.integration import (
    PiValue,
    berezin_integral,
    duality_pair_integral,
    stokes_check,
    susy_algebra_check,
    susy_generator,
    susy_variation,
)
from supercalc.pseudoforms import (
    CWOperator,
    DeltaForm,
    cw_apply,
    fiber_integral,
    from_integral_form,
    gaussian_fiber_integral,
    to_integral_form,
)
from supercalc.supermatrix import SuperMatrix

__all__ = [
    "CWOperator",
    "Chart",
    "CoordinateMap",
    "DeltaForm",
    "DiffOp",
    "GeneratorTable",
    "IntegralForm",
    "Markers",
    "PiValue",
    "RationalFunction",
    "SuperMatrix",
    "SuperPoly",
    "absorb_even_exponents",
    "berezin_integral",
    "cw_apply",
    "duality_pair_integral",
    "fiber_integral",
    "from_integral_form",
    "gaussian_fiber_integral",
    "release_even_exponents",
    "stokes_check",
    "susy_algebra_check",
    "susy_generator",
    "susy_variation",
    "to_integral_form",
]
