"""Exact symbolic integrability analysis of nondegenerate Hopf-zero vector fields.

The package computes, in exact rational arithmetic, the orbital normal form
of a polynomial three-dimensional vector field whose lowest quasi-homogeneous
part is (-2y, 2x, x^2 + y^2), the obstruction sequences to the existence of
analytic first integrals and of inverse Jacobi multipliers shaped like
x^2 + y^2 or its square, and a classification verdict for the system.
"""

from types import ModuleType as _ModuleType

from .analyzers import (CaseTag, Classification, Method, ObstructionSequence,
                        classify, first_integral_obstructions,
                        jacobi_obstructions, obstruction_sequence,
                        recombination_defect)
from .coeffring import (ParamPolynomial, Rational, congruent_mod, ppoly_reduce,
                        pseudo_remainder, rat)
from .errors import (DegreeError, HopfZeroError, ParameterError, ParseError,
                     PrincipalPartError, StructureError)
from .frontend import (AnalysisConfig, REPORT_SCHEMA, Scalings, build_report,
                       main, normalize_principal_part, run_cli)
from .gradedpoly import (GradedSliceBasis, Monomial3, QHPolynomial, slice_basis,
                         slice_dimension)
from .goldens import (GoldenCase, GoldenResult, load_cases, parse_fixture,
                      run_golden, run_goldens)
from .homological import (HomologicalSolution, OperatorAnalysis,
                          analyze_operator, solve_homological)
from .normalform import (GeneratorStep, NormalFormResult, ResonanceData,
                         apply_generator_step, coprime_resonance,
                         first_resonance, normal_form_field,
                         orbital_normal_form, planar_reduction, principal_part)
from .parsing import SystemSource, parse_polynomial, parse_system
from .vectorfield import (PlanarVectorField, Poly2, VectorField3,
                          directional_derivative, divergence, lie_bracket)

# the package's own names, not its submodules, which the imports above bind
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "1.0.0"
