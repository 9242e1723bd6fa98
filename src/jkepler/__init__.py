"""Verification workbench for simple euclidean Jordan algebras, their
conformal (TKK) algebras, classical and operator realizations, canonical-cone
geometry, and generalized Kepler spectra."""

from .algebra import (AlgebraSpec, Algebra, Element, make_algebra,
                      SpecificationError, MismatchError, DomainError)
from .conformal import (CoElement, RootData, co_bracket, cartan_involution,
                        root_data, dim_str, dim_co, ConsistencyError)
from .poly import Poly
from .phase import (poisson, poisson_poly, verify_poisson_tkk, kepler_hamiltonian,
                    kepler_angular, kepler_lenz)
from .weyl import (WeylOp, WallachParam, compose, commutator, apply_op,
                   gaussian_conjugate, verify_tkk_ops, he_grading_checks,
                   lowest_weight_check, restriction_degeneracy, bound_spectrum)
from .cone import (ConePoint, PolarChart, cone_dim, sample_cone_point, radial_cone_point,
                   canonical_metric, kepler_metric_crosscheck, lambda_route_a,
                   lambda_route_b, r_laplace_apply, polar_chart, radial_density,
                   measure_crosscheck, radial_exponent, integral_finite,
                   radial_exponent_continuous)

__version__ = "0.1.0"
