"""Exact (Z2)^n-graded linear algebra over Clifford algebras.

Graded trace, quasideterminants with block UDL/LDU decompositions, the graded
determinant of purely even matrices (with its nonzero-degree extension), the
graded Berezinian with the Liouville identity, and the quaternionic Dieudonne
determinant for cross-validation.  All arithmetic is exact over Q.
"""

from .errors import (DimensionNotAdmissibleError, GradAlgError, HomogeneityError,
                     NotInvertibleError, RegularityError, SchemaError,
                     SubmatrixNotInvertibleError)
from .grading import GroupElement, StandardOrder, parity_split, scalar_product, standard_order
from .scalars import (Algebra, Element, extended_quaternions, grassmann,
                      quaternion, quaternion_units, quaternions, rationals)
from .series import DEFAULT_ORDER, NilpotentPoly, SeriesRing, nilpotent_exp
from .matrices import (GradedMatrix, RankVector, Redivision, check_homogeneous,
                       commutator, decompose_elementary, elementary,
                       identity_matrix, mat_add, mat_mul, mat_neg, mat_pow,
                       matrix_inverse, redivide_2x2, scalar_mul,
                       unitriangular_g, zero_matrix)
from .quasidet import (TriangularFactors, block_quasidet, invert_2x2_block,
                       invert_3block, ldu_decompose, quasidet, udl_decompose)
from .trace import gtr, lax_invariants
from .determinant import (GdetResult, elementary_sandwich_check, gdet0,
                          gdet_blocks, gdet_certified, gdet_graded, gdet_ldu,
                          multilinear_coefficients, normalized_coefficients,
                          row_monomial_product, row_reduce_g)
from .berezinian import (gber, invert0, is_invertible0, liouville_check,
                         matrix_exp_zeta, odd_sandwich_check, series_matrix)
from .dieudonne import ddet, ddet_squared, predeterminant, quat_conj, quat_norm_sq

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
