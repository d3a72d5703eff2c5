"""quatspec: quaternionic matrices, spherical spectra and the continuous
slice functional calculus on H^n."""

from .errors import NumericalError, PreconditionError
from .quaternion import Quaternion, SpherePoint, random_sphere_point, sphere_grid
from .qmatrix import (LeftMultiplication, QMatrix, QVector, chi_embed,
                      chi_extract, is_anti_self_adjoint, is_normal,
                      is_self_adjoint, is_unitary, op_norm, polar_decompose,
                      random_normal, random_qmatrix, random_qvector,
                      random_unitary, split_plus_minus)
from .slicefn import (CircularSet, SliceFunction,
                      decompose_components, hausdorff, is_circular, is_cslice,
                      is_intrinsic, one_sided_hausdorff, slice_add,
                      slice_product, slice_star, sup_norm)
from .spectral import (delta_q, gelfand_check, resolvent_series,
                       spherical_spectrum)
from .calculus import (CalculusContext, alternate_kernel_J, build_context,
                       circular_calculus, cslice_calculus, general_calculus,
                       intrinsic_calculus, polynomial_calculus,
                       slice_regular_contour, spectral_measure_weights)
from .reporting import Check, VerificationReport

__version__ = "0.1.0"
