"""Koszul homology, joint spectra, spectral sequences and local index
theory for commuting operator tuples, with exact Gaussian-rational
arithmetic and polynomial model spaces at desk scale."""

from . import errors
from .scalars import EXACT, FLOAT, QQi
from .linalg import Matrix, det, image_basis, kernel_basis, rank, solve
from .poly import (GroebnerBasis, Polynomial, QuotientAlgebra, groebner,
                   normal_form, parse_system, quotient_algebra)
from .koszul import (ChainComplex, CommutingTuple, HomologyProfile,
                     KoszulComplex, build_complex, homology, mapping_cone,
                     verify_cone_isomorphism)
from .spectral import (Bicomplex, SpectralPage, build_bicomplex, e2_page,
                       euler_via_e2, page_sequence, stabilization_page)
from .spectrum import (JointSpectrumReport, SpectralDecomposition,
                       apply_polynomial_map, exact_eigenvalues, float_spectrum,
                       generalized_eigenspace, joint_spectrum_equivalences,
                       localized_homology, spectral_decomposition)
from .multiplicity import (GlobalMultiplicityTable, MultiplicityCertificate,
                           build_diagonal_system, global_multiplicity_table,
                           jacobian_regular, local_multiplicity,
                           verify_diagonal_degree, winding_number)
from .models import (DomainDescriptor, IndexReport, ModelTuple,
                     ReciprocityReport, TensorIdentityReport,
                     binomial_identity_holds, classify_zeros, global_index,
                     local_index, lr_identity_holds, reciprocity_check,
                     regular_case_identities, tensor_index_identity)

__version__ = "0.1.0"

__all__ = [
    "errors", "EXACT", "FLOAT", "QQi",
    "Matrix", "det", "image_basis", "kernel_basis", "rank", "solve",
    "GroebnerBasis", "Polynomial", "QuotientAlgebra", "groebner",
    "normal_form", "parse_system", "quotient_algebra",
    "ChainComplex", "CommutingTuple", "HomologyProfile", "KoszulComplex",
    "build_complex", "homology", "mapping_cone", "verify_cone_isomorphism",
    "Bicomplex", "SpectralPage", "build_bicomplex", "e2_page",
    "euler_via_e2", "page_sequence", "stabilization_page",
    "JointSpectrumReport", "SpectralDecomposition", "apply_polynomial_map",
    "exact_eigenvalues", "float_spectrum", "generalized_eigenspace",
    "joint_spectrum_equivalences", "localized_homology",
    "spectral_decomposition",
    "GlobalMultiplicityTable", "MultiplicityCertificate",
    "build_diagonal_system", "global_multiplicity_table", "jacobian_regular",
    "local_multiplicity", "verify_diagonal_degree", "winding_number",
    "DomainDescriptor", "IndexReport", "ModelTuple", "ReciprocityReport",
    "TensorIdentityReport", "binomial_identity_holds", "classify_zeros",
    "global_index", "local_index", "lr_identity_holds", "reciprocity_check",
    "regular_case_identities", "tensor_index_identity",
]
