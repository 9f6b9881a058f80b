"""Exact-arithmetic workbench for corings, comodules and their Morita theory.

Structures are given by structure constants over an exact field; every
axiom, canonical map and certification is decided by exact linear algebra.
"""

from .exactla import (AxiomError, FieldFp, FieldQ, Matrix, QQ, Subspace,
                      UsageError, image, kernel, quotient, solve_linear)
from .algmod import (BalancedTensor, FBimodule, FiniteAlgebra, FLinearMap, Verdict,
                     fgp_check, generator_check, hom_space, span_witness,
                     summand_witnesses, trivial_algebra)
from .coring import (Comodule, Coring, Grouplike, colinear_homs,
                     comodule_direct_sum, co_opposite, DualRing, dual_action,
                     grouplike_comodule, trivial_coring, zero_comodule)
from .morita import (ModuleContext, MoritaContext, context_M, morphism_failure,
                     morphism_M_to_N, strictness)
from .extension import (CoringExtension, ExtContext, convolution_algebra,
                        convolution_inverse, induced_D_coaction, purity_check)
from .galois import (CanonicalMap, CleftData, cleft_check, galois_check,
                     normal_basis_check, verify_cor_jJ, verify_diamond_to_triangle,
                     verify_fgp_corollary, verify_strong_structure,
                     verify_surjectivity_thm, verify_weak_structure)
from .workspace import Workspace, load_workspace, load_workspace_file
from .zoo import (EntwiningStructure, PartialGroupAction, build_fixture,
                  entwining_coring, hopf_entwining, partial_action_coring,
                  sweedler_coring, weak_entwining_coring)

__all__ = [name for name in dir() if not name.startswith("_")]
