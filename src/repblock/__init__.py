"""Numerical decomposition of unitary group representations.

Decomposes finite-dimensional unitary representations of finite
permutation groups and of U(d)/O(d) into irreducible subrepresentations
(change of basis, dimensions, multiplicities), and uses the decomposition
to block-diagonalize invariant semidefinite program data.
"""

from .commutant import (CommutantSample, ProjectionConfig, ProjectionError,
                        project_commutant, sample_commutant, sample_gue)
from .compact import (CompactGroupHandle, haar_orthogonal, haar_unitary,
                      orthogonal_group, unitary_group)
from .decompose import (DecomposeConfig, DecompositionError,
                        EquivalenceWitness, IrrepDecomposition,
                        IsotypicComponent, ResampleNeeded, SubrepBasis,
                        VerificationReport, classify_real_type, decompose,
                        eigsplit, equivalence_test, harmonize,
                        verify_decomposition)
from .perm import (Permutation, PermutationGroup, compose,
                   group_from_generators, identity, inverse)
from .reps import (Representation, conjugate, defining_rep, direct_sum,
                   natural_perm_rep, rep_from_generator_images, tensor,
                   tensor_power, trivial_rep)
from .sdp import (BlockDiagonalizedSdp, NotInvariantError, SdpBlockComponent,
                  SdpProblem, block_diagonalize_matrix, block_diagonalize_sdp,
                  reconstruct, symmetrize_matrix)

__version__ = "0.1.0"
