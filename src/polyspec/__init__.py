"""Analysis of Boolean and bounded functions under downwards noise on the
p-biased hypercube: transforms, the one-sided noise operator and its
inverse, structured AND-OR/AND-XOR families, and exhaustive desk-scale
verification of their classification."""

from .analysis import (AuditReport, ExactPairSolution, ExperimentConfig,
                       StructureVerdict, classify_boolean_eigens, distance_to_and_or,
                       distance_to_constant_or_and, distance_to_monotone_junta,
                       homomorphism_agreement, one_sided_check, prs_tester,
                       solve_exact_pair, sweep_rows, theorem_audit)
from .core import (BooleanFunction, BoundedFunction, average_out, constant,
                   expectation, l1_distance, load_function, save_function)
from .families import (BlockPartition, make_and, make_and_or, make_and_xor,
                       make_f1, make_f2, make_majority3, make_midslice,
                       make_semirandom, make_or, make_xor, minterms,
                       recognize_and_or)
from .fourier import Spectrum, fourier_transform
from .influences import (InfluenceProfile, degree, influence,
                         influence_profile, is_monotone, monotonize,
                         negative_influence, sensitivity, shift)
from .noise import (NoiseParams, TesterReport, downward_noise, invert_downward,
                    iterated_noise, noise_sensitivity, residual, sample_dnu,
                    spectral_action_check)

__version__ = "0.1.0"
