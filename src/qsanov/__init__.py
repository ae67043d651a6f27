"""Permutation-invariant hypothesis tests on tensor powers at desk scale.

Frequency and frame labels split (C^d)^n into joint projector blocks;
tests assembled from them achieve the optimal discrimination exponent
against a fixed alternative, for single null states, convex hulls, and
word-indexed product sources. Companion modules bound what such invariant
tests can and cannot resolve.
"""

from .errors import SizeGuardError, VerificationError
from .tableaux import (
    ALPHA,
    dimension_log2_bounds,
    dominance,
    entropy,
    entropy_continuity_bound,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    l1_distance,
    majorizes,
    pinsker_bound,
    relative_entropy,
    type_class_log2_bounds,
    type_class_size,
)
from .quantum import (
    bloch_state,
    depolarize,
    depolarize_adjoint,
    eigenbasis,
    fannes_audenaert_bound,
    pinch,
    qrel_entropy,
    random_state,
    spectrum,
    state_with_spectrum_and_diagonal,
    trace_distance,
)
from .schur_weyl import (
    DENSE_LIMIT,
    GUARD_LIMIT,
    GTIrrep,
    block_projector,
    block_weight,
    central_character,
    character,
    completeness_check,
    frequency_blocks,
    gt_irrep,
    invariance_defect,
    isotypical_projector,
    schur_polynomial,
    spectral_estimate_check,
    tensor_power,
    words_of_type,
)
from .hypotest import (
    ExponentReport,
    LabelErrors,
    TestSpec,
    build_test,
    epsilon_schedule,
    feasibility_log2_bound,
    label_errors,
    lambda_set,
    neyman_pearson,
    run_sanov,
    theta,
    theta_prime,
    type_one,
    type_two,
)
from .avqs import (
    Net,
    avqs_test,
    delta_net,
    delta_schedule,
    empirical_mixture,
    enumerate_words,
    gamma,
    gamma_prime,
    min_relative_entropy_hull,
    net_cardinality_bound,
    product_state,
    robustification_check,
    smoothed_test,
    spectral_estimation_check,
    word_type_one,
    worst_word_log2_bound,
)
from .nogo import (
    NogoReport,
    dim_ratio_bound,
    haar_twirl_mc,
    haar_unitary,
    nogo_bound,
    random_invariant_operator,
    unitary_twirl_invariant,
    vacuity_threshold,
    verify_nogo_instance,
)

__version__ = "0.1.0"
