"""Optimal stopping with decaying recall of rejected values.

A library for the lookback variant of the prophet inequality: decay
sequences model how much of a rejected value is still recoverable,
threshold and dynamic-programming policies exploit the recall, theory
curves bound the achievable competitive ratios in the adversarial,
random-order and IID observation models, hard instance families attain
the upper bounds, and a seeded evaluation engine (exact enumeration
plus Monte Carlo) verifies the claims at desk scale.
"""

from .decay import (
    DecaySequence,
    DecayValidationReport,
    PiecewiseLinear,
    bernoulli_decay,
    evaluate,
    expected_value,
    gamma_decay,
    gamma_of,
    geometric_decay,
    limit_decay,
    sample_realization,
    subtractive_decay,
    table_decay,
    validate,
)
from .distributions import (
    Distribution,
    Instance,
    MaxQuantileSolution,
    cdf,
    discrete,
    expectation,
    expected_max,
    exponential,
    max_cdf,
    point,
    sample,
    solve_max_quantile,
    uniform,
)
from .evaluation import (
    SimulationReport,
    brute_force_value,
    child_rng,
    empirical_cr_sweep,
    monte_carlo,
)
from .instances import (
    HardFamilySpec,
    adv_hard,
    dilute_iid,
    iid_hard,
    iid_hard_params,
    random_order_hard,
    random_order_hard_a,
    rescale,
    zero_pad_adversarial,
    zero_pad_random,
)
from .policies import (
    DPPolicyGamma,
    NeverStopPolicy,
    RationalPolicy,
    ThresholdPolicy,
    Trajectory,
    dp_optimal_gamma_adversarial,
    dp_optimal_gamma_iid,
    dp_optimal_gamma_random_order,
    rational_wrap,
    run_policy,
    run_threshold,
)
from .theory import (
    BoundCurve,
    RootSolution,
    adversarial_bound,
    bound_table,
    bound_table_csv,
    generic_bounds,
    iid_lower_n,
    iid_upper,
    random_order_lower,
    random_order_lower_explicit,
    random_order_upper,
    solve_a_n_gamma,
    solve_p_gamma,
)

__version__ = "0.2.0"
