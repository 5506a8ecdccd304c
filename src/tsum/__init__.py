"""Arbitrary-precision Euler T-sums, double t/T values and their closed forms.

The package computes parametric Euler T-sums from their defining series,
evaluates the matching closed-form identities, emits exact symbolic
reductions of double t/T values, and certifies every identity numerically
to a configurable tolerance.
"""

from .jets import JetSeries, jet_mul, jet_residue
from .numeric import bernoulli, real_const, real_to_str
from .reductions import (
    FAMILIES,
    SymbolicExpr,
    eval_symbolic,
    normalize_to_zeta,
    reduce_t_bar_even,
    reduce_t_bar_odd,
    reduce_t_even_odd,
    reduce_t_odd_even,
    reduce_T_bar_even,
    reduce_T_bar_odd,
    reduce_T_even_odd,
    reduce_T_odd_even,
)
from .series import (
    SeriesResult,
    SumSpec,
    double_t,
    double_T,
    euler_t_sum,
    harmonic,
    odd_harmonic,
)
from .special import (
    KernelKind,
    alt_hurwitz_zeta,
    alt_zeta,
    digamma,
    hurwitz_zeta,
    kernel_jet,
    kernel_sums,
    psi_jet,
    riemann_zeta,
    single_t,
    single_t_bar,
    single_T,
    single_T_bar,
    ttilde,
    ttilde_bar,
    zeta_terms,
)
from .identities import (
    PartialFractionRational,
    VerificationReport,
    verify_cor3_2,
    verify_cor3_3,
    verify_cor3_5,
    verify_cor3_6,
    verify_lemma2_3,
    verify_lemma2_4,
    verify_thm3_1,
    verify_thm3_4,
    verify_thm3_6,
    verify_thm3_7,
)
from .suite import IdentityCase, SuiteConfig, build_cases, run_case, run_suite

__version__ = "0.1.0"
