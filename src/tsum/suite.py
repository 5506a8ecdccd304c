"""Suite assembly and execution for the verification CLI.

A suite is a canonical, deterministically ordered list of case descriptors
(a family name plus its verifier's arguments).  Cases run independently, possibly
in a process pool; reports are reassembled in case-id order so worker count
never changes the output.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable

from mpmath import mp

from .identities import (
    HypothesisError,
    PartialFractionRational,
    RESIDUE_CASE_CATALOG,
    VerificationReport,
    _check_ab,
    _check_single_a,
    verify_cor3_2,
    verify_cor3_3,
    verify_cor3_5,
    verify_cor3_6,
    verify_kernel_expansions,
    verify_thm3_1,
    verify_thm3_4,
    verify_thm3_6,
    verify_thm3_7,
)
from .numeric import real_to_str, tolerance_mpf
from .reductions import FAMILIES, eval_symbolic

DEFAULT_SAMPLES = ((Fraction(1, 4), Fraction(1, 3)),
                   (Fraction(1, 5), Fraction(2, 5)),
                   (Fraction(1, 7), Fraction(-1, 7)))
DEFAULT_PRECISION = 192
DEFAULT_TOLERANCE = "1e-40"
DEFAULT_WEIGHT_MAX = 9
WEIGHT_MIN = 2  # the least weight of any reduction pair
WEIGHT_MAX_GUARD = 13
PAIR_P_RANGE = (1, 2, 3, 4, 5)


class ConfigError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class IdentityCase:
    """One runnable case: a family name plus the leading arguments of its
    verifier, which precision and tolerance follow.

    Everything is picklable so cases can cross a process-pool boundary.
    """

    family: str
    params: tuple
    precision_bits: int
    tolerance: str


@dataclass(frozen=True)
class FamilySpec:
    """One suite family: ``cases(spec, config)`` lists the verifier
    arguments of its cases, applying the family's hypotheses, over the
    order range ``sweep``; ``reflect`` picks b = 1 - a over b = -a."""

    name: str
    cases: Callable[..., list[tuple]]
    verifier: Callable[..., VerificationReport]
    sweep: tuple[int, ...] = ()
    reflect: bool = False


def _pair_cases(spec: FamilySpec, config) -> list[tuple]:
    """Explicit pair samples are validated strictly: a hypothesis violation
    is a configuration error."""
    pair_samples = [s for s in config.samples if isinstance(s, tuple) and len(s) == 2]
    if not pair_samples:
        raise ConfigError(f"{spec.name} needs two-parameter samples")
    out = []
    for a, b in pair_samples:
        try:
            _check_ab(Fraction(a), Fraction(b))
        except HypothesisError as exc:
            raise ConfigError(f"sample ({a},{b}) rejected for {spec.name}: {exc}") from exc
        out.extend((p, Fraction(a), Fraction(b)) for p in spec.sweep)
    return out


def _single_cases(spec: FamilySpec, config) -> list[tuple]:
    """Singletons drawn from all sample components, filtered by the
    family's hypotheses, keeping the first three."""
    kept = []
    components = (v for s in config.samples for v in (s if isinstance(s, tuple) else (s,)))
    for a in dict.fromkeys(components):
        try:
            _check_single_a(Fraction(a), spec.reflect)
        except HypothesisError:
            continue
        kept.append(Fraction(a))
        if len(kept) == 3:
            break
    if not kept:
        raise ConfigError(f"no admissible samples for {spec.name}")
    return [(m, a) for a in kept for m in spec.sweep]


def _residue_cases(spec: FamilySpec, config) -> list[tuple]:
    return [(p, PartialFractionRational.parse(r)) for p, r in RESIDUE_CASE_CATALOG]


def _lemma_cases(spec: FamilySpec, config) -> list[tuple]:
    return [(config.order, spec.name)]


def _reduction_cases(spec: FamilySpec, config) -> list[tuple]:
    pairs = FAMILIES[spec.name].pairs_up_to_weight(config.weight_max)
    return [(spec.name, j, m) for j, m in pairs]


def _verify_lemma(order: int, part: str, precision: int, tolerance: str) -> VerificationReport:
    return verify_kernel_expansions(order, precision, tolerance, parts=(part,))


def _report_to_dict(rep: VerificationReport, timings: bool) -> dict:
    prec = rep.precision_bits
    return {
        "case_id": rep.case_id,
        "family": rep.family,
        "params": {k: str(v) for k, v in rep.params.items()},
        "lhs": real_to_str(rep.lhs, prec),
        "rhs": real_to_str(rep.rhs, prec),
        "gap": real_to_str(rep.absolute_gap, 64),
        "passed": rep.passed,
        "tolerance": real_to_str(rep.tolerance, 64),
        "precision_bits": prec,
        "terms_used": rep.terms_used,
        "elapsed_ms": round(rep.elapsed_ms, 3) if timings else 0,
    }


def build_cases(config: SuiteConfig) -> list[IdentityCase]:
    """Expand the configuration into concrete case descriptors."""
    return [IdentityCase(fam, params, config.precision_bits, config.tolerance)
            for fam in config.families
            for params in FAMILY_SPECS[fam].cases(FAMILY_SPECS[fam], config)]


def run_case(case: IdentityCase, timings: bool = False) -> dict:
    """Run one case descriptor and return its report as primitives."""
    spec = FAMILY_SPECS.get(case.family)
    if spec is None:
        raise ConfigError(f"unknown family {case.family!r}")
    rep = spec.verifier(*case.params, case.precision_bits, case.tolerance)
    return _report_to_dict(rep, timings)


def run_reduction_case(family: str, j: int, m: int, precision: int,
                       tolerance: str) -> VerificationReport:
    """Certify one closed-form reduction against its series oracle."""
    t0 = time.perf_counter()
    tol = tolerance_mpf(tolerance, precision + 16)
    fam = FAMILIES[family]
    expr = fam.reduce(j, m)
    value = eval_symbolic(expr, precision)
    oracle = fam.oracle(j, m, precision)
    with mp.workprec(precision + 16):
        gap = abs(value - oracle.value)
        passed = bool(gap <= tol)
    params = {"j": j, "m": m, "value_label": fam.label(j, m), "expr": expr.to_text()}
    return VerificationReport(f"{family}[j={j},m={m}]", family, params, value,
                              oracle.value, gap, passed, tol, precision,
                              oracle.terms_used, (time.perf_counter() - t0) * 1000.0)


# Insertion order is the canonical family order of ``ALL_FAMILIES``, which
# the default suite prints as its ``suite_id``.
FAMILY_SPECS: dict[str, FamilySpec] = {spec.name: spec for spec in (
    FamilySpec("thm3_1", _pair_cases, verify_thm3_1, PAIR_P_RANGE),
    FamilySpec("cor3_2", _single_cases, verify_cor3_2, (0, 1, 2)),
    FamilySpec("cor3_3", _single_cases, verify_cor3_3, (0, 1, 2), reflect=True),
    FamilySpec("thm3_4", _pair_cases, verify_thm3_4, PAIR_P_RANGE),
    FamilySpec("cor3_5", _single_cases, verify_cor3_5, (1, 2)),
    FamilySpec("cor3_6", _single_cases, verify_cor3_6, (0, 1, 2), reflect=True),
    FamilySpec("thm3_6", _residue_cases, verify_thm3_6),
    FamilySpec("thm3_7", _residue_cases, verify_thm3_7),
    FamilySpec("lemma2_3", _lemma_cases, _verify_lemma),
    FamilySpec("lemma2_4", _lemma_cases, _verify_lemma),
    *(FamilySpec(name, _reduction_cases, run_reduction_case) for name in FAMILIES),
)}
ALL_FAMILIES = tuple(FAMILY_SPECS)


@dataclass
class SuiteConfig:
    precision_bits: int = DEFAULT_PRECISION
    tolerance: str = DEFAULT_TOLERANCE
    families: tuple[str, ...] = ALL_FAMILIES
    weight_max: int = DEFAULT_WEIGHT_MAX
    samples: tuple = DEFAULT_SAMPLES
    order: int = 6
    workers: int = 1
    timings: bool = False

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ConfigError("precision_bits must be >= 64")
        try:
            tolerance_mpf(self.tolerance, 64)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not WEIGHT_MIN <= self.weight_max <= WEIGHT_MAX_GUARD:
            raise ConfigError(f"weight_max must be in {WEIGHT_MIN}..{WEIGHT_MAX_GUARD}")
        unknown = [f for f in self.families if f not in FAMILY_SPECS]
        if unknown:
            raise ConfigError(f"unknown families: {', '.join(unknown)}")
        if self.order > 8 or self.order < 1:
            raise ConfigError("expansion order must be in 1..8")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _pool_entry(args):
    return run_case(*args)  # (case, timings)


def run_suite(config: SuiteConfig) -> dict:
    """Run the configured suite and return the RunRecord as a dict."""
    t0 = time.perf_counter()
    cases = build_cases(config)
    jobs = [(c, config.timings) for c in cases]
    if config.workers == 1:
        results = [_pool_entry(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_pool_entry, jobs))
    results.sort(key=lambda d: d["case_id"])
    passed = sum(1 for r in results if r["passed"])
    total_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "suite_id": "+".join(config.families),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "precision_bits": config.precision_bits,
        "tolerance": config.tolerance,
        "workers": config.workers,
        "cases": results,
        "summary": {"passed": passed, "failed": len(results) - passed},
        "total_elapsed_ms": round(total_ms, 3) if config.timings else 0,
    }
