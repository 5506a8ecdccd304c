"""One argument contract for the public API: every callable that ``tsum``
exports, called once with a valid argument set, and then with each integer
or rational argument in turn replaced by 2.5, the string "2" and an mpf of
the same value.  Each such call must raise a ValueError subclass within a
second; none may return.  A ``prec`` of None is a PrecisionError
everywhere: no precision argument selects another mode, and the depth-1
constants, which are exact, take none.

An argument counts when its value is an int (not a bool) or a Fraction, or
such a value inside a tuple of arguments (the shifts of a ``SumSpec``, the
terms of a ``PartialFractionRational``, the samples of a ``SuiteConfig``).
Objects passed as arguments (a spec, a jet, a config) are swept through
their own constructors.  The coefficients of a ``JetSeries`` are its values,
not a parameter: exact rationals or ``Terms``, or those rounded once.

The calls that README "Library use" gives for one kernel value, a
Psi^(p-1) value, zeta(1; a) and Dirichlet beta are swept the same way, as
composed routes, each argument as it enters the first call.  The terms of
a ``kernel_sums`` sum sit in lists, which the sweep does not enter, so
malformed terms have a test of their own, as has one sum passed where the
list of sums belongs; and no verifier takes a switch.
"""

import inspect
import re
import signal
import time
from fractions import Fraction as F

import pytest
from mpmath import mpf

import tsum
import tsum.identities as identities
from tsum import (IdentityCase, JetSeries, KernelKind, PartialFractionRational, SumSpec,
                  SuiteConfig, run_case)
from tsum.numeric import DomainError, PrecisionError
from tsum.suite import FAMILY_SPECS

Q, T3 = F(1, 4), F(1, 3)
RESIDUE = ((F(-1, 4), 1, F(12)), (F(-1, 3), 1, F(-12)))
PAIR = dict(a=Q, b=T3, prec=64, tolerance="1e-3")
SINGLE = dict(a=Q, prec=64, tolerance="1e-3")
TAN = KernelKind.PI_TAN


def _jet():
    return JetSeries(Q, (F(1), F(2)))


def _config():
    return SuiteConfig(precision_bits=64, tolerance="1e-3", families=("thm3_1",),
                       samples=((Q, T3),))


def _reduce(name):
    return {"call": getattr(tsum, name), "j": 1, "m": 1}


# export -> keyword arguments of one valid call; "call" replaces the export
# where a record is used through the function that reads it
CALLS = {
    "IdentityCase": {"call": lambda **kw: run_case(IdentityCase(**kw)), "family": "thm3_1",
                     "params": (1, Q, T3), "precision_bits": 64, "tolerance": "1e-3"},
    "JetSeries": {"base_point": Q, "coeffs": (F(1), F(2)), "pole_order": 0},
    "KernelKind": {"value": "pi_tan"},
    "PartialFractionRational": {"terms": RESIDUE},
    "SeriesResult": {"value": mpf(1), "tail_bound": mpf(0), "terms_used": 128,
                     "precision_bits": 64},
    "SuiteConfig": {"precision_bits": 64, "tolerance": "1e-3", "families": ("thm3_1",),
                    "weight_max": 9, "samples": ((Q, T3),), "order": 6, "workers": 1},
    "SumSpec": {"p": (1,), "q": (2,), "a": (T3,), "sigma": 1, "harmonic_offset": "cur"},
    "SymbolicExpr": {},
    "VerificationReport": {"case_id": "c", "family": "thm3_1", "params": {}, "lhs": mpf(1),
                           "rhs": mpf(1), "absolute_gap": mpf(0), "bound": mpf(0),
                           "passed": True, "tolerance": F(1, 1000), "precision_bits": 64,
                           "terms_used": 128, "elapsed_ms": 0.0},
    "alt_hurwitz_zeta": {"s": 2, "a": T3, "prec": 64},
    "alt_zeta": {"s": 2},
    "bernoulli": {"n": 4},
    "build_cases": {"config": _config()},
    "digamma": {"a": T3, "prec": 64},
    "double_T": {"s1": 3, "s2": 1, "bar1": False, "prec": 64},
    "double_t": {"s1": 3, "s2": 1, "bar1": False, "prec": 64},
    "euler_t_sum": {"spec": SumSpec(p=(1,), q=(2,), a=(F(0),), sigma=-1), "prec": 64},
    "eval_symbolic": {"expr": tsum.reduce_t_even_odd(1, 0), "prec": 64},
    "harmonic": {"n": 3, "p": 2},
    "hurwitz_zeta": {"s": 2, "a": T3, "prec": 64},
    "jet_mul": {"a": _jet(), "b": _jet()},
    "jet_residue": {"f": JetSeries(Q, (F(1), F(2)), 1)},
    "kernel_jet": {"kind": TAN, "base": T3, "order": 2},
    "kernel_sums": {"sums": [tsum.kernel_jet(TAN, T3, 0).coeffs[0]], "prec": 64, "guard": 32},
    "normalize_to_zeta": {"expr": tsum.reduce_t_even_odd(1, 0)},
    "odd_harmonic": {"n": 3, "p": 2},
    "psi_jet": {"p": 2, "base": T3, "order": 2},
    "real_to_str": {"x": mpf(1), "prec": 64},
    **{name: _reduce(name) for name in dir(tsum) if name.startswith("reduce_")},
    "riemann_zeta": {"s": 3},
    "run_case": {"case": IdentityCase("thm3_1", (1, Q, T3), 64, "1e-3")},
    "run_suite": {"config": _config()},
    "single_T": {"s": 3},
    "single_T_bar": {"s": 3},
    "single_t": {"s": 3},
    "single_t_bar": {"s": 3},
    "ttilde": {"s": 3, "prec": 64},
    "ttilde_bar": {"s": 3, "prec": 64},
    "verify_cor3_2": {"m": 1, **SINGLE},
    "verify_cor3_3": {"m": 1, **SINGLE},
    "verify_cor3_5": {"m": 1, **SINGLE},
    "verify_cor3_6": {"m": 1, **SINGLE},
    "verify_lemma2_3": {"order": 2, "prec": 64, "tolerance": "1e-3"},
    "verify_lemma2_4": {"order": 2, "prec": 64, "tolerance": "1e-3"},
    "verify_thm3_1": {"p": 1, **PAIR},
    "verify_thm3_4": {"p": 1, **PAIR},
    "verify_thm3_6": {"p": 1, "r": PartialFractionRational(RESIDUE), "prec": 64,
                      "tolerance": "1e-3"},
    "verify_thm3_7": {"p": 1, "r": PartialFractionRational(RESIDUE), "prec": 64,
                      "tolerance": "1e-3"},
    "zeta_terms": {"c": 1, "s": 1, "a": T3},
}


# route -> keyword arguments of one valid call of its composed "call"
ROUTES = {
    "kernel_value": {"call": lambda kind, base, prec:
                     tsum.kernel_sums(tsum.kernel_jet(kind, base, 0).coeffs, prec)[0],
                     "kind": TAN, "base": T3, "prec": 64},
    "psi_value": {"call": lambda p, base, prec:
                  tsum.kernel_sums(tsum.psi_jet(p, base, 0).coeffs, prec)[0],
                  "p": 2, "base": -T3, "prec": 64},
    "zeta1_value": {"call": lambda c, s, a, prec:
                    tsum.kernel_sums([tsum.zeta_terms(c, s, a)], prec)[0],
                    "c": 1, "s": 1, "a": T3, "prec": 64},
    "dirichlet_beta": {"call": lambda s, prec:
                       tsum.kernel_sums([tsum.single_t_bar(s) * -1], prec)[0],
                       "s": 2, "prec": 64},
}


def _exports():
    return sorted(name for name in dir(tsum)
                  if not name.startswith("_") and callable(getattr(tsum, name)))


def _leaves(value, path=()):
    """Paths to the int and Fraction values in ``value``, through tuples."""
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    elif isinstance(value, (int, F)) and not isinstance(value, bool):
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    return value[:i] + (_replaced(value[i], rest, new),) + value[i + 1:]


def _valid(name):
    return ROUTES[name] if name in ROUTES else CALLS[name]


def _call(name, kwargs):
    kwargs = dict(kwargs)
    call = kwargs.pop("call") if "call" in kwargs else getattr(tsum, name)
    return call(**kwargs)


def _hostile():
    """(export or route, argument path, value) for every swept argument."""
    for name in _exports() + sorted(ROUTES):
        for arg, value in (ROUTES.get(name) or CALLS.get(name, {})).items():
            if arg == "call" or (name, arg) == ("JetSeries", "coeffs"):
                continue
            for path in _leaves(value):
                leaf = value
                for i in path:
                    leaf = leaf[i]
                label = ".".join(map(str, (arg,) + path))
                for bad in (2.5, "2", mpf(leaf.numerator) / leaf.denominator):
                    yield pytest.param(name, arg, path, bad, id=f"{name}-{label}-{bad!r}")


def test_every_export_has_a_valid_call():
    assert sorted(CALLS) == _exports()
    assert not set(ROUTES) & set(CALLS)
    for name in _exports() + sorted(ROUTES):
        _call(name, _valid(name))


class _Late(Exception):
    pass


def _alarm(signum, frame):
    raise _Late


@pytest.mark.parametrize("name, arg, path, bad", list(_hostile()))
def test_a_non_integer_or_non_rational_argument_is_a_value_error(name, arg, path, bad):
    kwargs = dict(_valid(name))
    kwargs[arg] = _replaced(kwargs[arg], path, bad)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    t0 = time.perf_counter()
    try:
        with pytest.raises(ValueError):
            _call(name, kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("name", [name for name in _exports() + sorted(ROUTES)
                                  if "prec" in _valid(name)])
def test_a_precision_of_none_is_a_precision_error(name):
    kwargs = dict(_valid(name), prec=None)
    with pytest.raises(PrecisionError):
        _call(name, kwargs)


def test_the_exact_constants_take_no_precision():
    for name in ("riemann_zeta", "alt_zeta", "single_t", "single_t_bar", "single_T",
                 "single_T_bar"):
        assert list(inspect.signature(getattr(tsum, name)).parameters) == ["s"], name


@pytest.mark.parametrize("wrong", [tsum.riemann_zeta(3), tsum.zeta_terms(1, 3, 1)],
                         ids=["riemann_zeta", "zeta_terms"])
def test_kernel_sums_names_the_list_of_sums_it_takes(wrong):
    # one sum where the list of sums belongs was a bare "cannot unpack"
    # TypeError
    with pytest.raises(DomainError, match="list of sums"):
        tsum.kernel_sums(wrong, 64)


# each was a KeyError, a ZeroDivisionError, a bare math domain error or an
# AttributeError
MALFORMED_TERMS = {
    "sigma=2": (1, ((2, 2, T3),)),
    "s=0": (1, ((1, 0, T3),)),
    "s=-1": (1, ((1, -1, T3),)),
    "s=1.5": (1, ((1, 1.5, T3),)),
    "s='2'": (1, ((1, "2", T3),)),
    "x=0.5": (1, ((1, 2, 0.5),)),
    "c=0.5": (0.5, ((1, 2, T3),)),
    "c='1'": ("1", ((1, 2, T3),)),
}


@pytest.mark.parametrize("term", list(MALFORMED_TERMS.values()), ids=list(MALFORMED_TERMS))
def test_kernel_sums_rejects_a_malformed_term(term):
    with pytest.raises(DomainError):
        tsum.kernel_sums([[(1, ()), term]], 64)


@pytest.mark.parametrize("term", [(1, (1, 2, T3)), (1,), (1, "abc"), 5],
                         ids=["one key not in a tuple of keys", "no keys", "keys a string",
                              "not a pair"])
def test_kernel_sums_names_the_term_shape_it_takes(term):
    # the first two were a bare "cannot unpack" TypeError and a bare
    # ValueError about unpacking
    with pytest.raises(DomainError, match=re.escape("(c, keys)")):
        tsum.kernel_sums([[term]], 64)


def test_a_float_exponent_does_not_read_the_cached_int_one():
    tsum.kernel_sums([[(1, ((1, 2, T3),))]], 64)
    with pytest.raises(DomainError):
        tsum.kernel_sums([[(1, ((1, 2.0, T3),))]], 64)


def test_no_verifier_takes_a_switch():
    # one verifier per family: its case parameters, the precision and the
    # tolerance, none of them optional
    verifiers = [spec.verifier for spec in FAMILY_SPECS.values()] + [
        fn for name, fn in vars(identities).items() if inspect.isfunction(fn)
        and not name.startswith("_") and fn.__module__ == identities.__name__]
    for fn in verifiers:
        params = inspect.signature(fn).parameters
        assert [p for p in params.values() if p.default is not p.empty] == [], fn.__name__
        assert list(params)[-1] == "tolerance", fn.__name__
