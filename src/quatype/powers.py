"""Clifford and exterior powers, their rank/type predictions, and series.

Exterior powers of a homogeneous element are rigid: odd grades square to
zero under the wedge, and a grade-k element wedged m times either dies
(mk > n or k odd) or lands exactly in grade mk.  Clifford powers spread over
a step-4 arithmetic progression whose endpoints depend on the parities of k
and m; the implementation clips that progression by iterating the two-factor
grade envelope, which reproduces the dimension-aware refinements for every m.

Power series of the usual five elementary functions come in two flavors:
the Clifford-product series run in floating point with a relative-tolerance
truncation policy (they rarely terminate), while the exterior series are
finite and evaluated in exact rational arithmetic.  A Clifford series keeps
its term and partial sum as dense float64 vectors of length 2^n and
multiplies the term by the same factor at every step: through that factor's
step matrix, built once per series, when its 4^n entries fit one kernel
chunk (n <= 8), else through the dense kernel.  Its float results may differ
in the last bits from a sum of sparse products, since the order of the
additions differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _accel
from .algebra import ApproxMultivector, _blade_arrays, _dense_coeffs
from .brackets import product_grade_envelope
from .qtypes import QType, infer_power_set, series_type

SERIES_NAMES = ("exp", "sin", "cos", "sinh", "cosh")


class SeriesConvergenceError(RuntimeError):
    """A truncated series failed to meet tolerance within the term budget."""


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy for the floating-point series."""

    tolerance: float = 1e-12
    max_terms: int = 200

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_POLICY = SeriesPolicy()


def cl_power(u, m: int):
    """m-fold geometric product of u with itself; m = 0 gives the identity."""
    return u**m


def ext_power(u, m: int):
    """m-fold exterior product of u with itself; m = 0 gives the identity."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = type(u).scalar(u.sig, 1)
    for _ in range(m):
        result = result ^ u
    return result


# ---------------------------------------------------------------------------
# rank-spectrum predictions


def predict_ext_power(k: int, m: int, n: int) -> frozenset[int]:
    """Grade spectrum of the m-th exterior power of a grade-k element.

    {mk} when k is even and mk <= n; empty (the element is zero) otherwise.
    Odd k dies for every m >= 2 because equal odd-grade factors anticommute.
    """
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return frozenset((0,))
    if m == 1:
        return frozenset((k,))
    if k % 2 == 0 and m * k <= n:
        return frozenset((m * k,))
    return frozenset()


def _power_progression(k: int, m: int) -> frozenset[int]:
    """Dimension-blind step-4 progression for the m-th power of a grade-k element.

    Odd m starts at k mod 4 and tops out at km (k even) or km-(m-1) (k odd);
    even m starts at 0 and tops out at km (k even) or (k-1)m (k odd).
    """
    if m % 2:
        start = k % 4
        top = m * k if k % 2 == 0 else m * k - (m - 1)
    else:
        start = 0
        top = m * k if k % 2 == 0 else (k - 1) * m
    return frozenset(range(start, top + 1, 4))


def predict_cl_power(k: int, m: int, n: int) -> frozenset[int]:
    """Grade-spectrum envelope of the m-th Clifford power of a grade-k element.

    Each intermediate power obeys its own step-4 progression, so the
    prediction convolves the two-factor grade envelope one power at a time
    and clips with the progression at every step.  For m = 2 this reduces
    to the dimension-aware four-case refinement; brute force confirms
    containment (and, in all sampled cells, the exact top grade) for every
    k <= n <= 6, m <= 5.
    """
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    if m == 0:
        return frozenset((0,))
    spectrum = frozenset((k,))
    for j in range(2, m + 1):
        reachable = frozenset(g for r in spectrum for g in product_grade_envelope(r, k, n))
        spectrum = reachable & _power_progression(k, j)
    return spectrum


def predict_cl_power_qtype(t: int, m: int) -> int:
    """Main type of the m-th Clifford power of a main-type-t element."""
    if t not in (0, 1, 2, 3):
        raise ValueError(f"main type must be 0..3, got {t}")
    (residue,) = infer_power_set(QType((t,)), m)
    return residue


def format_spectrum(spectrum) -> str:
    """Render a grade set as a sorted list, e.g. ``{0,4,8}``; empty as ``{}``."""
    return "{" + ",".join(str(g) for g in sorted(spectrum)) + "}"


def predict_series_qtype(name: str, t: int) -> QType:
    """Type of an elementary function of a main-type-t element.

    exp mixes the even and odd powers ({0, t}); sine keeps only odd powers
    ({t}); cosine only even powers ({0}); hyperbolic variants identical.
    """
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    if t not in (0, 1, 2, 3):
        raise ValueError(f"main type must be 0..3, got {t}")
    return series_type(name, QType((t,)))


# ---------------------------------------------------------------------------
# floating-point Clifford series


def series_fn(name: str, u: ApproxMultivector, policy: SeriesPolicy = DEFAULT_POLICY) -> ApproxMultivector:
    """Evaluate exp/sin/cos/sinh/cosh of u by truncated power series.

    Terms accumulate until one drops below tolerance relative to the partial
    sum (or to 1, whichever is larger); exceeding the term budget raises
    :class:`SeriesConvergenceError`, which flags inputs whose coefficients
    grow before factorial decay kicks in.

    The term and the partial sum are dense float64 vectors of length 2^n.
    Each step multiplies the term by f = u (exp) or f = u u (the others):
    by one matrix-vector product with the step matrix of f, built once per
    series, when its 4^n entries fit one kernel chunk (4^n <= CHUNK_PAIRS),
    else by the dense kernel over the term's nonzero blades.  The float
    results may differ in the last bits from those of sparse products.
    """
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    if not isinstance(u, ApproxMultivector):
        raise TypeError("Clifford series run on ApproxMultivector inputs")
    sig = u.sig
    n, neg_mask = sig.n, sig.neg_mask
    step2 = name != "exp"
    ib, vb = _blade_arrays((u * u if step2 else u)._coeffs, np.float64)
    if 1 << (2 * n) <= _accel.CHUNK_PAIRS:
        m = _accel.step_matrix(ib, vb, neg_mask, n)

        def times_f(x):
            return x @ m

    else:

        def times_f(x):
            nz = np.flatnonzero(x)
            return _accel.product_dense(nz, x[nz], ib, vb, neg_mask, n)

    term = np.zeros(1 << n)
    if name in ("sin", "sinh"):
        ia, va = _blade_arrays(u._coeffs, np.float64)
        term[ia] = va
        j = 1
    else:  # exp, cos, cosh
        term[0] = 1.0
        j = 0
    alternating = name in ("sin", "cos")
    acc = np.zeros(1 << n)
    subtract = False
    # overflow surfaces as inf/NaN in the result or as a term that never
    # drops below tolerance, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(policy.max_terms):
            if np.abs(term).max() <= policy.tolerance * max(1.0, np.abs(acc).max()):
                return ApproxMultivector._make(sig, _dense_coeffs(acc))
            if subtract:
                acc -= term
            else:
                acc += term
            term = times_f(term)
            if step2:
                term *= 1.0 / ((j + 1) * (j + 2))
                j += 2
            else:
                term *= 1.0 / (j + 1)
                j += 1
            subtract ^= alternating
        top = np.abs(term).max()
    raise SeriesConvergenceError(
        f"{name} series did not converge within {policy.max_terms} terms (max coefficient {top:.3g})"
    )


# ---------------------------------------------------------------------------
# exact exterior series


def ext_series_fn(name: str, u):
    """Evaluate the exterior exp/sin/cos/sinh/cosh of u as an exact finite sum.

    Exterior powers raise the minimum grade by at least one per factor, so
    the series terminates within n+1 terms; the result is exact when u is.
    A nonzero scalar component would make the series infinite (and its value
    transcendental), so that input is rejected.
    """
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    if u.coefficient(0):
        raise ValueError("exterior series of an element with a scalar component does not terminate")
    one = type(u).scalar(u.sig, 1)
    wants_even = name in ("exp", "cos", "cosh")
    wants_odd = name in ("exp", "sin", "sinh")
    alternating = name in ("sin", "cos")
    acc = type(u).zero(u.sig)
    power = one
    for j in range(u.sig.n + 2):
        wanted = (wants_even, wants_odd)[j & 1]
        if wanted:
            scale = Fraction(1, math.factorial(j))
            if alternating and (j // 2) & 1:
                scale = -scale
            acc = acc + power * scale
        power = power ^ u
        if not power:
            break
    return acc
