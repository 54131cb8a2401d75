"""Clifford and exterior powers, their rank/type predictions, and series.

Exterior powers of a homogeneous element are rigid: odd grades square to
zero under the wedge, and a grade-k element wedged m times either dies
(mk > n or k odd) or lands exactly in grade mk.  Clifford powers spread over
a step-4 arithmetic progression whose endpoints depend on the parities of k
and m; the implementation clips that progression by iterating the two-factor
grade envelope, which reproduces the dimension-aware refinements for every m.

Of the five elementary functions, the Clifford series run in floating point
as matrix functions in the spinor representation of :mod:`quatype._accel`,
by scaling and doubling (Higham, "The scaling and squaring method for the
matrix exponential revisited", SIAM J. Matrix Anal. Appl. 2005); the
exterior series are finite and evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _accel
from .algebra import ApproxMultivector, _blade_arrays, _dense_coeffs
from .brackets import product_grade_envelope
from .qtypes import QType, infer_power_set, series_type

SERIES_NAMES = ("exp", "sin", "cos", "sinh", "cosh")


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


# Taylor degree of the (even, odd) pair in Y = ±X^2; at the ∞-norm 1/2 that
# X is scaled to, the first omitted term, 0.5^16 / 16!, is below 1e-18
_SERIES_DEGREE = 7
# row 0 sums the even series in Y, row 1 the odd one (before its factor X)
_PAIR = np.array([[1 / math.factorial(2 * k + odd) for k in range(_SERIES_DEGREE + 1)] for odd in (0, 1)])


def series_fn(name: str, u: ApproxMultivector) -> ApproxMultivector:
    """Evaluate exp/sin/cos/sinh/cosh of u as a matrix function.

    u maps to its spinor matrix X, scaled by 2^-s to ∞-norm at most 1/2.  The
    even/odd Taylor pair (cosh, sinh) of the scaled X, or (cos, sin), is
    summed in Y = X^2 (or -X^2) to a fixed degree and doubled s times,
    (C, S) -> (C^2 ± S^2, 2 C S); exp squares C + S s times, the same
    doubling summed.  The coefficients come back as Re tr(Γ_bᴴ F) / d.  A
    non-finite coefficient in u, or an overflow, gives non-finite results.
    """
    if name not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}")
    if not isinstance(u, ApproxMultivector):
        raise TypeError("Clifford series run on ApproxMultivector inputs")
    sig = u.sig
    trig = name in ("sin", "cos")
    # non-finite values only pass through to the result; numpy's warnings
    # would repeat what classify reports
    with np.errstate(over="ignore", invalid="ignore"):
        x = _accel.to_spinor(*_blade_arrays(u._coeffs, np.float64), sig.neg_mask, sig.n)
        # 2^steps >= 2 ‖X‖∞; frexp(inf or nan) has exponent 0, so such an X is not scaled
        steps = max(0, math.frexp(2 * np.abs(x).sum(axis=1).max())[1])
        x *= 0.5**steps
        d = len(x)
        powers = np.empty((_SERIES_DEGREE + 1, d, d), dtype=np.complex128)
        powers[0] = np.eye(d)
        np.matmul(x, -x if trig else x, out=powers[1])
        for k in range(1, _SERIES_DEGREE):
            np.matmul(powers[k], powers[1], out=powers[k + 1])
        c, s = (_PAIR @ powers.reshape(_SERIES_DEGREE + 1, d * d)).reshape(2, d, d)
        s = x @ s
        if name == "exp":
            # C' + S' = (C + S)^2: summed before doubling, so an eigenvalue
            # with a large negative real part does not cancel in cosh + sinh
            f = c + s
            for _ in range(steps):
                f = f @ f
        else:
            for _ in range(steps):
                c, s = c @ c - s @ s if trig else c @ c + s @ s, 2 * (c @ s)
            f = s if name in ("sin", "sinh") else c
        coeffs = _accel.from_spinor(f, sig.neg_mask, sig.n)
    return ApproxMultivector._make(sig, _dense_coeffs(coeffs))


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
