"""Clifford and exterior powers, their rank/type predictions, and series.

Exterior powers of a homogeneous element are rigid: odd grades square to
zero under the wedge, and a grade-k element wedged m times either dies
(mk > n or k odd) or lands exactly in grade mk.  Clifford powers spread over
grades of the one residue mod 4 that :func:`infer_power_set` gives; iterating
the two-factor grade envelope and keeping that residue at every step
reproduces the dimension-aware refinements for every m.

Of the five elementary functions, the Clifford series run in floating point
on one of two routes, picked per call from the operand's blades.  An operand
s + N whose non-scalar part N squares to a scalar α (a single blade, or
blades all of grade 1 or all of grade n - 1) takes the classical closed
form A + B N (Lounesto, *Clifford Algebras and Spinors*, 2001) in pure
Python; any other operand runs as a matrix function in the spinor
representation of :mod:`quatype._accel`, by scaling and doubling (Higham,
"The scaling and squaring method for the matrix exponential revisited",
SIAM J. Matrix Anal. Appl. 2005).  ``series_paths`` counts the calls each
route ran, keyed ``closed`` and ``spinor``.  The exterior series are finite
and evaluated in exact rational arithmetic.  Both kinds take the powers to
sum, and their signs, from :func:`series_rule`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction

from . import _accel
from .algebra import ApproxMultivector, Signature, _power
from .brackets import product_grade_envelope
from .qtypes import QType, _check_main, infer_power_set, series_rule, series_type


def cl_power(u, m: int):
    """m-fold geometric product of u with itself; m = 0 gives the identity."""
    return u**m


def ext_power(u, m: int):
    """m-fold exterior product of u with itself; m = 0 gives the identity."""
    return _power(u, m, operator.xor)


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


def predict_cl_power(k: int, m: int, n: int) -> frozenset[int]:
    """Grade-spectrum envelope of the m-th Clifford power of a grade-k element.

    The j-th power has the single main type that :func:`infer_power_set`
    gives for a grade-k base, so the prediction convolves the two-factor
    grade envelope one power at a time and keeps the grades of that residue
    mod 4 at every step; that residue depends on j mod 4 only, so m reduces
    into the cycle of (j mod 4, spectrum).  For m = 2 this is the four-case
    refinement; brute force confirms containment (and, in all sampled cells,
    the exact top grade) for every k <= n <= 6, m <= 5.
    """
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    spectra, seen = [frozenset((0,)), frozenset((k,))], {}
    for j in range(1, m):
        i = seen.setdefault((j % 4, spectra[j]), j)
        if i < j:
            return spectra[i + (m - i) % (j - i)]
        (residue,) = infer_power_set(QType((k % 4,)), j + 1)
        spectra.append(frozenset(g for r in spectra[j] for g in product_grade_envelope(r, k, n) if g % 4 == residue))
    return spectra[m]


def predict_cl_power_qtype(t: int, m: int) -> int:
    """Main type of the m-th Clifford power of a main-type-t element."""
    (residue,) = infer_power_set(QType((_check_main(t),)), m)
    return residue


def predict_series_qtype(name: str, t: int) -> QType:
    """Type of an elementary function of a main-type-t element: {0, t} for exp, {t} for sin, {0} for cos."""
    return series_type(name, QType((_check_main(t),)))


# ---------------------------------------------------------------------------
# floating-point Clifford series


# Clifford series run by each route since import
series_paths: Counter = Counter()


def _closed_series(coeffs: dict, sig: Signature, parities: tuple[int, ...], trig: bool) -> dict | None:
    """The series of s + N as a coefficient dict when N^2 = α is a scalar; None when the spinor route must run.

    N^2 is a scalar when N is a single blade, or when its blades all have
    grade 1 or all have grade n - 1 (an (n-1)-vector is v I, with square
    ±v^2 I^2): then the cross terms of N^2 cancel, and α is Σ c_b^2 e_b^2
    with e_b^2 = (-1)^(g(g-1)/2 + popcount(b & neg_mask)).  With a = √|α|,
    cosh N = cosh a and sinh N = N sinh a / a for α > 0, cos a and
    N sin a / a for α < 0, and 1 and N for α = 0; cos and sin swap the two
    forms.  s is central, so exp(s + N) = e^s (cosh N + sinh N),
    sin(s + N) = sin s cos N + cos s sin N and so on; exact zeros are
    dropped.  A non-finite s or α, or an overflow in :mod:`math`, returns
    None: the spinor route gives its non-finite coefficients.
    """
    s = coeffs.get(0, 0.0)
    blades = [b for b in coeffs if b]
    if len(blades) > 1:
        grades = {b.bit_count() for b in blades}
        if len(grades) > 1 or grades.pop() not in (1, sig.n - 1):
            return None
    alpha = 0.0
    for b in blades:
        g, c = b.bit_count(), coeffs[b]
        alpha += -c * c if (g * (g - 1) // 2 + (b & sig.neg_mask).bit_count()) & 1 else c * c
    if not (math.isfinite(s) and math.isfinite(alpha)):
        return None
    # on finite arguments, math raises only OverflowError
    try:
        # (even, odd) parts of the function of N alone, the odd one as a multiple
        # of N: hyperbolic in a for cosh and sinh when α > 0, for cos and sin when α < 0
        a = math.sqrt(abs(alpha))
        if not alpha:
            even = odd = 1.0
        elif (alpha > 0) != trig:
            even, odd = math.cosh(a), math.sinh(a) / a
        else:
            even, odd = math.cos(a), math.sin(a) / a
        if len(parities) == 2:
            scalar_even = scalar_odd = math.exp(s)
        elif trig:
            scalar_even, scalar_odd = math.cos(s), math.sin(s)
        else:
            scalar_even, scalar_odd = math.cosh(s), math.sinh(s)
    except OverflowError:
        return None
    if parities == (1,):
        A, B = scalar_odd * even, scalar_even * odd
    else:
        # cos(s + N) = cos s cos N - sin s sin N; cosh and exp add
        A, B = scalar_even * even, (-scalar_odd if trig else scalar_odd) * odd
    out = {0: A} if A else {}
    for b in blades:
        if v := B * coeffs[b]:
            out[b] = v
    return out


def series_fn(name: str, u: ApproxMultivector) -> ApproxMultivector:
    """Evaluate exp/sin/cos/sinh/cosh of u, in closed form or as a spinor matrix function.

    An operand s + N whose non-scalar part squares to a scalar takes the
    closed form of :func:`_closed_series`; any other operand, and one whose
    closed form would overflow, runs as a matrix function in the spinor
    representation (:func:`quatype._accel.spinor_series`).  A non-finite
    coefficient in u, or an overflow, gives non-finite results.
    """
    parities, trig = series_rule(name)
    if not isinstance(u, ApproxMultivector):
        raise TypeError("Clifford series run on ApproxMultivector inputs")
    sig = u.sig
    out = _closed_series(u._coeffs, sig, parities, trig)
    if out is None:
        path, out = "spinor", _accel.spinor_series(u._coeffs, sig.neg_mask, sig.n, parities, trig)
    else:
        path = "closed"
    series_paths[path] += 1
    return ApproxMultivector._make(sig, out)


# ---------------------------------------------------------------------------
# exact exterior series


def ext_series_fn(name: str, u):
    """Evaluate the exterior exp/sin/cos/sinh/cosh of u as an exact finite sum.

    Exterior powers raise the minimum grade by at least one per factor, so
    the series terminates within n+1 terms; the result is exact when u is.
    A nonzero scalar component would make the series infinite (and its value
    transcendental), so that input is rejected.
    """
    parities, alternating = series_rule(name)
    if u.coefficient(0):
        raise ValueError("exterior series of an element with a scalar component does not terminate")
    acc = type(u).zero(u.sig)
    power = type(u).scalar(u.sig, 1)
    for j in range(u.sig.n + 2):
        if (j & 1) in parities:
            scale = Fraction(1, math.factorial(j))
            if alternating and (j // 2) & 1:
                scale = -scale
            acc = acc + power * scale
        power = power ^ u
        if not power:
            break
    return acc
