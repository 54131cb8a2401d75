"""Clifford and exterior powers, their rank/type predictions, and series.

Exterior powers of a homogeneous element are rigid: odd grades square to
zero under the wedge, and a grade-k element wedged m times either dies
(mk > n or k odd) or lands exactly in grade mk.  Clifford powers spread over
grades of the one residue mod 4 that :func:`infer_power_set` gives; iterating
the two-factor grade envelope and keeping that residue at every step
reproduces the dimension-aware refinements for every m.

Of the five elementary functions, the Clifford series run in floating point
on one of two routes, picked per call from the operand's blades.  For an
operand s + N, N^2 is a scalar α plus a part M that commutes with N (of
type 0 when N has a main type).  When the grades of N's blades show that
M^2 is a scalar γ, every function of N lies in span{1, M} + span{1, M} N
and the operand takes the classical closed forms (Lounesto, *Clifford
Algebras and Spinors*, 2001), extended to that two-dimensional
commutative algebra, in pure Python.  Any other operand runs as a matrix
function in the spinor representation of :mod:`quatype._accel`, by
scaling and doubling (Higham,
"The scaling and squaring method for the matrix exponential revisited",
SIAM J. Matrix Anal. Appl. 2005).  ``series_paths`` counts the calls each
route ran, keyed ``closed`` and ``spinor``.  The exterior series are finite
and evaluated in exact rational arithmetic.  Both kinds take the powers to
sum, and their signs, from :func:`series_rule`.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from . import _accel
from .algebra import ApproxMultivector, Signature, _power, sign_word
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


@lru_cache(maxsize=None)
def _cross_grades(n: int, grades: frozenset) -> frozenset | None:
    """Grades that M = N^2 - α can hold when N's blades have these grades; None when M^2 need not be a scalar.

    Distinct blades of grades g and h that share j generators commute iff
    gh - j is even, and their product then has grade g + h - 2j.  The cross
    terms of anticommuting pairs cancel in N^2, so M is the sum of the
    commuting ones and these are its only grades.  M^2 is a scalar, by the
    rule for α, when M has no grade outside {1}, outside {n - 1} or outside
    {n}.
    """
    out = {
        g + h - 2 * j
        for g in grades
        for h in grades
        if g <= h
        for j in range(max(0, g + h - n), g + 1)
        if not (g * h - j) & 1 and j < h
    }
    return frozenset(out) if out <= {1} or out <= {n - 1} or out <= {n} else None


def _square(terms, neg_mask: int) -> float:
    """Σ c_b^2 e_b^2 over (blade, coefficient) pairs: the square of their sum when its cross terms cancel.

    e_b^2 = (-1)^(g(g-1)/2 + popcount(b & neg_mask)) for a blade b of grade g.
    """
    out = 0.0
    for b, c in terms:
        g = b.bit_count()
        out += -c * c if (g * (g - 1) // 2 + (b & neg_mask).bit_count()) & 1 else c * c
    return out


def _even_odd(z: float) -> tuple[float, float]:
    """C(z) = cosh √z and S(z) = sinh √z / √z at a real z: cos √-z and sin √-z / √-z below 0, and 1 at 0."""
    if z > 0:
        r = math.sqrt(z)
        return math.cosh(r), math.sinh(r) / r
    if z < 0:
        r = math.sqrt(-z)
        return math.cos(r), math.sin(r) / r
    return 1.0, 1.0


def _closed_series(coeffs: dict, sig: Signature, parities: tuple[int, ...], trig: bool) -> dict | None:
    """The series of s + N as a coefficient dict when N^2 = α + M with M^2 = γ a scalar; None when the spinor route must run.

    α is Σ c_b^2 e_b^2 over N's blades (:func:`_square`).  M is the sum of
    the cross terms 2 c_a c_b e_a e_b of the pairs of N's blades that
    commute, so it commutes with N.  :func:`_cross_grades` admits N by its
    grade set before any arithmetic, and a single blade always (M = 0).  γ
    is read off M's blades by the rule for α.

    With C(z) = cosh √z and S(z) = sinh √z / √z, cosh N = C(N^2) and
    sinh N = S(N^2) N; cos and sin take -N^2 = -α - M.  In span{1, M},
    F(z + M) = F0 + F1 M, where F0 and F1 are F(z) and 0 for M = 0; the
    mean of F(z ± √γ) and their difference over 2√γ for γ > 0; and the real
    part of F(z + i√-γ) and its imaginary part over √-γ, by :mod:`cmath`,
    for γ < 0.  The function of N is then (C0 + C1 M) + (S0 + S1 M) N, with
    M N summed by the sign rule of :func:`quatype.algebra.sign_word`.  s is
    central: exp(s + N) = e^s (cosh N + sinh N),
    sin(s + N) = sin s cos N + cos s sin N and so on.  Exact zeros are
    dropped.

    None is returned for a non-finite s, α or γ, an overflow in :mod:`math`
    or :mod:`cmath`, and a nonzero M with √|γ| below 1e-3 Σ|M_b|, an
    exactly null M (γ = 0) among them: there F1, a difference quotient or
    an imaginary part over √|γ|, would lose more than three digits.
    """
    s = coeffs.get(0, 0.0)
    terms = [(b, c) for b, c in coeffs.items() if b]
    neg_mask = sig.neg_mask
    cross = _cross_grades(sig.n, frozenset([b.bit_count() for b, _ in terms])) if len(terms) > 1 else frozenset()
    if cross is None:
        return None
    alpha = _square(terms, neg_mask)
    if not (math.isfinite(s) and math.isfinite(alpha)):
        return None
    m: dict = {}
    if cross:
        for i, (a, x) in enumerate(terms):
            w, g, x = sign_word(a, neg_mask), a.bit_count(), 2 * x
            for b, y in terms[i + 1 :]:
                if not (g * b.bit_count() - (a & b).bit_count()) & 1:
                    v = x * y
                    m[a ^ b] = m.get(a ^ b, 0.0) + (-v if (w & b).bit_count() & 1 else v)
        m = {b: v for b, v in m.items() if v}
    gamma = _square(m.items(), neg_mask)
    if not math.isfinite(gamma):
        return None
    # F1 is a difference quotient over √|γ|, or an imaginary part over it;
    # near a null M (exactly null included) it loses the digits √|γ| lacks against M
    h = math.sqrt(abs(gamma))
    if m and h < 1e-3 * sum(map(abs, m.values())):
        return None
    # the argument of C and S: N^2 for cosh and sinh, -N^2 = -α - M for cos and sin
    z = -alpha if trig else alpha
    # on finite arguments, math and cmath raise only OverflowError
    try:
        if not m:
            (c0, s0), c1, s1 = _even_odd(z), 0.0, 0.0
        elif gamma > 0:
            (cp, sp), (cm, sm) = _even_odd(z + h), _even_odd(z - h)
            c0, c1, s0, s1 = 0.5 * cp + 0.5 * cm, (cp - cm) / (2 * h), 0.5 * sp + 0.5 * sm, (sp - sm) / (2 * h)
        else:
            r = cmath.sqrt(complex(z, h))
            c, sr = cmath.cosh(r), cmath.sinh(r) / r
            c0, c1, s0, s1 = c.real, c.imag / h, sr.real, sr.imag / h
        if len(parities) == 2:
            scalar_even = scalar_odd = math.exp(s)
        elif trig:
            scalar_even, scalar_odd = math.cos(s), math.sin(s)
        else:
            scalar_even, scalar_odd = math.cosh(s), math.sinh(s)
    except OverflowError:
        return None
    if trig:
        c1, s1 = -c1, -s1
    if parities == (1,):
        A, B = scalar_odd, scalar_even
    else:
        # cos(s + N) = cos s cos N - sin s sin N; cosh and exp add
        A, B = scalar_even, (-scalar_odd if trig else scalar_odd)
    # (A C0 + A C1 M) + (B S0 + B S1 M) N, the products by the sign rule of algebra._mul_sparse
    out = {0: A * c0}
    B0 = B * s0
    for b, c in terms:
        out[b] = B0 * c
    if m:
        A1, B1 = A * c1, B * s1
        for a, x in m.items():
            out[a] = out.get(a, 0.0) + A1 * x
            w, x = sign_word(a, neg_mask), B1 * x
            for b, y in terms:
                v = x * y
                out[a ^ b] = out.get(a ^ b, 0.0) + (-v if (w & b).bit_count() & 1 else v)
    return {b: v for b, v in out.items() if v}


def series_fn(name: str, u: ApproxMultivector) -> ApproxMultivector:
    """Evaluate exp/sin/cos/sinh/cosh of u, in closed form or as a spinor matrix function.

    An operand s + N whose N^2 = α + M has M^2 a scalar, by the grades of
    N's blades, takes the closed form of :func:`_closed_series`.  Any other
    operand, and one whose closed form would overflow or whose M is null
    or nearly so, runs as a matrix function in the spinor representation
    (:func:`quatype._accel.spinor_series`).  A non-finite coefficient in u,
    or an overflow, gives non-finite results.
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
