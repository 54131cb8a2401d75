import itertools
import math
import random
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quatype import _accel, algebra, powers
from quatype.algebra import (
    ApproxMultivector,
    Multivector,
    Signature,
    _mul_sparse,
    blade_grade,
    ext_blade_product,
    random_multivector,
)
from quatype.powers import (
    _cross_grades,
    cl_power,
    ext_power,
    ext_series_fn,
    predict_cl_power,
    predict_cl_power_qtype,
    predict_ext_power,
    predict_series_qtype,
    series_fn,
)
from quatype.qtypes import (
    ANTICOMMUTATOR,
    QType,
    infer_pair,
    qtype_of,
    qtype_of_approx,
    random_of_type,
    series_rule,
    series_type,
)


def ext_power_ordered_oracle(u, m):
    """Oracle: expand the m-th wedge power over ordered tuples of distinct blades.

    Repeated blades wedge to zero, so only ordered selections of m distinct
    support blades contribute; summing all orderings makes the odd-grade
    cancellation explicit, and for even grades each unordered selection shows
    up m! times with one sign, which is where the factorial coefficient comes from.
    """
    if m == 0:
        return Multivector.scalar(u.sig, 1)
    if u.grades() <= {0}:
        return Multivector.scalar(u.sig, u.coefficient(0) ** m)
    out = {}
    items = u.terms()
    for combo in itertools.permutations(range(len(items)), m):
        sign = 1
        acc = 0
        for i in combo:
            s, acc = ext_blade_product(acc, items[i][0])
            sign *= s
            if not sign:
                break
        if not sign:
            continue
        coeff = sign
        for i in combo:
            coeff *= items[i][1]
        out[acc] = out.get(acc, 0) + coeff
    return Multivector(u.sig, out)


def test_ordered_oracle_reduces_to_factorial_subsets():
    # for even grade the ordered expansion collapses to m! per subset
    s4 = Signature(4, 0)
    u = Multivector.blade(s4, [1, 2], 3) + Multivector.blade(s4, [3, 4], 5)
    assert ext_power_ordered_oracle(u, 2) == Multivector.blade(s4, [1, 2, 3, 4], math.factorial(2) * 15)


# ---------------------------------------------------------------------------
# Clifford powers


def test_cl_power_examples():
    s1 = Signature(1, 0)
    assert cl_power(Multivector.generator(s1, 1), 2) == Multivector.scalar(s1, 1)
    s2 = Signature(2, 0)
    assert cl_power(Multivector.blade(s2, [1, 2]), 2) == Multivector.scalar(s2, -1)
    # rank-1 square is the metric quadratic form
    s31 = Signature(3, 1)
    u = Multivector(s31, {0b0001: 2, 0b0010: 3, 0b0100: -1, 0b1000: 5})
    assert cl_power(u, 2) == Multivector.scalar(s31, 4 + 9 + 1 - 25)
    rng = random.Random(1)
    v = random_multivector(s31, rng)
    assert cl_power(v, 0) == Multivector.scalar(s31, 1)
    assert cl_power(v, 3) == v * v * v


# ---------------------------------------------------------------------------
# exterior powers: ordered-expansion oracle


def test_ext_power_examples():
    s4 = Signature(4, 0)
    v1 = Multivector(s4, {0b0001: 3, 0b0010: -2, 0b0100: 1})
    assert ext_power(v1, 2) == Multivector.zero(s4)
    u = Multivector.blade(s4, [1, 2]) + Multivector.blade(s4, [3, 4])
    assert ext_power(u, 2) == Multivector.blade(s4, [1, 2, 3, 4], 2)
    # mk > n kills it
    assert ext_power(u, 3) == Multivector.zero(s4)
    assert ext_power(u, 0) == Multivector.scalar(s4, 1)


def test_ext_power_matches_ordered_oracle():
    rng = random.Random(6)
    for n in range(1, 7):
        sig = Signature(n, 0) if n % 2 else Signature(n - 1, 1)
        for k in range(n + 1):
            for m in (2, 3):
                for _ in range(4):
                    u = random_multivector(sig, rng, grades=(k,))
                    got = ext_power(u, m)
                    assert got == ext_power_ordered_oracle(u, m), (sig, k, m)
                    if k % 2 == 1 or m * k > n:
                        assert got == Multivector.zero(sig)


@pytest.mark.parametrize("p, q, size", [(2, 1, 3), (2, 1, 8), (3, 3, 64)])
def test_powers_start_from_the_base(p, q, size, monkeypatch):
    # u**m and ext_power(u, m) equal m sparse products from the unit, and for
    # m >= 1 run bit_length(m) - 1 squarings and popcount(m) - 1 other
    # products, none of them by the unit; every operand has a nonzero scalar
    # part, so no power is zero and every product is counted
    sig = Signature(p, q)
    rng = random.Random(size)
    blades = [0] + rng.sample(range(1, 1 << sig.n), size - 1)
    u = Multivector(sig, {b: rng.choice((-1, 1)) * rng.randint(1, 9) for b in blades})
    for exterior, power in ((False, cl_power), (True, ext_power)):
        reference = {0: 1}
        for m in range(10):
            monkeypatch.setattr(algebra, "product_paths", Counter())
            w = power(u, m)
            assert w == Multivector(sig, reference) and w.terms() == Multivector(sig, reference).terms(), (exterior, m)
            expected = m.bit_length() - 1 + m.bit_count() - 1 if m else 0
            assert sum(algebra.product_paths.values()) == expected, (exterior, m)
            reference = _mul_sparse(reference, u._dict(), sig.neg_mask, exterior)


def test_predict_ext_power():
    assert predict_ext_power(2, 2, 4) == frozenset({4})
    assert predict_ext_power(3, 2, 12) == frozenset()
    assert predict_ext_power(2, 3, 5) == frozenset()
    assert predict_ext_power(0, 5, 3) == frozenset({0})
    assert predict_ext_power(2, 1, 3) == frozenset({2})
    assert predict_ext_power(1, 0, 1) == frozenset({0})
    with pytest.raises(ValueError):
        predict_ext_power(4, 2, 3)


def test_ext_power_containment_in_prediction():
    rng = random.Random(14)
    for n in range(1, 7):
        sig = Signature(n, 0)
        for k in range(n + 1):
            for m in range(4):
                u = random_multivector(sig, rng, grades=(k,))
                assert ext_power(u, m).grades() <= predict_ext_power(k, m, n)


# ---------------------------------------------------------------------------
# Clifford power spectra


def test_predict_cl_power_examples():
    assert predict_cl_power(2, 2, 4) == frozenset({0, 4})
    assert predict_cl_power(2, 2, 6) == frozenset({0, 4})
    assert predict_cl_power(1, 3, 3) == frozenset({1})
    assert predict_cl_power(1, 3, 6) == frozenset({1})
    # rank 3 squared in Cl(4): the dimension-aware table forces a scalar
    assert predict_cl_power(3, 2, 4) == frozenset({0})
    assert predict_cl_power(0, 4, 2) == frozenset({0})
    assert predict_cl_power(2, 3, 6) == frozenset({2, 6})
    with pytest.raises(ValueError):
        predict_cl_power(3, 2, 2)


def test_predict_cl_power_reduces_huge_exponents_into_its_cycle():
    # the step residue depends on j mod 4 only, so (j mod 4, spectrum) repeats
    # within a few steps; m = 10^18 once looped 10^18 times
    start = time.perf_counter()
    for n in range(1, 13):
        for k in range(n + 1):
            for j in range(4):
                assert predict_cl_power(k, 10**18 + j, n) == predict_cl_power(k, 40 + j, n), (k, n, j)
    assert time.perf_counter() - start < 1.0


def four_case_m2(k, n):
    """The dimension-refined two-factor table used as the m=2 oracle."""
    if n >= 2 * k:
        top = 2 * k if k % 2 == 0 else 2 * k - 2
    else:
        top = 2 * n - 2 * k if (n - k) % 2 == 0 else 2 * n - 2 * k - 2
    return frozenset(range(0, top + 1, 4))


def test_predict_cl_power_equals_four_case_table_at_m2():
    for n in range(1, 13):
        for k in range(n + 1):
            assert predict_cl_power(k, 2, n) == four_case_m2(k, n), (n, k)


def test_cl_power_spectrum_containment_and_top_witness():
    rng = random.Random(3)
    for n in range(1, 7):
        sig = Signature(n, 0)
        for k in range(n + 1):
            for m in range(5):
                pred = predict_cl_power(k, m, n)
                seen = set()
                for _ in range(25):
                    u = random_multivector(sig, rng, grades=(k,))
                    seen |= set(cl_power(u, m).grades())
                assert seen <= pred, (n, k, m)
                if m == 2 and pred:
                    # the m=2 refinement is tight: some witness reaches the top
                    top = max(pred)
                    assert any(
                        top in cl_power(random_multivector(sig, rng, grades=(k,)), 2).grades()
                        for _ in range(200)
                    ), (n, k)


def test_cl_power_spectrum_containment_mixed_signature():
    rng = random.Random(31)
    for p, q in [(2, 2), (1, 4), (0, 5), (3, 3)]:
        sig = Signature(p, q)
        for k in range(sig.n + 1):
            for m in (2, 3, 4):
                pred = predict_cl_power(k, m, sig.n)
                for _ in range(10):
                    u = random_multivector(sig, rng, grades=(k,))
                    assert set(cl_power(u, m).grades()) <= pred


def test_predict_cl_power_qtype():
    assert predict_cl_power_qtype(3, 5) == 3
    assert predict_cl_power_qtype(3, 4) == 0
    assert predict_cl_power_qtype(0, 7) == 0
    assert predict_cl_power_qtype(2, 1) == 2
    for t in range(4):
        for m in range(13):
            assert predict_cl_power_qtype(t, m) == (t if m % 2 else 0), (t, m)
    with pytest.raises(ValueError):
        predict_cl_power_qtype(4, 2)
    with pytest.raises(ValueError):
        predict_cl_power_qtype(1, -1)


def test_power_type_containment():
    rng = random.Random(10)
    for n in (3, 4, 5, 6):
        sig = Signature(n, 0) if n % 2 == 0 else Signature(n - 1, 1)
        for t in range(4):
            if not any(g % 4 == t for g in range(n + 1)):
                continue
            u = random_of_type(sig, rng, QType({t}))
            for m in range(6):
                assert qtype_of(cl_power(u, m)) <= QType({predict_cl_power_qtype(t, m)})


# ---------------------------------------------------------------------------
# Clifford series (floating point)


def test_series_exp_zero_and_scalar():
    s2 = Signature(2, 0)
    assert series_fn("exp", ApproxMultivector.zero(s2)).terms() == [(0, 1.0)]
    r = series_fn("exp", ApproxMultivector.scalar(s2, 1.0))
    assert r.coefficient(0) == pytest.approx(math.e, rel=1e-12)


SERIES = ("exp", "sin", "cos", "sinh", "cosh")


def spinor_fn(name, u):
    """The series of u on the spinor route alone, which series_fn skips for an operand whose non-scalar part squares to a scalar."""
    sig = u.sig
    return ApproxMultivector._make(sig, _accel.spinor_series(u._coeffs, sig.neg_mask, sig.n, *series_rule(name)))


def test_series_exp_bivector_closed_form():
    # (e12)^2 = -e in Cl(2,0), so exp(a e12) = cos(a) e + sin(a) e12
    s2 = Signature(2, 0)
    for fn, alpha in itertools.product((series_fn, spinor_fn), (1.0, 0.5, -2.2)):
        r = fn("exp", ApproxMultivector(s2, {0b11: alpha}))
        assert r.coefficient(0) == pytest.approx(math.cos(alpha), abs=1e-9)
        assert r.coefficient(0b11) == pytest.approx(math.sin(alpha), abs=1e-9)
        assert set(r._dict()) <= {0, 0b11}


def test_series_trig_rank1_types():
    s3 = Signature(3, 0)
    u = ApproxMultivector(s3, {0b001: 0.3, 0b010: -0.7, 0b100: 0.2})
    assert series_fn("sin", u).grades() <= {1}
    assert series_fn("sinh", u).grades() <= {1}
    assert series_fn("cos", u).grades() <= {0}
    assert series_fn("cosh", u).grades() <= {0}
    # scalar series match the ordinary functions
    a = ApproxMultivector.scalar(s3, 0.8)
    assert series_fn("sin", a).coefficient(0) == pytest.approx(math.sin(0.8), rel=1e-12)
    assert series_fn("cosh", a).coefficient(0) == pytest.approx(math.cosh(0.8), rel=1e-12)


def test_series_type_predictions_concrete():
    rng = random.Random(40)
    for n in (3, 4, 5):
        sig = Signature(n, 0)
        for t in range(4):
            if not any(g % 4 == t for g in range(n + 1)):
                continue
            exact = random_of_type(sig, rng, QType({t}))
            u = ApproxMultivector.from_exact(exact) * 0.1
            for name in ("exp", "sin", "cos", "sinh", "cosh"):
                got = qtype_of_approx(series_fn(name, u))
                assert got <= predict_series_qtype(name, t), (n, t, name)


def test_predict_series_qtype_values():
    assert predict_series_qtype("exp", 2) == QType({0, 2})
    assert predict_series_qtype("exp", 0) == QType({0})
    assert predict_series_qtype("sinh", 3) == QType({3})
    assert predict_series_qtype("cos", 1) == QType({0})
    # the paper's table: exp -> {0, t}, sin/sinh -> {t}, cos/cosh -> {0}
    for t in range(4):
        table = {"exp": {0, t}, "sin": {t}, "sinh": {t}, "cos": {0}, "cosh": {0}}
        for name, want in table.items():
            assert predict_series_qtype(name, t) == QType(want), (name, t)
    with pytest.raises(ValueError):
        predict_series_qtype("tan", 1)


@pytest.mark.parametrize("name", ["tan", "exp "], ids=["tan", "exp-space"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda name: series_type(name, QType({1})),
        lambda name: series_fn(name, ApproxMultivector.scalar(Signature(2, 0), 0.5)),
        lambda name: ext_series_fn(name, Multivector.generator(Signature(2, 0), 1)),
        lambda name: predict_series_qtype(name, 1),
    ],
    ids=["series_type", "series_fn", "ext_series_fn", "predict_series_qtype"],
)
def test_every_series_entry_point_rejects_unknown_name(entry, name):
    with pytest.raises(ValueError, match="unknown series"):
        entry(name)


def test_series_exp_inverse_identity():
    rng = random.Random(17)
    for n in range(1, 6):
        sig = Signature(n, 0)
        for _ in range(6):
            exact = random_multivector(sig, rng)
            u = ApproxMultivector.from_exact(exact) * (1.0 / 9.0)  # coefficients in [-1, 1]
            prod = series_fn("exp", u) * series_fn("exp", -u)
            residual = prod - ApproxMultivector.scalar(sig, 1.0)
            assert residual.max_abs() < 1e-9


def test_series_policy_and_divergence():
    rng = random.Random(2)
    big = ApproxMultivector.from_exact(random_multivector(Signature(6, 0), rng)) * 4.0
    with pytest.raises(ValueError):
        series_fn("tanh", big)
    with pytest.raises(TypeError):
        series_fn("exp", Multivector.scalar(Signature(2, 0), 1))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_series_of_non_finite_operand_is_non_finite(bad):
    # the result has no type, so classify raises; no OverflowError from the
    # scaling step count and no RuntimeWarning on the way.  The first two
    # operands qualify for the closed form, and their non-finite α sends them
    # to the spinor route
    s3 = Signature(3, 0)
    cases = [
        (ApproxMultivector(s3, {0b001: 0.5, 0b110: bad}), SERIES),
        (ApproxMultivector(s3, {0b001: bad}), SERIES),
        (ApproxMultivector(Signature(4, 0), {0b0011: 0.5, 0b1100: bad}), SERIES),
    ]
    _assert_non_finite(cases)


def test_series_overflow_in_closed_form_is_non_finite():
    # math.cosh(800) and math.exp(1000) raise OverflowError: these operands
    # qualify for the closed form and take the spinor route instead.  The
    # last three are c (e_a + e_b) for two disjoint bivectors, so M = ±2c^2 e1234.
    # C and S are taken at 2c^2 ± 2c^2, so at 4c^2 = 640 000 where
    # math.cosh(800) overflows, for exp, sinh and cosh in Cl(2,2) (N^2 has
    # α = 2c^2) and for sin and cos in Cl(4,0) (-N^2 has 2c^2); and at
    # 2c^2 i in Cl(3,1) (α = 0, γ < 0), where cmath.cosh(1000 + 1000i) overflows.
    # At c = 1e100 in Cl(4,0), α = -2e200 is finite and γ = 4c^4 overflows to inf
    s3 = Signature(3, 0)
    cases = [
        (ApproxMultivector(s3, {0b001: 800.0}), ("exp", "sinh")),
        (ApproxMultivector.scalar(s3, 1000.0), ("exp",)),
        (ApproxMultivector(Signature(2, 2), {0b0101: 400.0, 0b1010: 400.0}), ("exp", "sinh", "cosh")),
        (ApproxMultivector(Signature(4, 0), {0b0011: 400.0, 0b1100: 400.0}), ("sin", "cos")),
        (ApproxMultivector(Signature(3, 1), {0b0011: 1000.0, 0b1100: 1000.0}), SERIES),
        (ApproxMultivector(Signature(4, 0), {0b0011: 1e100, 0b1100: 1e100}), SERIES),
    ]
    _assert_non_finite(cases)


def _assert_non_finite(cases):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u, names in cases:
            for name in names:
                spinor_runs = powers.series_paths["spinor"]
                r = series_fn(name, u)
                assert powers.series_paths["spinor"] == spinor_runs + 1, (u, name)
                assert not all(math.isfinite(v) for _, v in r.terms()), (u, name)
                with pytest.raises(ValueError, match="non-finite"):
                    qtype_of_approx(r)


def test_series_exp_keeps_type_under_decaying_eigenvalues():
    # X has an eigenvalue near -21, where cosh and sinh are near +-e^21 / 2:
    # exp summed as cosh + sinh would leave noise of e^21 ulps in grade 2; the
    # closed form leaves none
    u = ApproxMultivector(Signature(0, 5), {0: -9.0, 15: -5.0, 23: -2.0, 27: -9.0, 29: 3.0, 30: -9.0})
    for fn in (series_fn, spinor_fn):
        r = fn("exp", u)
        assert max((abs(v) for b, v in r.terms() if blade_grade(b) % 4), default=0.0) <= 1e-13 * r.max_abs()


def dict_series_oracle(name, u):
    """Oracle: the series loop on sparse multivectors, one product, sum and scaling per term.

    It stops once a term is below 1e-12 of the partial sum (or of 1), so it
    is itself only that close to the exact sum.
    """
    tolerance, max_terms = 1e-12, 200
    sig = u.sig
    step2 = name != "exp"
    if name in ("sin", "sinh"):
        term, j = u, 1
    else:
        term, j = ApproxMultivector.scalar(sig, 1.0), 0
    alternating = name in ("sin", "cos")
    f = u * u if step2 else u
    acc = ApproxMultivector.zero(sig)
    sign = 1.0
    for _ in range(max_terms):
        if term.max_abs() <= tolerance * max(1.0, acc.max_abs()):
            return acc
        acc = acc + (term if sign > 0 else -term)
        if step2:
            term = (term * f) * (1.0 / ((j + 1) * (j + 2)))
            j += 2
        else:
            term = (term * f) * (1.0 / (j + 1))
            j += 1
        if alternating:
            sign = -sign
    raise AssertionError(f"oracle {name} series did not converge within {max_terms} terms")


def _oracle_inputs(max_n):
    """Three operands per signature, coefficients in [-1, 1], from one seed-33 stream."""
    rng = random.Random(33)
    for n in range(1, max_n + 1):
        for p in sorted({n, n // 2, 0}):
            sig = Signature(p, n - p)
            for _ in range(3):
                yield ApproxMultivector.from_exact(random_multivector(sig, rng)) * (1.0 / 9.0)


def test_series_matches_dict_oracle():
    for u in _oracle_inputs(6):
        for name in ("exp", "sin", "cos", "sinh", "cosh"):
            got, ref = series_fn(name, u), dict_series_oracle(name, u)
            bound = 1e-12 * max(1.0, ref.max_abs())
            for b in set(got._dict()) | set(ref._dict()):
                assert abs(got.coefficient(b) - ref.coefficient(b)) <= bound, (u.sig, name, b)


def exact_series(u):
    """The five series of u as exact rational Taylor sums, stopped once a term is below 1e-30."""
    exact = Multivector(u.sig, {b: Fraction(v) for b, v in u.terms()})
    sums = dict.fromkeys(("exp", "sin", "cos", "sinh", "cosh"), Multivector.zero(u.sig))
    term, j = Multivector.scalar(u.sig, 1), 0
    while term and term.max_abs() >= 1e-30:
        sign = -1 if (j // 2) & 1 else 1
        sums["exp"] += term
        if j & 1:
            sums["sinh"] += term
            sums["sin"] += term * sign
        else:
            sums["cosh"] += term
            sums["cos"] += term * sign
        j += 1
        term = term * exact * Fraction(1, j)
    return sums


def _spinor_norm(u):
    """‖X‖∞ of u's spinor matrix X, the norm that the series scale by."""
    sig = u.sig
    x = _accel.to_spinor(*_accel.float_arrays(u._dict()), sig.neg_mask, sig.n)
    return float(np.abs(x).sum(axis=1).max())


def test_series_matches_exact_taylor_sum():
    # the oracle inputs, and those of n <= 3 scaled to ‖X‖∞ = 3.9, near the top
    # of the range that the Taylor stage sums with no doubling
    top = [u * (3.9 / _spinor_norm(u)) for u in _oracle_inputs(3) if u]
    for u in [*_oracle_inputs(4), *top]:
        for name, ref in exact_series(u).items():
            got = series_fn(name, u)
            bound = 1e-14 * max(1.0, float(ref.max_abs()))
            for b in set(got._dict()) | set(ref._dict()):
                assert abs(got.coefficient(b) - float(ref.coefficient(b))) <= bound, (u.sig, name, b)


def test_series_of_integer_vectors_match_closed_forms():
    # v v = ±r^2 for a vector v of Cl(n,0) or Cl(0,n), so each series of v is a
    # function of r times 1 or v / r; coefficients up to 9 put ‖X‖∞ past 4, so
    # the spinor route runs the doublings
    rng = random.Random(23)
    for n in range(3, 7):
        for sig in (Signature(n, 0), Signature(0, n)):
            for _ in range(4):
                u = ApproxMultivector(sig, {1 << i: rng.randint(-9, 9) for i in range(n)})
                r = math.sqrt(sum(v * v for _, v in u.terms()))
                if not r:
                    continue
                hyp, circ = (math.cosh(r), math.sinh(r) / r), (math.cos(r), math.sin(r) / r)
                if sig.q:
                    hyp, circ = circ, hyp
                # each function's (scalar, multiple of v) parts
                parts = {
                    "exp": hyp,
                    "cosh": (hyp[0], 0.0),
                    "sinh": (0.0, hyp[1]),
                    "cos": (circ[0], 0.0),
                    "sin": (0.0, circ[1]),
                }
                for (name, (even, odd)), fn in itertools.product(parts.items(), (series_fn, spinor_fn)):
                    want = {0: even, **{b: odd * v for b, v in u.terms()}}
                    got = fn(name, u)
                    bound = 1e-12 * max(1.0, *map(abs, want.values()))
                    for b in set(got._dict()) | set(want):
                        assert abs(got.coefficient(b) - want.get(b, 0.0)) <= bound, (sig, u.terms(), name, fn, b)


def test_series_of_a_long_vector_matches_math():
    # on the spinor route ‖X‖∞ = 700 takes 8 doublings, and cosh 700 is within
    # a factor 2^15 of overflow
    u = ApproxMultivector(Signature(3, 0), {0b001: 700.0})
    wants = (("exp", {0: math.cosh(700), 0b001: math.sinh(700)}), ("sinh", {0b001: math.sinh(700)}))
    for (name, want), fn in itertools.product(wants, (series_fn, spinor_fn)):
        got = fn(name, u)
        bound = 1e-12 * max(want.values())
        for b in set(got._dict()) | set(want):
            assert abs(got.coefficient(b) - want.get(b, 0.0)) <= bound, (name, fn, b)


def test_series_exp_vector_closed_form_n9():
    # u u = |u|^2 for a Euclidean vector, so exp(u) = cosh|u| + sinh|u| u/|u|
    rng = random.Random(9)
    sig = Signature(9, 0)
    u = ApproxMultivector(sig, {1 << i: rng.uniform(-0.5, 0.5) for i in range(9)})
    norm = math.sqrt(sum(v * v for _, v in u.terms()))
    want = {0: math.cosh(norm), **{b: math.sinh(norm) * v / norm for b, v in u.terms()}}
    for fn in (series_fn, spinor_fn):
        got = fn("exp", u)
        for b in set(got._dict()) | set(want):
            # on the spinor route e_i e_j + e_j e_i cancels only to rounding:
            # the bivector part is noise
            assert got.coefficient(b) == pytest.approx(want.get(b, 0.0), rel=1e-12, abs=1e-15), (fn, b)


def _grade_blades(n, *grades):
    return tuple(b for b in range(1, 1 << n) if b.bit_count() in grades)


def _closed_form_operands():
    """Operands s + N whose N^2 = α + M has M^2 a scalar, over n = 1..8 and 12.

    N is zero, a vector, an (n-1)-vector or the pseudoscalar at p = 0,
    n // 2 and n.  At every p, N is a vector plus the pseudoscalar below
    n = 12, e12 + e34 and all bivectors at n = 4 and 5, all trivectors at
    n = 5, and all vectors plus all bivectors, and all bivectors plus the
    pseudoscalar, at n = 3.  The single blades e12 at n = 4, and e12 and
    e123 at n = 6, where the gate refuses grades {2} and {3} for more than
    one blade, check the admission of a single blade.  Each comes with and without a scalar part; the
    integer coefficients in [-9, 9] are scaled by 0.1, 1 and 9.  None of
    them has an exactly null M (M != 0, M^2 = 0), which the spinor route
    takes.
    """
    rng = random.Random(27)
    widened = {
        3: [_grade_blades(3, 1, 2), _grade_blades(3, 2, 3)],
        4: [(0b0011,), (0b0011, 0b1100), _grade_blades(4, 2)],
        5: [_grade_blades(5, 2), _grade_blades(5, 3), _grade_blades(5, 1, 5)],
        6: [(0b000011,), (0b000111,)],
    }
    for n in [*range(1, 9), 12]:
        parts = [(), _grade_blades(n, 1), _grade_blades(n, n - 1), _grade_blades(n, n)]
        # at n = 12 the spinor route's 4 096 noise coefficients would make a
        # vector plus the pseudoscalar most of the test's time
        every_p = widened.get(n, []) + ([_grade_blades(n, 1, n)] if n < 12 else [])
        shapes = [(parts, sorted({0, n // 2, n})), (every_p, range(n + 1))]
        for blade_sets, ps in shapes:
            for p in ps:
                sig = Signature(p, n - p)
                for blades, with_scalar, scale in itertools.product(blade_sets, (False, True), (0.1, 1.0, 9.0)):
                    coeffs = {b: scale * rng.choice([c for c in range(-9, 10) if c]) for b in blades}
                    if with_scalar:
                        coeffs[0] = scale * rng.choice([c for c in range(-9, 10) if c])
                    yield ApproxMultivector(sig, coeffs)


def test_closed_form_series_match_spinor_route():
    for u in _closed_form_operands():
        for name in SERIES:
            closed_runs = powers.series_paths["closed"]
            got, ref = series_fn(name, u), spinor_fn(name, u)
            assert powers.series_paths["closed"] == closed_runs + 1, (u, name)
            bound = 1e-12 * max(1.0, ref.max_abs())
            g, r = got._dict(), ref._dict()
            for b in g.keys() | r.keys():
                assert abs(g.get(b, 0.0) - r.get(b, 0.0)) <= bound, (u, name, b)


def _assert_spinor_route(u):
    for name in SERIES:
        before = Counter(powers.series_paths)
        got = series_fn(name, u)
        assert powers.series_paths - before == Counter(spinor=1), (u, name)
        assert got == spinor_fn(name, u), (u, name)


def test_series_outside_the_closed_form_take_the_spinor_route():
    # the gate predicts grades {1, 4} of M = N^2 - α for grades {2, 3} at
    # n = 4, {3, 4} for grades {1, 2}, {2, 4} for the 0~2~ operand and {4}
    # for bivectors at n = 6, where n - 1 = 5: M^2 need not be a scalar
    s4 = Signature(4, 0)
    for u in (
        ApproxMultivector(s4, {0b0011: 0.5, 0b0111: 0.25, 0b1100: -0.75}),
        ApproxMultivector(s4, {0b0001: 0.5, 0b0110: 0.25, 0b1100: -0.75}),
        ApproxMultivector(Signature(3, 3), {0b000011: 0.5, 0b001100: 0.25, 0b110000: -0.75}),
        ApproxMultivector(s4, {0: 1.0, 0b0101: 0.5, 0b1111: -0.5}),
    ):
        assert _cross_grades(u.sig.n, frozenset(u.grades() - {0})) is None, u
        _assert_spinor_route(u)


def test_closed_form_gate_is_sound():
    # for every grade set at n <= 6 that the gate admits, M = N N - <N N>_0 of
    # an integer N has no grade outside the predicted ones, and M M is exactly
    # a scalar
    rng = random.Random(28)
    for n in range(1, 7):
        for r in range(1, n + 1):
            for grades in itertools.combinations(range(1, n + 1), r):
                predicted = _cross_grades(n, frozenset(grades))
                if predicted is None:
                    continue
                blades = _grade_blades(n, *grades)
                for p in range(n + 1):
                    sig = Signature(p, n - p)
                    for draw in range(3):
                        chosen = blades if draw == 0 else [b for b in blades if rng.random() < 0.5]
                        u = Multivector(sig, {b: rng.choice([-3, -2, -1, 1, 2, 3]) for b in chosen})
                        square = u * u
                        m = square - Multivector.scalar(sig, square.coefficient(0))
                        assert m.grades() <= predicted, (u, m)
                        mm = m * m
                        assert mm == Multivector.scalar(sig, mm.coefficient(0)), (u, m)


def test_commutation_parity_is_the_anticommutator_type():
    # _cross_grades reads that blades of grades g and h sharing j generators
    # commute iff gh - j is even; that is exactly when their product's grade
    # g + h - 2j lies in the paper's anticommutator type of g mod 4 and h mod 4
    for g in range(13):
        for h in range(13):
            for j in range(min(g, h) + 1):
                anti = infer_pair(ANTICOMMUTATOR, g % 4, h % 4)
                assert (not (g * h - j) & 1) == ((g + h - 2 * j) % 4 == anti), (g, h, j)


@pytest.mark.parametrize(
    "coeffs",
    [{0b011: 1.0, 0b101: 1.0 + d, 0b111: 0.7} for d in (1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12)]
    + [{0b011: 1.0, 0b101: math.sqrt(1.0 - e), 0b111: math.sqrt(e)} for e in (1e-2, 1e-6, 1e-10, 1e-14)],
)
def test_near_null_m_matches_spinor_route(coeffs):
    # N = e12 + (1 + δ) e13 + 0.7 e123 in Cl(2,1) has M = ±1.4 e3 ± 1.4 (1 + δ) e2,
    # so γ = 1.96 ((1 + δ)^2 - 1) ≈ 3.92 δ: split (γ > 0) and near null for
    # δ > 0, where (C(z + √γ) - C(z - √γ)) / 2√γ cancels, and circular for δ < 0.
    # N = e12 + √(1 - ε) e13 + √ε e123 has α ≈ 0 and γ ≈ -4ε^2 against
    # |M| ≈ 4√ε: circular and near null, where Im S(z + i√-γ) / √-γ comes
    # out of a complex division
    sig = Signature(2, 1)
    for scalar in ({}, {0: 0.4}):
        u = ApproxMultivector(sig, {**scalar, **coeffs})
        for name in SERIES:
            got, ref = series_fn(name, u), spinor_fn(name, u)
            for b in set(got._dict()) | set(ref._dict()):
                assert abs(got.coefficient(b) - ref.coefficient(b)) <= 1e-12, (u, name, b)


def test_exactly_null_m_takes_the_spinor_route():
    # N = e12 + e13 + 0.7 e123 in Cl(2,1): M = ±1.4 e3 ± 1.4 e2 is nonzero and
    # squares to 1.96 (e3^2 + e2^2) = 0
    u = ApproxMultivector(Signature(2, 1), {0b011: 1.0, 0b101: 1.0, 0b111: 0.7})
    assert _cross_grades(3, frozenset({2, 3})) == {1}
    _assert_spinor_route(u)


# ---------------------------------------------------------------------------
# exterior series (exact)


def test_ext_series_odd_rank_closed_forms():
    s5 = Signature(5, 0)
    u = Multivector.blade(s5, [1, 2, 3], Fraction(7, 3)) + Multivector.blade(s5, [1, 4, 5], -2)
    one = Multivector.scalar(s5, 1)
    assert ext_series_fn("exp", u) == one + u
    assert ext_series_fn("cos", u) == one
    assert ext_series_fn("cosh", u) == one
    assert ext_series_fn("sin", u) == u
    assert ext_series_fn("sinh", u) == u


def test_ext_series_even_rank_example():
    s4 = Signature(4, 0)
    u = Multivector.blade(s4, [1, 2]) + Multivector.blade(s4, [3, 4])
    want = Multivector.scalar(s4, 1) + u + Multivector.blade(s4, [1, 2, 3, 4])
    assert ext_series_fn("exp", u) == want
    # cos keeps the even terms with alternating signs: e - e1234
    assert ext_series_fn("cos", u) == Multivector.scalar(s4, 1) - Multivector.blade(s4, [1, 2, 3, 4])
    assert ext_series_fn("sin", u) == u
    assert ext_series_fn("cosh", u) == Multivector.scalar(s4, 1) + Multivector.blade(s4, [1, 2, 3, 4])


def test_ext_series_exact_and_terminates():
    rng = random.Random(5)
    for n in (2, 3, 4, 5, 6):
        sig = Signature(n, 0)
        u = random_multivector(sig, rng, grades=range(1, n + 1))
        r = ext_series_fn("exp", u)
        # exact rational reconstruction: sum of wedge powers over factorials
        acc = Multivector.zero(sig)
        power = Multivector.scalar(sig, 1)
        j = 0
        while power:
            acc = acc + power * Fraction(1, math.factorial(j))
            power = power ^ u
            j += 1
            assert j <= n + 1  # termination bound
        assert r == acc


def test_ext_series_rejects_scalar_component():
    s3 = Signature(3, 0)
    u = Multivector.scalar(s3, 1) + Multivector.generator(s3, 1)
    with pytest.raises(ValueError):
        ext_series_fn("exp", u)


def test_ext_series_on_floats():
    s4 = Signature(4, 0)
    u = ApproxMultivector(s4, {0b0011: 1.0, 0b1100: 1.0})
    r = ext_series_fn("exp", u)
    assert r.coefficient(0b1111) == pytest.approx(1.0)
