import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatype import algebra
from quatype.algebra import (
    ApproxMultivector,
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_bits,
    blade_grade,
    blade_indices,
    blade_name,
    blade_product,
    ext_blade_product,
    ext_mul,
    format_multivector,
    from_json,
    from_obj,
    geo_mul,
    grade_project,
    parity_split,
    qtype_project,
    random_multivector,
    to_json,
    to_obj,
)
from quatype.qtypes import qtype_of

CL20 = Signature(2, 0)
CL11 = Signature(1, 1)
CL30 = Signature(3, 0)
CL21 = Signature(2, 1)


def naive_blade_product(sig, aa, bb):
    """Oracle: multiply index strings by adjacent swaps and metric squares."""
    seq = list(aa) + list(bb)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            x, y = seq[i], seq[i + 1]
            if x == y:
                sign *= sig.metric(x)
                del seq[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            elif x > y:
                seq[i], seq[i + 1] = y, x
                sign = -sign
                changed = True
            else:
                i += 1
    return sign, tuple(seq)


def mvs(sig, max_coeff=9):
    n = sig.n
    return st.dictionaries(st.integers(0, 2**n - 1), st.integers(-max_coeff, max_coeff), max_size=2**n).map(
        lambda d: Multivector(sig, d)
    )


# ---------------------------------------------------------------------------
# signatures and blades


def test_signature_validation():
    assert Signature(3, 1).n == 4
    assert Signature(0, 1).neg_mask == 0b1
    assert Signature(2, 2).neg_mask == 0b1100
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(7, 6)  # n = 13 over the cap
    assert Signature(2, 1).metric(2) == 1
    assert Signature(2, 1).metric(3) == -1


def test_blade_helpers():
    assert blade_bits([1, 3]) == 0b101
    assert blade_indices(0b101) == (1, 3)
    assert blade_grade(0b111) == 3
    assert blade_name(0) == "e"
    assert blade_name(0b11) == "e12"
    with pytest.raises(ValueError):
        blade_bits([2, 2])
    with pytest.raises(ValueError):
        blade_bits([0])


def test_blade_product_examples():
    assert blade_product(Signature(1, 0), 1, 1) == (1, 0)
    assert blade_product(Signature(0, 1), 1, 1) == (-1, 0)
    # derived via the string-rewriting oracle: e1e2e1e2 -> -e1e1e2e2
    assert blade_product(CL20, 0b11, 0b11) == (-1, 0)


def _assert_blade_products_match_oracle(sig, a, b):
    sign, out = blade_product(sig, a, b)
    osign, oidx = naive_blade_product(sig, blade_indices(a), blade_indices(b))
    assert out == blade_bits(oidx)
    assert sign == osign, (sig, a, b)
    # disjoint blades meet no metric square, so the oracle's sign is the wedge's
    assert ext_blade_product(a, b) == ((0, 0) if a & b else (osign, a | b)), (a, b)


def test_blade_product_matches_naive_oracle_exhaustively():
    for n in range(1, 5):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1 << n):
                for b in range(1 << n):
                    _assert_blade_products_match_oracle(sig, a, b)


@pytest.mark.parametrize("n", range(5, algebra.MAX_DIMENSION + 1))
def test_blade_product_matches_naive_oracle_sampled(n):
    rng = random.Random(n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        for _ in range(200):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            _assert_blade_products_match_oracle(sig, a, b)
            _assert_blade_products_match_oracle(sig, a, b & ~a)


@pytest.mark.parametrize("a, b", [(-2, 1), (1, -2), (1 << 20, 1), (1, 1 << algebra.MAX_DIMENSION)])
def test_ext_blade_product_rejects_blades_outside_every_algebra(a, b):
    with pytest.raises(ValueError):
        ext_blade_product(a, b)


def test_generator_relation_exhaustive():
    # e^a e^b + e^b e^a = 2 eta^{ab} e for every signature with n <= 6
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ea = Multivector.generator(sig, a)
                    eb = Multivector.generator(sig, b)
                    lhs = ea * eb + eb * ea
                    eta = sig.metric(a) if a == b else 0
                    assert lhs == Multivector.scalar(sig, 2 * eta), (sig, a, b)


# ---------------------------------------------------------------------------
# geometric and exterior products


def test_geo_mul_examples():
    two_e = Multivector.scalar(CL20, 2)
    three_e1 = Multivector.generator(CL20, 1) * 3
    assert geo_mul(two_e, three_e1) == Multivector.blade(CL20, [1], 6)

    e1 = Multivector.generator(CL11, 1)
    e2 = Multivector.generator(CL11, 2)
    # hand-expanded: (e1+e2)(e1-e2) = eta11 - eta22 - 2 e12 = 2e - 2e12
    assert (e1 + e2) * (e1 - e2) == Multivector(CL11, {0: 2, 0b11: -2})


def test_geo_mul_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        geo_mul(Multivector.scalar(CL20, 1), Multivector.scalar(CL11, 1))
    with pytest.raises(SignatureMismatchError):
        ext_mul(Multivector.scalar(CL20, 1), Multivector.scalar(Signature(2, 1), 1))


def test_equal_signature_objects_combine():
    # one Signature object is compared by identity; an equal but distinct
    # object still takes the dataclass comparison and combines
    twin = Signature(2, 1)
    assert twin is not CL21 and twin == CL21
    u, v = Multivector.generator(CL21, 1), Multivector.generator(twin, 3)
    assert u * v == Multivector.blade(CL21, [1, 3])
    assert (u ^ v) == Multivector.blade(twin, [1, 3])
    assert u + v == Multivector(twin, {0b001: 1, 0b100: 1})
    assert u - Multivector.generator(twin, 1) == Multivector.zero(CL21)


def test_mismatched_signatures_raise_for_every_operation():
    u, v = Multivector.generator(CL21, 1), Multivector.generator(Signature(1, 2), 1)
    for op in (operator.mul, operator.xor, operator.add, operator.sub):
        with pytest.raises(SignatureMismatchError):
            op(u, v)
    assert u != v


def test_identity_element():
    rng = random.Random(3)
    one = Multivector.scalar(CL21, 1)
    for _ in range(10):
        u = random_multivector(CL21, rng)
        assert one * u == u
        assert u * one == u


@settings(max_examples=60, deadline=None)
@given(mvs(CL30), mvs(CL30), mvs(CL30))
def test_geo_mul_associative_distributive(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


@settings(max_examples=60, deadline=None)
@given(mvs(CL21), mvs(CL21), mvs(CL21))
def test_ext_mul_associative_distributive(u, v, w):
    assert (u ^ v) ^ w == u ^ (v ^ w)
    assert u ^ (v + w) == (u ^ v) + (u ^ w)


def test_ext_mul_examples():
    e1 = Multivector.generator(CL20, 1)
    e2 = Multivector.generator(CL20, 2)
    assert (e1 ^ e1) == Multivector.zero(CL20)
    assert (e2 ^ e1) == Multivector.blade(CL20, [1, 2], -1)
    assert ext_blade_product(0b1, 0b1) == (0, 0)
    assert ext_blade_product(0b10, 0b1) == (-1, 0b11)


@settings(max_examples=40, deadline=None)
@given(mvs(CL21))
def test_ext_nilpotent_on_vectors(u):
    v = grade_project(u, 1)
    assert (v ^ v) == Multivector.zero(CL21)


def test_ext_equals_top_grade_projection_of_geo():
    # for homogeneous u (grade j), v (grade k): u ^ v = <u v>_{j+k}
    rng = random.Random(11)
    for n in range(2, 6):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for j in range(n + 1):
                for k in range(n + 1 - j):
                    u = random_multivector(sig, rng, grades=(j,))
                    v = random_multivector(sig, rng, grades=(k,))
                    assert (u ^ v) == grade_project(u * v, j + k), (sig, j, k)


# ---------------------------------------------------------------------------
# projections


def test_grade_project_examples():
    u = Multivector.scalar(CL20, 1) + Multivector.blade(CL20, [1, 2])
    assert grade_project(u, 2) == Multivector.blade(CL20, [1, 2])
    assert grade_project(u, 1) == Multivector.zero(CL20)
    with pytest.raises(ValueError):
        grade_project(u, 3)
    with pytest.raises(ValueError):
        grade_project(u, -1)


@settings(max_examples=40, deadline=None)
@given(mvs(CL21))
def test_grade_projections_partition(u):
    total = Multivector.zero(CL21)
    for k in range(CL21.n + 1):
        total = total + grade_project(u, k)
    assert total == u


def test_parity_split_examples():
    s = Signature(3, 0)
    u = Multivector.scalar(s, 1) + Multivector.generator(s, 1)
    even, odd = parity_split(u)
    assert even == Multivector.scalar(s, 1)
    assert odd == Multivector.generator(s, 1)
    v = Multivector.blade(s, [1, 2]) + Multivector.blade(s, [1, 2, 3])
    even, odd = parity_split(v)
    assert even == Multivector.blade(s, [1, 2])
    assert odd == Multivector.blade(s, [1, 2, 3])
    z_even, z_odd = parity_split(Multivector.zero(s))
    assert not z_even and not z_odd


@settings(max_examples=40, deadline=None)
@given(mvs(CL21))
def test_qtype_projections_partition(u):
    total = Multivector.zero(CL21)
    for t in range(4):
        total = total + qtype_project(u, t)
    assert total == u
    even, odd = parity_split(u)
    assert even == qtype_project(u, 0) + qtype_project(u, 2)
    assert odd == qtype_project(u, 1) + qtype_project(u, 3)


def test_qtype_project_examples():
    s4 = Signature(4, 0)
    u = Multivector.scalar(s4, 1) + Multivector.blade(s4, [1, 2, 3, 4])
    assert qtype_project(u, 0) == u
    e123 = Multivector.blade(s4, [1, 2, 3])
    assert qtype_project(e123, 3) == e123
    assert qtype_project(e123, 1) == Multivector.zero(s4)
    with pytest.raises(ValueError):
        qtype_project(u, 4)


# ---------------------------------------------------------------------------
# construction, scalars, equality


def test_coefficients_normalize():
    u = Multivector(CL20, {0: Fraction(4, 2), 1: Fraction(0, 5)})
    assert u.coefficient(0) == 2
    assert isinstance(u.coefficient(0), int)
    assert len(u) == 1
    with pytest.raises(TypeError):
        Multivector(CL20, {0: 1.5})
    with pytest.raises(ValueError):
        Multivector(CL20, {1 << 2: 1})


@pytest.mark.parametrize("cls", [Multivector, ApproxMultivector])
def test_blade_keys_must_be_integers(cls):
    with pytest.raises(TypeError):
        cls(CL30, {1.5: 1})
    with pytest.raises(TypeError):
        cls(CL30, {1.0: 1})
    with pytest.raises(TypeError):
        cls(CL30, {"1": 1})
    assert cls(CL30, {np.int64(3): 2}) == cls(CL30, {3: 2})
    assert type(cls(CL30, {np.int64(3): 2}).terms()[0][0]) is int


def test_approx_value_equality():
    u = ApproxMultivector(CL20, {0: 0.5, 0b11: -2.0})
    assert u == ApproxMultivector(CL20, {0b11: -2.0, 0: 0.5})
    assert u != ApproxMultivector(CL20, {0: 0.5})
    assert u != ApproxMultivector(Signature(1, 1), {0: 0.5, 0b11: -2.0})
    with pytest.raises(TypeError):
        hash(u)
    # exact and approximate values never compare equal, even on equal numbers
    exact = Multivector(CL20, {0: 2})
    assert exact != ApproxMultivector.from_exact(exact)
    assert ApproxMultivector.from_exact(exact) != exact
    assert not (exact == ApproxMultivector.scalar(CL20, 2.0))


def test_approx_from_exact_equals_validating_construction():
    # Fractions, ints past 2^53 that round, and values that round to 0.0,
    # which the float copy drops as the validating constructor does
    sig = Signature(3, 1)
    exact = Multivector(
        sig,
        {
            0b0110: Fraction(1, 3),
            0: (1 << 53) + 1,
            0b1000: -(3**40),
            0b0001: Fraction(1, 1 << 1100),
            0b1111: Fraction(-1, 1 << 1080),
            0b0011: Fraction(-(10**400) - 1, 10**400),
        },
    )
    got, want = ApproxMultivector.from_exact(exact), ApproxMultivector(sig, exact._dict())
    assert type(got) is ApproxMultivector
    assert list(got._dict().items()) == list(want._dict().items())
    assert 0b0001 not in got._dict() and 0b1111 not in got._dict()
    assert ApproxMultivector.from_exact(got) is got
    with pytest.raises(TypeError):
        Multivector.from_exact(got)


def _assert_canonical(u):
    for _, v in u.terms():
        assert v != 0
        if isinstance(v, Fraction):
            assert v.denominator != 1, u
        else:
            assert type(v) is int, u


@pytest.mark.parametrize("dense_min_pairs", [0, 1 << 62], ids=["dense", "sparse"])
def test_results_keep_construction_invariants(dense_min_pairs, monkeypatch):
    # half-integer coefficients make sums, negations and products cancel and
    # turn integral; every result must drop zeros and hold integral values as int
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", dense_min_pairs)
    rng = random.Random(21)
    sig = Signature(2, 2)
    for _ in range(40):
        u = random_multivector(sig, rng, lo=-3, hi=3) * Fraction(1, 2)
        v = random_multivector(sig, rng, lo=-3, hi=3) * Fraction(1, 2)
        w = random_multivector(sig, rng, lo=-3, hi=3)
        results = [u + v, u - v, u - u, -u, u * v, u ^ v, u * 2, Fraction(2, 3) * u, u * 0]
        results += [u + u, w * w, w ^ w, (u + u) * w, (u + u) ^ w, w * Fraction(1, 1)]
        for x in results:
            _assert_canonical(x)
            assert x == Multivector(sig, dict(x.terms()))


def test_duplicate_terms_accumulate():
    u = Multivector(CL20, [(1, 2), (1, 3), (0, -1)])
    assert u.coefficient(1) == 5
    assert u.coefficient(0) == -1


def test_scalar_multiplication():
    u = Multivector(CL20, {0b01: 4})
    assert u * Fraction(1, 2) == Multivector(CL20, {0b01: 2})
    assert Fraction(1, 4) * u == Multivector(CL20, {0b01: 1})
    assert 0 * u == Multivector.zero(CL20)
    assert -u == Multivector(CL20, {0b01: -4})


def test_power_operator():
    e12 = Multivector.blade(CL20, [1, 2])
    assert e12**0 == Multivector.scalar(CL20, 1)
    assert e12**2 == Multivector.scalar(CL20, -1)
    assert e12**5 == e12 * e12 * e12 * e12 * e12
    with pytest.raises(ValueError):
        e12 ** (-1)


# ---------------------------------------------------------------------------
# rendering and JSON


def test_format_multivector():
    assert format_multivector(Multivector.zero(CL20)) == "0"
    u = Multivector(CL20, {0: 2, 0b11: -2})
    assert format_multivector(u) == "2 e - 2 e12"
    v = Multivector(CL20, {0b11: Fraction(-3, 2)})
    assert format_multivector(v) == "-3/2 e12"


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        u = random_multivector(CL21, rng)
        u = u * Fraction(1, rng.randint(1, 7))
        assert from_json(to_json(u)) == u
    obj = to_obj(Multivector(CL21, {0b101: Fraction(3, 2)}))
    assert obj == {"sig": [2, 1], "terms": [{"blade": [1, 3], "num": 3, "den": 2}]}
    assert json.loads(to_json(Multivector.zero(CL21))) == {"sig": [2, 1], "terms": []}


def test_from_obj_validation():
    with pytest.raises(ValueError):
        from_obj({"sig": [2, 0], "terms": [{"blade": [1], "num": 1, "den": 0}]})
    with pytest.raises(ValueError):
        from_obj({"sig": [2, 0], "terms": [{"blade": [1], "num": 1.5, "den": 1}]})
    with pytest.raises(ValueError):
        from_obj({"terms": []})
    # JSON floats, strings and booleans are not integers, wherever they stand
    term = {"blade": [1], "num": 1, "den": 1}
    for sig in ([3.7, 0], ["3", "0"], [True, False], [3, 0.0]):
        with pytest.raises(ValueError):
            from_obj({"sig": sig, "terms": [term]})
    for bad in ({"blade": [True]}, {"blade": [1.0]}, {"blade": ["1"]}, {"num": True}, {"den": True}, {"num": "1"}):
        with pytest.raises(ValueError):
            from_obj({"sig": [3, 0], "terms": [term | bad]})
    with pytest.raises(ValueError):
        from_obj({"sig": [3, 0], "terms": [{"blade": [True], "num": True, "den": 1}]})
    assert from_obj({"sig": [3, 0], "terms": [term]}) == Multivector.generator(Signature(3, 0), 1)


def test_blade_name_high_indices():
    s = Signature(11, 0)
    bits = blade_bits([1, 10, 11])
    assert blade_name(bits) == "e1,10,11"
    assert blade_indices(bits) == (1, 10, 11)


def test_random_multivector_respects_grades():
    rng = random.Random(1)
    for _ in range(20):
        u = random_multivector(CL30, rng, grades=(2,))
        assert u.grades() <= {2}
        assert u  # an all-zero draw is patched
        assert all(-9 <= c <= 9 for _, c in u.terms())


# ---------------------------------------------------------------------------
# array-born values


def _array_born(sig, rng, how):
    """A large sample, or a dense geometric or exterior product of two dict-born values (a geometric one may be resident)."""
    if how == "sample" and 1 << sig.n >= algebra._CHUNKED_DRAW_MIN_BLADES:
        return random_multivector(sig, rng)
    # at least lo blades each, so a product has at least _DENSE_MIN_PAIRS pairs and leaves the sparse loop
    lo = math.isqrt(algebra._DENSE_MIN_PAIRS - 1) + 1
    a, b = (
        Multivector(sig, {x: rng.choice((-1, 1)) * rng.randint(1, 9) for x in rng.sample(range(1 << sig.n), rng.randint(lo, 48))})
        for _ in range(2)
    )
    return a ^ b if how == "wedge" else a * b


def _fresh(u):
    """An array-born copy of u that has not built its dict yet; a resident u materializes its arrays for it."""
    return algebra._from_arrays(u.sig, *u._int64()[:2])


def _assert_same_value(got, want):
    assert got == want and want == got
    assert got.terms() == want.terms() and str(got) == str(want) and to_obj(got) == to_obj(want)
    assert all(type(v) is int for v in got._dict().values())


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([6, 8, 11, 12]),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sample", "product", "wedge"]),
    st.sampled_from(["sample", "product", "wedge"]),
)
def test_array_born_values_agree_with_dict_born(n, p, seed, how_u, how_v):
    sig = Signature(min(p, n), n - min(p, n))
    rng = random.Random(seed)
    u, v = _array_born(sig, rng, how_u), _array_born(sig, rng, how_v)
    assert u._coeffs is None and v._coeffs is None
    U, V = (Multivector(sig, dict(x.terms())) for x in (_fresh(u), _fresh(v)))
    for op in (operator.mul, operator.xor, operator.add, operator.sub):
        _assert_same_value(op(_fresh(u), _fresh(v)), op(U, V))
    _assert_same_value(-_fresh(u), -U)
    # a sum lists u's blades in order, then v's new ones, as the dict sum does
    ordered = Multivector(sig, _fresh(u)._dict()) + Multivector(sig, _fresh(v)._dict())
    assert list((_fresh(u) + _fresh(v))._dict().items()) == list(ordered._dict().items())
    for x, X in ((u, U), (v, V)):
        _assert_same_value(_fresh(x), X)
        assert _fresh(x).grades() == X.grades() and qtype_of(_fresh(x)) == qtype_of(X)
        assert len(_fresh(x)) == len(X) and bool(_fresh(x)) == bool(X)
        m = _fresh(x).max_abs()
        assert m == X.max_abs() and type(m) is int
        blades = [b for b, _ in X.terms()[:4]] + [rng.randrange(1 << n) for _ in range(4)]
        y = _fresh(x)
        assert [y.coefficient(b) for b in blades] == [X.coefficient(b) for b in blades]
    zero = _fresh(u) - _fresh(u)
    assert zero._coeffs is None and not zero and len(zero) == 0 and zero.max_abs() == 0
    assert str(zero) == "0" and qtype_of(zero) == qtype_of(Multivector.zero(sig)) and zero == Multivector.zero(sig)


def test_array_born_sums_past_the_int64_bound_stay_exact():
    # a sum of array-born values whose ℓ1 norms add up to 2^62 or more leaves the arrays
    sig = Signature(8, 0)
    big = 1 << 53
    u = random_multivector(sig, random.Random(0), lo=big, hi=big)
    assert u._coeffs is None and u.max_abs() == big and u._int64()[2] == 1 << 61
    twice, four = u + u, u + u + u + u
    assert twice._coeffs is not None and twice == Multivector(sig, {b: 2 * big for b in range(256)})
    assert four - u == Multivector(sig, {b: 3 * big for b in range(256)}) and (-four).max_abs() == 4 * big
