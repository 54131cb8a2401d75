"""Cross-checks between the product kernels, the spinor form and the sparse reference path."""

import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from quatype import _accel, algebra
from quatype.algebra import ApproxMultivector, Multivector, Signature, random_multivector
from quatype.algebra import _mul_sparse, blade_product, ext_blade_product, format_multivector, to_obj
from quatype.brackets import kfold
from quatype.qtypes import qtype_of, qtype_of_approx


def _arrays(coeffs, dtype):
    ia = np.fromiter(coeffs.keys(), np.int64, len(coeffs))
    va = np.fromiter(coeffs.values(), dtype, len(coeffs))
    return ia, va


@pytest.mark.parametrize("exterior", [False, True])
def test_dense_matches_sparse_int(exterior):
    rng = random.Random(42)
    for sig in [Signature(2, 1), Signature(3, 2), Signature(4, 2)]:
        for _ in range(25):
            u = random_multivector(sig, rng)
            v = random_multivector(sig, rng)
            ia, va = _arrays(u._dict(), np.int64)
            ib, vb = _arrays(v._dict(), np.int64)
            out = _accel.product_dense(ia, va, ib, vb, sig.neg_mask, sig.n, exterior=exterior)
            dense = {int(k): int(out[k]) for k in np.flatnonzero(out)}
            assert dense == _mul_sparse(u._dict(), v._dict(), sig.neg_mask, exterior)


def test_kernel_matches_blade_products_exhaustively():
    # one row per call: b -> a ^ b is a bijection, so the weight b + 1 lands
    # alone in its target slot and carries the kernel's sign for (a, b)
    for n in range(1, 7):
        blades = np.arange(1 << n, dtype=np.int64)
        weights = blades + 1
        for p in range(n + 1):
            sig = Signature(p, n - p)
            for a in range(1 << n):
                one = np.array([a], dtype=np.int64)
                geo = _accel.product_dense(one, np.ones(1, np.int64), blades, weights, sig.neg_mask, n)
                ext = _accel.product_dense(one, np.ones(1, np.int64), blades, weights, sig.neg_mask, n, exterior=True)
                for b in range(1 << n):
                    sign, target = blade_product(sig, a, b)
                    assert geo[target] == sign * (b + 1), (sig, a, b)
                    sign, target = ext_blade_product(a, b)
                    assert ext[a ^ b] == sign * (b + 1), (sig, a, b)


@pytest.mark.parametrize("n", range(5, 9))
def test_one_sign_vector_serves_every_signature(n):
    # sign_form holds the reordering word alone, so every Signature(p, n - p)
    # reads the same vector and adds its metric term in the kernel
    rng = random.Random(n)
    w = _accel.sign_form(n)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        assert _accel.sign_form(sig.n) is w
        # dense mixed-grade operands: most blades of every grade
        u, v = (Multivector(sig, {b: rng.randint(-9, 9) for b in range(1 << n) if rng.random() < 0.8}) for _ in "uv")
        ia, va = _arrays(u._dict(), np.int64)
        ib, vb = _arrays(v._dict(), np.int64)
        for exterior in (False, True):
            out = _accel.product_dense(ia, va, ib, vb, sig.neg_mask, n, exterior=exterior)
            want = np.zeros(1 << n, dtype=np.int64)
            for b, c in _mul_sparse(u._dict(), v._dict(), sig.neg_mask, exterior).items():
                want[b] = c
            assert out.tobytes() == want.tobytes(), (sig, exterior)


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("dtype", [np.int64])
def test_chunked_kernel_byte_equal(dtype, exterior, monkeypatch):
    rng = np.random.default_rng(11)
    n, neg_mask = 6, 0b110000
    ia = rng.permutation(1 << n)[:45].astype(np.int64)
    ib = rng.permutation(1 << n)[:37].astype(np.int64)
    va, vb = rng.integers(-9, 10, 45, dtype=dtype), rng.integers(-9, 10, 37, dtype=dtype)
    monkeypatch.setattr(_accel, "CHUNK_PAIRS", 1 << 30)
    whole = _accel.product_dense(ia, va, ib, vb, neg_mask, n, exterior=exterior)
    # 37 pairs a row: chunks of 1, 1, 2 (short last chunk) and 3 rows
    for chunk in (1, 5, 80, 111):
        monkeypatch.setattr(_accel, "CHUNK_PAIRS", chunk)
        chunked = _accel.product_dense(ia, va, ib, vb, neg_mask, n, exterior=exterior)
        assert chunked.dtype == whole.dtype
        assert chunked.tobytes() == whole.tobytes(), chunk


# "numpy" forces every product onto the dense kernel, "python" onto the sparse
# dict path; both must agree with the sparse reference term for term
@pytest.mark.parametrize("forced", ["numpy", "python"])
def test_products_identical_across_backends(forced, monkeypatch):
    rng = random.Random(3)
    sig = Signature(3, 3)
    pairs = [(random_multivector(sig, rng), random_multivector(sig, rng)) for _ in range(10)]
    threshold = {"numpy": 0, "python": 1 << 62}[forced]
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", threshold)
    for u, v in pairs:
        for exterior, product in ((False, u * v), (True, u ^ v)):
            reference = _mul_sparse(u._dict(), v._dict(), sig.neg_mask, exterior)
            assert product == Multivector(sig, reference)


def test_large_coefficients_fall_back_to_exact():
    # products whose bound exceeds the int64 safety margin must avoid the
    # int64 kernel and still come out exact
    sig = Signature(6, 0)
    big = 1 << 40
    u = Multivector(sig, {b: big for b in range(1, 64)})
    v = Multivector(sig, {b: big for b in range(1, 64)})
    w = u * v
    e1 = Multivector.generator(sig, 1)
    assert (big * e1) * (big * e1) == Multivector.scalar(sig, big * big)
    assert w == Multivector(sig, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, False))
    assert max(abs(c) for _, c in w.terms()) >= big * big


def test_integral_fraction_sums_reach_the_int64_kernel(monkeypatch):
    # Fraction(1, 2) + Fraction(1, 2) is stored as the int 1, so the next
    # product of enough blade pairs runs on the int64 kernel
    dtypes = []
    kernel = _accel.product_dense

    def recording(ia, va, ib, vb, *args, **kwargs):
        dtypes.append(va.dtype)
        return kernel(ia, va, ib, vb, *args, **kwargs)

    monkeypatch.setattr(_accel, "product_dense", recording)
    rng = random.Random(8)
    sig = Signature(4, 0)
    # 11 blades of grades 0 to 2: 121 pairs, past the dense threshold and
    # under the spinor one
    u = random_multivector(sig, rng, grades=(0, 1, 2), lo=1, hi=9)
    half = u * Fraction(1, 2)
    whole = half + half
    assert whole == u and algebra._DENSE_MIN_PAIRS <= len(whole) * len(u) < algebra._SPINOR_MIN_PAIRS_PER_BLADE << sig.n
    assert whole * u == Multivector(sig, _mul_sparse(u._dict(), u._dict(), sig.neg_mask, False))
    assert dtypes == [np.dtype(np.int64)]


def test_spinor_matrices_multiply_like_blades():
    # entries are 0, ±1 and ±i, so every matrix product is exact
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            one = np.ones(1)
            gamma = np.stack([_accel.to_spinor(np.array([b]), one, sig.neg_mask, n) for b in range(1 << n)])
            products = gamma[:, None] @ gamma[None, :]
            for a in range(1 << n):
                for b in range(1 << n):
                    sign, target = blade_product(sig, a, b)
                    assert (products[a, b] == sign * gamma[target]).all(), (sig, a, b)


@pytest.mark.parametrize("p, q", [(11, 0), (6, 5), (12, 0), (6, 6)])
def test_spinor_round_trip_is_exact(p, q):
    sig = Signature(p, q)
    u = random_multivector(sig, random.Random(p * 13 + q))
    ib, vb = _arrays(u._dict(), np.float64)
    m = _accel.to_spinor(ib, vb, sig.neg_mask, sig.n)
    back = _accel.from_spinor(m, sig.neg_mask, sig.n)
    want = np.zeros(1 << sig.n)
    want[ib] = vb
    assert (back == want).all()


@pytest.mark.parametrize("n", range(7, 13))
def test_spinor_generators_square_to_metric_and_anticommute(n):
    for p in range(n + 1):
        sig = Signature(p, n - p)
        one = np.ones(1)
        gamma = np.stack([_accel.to_spinor(np.array([1 << j]), one, sig.neg_mask, n) for j in range(n)])
        eye = np.eye(len(gamma[0]))
        for i in range(n):
            assert (gamma[i] @ gamma[i] == sig.metric(i + 1) * eye).all(), (sig, i)
            for j in range(i):
                assert (gamma[i] @ gamma[j] == -(gamma[j] @ gamma[i])).all(), (sig, i, j)


@pytest.mark.parametrize("n", range(7, 13))
def test_spinor_matrices_multiply_like_blades_above_six(n):
    rng = random.Random(n)
    one = np.ones(1)
    for p in range(n + 1):
        sig = Signature(p, n - p)

        def gamma(b):
            return _accel.to_spinor(np.array([b]), one, sig.neg_mask, n)

        for _ in range(64):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            sign, target = blade_product(sig, a, b)
            assert (gamma(a) @ gamma(b) == sign * gamma(target)).all(), (sig, a, b)


def test_spinor_tables_stay_small_at_n_12():
    # one set of tables per n; a signature adds only its 2^12 complex64 phases
    form = _accel.spinor_form(12)
    assert sum(t.nbytes for t in form) < 1 << 20
    for p in range(13):
        xz, c, h, cells = _accel.spinor_table(12, Signature(p, 12 - p).neg_mask)
        assert xz is form[0] and h is form[2] and cells is form[3]
        assert c.nbytes == 8 << 12


@pytest.mark.parametrize("n", range(1, 13))
def test_spinor_phase_factors_through_the_negative_generators(n):
    # row 0 of Γ_b, built as the ordered product of the generator matrices,
    # holds the phase c[b] at column x[b]; in every signature it must be the
    # Cl(n,0) phase times i for each generator of b that squares to -1
    xz, _, h, _ = _accel.spinor_form(n)
    x = xz // len(h)
    blades = np.arange(1 << n)
    one = np.ones(1)

    def phases(neg_mask):
        rows = np.zeros((1 << n, len(h)), dtype=np.complex128)
        rows[0, 0] = 1
        for j in range(n):
            gamma = _accel.to_spinor(np.array([1 << j]), one, neg_mask, n)
            rows[1 << j : 2 << j] = rows[: 1 << j] @ gamma
        return rows[blades, x]

    base = phases(0)
    for p in range(n + 1):
        neg_mask = Signature(p, n - p).neg_mask
        c = phases(neg_mask)
        assert (c == base * np.array([1, 1j, -1, -1j])[np.bitwise_count(blades & neg_mask) & 3]).all(), p
        assert (c == _accel.spinor_table(n, neg_mask)[1]).all(), p


def _full(sig, rng, lo=1, hi=9):
    """A multivector on every blade of ``sig`` with coefficients ±lo..hi."""
    return Multivector(sig, {b: rng.choice((-1, 1)) * rng.randint(lo, hi) for b in range(1 << sig.n)})


def _assert_byte_equal(w, reference):
    # the same coefficients, each of the same type
    assert sorted((b, type(v), v) for b, v in w._dict().items()) == sorted((b, type(v), v) for b, v in reference.items())


def test_residue_path_matches_blade_products_exhaustively(monkeypatch):
    # every product takes the spinor path; e_a times Σ (b + 1) e_b puts each
    # weight b + 1 alone in slot a ^ b, carrying the sign of e_a e_b
    monkeypatch.setattr(algebra, "_DENSE_MIN_PAIRS", 0)
    monkeypatch.setattr(algebra, "_SPINOR_MIN_PAIRS_PER_BLADE", 0)
    monkeypatch.setattr(algebra, "product_paths", Counter())
    calls = 0
    for n in range(1, 7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            weights = Multivector(sig, {b: b + 1 for b in range(1 << n)})
            for a in range(1 << n):
                w = Multivector(sig, {a: 1}) * weights
                calls += 1
                for b in range(1 << n):
                    sign, target = blade_product(sig, a, b)
                    assert w.coefficient(target) == sign * (b + 1), (sig, a, b)
    assert algebra.product_paths == Counter(spinor=calls)


@pytest.mark.parametrize("p, q", [(11, 0), (5, 6), (12, 0), (6, 6)])
def test_residue_products_byte_equal_sparse(p, q, monkeypatch):
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(p, q)
    rng = random.Random(p * 17 + q)
    u, v = _full(sig, rng), _full(sig, rng)
    w = u * v
    assert algebra.product_paths == Counter(spinor=1)
    _assert_byte_equal(w, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, False))


@pytest.mark.parametrize("over, path", [(0, "spinor"), (1, "residue")])
@pytest.mark.parametrize("p, q", [(12, 0), (6, 6), (0, 12)])
def test_spinor_gate_is_tight(p, q, over, path, monkeypatch):
    # u = A + 63 unit blades against v = C + 4095 unit blades is 64 · 4096
    # pairs, past the threshold at n = 12, with d = 64.  ‖u‖₁ = 2^27 and
    # ‖v‖₁ = 2^19 - 1 + over put 2 d ‖u‖₁ ‖v‖₁ just under 2^53, or at it,
    # where the product leaves the unreduced spinor path for the residue one.
    # The signs make every u_b v_b e_b e_b positive, so the scalar
    # coefficient is A C + 63 and its trace, 64 times that, is about 2^52.
    # A needs 27 bits, more than a float32 holds
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(p, q)
    rng = random.Random(p + over)
    a, c = (1 << 27) - 63, (1 << 19) - 1 + over - 4095
    u = {0: a} | {b: rng.choice((-1, 1)) for b in rng.sample(range(1, 1 << 12), 63)}
    v = {0: c} | {b: blade_product(sig, b, b)[0] * u.get(b, rng.choice((-1, 1))) for b in range(1, 1 << 12)}
    norms = sum(map(abs, u.values())) * sum(map(abs, v.values()))
    assert (2 * 64 * norms < 1 << 53) == (path == "spinor")
    w = Multivector(sig, u) * Multivector(sig, v)
    assert algebra.product_paths == Counter({path: 1})
    assert w.coefficient(0) == a * c + 63
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, False))


@pytest.mark.parametrize("p, q", [(8, 0), (5, 3), (4, 4), (0, 8)])
def test_spinor_path_is_exact_for_large_coefficients(p, q, monkeypatch):
    # U^2 has coefficients in the thousands, so U^2 U^2 has B = max|U^2|^2 · 256
    # past 2^30 and coefficients past 2^23 themselves, yet
    # 2 d ‖U^2‖₁^2 = 32 ‖U^2‖₁^2 stays under 2^53
    sig = Signature(p, q)
    u = _full(sig, random.Random(p), lo=9)
    square = u * u
    bound = square.max_abs() ** 2 * 256
    assert bound > 1 << 30 and 32 * sum(abs(c) for _, c in square.terms()) ** 2 < 1 << 53
    monkeypatch.setattr(algebra, "product_paths", Counter())
    w = square * square
    assert algebra.product_paths == Counter(spinor=1)
    assert w.max_abs() > 1 << 23
    _assert_byte_equal(w, _mul_sparse(square._dict(), square._dict(), sig.neg_mask, False))
    assert u**4 == w


@pytest.mark.parametrize("op, path", [(operator.mul, "spinor"), (operator.xor, "int64")])
def test_a_value_converts_to_arrays_at_most_once(op, path, monkeypatch):
    # u op u converts u once, later products reuse its arrays, and an equal
    # dict-born copy converts once in turn and routes as u does
    sig = Signature(4, 4)
    u = _full(sig, random.Random(48))
    converted = []
    dict_slot = _accel.dict_slot
    monkeypatch.setattr(_accel, "dict_slot", lambda coeffs: converted.append(coeffs) or dict_slot(coeffs))
    monkeypatch.setattr(algebra, "product_paths", Counter())
    square = op(u, u)
    assert len(converted) == 1 and algebra.product_paths == Counter({path: 1})
    assert op(u, u) == square and len(converted) == 1
    assert op(u, Multivector(sig, u._dict())) == square
    assert len(converted) == 2 and algebra.product_paths == Counter({path: 3})


def test_products_of_dense_results_convert_nothing(monkeypatch):
    # dense products return array-born values, which the next product, sum
    # or negation reads as they are
    sig = Signature(4, 4)
    rng = random.Random(49)
    u, v = _full(sig, rng), _full(sig, rng)
    a, b = u * v, u ^ v
    assert a._coeffs is None and b._coeffs is None
    monkeypatch.setattr(_accel, "dict_slot", lambda coeffs: pytest.fail("converted a dict"))
    monkeypatch.setattr(algebra, "product_paths", Counter())
    results = [a * b, a ^ b, (a + b) * a, (-a) ^ b, (a - b) * b]
    assert algebra.product_paths == Counter(spinor=3, int64=2)
    assert all(w._coeffs is None for w in results)
    monkeypatch.undo()
    a, b = (Multivector(sig, w._dict()) for w in (a, b))
    assert results == [a * b, a ^ b, (a + b) * a, (-a) ^ b, (a - b) * b]


def test_large_wedges_stay_on_the_int64_kernel(monkeypatch):
    # the spinor path computes geometric products only
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(4, 4)
    rng = random.Random(44)
    u, v = _full(sig, rng), _full(sig, rng)
    w = u ^ v
    assert algebra.product_paths == Counter(int64=1)
    _assert_byte_equal(w, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, True))


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("side", [0, 1])
def test_fraction_coefficients_stay_on_the_sparse_path(side, exterior, monkeypatch):
    # np.fromiter turns Fraction(1, 2) into the int64 0 without an error, so
    # one non-integral coefficient must keep a product of 64 · 64 blade pairs,
    # past both the int64 and the spinor thresholds at n = 6, on the sparse path
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(4, 2)
    rng = random.Random(6 + 2 * side + exterior)
    ops = [_full(sig, rng)._dict(), _full(sig, rng)._dict()]
    ops[side][rng.randrange(1 << sig.n)] = Fraction(1, 2)
    u, v = (Multivector(sig, c) for c in ops)
    w = u ^ v if exterior else u * v
    assert algebra.product_paths == Counter(sparse=1)
    _assert_byte_equal(w, _mul_sparse(ops[0], ops[1], sig.neg_mask, exterior))


def test_product_paths_count_each_product(monkeypatch):
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(12, 0)
    rng = random.Random(12)
    _full(sig, rng) * _full(sig, rng)
    assert algebra.product_paths == Counter(spinor=1)
    vectors = [Multivector(sig, {1 << j: rng.randint(1, 9) for j in range(12)}) for _ in range(2)]
    vectors[0] * vectors[1]
    assert algebra.product_paths == Counter(spinor=1, int64=1)
    vectors[0] ^ vectors[1]
    Multivector.generator(sig, 1) * vectors[0]
    # 144 float pairs are far below the spinor threshold, so they stay sparse
    ApproxMultivector.from_exact(vectors[0]) * ApproxMultivector.from_exact(vectors[1])
    assert algebra.product_paths == Counter(spinor=1, int64=2, sparse=2)
    ApproxMultivector.from_exact(_full(sig, rng)) * ApproxMultivector.from_exact(_full(sig, rng))
    assert algebra.product_paths == Counter(spinor=1, int64=2, sparse=2, float64=1)
    _full(sig, rng, lo=1 << 20, hi=1 << 21) * _full(sig, rng)
    assert algebra.product_paths == Counter(spinor=1, int64=2, sparse=2, float64=1, residue=1)


def test_product_pairs_count_blade_pairs_per_route(monkeypatch):
    monkeypatch.setattr(algebra, "product_paths", Counter())
    monkeypatch.setattr(algebra, "product_pairs", Counter())
    sig = Signature(4, 4)
    rng = random.Random(50)
    u, v = _full(sig, rng), _full(sig, rng)
    u * v
    u ^ v
    Multivector.generator(sig, 1) * Multivector.generator(sig, 2)
    ApproxMultivector.from_exact(u) * ApproxMultivector.from_exact(v)
    (u * (1 << 40)) * v
    # an empty product runs on no path
    u * Multivector.zero(sig)
    assert algebra.product_paths == Counter(spinor=1, int64=1, sparse=1, float64=1, residue=1)
    assert algebra.product_pairs == Counter(
        spinor=256 * 256, int64=256 * 256, sparse=1, float64=256 * 256, residue=256 * 256
    )


def _full_float(sig, rng):
    """A float multivector on every blade of ``sig`` with coefficients in [-9, 9)."""
    return ApproxMultivector(sig, {b: rng.uniform(-9, 9) for b in range(1 << sig.n)})


@pytest.mark.parametrize("p, q", [(8, 0), (5, 3), (4, 4), (0, 8)])
def test_float_spinor_products_match_sparse(p, q, monkeypatch):
    # a full-density float product runs as one spinor matrix product; it sums
    # the same terms as the sparse loop in another order
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(p, q)
    rng = random.Random(p * 19 + q)
    u, v = _full_float(sig, rng), _full_float(sig, rng)
    w = u * v
    assert algebra.product_paths == Counter(float64=1)
    reference = _mul_sparse(u._dict(), v._dict(), sig.neg_mask, False)
    tol = 1e-12 * max(1.0, max(map(abs, reference.values())))
    for b in set(reference) | set(w._dict()):
        assert abs(w.coefficient(b) - reference.get(b, 0.0)) <= tol, b


def test_other_float_products_stay_sparse(monkeypatch):
    # at n = 8 the spinor threshold is k · 256 pairs, k pairs per blade:
    # 256 · (k - 1) stays sparse and 256 · k does not; a float wedge stays
    # sparse at any size
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(5, 3)
    rng = random.Random(83)
    u, v = _full_float(sig, rng), _full_float(sig, rng)
    k = algebra._SPINOR_MIN_PAIRS_PER_BLADE
    for size, path in ((k - 1, "sparse"), (k, "float64")):
        part = ApproxMultivector(sig, dict(list(v._dict().items())[:size]))
        u * part
        assert algebra.product_paths == Counter({path: 1}), size
        algebra.product_paths.clear()
    w = u ^ v
    assert algebra.product_paths == Counter(sparse=1)
    assert w == ApproxMultivector(sig, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, True))


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_operands_give_non_finite_products(bad, monkeypatch):
    # the spinor route passes inf and NaN through without a RuntimeWarning,
    # and classification refuses the result
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(4, 4)
    rng = random.Random(84)
    u, v = _full_float(sig, rng), _full_float(sig, rng)
    u = ApproxMultivector(sig, u._dict() | {5: bad})
    w = u * v
    assert algebra.product_paths == Counter(float64=1)
    assert w and not any(math.isfinite(x) for _, x in w.terms())
    with pytest.raises(ValueError):
        qtype_of_approx(w)


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("big", [1 << 62, (1 << 63) - 1, -(1 << 63), 1 << 63, Fraction(1, 2)])
def test_values_past_the_int64_bound_take_residue_or_sparse(big, exterior, monkeypatch):
    # 64 · 64 blade pairs pass both dense thresholds at n = 6, but one
    # coefficient at or past 2^62 (or not an int) keeps a wedge sparse; an
    # integer geometric product takes the residue path, a Fraction stays sparse
    path = "residue" if type(big) is int and not exterior else "sparse"
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(4, 2)
    rng = random.Random(7 + exterior)
    ops = [_full(sig, rng)._dict(), _full(sig, rng)._dict()]
    ops[0][rng.randrange(1 << sig.n)] = big
    u, v = (Multivector(sig, c) for c in ops)
    w = u ^ v if exterior else u * v
    assert algebra.product_paths == Counter({path: 1})
    _assert_byte_equal(w, _mul_sparse(ops[0], ops[1], sig.neg_mask, exterior))


@pytest.mark.parametrize(
    "values",
    [[1 << 61] * 64, [-(1 << 63)] + [1] * 63, [(1 << 63) - 1] * 64, [-(1 << 63)] * 64],
    ids=["sum-past-int64", "min-int64", "max-int64", "all-min-int64"],
)
def test_int64_bounds_are_exact(values):
    # Σ |v| past int64, and |-2^63|, which int64 cannot hold, come out exact
    u = Multivector(Signature(6, 0), dict(enumerate(values)))
    _, _, total = u._int64()
    m = u.max_abs()
    assert (type(m), type(total)) == (int, int)
    assert (m, total) == (max(map(abs, values)), sum(map(abs, values)))


def _split_norm(sig, rng, blades, total):
    """A dict-born value on ``blades`` blades of ``sig``: ±1 on all but one, and ℓ1 norm ``total``."""
    chosen = rng.sample(range(1 << sig.n), blades)
    coeffs = {b: rng.choice((-1, 1)) for b in chosen[1:]}
    coeffs[chosen[0]] = rng.choice((-1, 1)) * (total - blades + 1)
    return coeffs


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("norms, path", [(((1 << 31) - 1, (1 << 31) + 1), "int64"), ((1 << 31, 1 << 31), "sparse")])
def test_int64_gate_is_the_l1_product(norms, path, exterior, monkeypatch):
    # 16 · 16 pairs at n = 6 pass the dense threshold and stay under the
    # spinor one; (2^31 - 1)(2^31 + 1) = 2^62 - 1 runs int64, 2^31 2^31 = 2^62 sparse
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(3, 3)
    rng = random.Random(sum(norms) + exterior)
    u, v = (_split_norm(sig, rng, 16, total) for total in norms)
    assert algebra._DENSE_MIN_PAIRS <= 16 * 16 < algebra._SPINOR_MIN_PAIRS_PER_BLADE << sig.n
    w = Multivector(sig, u) ^ Multivector(sig, v) if exterior else Multivector(sig, u) * Multivector(sig, v)
    assert algebra.product_paths == Counter({path: 1})
    assert (w._coeffs is None) == (path == "int64")
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, exterior))


@pytest.mark.parametrize("total, arrays", [((1 << 62) - 1, True), (1 << 62, False)])
def test_array_sum_gate_is_the_l1_sum(total, arrays):
    # array-born u and v with ‖u‖₁ + ‖v‖₁ = total: under 2^62 the sum stays
    # in arrays, at 2^62 it leaves them for a dict
    sig = Signature(4, 4)
    rng = random.Random(total)
    u, v = _split_norm(sig, rng, 100, 1 << 61), _split_norm(sig, rng, 120, total - (1 << 61))
    a, b = (algebra._from_arrays(sig, *_accel.dict_slot(c)[:2]) for c in (u, v))
    assert a._coeffs is None and b._coeffs is None and a._int64()[2] + b._int64()[2] == total
    for w, reference in ((a + b, _ref_sum(u, v)), (a - b, _ref_sum(u, v, -1))):
        assert (w._coeffs is None) == arrays
        _assert_byte_equal(w, reference)


@pytest.mark.parametrize("total, dtype", [((1 << 62) - 1, np.int64), (1 << 62, object)])
def test_dict_slot_past_the_l1_bound_holds_python_ints(total, dtype, monkeypatch):
    # every value fits int64 either way; from ‖v‖₁ = 2^62 the slot holds
    # Python ints, and a spinor-sized product takes the residue route
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(3, 3)
    rng = random.Random(total)
    u = {b: rng.choice((-1, 1)) * (total >> 6) for b in range(63)} | {63: total - 63 * (total >> 6)}
    v = _full(sig, rng)._dict()
    U = Multivector(sig, u)
    blades, values, norm = U._int64()
    assert values.dtype == dtype and norm == total and type(norm) is int
    assert values.tolist() == list(u.values()) and blades.tolist() == list(u)
    w = U * Multivector(sig, v)
    assert algebra.product_paths == Counter(residue=1)
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, False))


def _array_born_results():
    """Array-born values from every path that makes them, each with its norm near 2^62 where the path allows."""
    sig = Signature(3, 3)
    rng = random.Random(90)
    u, v = (Multivector(sig, _split_norm(sig, rng, 16, t)) for t in ((1 << 31) - 1, (1 << 31) + 1))
    a, b = (algebra._from_arrays(sig, *_accel.dict_slot(_split_norm(sig, rng, 32, t))[:2]) for t in (1 << 61, (1 << 61) - 1))
    # residue: under 2^62, as in test_residue_results_past_2_62_come_back_as_python_ints
    big = Signature(5, 3)
    x = {0: (1 << 31) - 63} | {k: rng.choice((-1, 1)) for k in rng.sample(range(1, 256), 63)}
    y = {0: (1 << 31) - 256} | {k: blade_product(big, k, k)[0] * x.get(k, rng.choice((-1, 1))) for k in range(1, 256)}
    edge = (1 << 50) - 1
    return {
        "int64 product": u * v,
        "int64 wedge": u ^ v,
        "residue": Multivector(big, x) * Multivector(big, y),
        "draw": random_multivector(Signature(12, 0), random.Random(91), lo=edge - 9, hi=edge),
        "sum": a + b,
        "difference": a - b,
        "negation": -a,
        "materialized": _full(big, rng) * _full(big, rng),
    }


@pytest.mark.parametrize("path", list(_array_born_results()))
def test_array_born_values_keep_their_l1_norm_under_2_62(path):
    w = _array_born_results()[path]
    if path == "materialized":
        assert _is_resident(w)
        w._int64()
    assert w._coeffs is None
    blades, values, norm = w._arr
    assert blades.dtype == values.dtype == np.int64 and not values.flags.writeable
    assert type(norm) is int and norm == sum(map(abs, values.tolist())) < 1 << 62


def _signatures(n):
    return [Signature(n, 0), Signature(n // 2, n - n // 2), Signature(0, n)]


@pytest.mark.parametrize("big", [1 << 62, 1 << 63, 1 << 200], ids=["2^62", "2^63", "2^200"])
@pytest.mark.parametrize("sig", [s for n in (6, 8, 12) for s in _signatures(n)], ids=str)
def test_residue_route_byte_equal_sparse(sig, big, monkeypatch):
    # 64 blades against 2^(n-1) is 32 pairs per blade, the spinor threshold;
    # every coefficient of both operands is ±big plus a small offset, so some
    # pass int64 and the operands come as int64 arrays or Python ints
    monkeypatch.setattr(algebra, "product_paths", Counter())
    rng = random.Random(sig.p * 31 + sig.q + big.bit_length())

    def operand(size):
        return {b: rng.choice((-1, 1)) * big + rng.randint(-9, 9) for b in rng.sample(range(1 << sig.n), size)}

    u, v = operand(64), operand(1 << (sig.n - 1))
    w = Multivector(sig, u) * Multivector(sig, v)
    assert algebra.product_paths == Counter(residue=1)
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, False))


@pytest.mark.parametrize("over", [False, True])
def test_residue_results_past_2_62_come_back_as_python_ints(over, monkeypatch):
    # u = A + 63 unit blades against v = C + 255 unit blades at n = 8, signed
    # so that the scalar coefficient is A C + 63.  Under: ‖u‖₁ ‖v‖₁ =
    # 2^31 (2^31 - 1), and the scalar is within 2^40 of 2^62; over: A = C =
    # 2^31 put the scalar itself past 2^62
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(5, 3)
    rng = random.Random(over)
    a, c = ((1 << 31), (1 << 31)) if over else ((1 << 31) - 63, (1 << 31) - 256)
    u = {0: a} | {b: rng.choice((-1, 1)) for b in rng.sample(range(1, 1 << 8), 63)}
    v = {0: c} | {b: blade_product(sig, b, b)[0] * u.get(b, rng.choice((-1, 1))) for b in range(1, 1 << 8)}
    norms = sum(map(abs, u.values())) * sum(map(abs, v.values()))
    assert (norms >= 1 << 62) == over
    w = Multivector(sig, u) * Multivector(sig, v)
    assert algebra.product_paths == Counter(residue=1)
    if over:
        assert w._arr is None and all(type(x) is int for x in w._coeffs.values())
    else:
        assert w._coeffs is None and w._arr[1].dtype == np.int64
    assert w.coefficient(0) == a * c + 63 and (a * c + 63 >= 1 << 62) == over
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, False))


@pytest.mark.parametrize("bits, path", [(690, "residue"), (710, "sparse")])
def test_residue_route_ends_at_the_last_prime(bits, path, monkeypatch):
    # full operands at n = 6 with coefficients near 2^bits have ‖u‖₁ ‖v‖₁
    # near 2^(2 bits + 12): 2^1392 needs 64 primes, 2^1432 more than there are
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(3, 3)
    rng = random.Random(bits)
    u, v = ({b: rng.choice((-1, 1)) * (1 << bits) + rng.randint(-9, 9) for b in range(64)} for _ in range(2))
    bound = sum(map(abs, u.values())) * sum(map(abs, v.values()))
    assert (bound < _accel.RESIDUE_LIMIT) == (path == "residue")
    assert path == "sparse" or _accel.residue_count(bound) == len(_accel.PRIMES)
    w = Multivector(sig, u) * Multivector(sig, v)
    assert algebra.product_paths == Counter({path: 1})
    _assert_byte_equal(w, _mul_sparse(u, v, sig.neg_mask, False))


def test_residue_primes_are_distinct_and_the_count_minimal():
    primes = _accel.PRIMES
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert 2 < p < 1 << 22 and all(p % f for f in range(2, 2048)), p
    modulus = 1
    for k, p in enumerate(primes, 1):
        modulus *= p
        # the first k primes spell every |c| <= (modulus - 1) / 2 and no more
        assert _accel.residue_count((modulus - 1) // 2) == k
        assert _accel.residue_count((modulus + 1) // 2) == k + 1
        for bound in (1, 1 << 40, 1 << 62, 1 << 200, 1 << 1000, (modulus - 1) // 2):
            need = _accel.residue_count(bound)
            if need == k:
                assert modulus > 2 * bound >= modulus // p
    assert _accel.residue_count(_accel.RESIDUE_LIMIT - 1) == len(primes)
    assert _accel.residue_count(_accel.RESIDUE_LIMIT) == len(primes) + 1


# ---------------------------------------------------------------------------
# resident values: exact products kept on their spinor matrices


def _resident_ops(sig, rng, count=4):
    """``count`` dict-born operands of ``sig``: full ±1..9 values and halves of the blades at ±1..3."""
    ops = []
    for i in range(count):
        if i % 2:
            half = rng.sample(range(1 << sig.n), 1 << (sig.n - 1))
            ops.append(Multivector(sig, {b: rng.choice((-1, 1)) * rng.randint(1, 3) for b in half}))
        else:
            ops.append(_full(sig, rng))
    return ops


def _ref_mul(a, b, sig):
    return _mul_sparse(a, b, sig.neg_mask, False)


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for k, x in b.items():
        out[k] = out.get(k, 0) + sign * x
    return {k: x for k, x in out.items() if x}


def _is_resident(w):
    return w._coeffs is None and w._arr is None


@pytest.mark.parametrize("sig", [s for n in (6, 7, 8) for s in _signatures(n)], ids=str)
def test_resident_chains_byte_equal_sparse(sig, monkeypatch):
    # brackets, powers and sums of resident values, each compared with the
    # sparse loop on the reference dicts before anything reads the value
    monkeypatch.setattr(algebra, "product_paths", Counter())
    rng = random.Random(sig.p * 53 + sig.q)
    ops = _resident_ops(sig, rng)
    refs = [dict(u._dict()) for u in ops]
    results = []
    for k in (3, 4):
        fwd = reduce(lambda a, b: _ref_mul(a, b, sig), refs[:k])
        rev = reduce(lambda a, b: _ref_mul(a, b, sig), refs[:k][::-1])
        for kind, sign in (("commutator", -1), ("anticommutator", 1)):
            results.append((kfold(kind, ops[:k]), _ref_sum(fwd, rev, sign)))
    power = refs[1]
    for m in range(2, 10):
        power = _ref_mul(power, refs[1], sig)
        results.append((ops[1] ** m, power))
    p, q = ops[0] * ops[1], ops[2] * ops[3]
    pq = [_ref_mul(refs[0], refs[1], sig), _ref_mul(refs[2], refs[3], sig)]
    assert _is_resident(p) and _is_resident(q)
    results += [
        (p + q, _ref_sum(*pq)),
        (p - q, _ref_sum(*pq, -1)),
        (-p, {b: -x for b, x in pq[0].items()}),
        (-(p - q) * p, _ref_mul(_ref_sum(pq[1], pq[0], -1), pq[0], sig)),
        (p + ops[2], _ref_sum(pq[0], refs[2])),
        (ops[2] - p, _ref_sum(refs[2], pq[0], -1)),
    ]
    assert sum(map(_is_resident, (w for w, _ in results))) >= 12
    assert algebra.product_paths["spinor"] > algebra.product_paths["int64"] + algebra.product_paths["residue"]
    for w, reference in results:
        _assert_byte_equal(w, reference)


@pytest.mark.parametrize("p, q", [(8, 0), (4, 4)])
def test_resident_bounds_are_rigorous(p, q, monkeypatch):
    # a resident product carries L_u L_v, a sum L_u + L_v and a negation L_u,
    # each at least the exact ℓ1 norm of its value
    sig = Signature(p, q)
    rng = random.Random(p + 75)
    u, v, w = _full(sig, rng), _full(sig, rng), _full(sig, rng)
    lu, lv, lw = (x._int64()[2] for x in (u, v, w))
    uv, vw = u * v, v * w
    values = uv, vw, uv * w, uv + vw, uv - w, -uv
    assert all(map(_is_resident, values))
    bounds = [x._spin[1] for x in values]
    assert bounds == [lu * lv, lv * lw, lu * lv * lw, lu * lv + lv * lw, lu * lv + lw, lu * lv]
    for x, bound in zip(values, bounds):
        assert algebra._spinor_exact(sig, bound) and x._int64()[2] <= bound
    # u^4 = u^2 u^2 passes the gate on no bound: ‖u^2‖₁ is near 2^40, and
    # its coefficients near 2^64 would come out rounded from one matrix product
    big = Multivector(sig, {b: rng.choice((-1, 1)) * ((1 << 12) + rng.randint(0, 9)) for b in range(1 << sig.n)})
    monkeypatch.setattr(algebra, "product_paths", Counter())
    square = big * big
    assert _is_resident(square) and not algebra._spinor_exact(sig, square._spin[1] ** 2)
    w4 = square * square
    assert algebra.product_paths == Counter(spinor=1, residue=1) and w4.max_abs() >= 1 << 53
    reference = _mul_sparse(big._dict(), big._dict(), sig.neg_mask, False)
    _assert_byte_equal(w4, _mul_sparse(reference, reference, sig.neg_mask, False))


def _gate_operands(sig, rng):
    # big has coefficients near 2^20 on every blade, small ±1..9: at n = 8,
    # 2 d = 32 and big small passes the gate with room to spare
    big = Multivector(sig, {b: rng.choice((-1, 1)) * ((1 << 20) + rng.randint(0, 9)) for b in range(1 << sig.n)})
    return big, _full(sig, rng), _full(sig, rng), _full(sig, rng)


@pytest.mark.parametrize("p, q", [(8, 0), (4, 4)])
def test_resident_gate_failing_on_bounds_retries_on_exact_norms(p, q, monkeypatch):
    # r = P + (Q - P) equals Q exactly, but its bound 2 L_P + L_Q is far past
    # its norm ‖Q‖₁: r s fails the gate on bounds, passes it on exact norms,
    # and runs as one spinor product of the materialized operands
    sig = Signature(p, q)
    big, small, other, s = _gate_operands(sig, random.Random(p))
    P = big * small
    r = P + (other - P)
    assert _is_resident(P) and _is_resident(r)
    bound = r._spin[1]
    assert not algebra._spinor_exact(sig, bound * s._int64()[2])
    assert algebra._spinor_exact(sig, other._int64()[2] * s._int64()[2])
    monkeypatch.setattr(algebra, "product_paths", Counter())
    w = r * s
    assert algebra.product_paths == Counter(spinor=1) and _is_resident(w)
    assert r._arr is not None and r._spin[1] == other._int64()[2] < bound
    _assert_byte_equal(w, _mul_sparse(other._dict(), s._dict(), sig.neg_mask, False))


@pytest.mark.parametrize("p, q", [(8, 0), (4, 4)])
def test_resident_gate_failing_on_exact_norms_goes_to_residue(p, q, monkeypatch):
    sig = Signature(p, q)
    big, small, _, _ = _gate_operands(sig, random.Random(p + 1))
    P = big * small
    assert _is_resident(P)
    monkeypatch.setattr(algebra, "product_paths", Counter())
    w = P * big
    assert algebra.product_paths == Counter(residue=1)
    assert not algebra._spinor_exact(sig, P._spin[1] * big._int64()[2])
    reference = _mul_sparse(big._dict(), small._dict(), sig.neg_mask, False)
    _assert_byte_equal(w, _mul_sparse(reference, big._dict(), sig.neg_mask, False))


def _reader_cases():
    sig = Signature(4, 3)
    half = Multivector(sig, {0: Fraction(1, 2), 3: 1})
    generator = Multivector.generator(sig, 2)
    wide = _full(sig, random.Random(71))
    return {
        "_dict": lambda w: w._dict(),
        "_int64": lambda w: [a.tolist() if hasattr(a, "tolist") else a for a in w._int64()],
        "len": len,
        "bool": bool,
        "max_abs": lambda w: w.max_abs(),
        "qtype_of": qtype_of,
        "coefficient": lambda w: w.coefficient(5),
        "terms": lambda w: w.terms(),
        "wedge, sparse": lambda w: (w ^ generator).terms(),
        "wedge, int64": lambda w: (w ^ wide).terms(),
        "product, sparse": lambda w: (w * half).terms(),
        # a 2^40 coefficient fails the spinor gate on any bound but keeps ‖w‖₁ 2^40
        # under 2^62, and 128 pairs are under the spinor threshold
        "product, int64": lambda w: (w * (generator * (1 << 40))).terms(),
        "scaling": lambda w: (w * 3).terms(),
        "==": lambda w: w == Multivector(sig, dict(w.terms())),
        "str": str,
        "repr": repr,
        "format": format_multivector,
        "to_obj": to_obj,
        "from_exact": lambda w: ApproxMultivector.from_exact(w).terms(),
    }


@pytest.mark.parametrize("reader", list(_reader_cases()))
def test_every_reader_of_a_resident_value(reader, monkeypatch):
    # each reader is the first read of a fresh resident value; it must give
    # what it gives on the equal dict-born value, and leave the value
    # materialized with its exact norm in place of the bound
    sig = Signature(4, 3)
    rng = random.Random(70)
    u, v = _full(sig, rng), _full(sig, rng)
    read = _reader_cases()[reader]
    reference = Multivector(sig, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, False))
    want = read(reference)
    monkeypatch.setattr(algebra, "product_paths", Counter())
    w = u * v
    assert _is_resident(w) and algebra.product_paths == Counter(spinor=1)
    got = read(w)
    assert got == want and type(got) is type(want)
    assert w._arr is not None and w._spin[1] == sum(map(abs, reference._dict().values()))
    assert w == reference and w._dict() == reference._dict()


def test_resident_readers_agree_after_reading():
    # a resident value compares equal both ways, to a resident or dict-born
    # copy, and materializes its blades in ascending order
    sig = Signature(3, 4)
    rng = random.Random(72)
    u, v = _full(sig, rng), _full(sig, rng)
    a, b = u * v, u * v
    assert _is_resident(a) and _is_resident(b)
    assert a == b and b == a
    reference = Multivector(sig, _mul_sparse(u._dict(), v._dict(), sig.neg_mask, False))
    assert reference == a and a == reference
    assert list(a._dict()) == sorted(a._dict())
    total = u * v - u * v
    assert _is_resident(total) and not total and len(total) == 0 and total.max_abs() == 0
    assert str(total) == "0" and total == Multivector.zero(sig)


def test_a_value_converts_to_its_matrix_at_most_once(monkeypatch):
    # [U, V, W] is U V W - W V U: each operand converts once for both
    # chains, the partial products stay resident, and every cached matrix is
    # read-only
    sig = Signature(5, 3)
    rng = random.Random(73)
    ops = _resident_ops(sig, rng, 3)
    refs = [u._dict() for u in ops]
    converted = []
    to_spinor = _accel.to_spinor
    monkeypatch.setattr(_accel, "to_spinor", lambda ib, *args: converted.append(len(ib)) or to_spinor(ib, *args))
    monkeypatch.setattr(algebra, "product_paths", Counter())
    w = kfold("commutator", ops)
    assert algebra.product_paths == Counter(spinor=4) and _is_resident(w)
    assert sorted(converted) == sorted(len(u) for u in ops)
    kfold("anticommutator", ops)
    assert len(converted) == 3
    for x in (*ops, w):
        m = x._spin[0]
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1
    fwd = _mul_sparse(_mul_sparse(refs[0], refs[1], sig.neg_mask, False), refs[2], sig.neg_mask, False)
    rev = _mul_sparse(_mul_sparse(refs[2], refs[1], sig.neg_mask, False), refs[0], sig.neg_mask, False)
    _assert_byte_equal(w, _ref_sum(fwd, rev, -1))


def test_spinor_pairs_count_only_known_blade_counts(monkeypatch):
    # product_paths counts every spinor product; product_pairs only those
    # whose blade counts are known without materializing an operand
    monkeypatch.setattr(algebra, "product_paths", Counter())
    monkeypatch.setattr(algebra, "product_pairs", Counter())
    sig = Signature(4, 4)
    rng = random.Random(74)
    u, v, w = _full(sig, rng), _full(sig, rng), _full(sig, rng)
    uv = u * v
    assert algebra.product_pairs == Counter(spinor=256 * 256)
    uvw = uv * w
    assert _is_resident(uvw) and _is_resident(uv)
    assert algebra.product_paths == Counter(spinor=2) and algebra.product_pairs == Counter(spinor=256 * 256)
    len(uv)
    uv * w
    assert algebra.product_paths == Counter(spinor=3) and algebra.product_pairs == Counter(spinor=2 * 256 * 256)
