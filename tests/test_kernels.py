"""Cross-checks between the product kernels, the spinor form and the sparse reference path."""

import operator
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quatype import _accel, algebra
from quatype.algebra import ApproxMultivector, Multivector, Signature, random_multivector
from quatype.algebra import _mul_sparse, blade_product, ext_blade_product


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


def test_dense_matches_sparse_float():
    rng = random.Random(7)
    sig = Signature(3, 1)
    for _ in range(20):
        u = {b: float(c) for b, c in random_multivector(sig, rng)._dict().items()}
        v = {b: float(c) for b, c in random_multivector(sig, rng)._dict().items()}
        ia, va = _arrays(u, np.float64)
        ib, vb = _arrays(v, np.float64)
        out = _accel.product_dense(ia, va, ib, vb, sig.neg_mask, sig.n)
        dense = {int(k): float(out[k]) for k in np.flatnonzero(out)}
        sparse = _mul_sparse(u, v, sig.neg_mask, False)
        assert set(dense) == set(sparse)
        for b in dense:
            # same pairwise terms in a different order: allow rounding slack
            assert dense[b] == pytest.approx(sparse[b], rel=1e-12, abs=1e-12)


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


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_chunked_kernel_byte_equal(dtype, exterior, monkeypatch):
    rng = np.random.default_rng(11)
    n, neg_mask = 6, 0b110000
    ia = rng.permutation(1 << n)[:45].astype(np.int64)
    ib = rng.permutation(1 << n)[:37].astype(np.int64)
    if dtype is np.int64:
        va, vb = rng.integers(-9, 10, 45), rng.integers(-9, 10, 37)
    else:
        va, vb = rng.standard_normal(45), rng.standard_normal(37)
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
    # dense path and still come out exact
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
    u = random_multivector(sig, rng, lo=1, hi=9)
    half = u * Fraction(1, 2)
    whole = half + half
    assert whole == u and len(whole) * len(u) >= algebra._DENSE_MIN_PAIRS
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
    # one set of tables per n; a signature adds only its 2^12 phases
    assert sum(t.nbytes for t in _accel.spinor_form(12)) < 1 << 20
    assert _accel.spinor_phase(12, Signature(6, 6).neg_mask).nbytes <= 1 << 12


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
        assert (c == np.array([1, 1j, -1, -1j])[_accel.spinor_phase(n, neg_mask)]).all(), p


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


@pytest.mark.parametrize("over, path", [(0, "spinor"), (1, "int64")])
@pytest.mark.parametrize("p, q", [(12, 0), (6, 6), (0, 12)])
def test_spinor_gate_is_tight(p, q, over, path, monkeypatch):
    # u = A + 63 unit blades against v = C + 4095 unit blades is 64 · 4096
    # pairs, the threshold at n = 12, with d = 64.  ‖u‖₁ = 2^27 and
    # ‖v‖₁ = 2^19 - 1 + over put 2 d ‖u‖₁ ‖v‖₁ just under 2^53, or at it.
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
    dict_arrays = algebra._dict_arrays
    monkeypatch.setattr(algebra, "_dict_arrays", lambda coeffs: converted.append(coeffs) or dict_arrays(coeffs))
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
    monkeypatch.setattr(algebra, "_dict_arrays", lambda coeffs: pytest.fail("converted a dict"))
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
    ApproxMultivector.from_exact(vectors[0]) * ApproxMultivector.from_exact(vectors[1])
    assert algebra.product_paths == Counter(spinor=1, int64=2, sparse=1, float64=1)


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
    # an empty product runs on no path
    u * Multivector.zero(sig)
    assert algebra.product_paths == Counter(spinor=1, int64=1, sparse=1, float64=1)
    assert algebra.product_pairs == Counter(spinor=256 * 256, int64=256 * 256, sparse=1, float64=256 * 256)


@pytest.mark.parametrize("exterior", [False, True])
@pytest.mark.parametrize("big", [1 << 62, (1 << 63) - 1, -(1 << 63), 1 << 63, Fraction(1, 2)])
def test_values_past_the_int64_bound_stay_on_the_sparse_path(big, exterior, monkeypatch):
    # 64 · 64 blade pairs pass both dense thresholds at n = 6, but one
    # coefficient at or past 2^62 (or not an int) keeps the product sparse
    monkeypatch.setattr(algebra, "product_paths", Counter())
    sig = Signature(4, 2)
    rng = random.Random(7 + exterior)
    ops = [_full(sig, rng)._dict(), _full(sig, rng)._dict()]
    ops[0][rng.randrange(1 << sig.n)] = big
    u, v = (Multivector(sig, c) for c in ops)
    w = u ^ v if exterior else u * v
    assert algebra.product_paths == Counter(sparse=1)
    _assert_byte_equal(w, _mul_sparse(ops[0], ops[1], sig.neg_mask, exterior))


@pytest.mark.parametrize(
    "values",
    [[1 << 61] * 64, [-(1 << 63)] + [1] * 63, [(1 << 63) - 1] * 64, [-(1 << 63)] * 64],
    ids=["sum-past-int64", "min-int64", "max-int64", "all-min-int64"],
)
def test_int64_bounds_are_exact(values):
    # Σ |v| past int64, and |-2^63|, which int64 cannot hold, come out exact
    u = Multivector(Signature(6, 0), dict(enumerate(values)))
    _, _, m, total = u._int64()
    assert (type(m), type(total)) == (int, int)
    assert (m, total) == (max(map(abs, values)), sum(map(abs, values)))
