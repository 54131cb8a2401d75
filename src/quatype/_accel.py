"""The array kernels: products, the spinor form, sampling and series in numpy.

This is the only module of the package that imports numpy.  The package
binds it lazily (``quatype/__init__.py``), so numpy loads on the first
dense operation: the residue rules behind ``infer``, ``tables`` and a
``check`` on a small algebra never need an array.  Everything here works on
the coefficient forms of :mod:`quatype.algebra` and is called only from
there, :mod:`quatype.qtypes` and :mod:`quatype.powers`.

The blade-pair kernel flattens a sparse multivector with int64
coefficients to (blade, value) arrays and scatter-adds every blade-pair
contribution of the geometric or exterior product into a dense length-2^n
int64 output.  It reads its signs off the sign rule of
:func:`quatype.algebra.sign_word`, e_a e_b = (-1)^popcount(w(a) & b)
e_{a^b}, w(a) = L(a) ^ (a & neg_mask).  The reordering word L of all 2^n
blades is the same in every signature: :func:`sign_form` builds it on
first use and caches it per n, and a geometric product adds the metric
term a & neg_mask.

The Jordan–Wigner spinor representation (Lounesto, *Clifford Algebras and
Spinors*, 2001) maps Cl faithfully into complex d x d matrices, d =
2^ceil(n/2).  Each blade's matrix is a signed Pauli string, fixed by two
d-bit masks and a phase i^k, so a multivector goes there and back by one
d x d matrix product.  :func:`spinor_table` holds everything a conversion
reads: the masks, the sign matrix and the cell index, cached per n by
:func:`spinor_form`, plus the one table a signature adds, its phases i^k
as a complex64 vector.  The Clifford series that
:mod:`quatype.powers` cannot take in closed form run there in float64
(:func:`spinor_series`).  A geometric product there is one complex128
matrix product: O(2^1.5n) work in place of the kernel's O(4^n) blade
pairs.  Float operands take it whole
(:func:`product_float`).  Integer values keep their matrices, which
:mod:`quatype.algebra` multiplies and adds, with no reduction, under an ℓ1
bound that keeps every float an exact integer, and reads back once by
:func:`from_spinor`.
:func:`product_residue` multiplies exactly for any coefficients with ‖u‖₁ ‖v‖₁
below about 2^1407: it multiplies the matrices mod each of a few primes
below 2^22 (:data:`PRIMES`), all of them in one stack, and rebuilds every
coefficient from its residues by Garner's mixed-radix form of the Chinese
remainder theorem (Knuth, TAOCP vol. 2, §4.3.2).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from operator import mul

import numpy as np

from .algebra import _INT64_SAFE_BOUND, _patch_zero_group, sign_word

# blade pairs per chunk of rows: bounds the temporaries at n = 11 and 12,
# and at 512 KB per int64 temporary they stay in cache (chunks of 2^20
# pairs ran 1.5x slower at n = 12)
CHUNK_PAIRS = 1 << 16


# ---------------------------------------------------------------------------
# coefficient arrays


def int_slot(blades: np.ndarray, values: np.ndarray) -> tuple:
    """The ``_arr`` slot of int64 ``blades`` and ``values``: the two made read-only, then Σ |v|, exact as it is below 2^62."""
    blades.flags.writeable = values.flags.writeable = False
    return blades, values, int(np.abs(values).sum())


def dict_slot(coeffs: dict):
    """The ``_arr`` slot of a coefficient dict, ``False`` for a Fraction: int64 values while Σ |v| < 2^62, else Python ints."""
    values = list(coeffs.values())
    # a Fraction makes the sum a Fraction, even an integral one
    total = sum(map(abs, values))
    if type(total) is not int:
        return False
    blades = np.fromiter(coeffs, np.int64, len(coeffs))
    values = np.array(values, dtype=np.int64 if total < _INT64_SAFE_BOUND else object)
    blades.flags.writeable = values.flags.writeable = False
    return blades, values, total


def float_arrays(coeffs: dict) -> tuple[np.ndarray, np.ndarray]:
    """A float coefficient dict as int64 blade and float64 value arrays."""
    return np.fromiter(coeffs.keys(), np.int64, len(coeffs)), np.fromiter(coeffs.values(), np.float64, len(coeffs))


def nonzero(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of a dense length-2^n coefficient array: (blades, values)."""
    nz = np.flatnonzero(out)
    return nz, out[nz]


def dense_coeffs(out: np.ndarray) -> dict:
    """The nonzero entries of a dense length-2^n float or object coefficient array, as a coefficient dict."""
    blades, values = nonzero(out)
    return dict(zip(blades.tolist(), values.tolist()))


def sum_arrays(n: int, a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero (blades, values) of u + v from the ``_arr`` slots of u and v.

    u's blades come first, in order, then v's new ones, as the dict sum orders them.
    """
    (ia, va), (ib, vb) = a[:2], b[:2]
    acc = np.zeros(1 << n, dtype=np.int64)
    acc[ia] = va
    # u stores no zero, so a blade of v is new exactly where acc is still 0
    blades = np.concatenate((ia, ib[acc[ib] == 0]))
    acc[ib] += vb
    values = acc[blades]
    keep = values != 0
    return blades[keep], values[keep]


def grade_residues(blades: np.ndarray) -> list[int]:
    """The residues mod 4 of the grades of int64 ``blades``, ascending."""
    return np.flatnonzero(np.bincount(np.bitwise_count(blades) & 3)).tolist()


def select(blades: np.ndarray, values: np.ndarray, grades: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The (blades, values) whose grade is set in the bitmask ``grades``, in order, values times ``scale``."""
    keep = (np.int64(grades) >> np.bitwise_count(blades) & 1).astype(bool)
    return blades[keep], values[keep] * scale


# ---------------------------------------------------------------------------
# blade-pair products


@lru_cache(maxsize=None)
def sign_form(n: int) -> np.ndarray:
    """The vector w of the sign rule for Cl(n,0), one entry per blade: the reordering word L of every signature."""
    w = sign_word(np.arange(1 << n, dtype=np.int64), 0)
    w.flags.writeable = False
    return w


def product_dense(ia, va, ib, vb, neg_mask, n, exterior=False):
    """Dense blade-pair product: returns a length-2^n int64 coefficient array.

    ``ia``/``ib`` are int64 blade arrays, ``va``/``vb`` matching int64 value
    arrays.  Callers are responsible for keeping them small enough that no
    accumulated coefficient overflows.  Pairs are accumulated in row-major
    order, ``CHUNK_PAIRS`` pairs at a time.
    """
    out = np.zeros(1 << n, dtype=np.int64)
    wa = sign_form(n)[ia]
    # the metric term of sign_word; wedged pairs share no generator, so theirs is 0
    if not exterior:
        wa ^= ia & neg_mask
    rows = max(1, CHUNK_PAIRS // max(1, len(ib)))
    for lo in range(0, len(ia), rows):
        a = ia[lo : lo + rows, None]
        odd = np.bitwise_count(wa[lo : lo + rows, None] & ib) & 1
        prod = np.subtract(1, odd << 1, dtype=np.int64)
        prod *= va[lo : lo + rows, None]
        prod *= vb
        if exterior:
            prod[(a & ib) != 0] = 0
        np.add.at(out, (a ^ ib).ravel(), prod.ravel())
    return out


# ---------------------------------------------------------------------------
# the spinor representation


@lru_cache(maxsize=None)
def spinor_form(n: int) -> tuple[np.ndarray, ...]:
    """The spinor matrices Γ_b of the 2^n blades of Cl(n,0).

    Returns (xz, k, h, cells): Γ_b[r, r ^ x] = i^k[b] (-1)^popcount(z & r),
    where the two d-bit masks are packed as xz[b] = x d + z; h[r, s] =
    (-1)^popcount(r & s) is the d x d sign matrix, complex so that the
    matrix products with it need no cast, and cells[x, r] is the
    flat index of entry (r, r ^ x) of a d x d matrix.  Only the phase
    exponents k depend on the signature (:func:`spinor_table`).
    """
    d = 1 << ((n + 1) >> 1)
    x, z = np.zeros((2, 1 << n), dtype=np.int64)
    k = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):
        q = j >> 1
        # the Z string of the lower qubits, then X (j even) or Y = -iXZ = i^3 XZ (j odd)
        zj = (2 << q) - 1 if j & 1 else (1 << q) - 1
        lo = 1 << j
        # Γ_{b | 1<<j} = Γ_b γ_j for every b below 1 << j, with Γ_b = i^k Z^z X^x
        # and X^x Z^zj = (-1)^popcount(x & zj) Z^zj X^x
        x[lo : 2 * lo] = x[:lo] ^ (1 << q)
        z[lo : 2 * lo] = z[:lo] ^ zj
        k[lo : 2 * lo] = (k[:lo] + (3 if j & 1 else 0) + 2 * (np.bitwise_count(x[:lo] & zj) & 1)) & 3
    xz = x * d + z
    r = np.arange(d)
    h = np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0).astype(np.complex128)
    cells = r * d + (r ^ r[:, None])
    for table in (xz, k, h, cells):
        table.flags.writeable = False
    return xz, k, h, cells


# i^k, indexed by k
_I_POWERS = np.array([1, 1j, -1, -1j], dtype=np.complex64)


# unbounded, like sign_form: 90 signatures have n <= 12, and each adds at most 32 KB
@lru_cache(maxsize=None)
def spinor_table(n: int, neg_mask: int) -> tuple[np.ndarray, ...]:
    """Everything a spinor conversion of Cl with n generators and ``neg_mask`` reads.

    Returns (xz, c, h, cells): the masks, sign matrix and cell index of
    :func:`spinor_form`, and each Γ_b's phase c[b] = i^k[b] as a complex64
    vector (exact, and half the size), the one table of a signature.  A
    generator that squares to -1 is i times its Cl(n,0) matrix, so k[b] is
    the Cl(n,0) exponent plus popcount(b & neg_mask), mod 4.  The inverse
    phase i^-k[b] is c[b]'s conjugate.
    """
    xz, k, h, cells = spinor_form(n)
    c = _I_POWERS[(k + np.bitwise_count(np.arange(1 << n) & neg_mask)) & 3]
    c.flags.writeable = False
    return xz, c, h, cells


def to_spinor(ib, vb, neg_mask, n):
    """The complex matrix Σ_b v_b Γ_b of the blades ``ib`` and float or int64 values ``vb``."""
    xz, c, h, cells = spinor_table(n, neg_mask)
    d = len(h)
    # p[x, z] holds the Pauli string's weight; p @ h puts row r's signs on it
    p = np.zeros(d * d, dtype=np.complex128)
    p[xz[ib]] = vb * c[ib]
    m = np.empty(d * d, dtype=np.complex128)
    m[cells] = p.reshape(d, d) @ h
    return m.reshape(d, d)


def from_spinor(m, neg_mask, n):
    """The real coefficients c_b = Re tr(Γ_bᴴ m) / d of a spinor matrix, one per blade."""
    xz, c, h, cells = spinor_table(n, neg_mask)
    # h @ h = d I, so this inverts to_spinor; 1 / i^k = i^-k, the conjugate
    p = m.ravel()[cells] @ h
    return (p.ravel()[xz] * c.conj()).real / len(m)


def product_float(ca: dict, cb: dict, neg_mask: int, n: int) -> dict:
    """The geometric product of two float coefficient dicts as one spinor matrix product, as a coefficient dict."""
    # float overflow surfaces as inf/NaN, which classification reports
    with np.errstate(over="ignore", invalid="ignore"):
        m = to_spinor(*float_arrays(ca), neg_mask, n) @ to_spinor(*float_arrays(cb), neg_mask, n)
        return dense_coeffs(from_spinor(m, neg_mask, n))


# the 64 largest primes below 2^22, largest first: a literal, since finding
# them at import would cost milliseconds
PRIMES = (
    4194301, 4194287, 4194277, 4194271, 4194247, 4194217, 4194199, 4194191,
    4194187, 4194181, 4194173, 4194167, 4194143, 4194137, 4194131, 4194107,
    4194103, 4194023, 4194011, 4194007, 4193977, 4193971, 4193963, 4193957,
    4193939, 4193929, 4193909, 4193869, 4193807, 4193803, 4193801, 4193789,
    4193759, 4193753, 4193743, 4193701, 4193663, 4193633, 4193573, 4193569,
    4193551, 4193549, 4193531, 4193513, 4193507, 4193459, 4193447, 4193443,
    4193417, 4193411, 4193393, 4193389, 4193381, 4193377, 4193369, 4193359,
    4193353, 4193327, 4193309, 4193303, 4193297, 4193279, 4193269, 4193263,
)  # fmt: skip
# _MODULI[k] is the product of the first k primes
_MODULI = tuple(accumulate(PRIMES, mul, initial=1))
# product_residue is exact for every bound ‖u‖₁ ‖v‖₁ below this: 2 ‖u‖₁ ‖v‖₁ < Π PRIMES
RESIDUE_LIMIT = (_MODULI[-1] + 1) // 2


def residue_count(bound: int) -> int:
    """The fewest primes of :data:`PRIMES` whose product exceeds 2 ``bound``."""
    return bisect_right(_MODULI, 2 * bound)


@lru_cache(maxsize=None)
def _residue_constants(k: int, d: int) -> tuple[np.ndarray, ...]:
    """The first k primes as an int64 and a float64 column, 1 / p, d⁻¹ mod p, and Garner's inverses.

    The last is a k x k int64 matrix whose entry (j, i), j < i, is p_j⁻¹ mod p_i.
    """
    primes = PRIMES[:k]
    p = np.array(primes, dtype=np.int64)[:, None]
    pf = p.astype(np.float64)
    dinv = np.array([[pow(d, -1, q)] for q in primes], dtype=np.float64)
    inverses = np.array([[pow(pj, -1, pi) if j < i else 0 for i, pi in enumerate(primes)] for j, pj in enumerate(primes)])
    tables = (p, pf, 1 / pf, dinv, inverses)
    for t in tables:
        t.flags.writeable = False
    return tables


def product_residue(ia, va, ib, vb, neg_mask, n, bound):
    """The exact geometric product by spinor matrix products mod k primes: a length-2^n coefficient array.

    ``va``/``vb`` are int64 or object arrays of Python ints, and ``bound``
    is at least ‖va‖₁ ‖vb‖₁, hence at least every |coefficient|, and below
    :data:`RESIDUE_LIMIT`.  The result is int64 when ``bound`` < 2^62 and
    holds Python ints otherwise.

    Both operands go to their spinor matrices mod each of the k =
    :func:`residue_count` primes at once, as a (k, d, d) stack; one batched
    matrix product and the trace map follow, and every step reduces back
    to residues centred on 0.  Each float on the way is an integer below
    2^51 for d <= 64, so exact in any summation order: centred residues
    are below 2^21, a product entry sums d complex products of two of
    them, and a conversion sums d residues times ±1.  The traces are d
    times the coefficients, so a multiply by d⁻¹ mod p gives the
    coefficient mod p.  Garner's algorithm then writes each coefficient c
    as Σ_j a_j p_0 ... p_(j-1) with centred digits |a_j| <= (p_j - 1) / 2,
    which spells every integer of |c| <= (p_0 ... p_(k-1) - 1) / 2, and
    Horner's rule sums the digits from the top; the partial sums stay
    within |c| + 2^21, so they run in int64 when ``bound`` < 2^62.
    """
    k = residue_count(bound)
    xz, c, h, cells = spinor_table(n, neg_mask)
    d = len(h)
    pk, pf, pinv, dinv, inverses = _residue_constants(k, d)

    def centre(x):
        # x - p rint(x / p), in place, for a (k, ...) stack of integral floats or complex
        f = x.view(np.float64).reshape(k, -1)
        f -= pf * np.rint(f * pinv)
        return x

    def spinor(blades, values):
        # to_spinor of each row of residues, which lie in [0, p): an entry
        # sums d of them, below 2^28.  A stacked copy: the stack's reshapes
        # would cost the single-matrix to_spinor about 3 µs of 7 at n = 6
        p = np.zeros((k, d * d), dtype=np.complex128)
        p[:, xz[blades]] = (values % pk).astype(np.int64, copy=False) * c[blades]
        m = np.empty((k, d * d), dtype=np.complex128)
        m[:, cells] = (p.reshape(k * d, d) @ h).reshape(k, d, d)
        return centre(m).reshape(k, d, d)

    # from_spinor of each matrix, with d⁻¹ mod p in place of 1 / d
    m = centre(spinor(ia, va) @ spinor(ib, vb)).reshape(k, d * d)
    t = (m[:, cells].reshape(k * d, d) @ h).reshape(k, d * d)[:, xz] * c.conj()
    r = centre(t.real * dinv).astype(np.int64)
    # Garner: digit j is the residue left mod p_j once the lower digits are
    # taken off and divided out, which every later row does mod its own prime
    digits = np.empty_like(r)
    for j in range(k):
        a = r[j] % pk[j]
        a -= pk[j] * (a > pk[j] >> 1)
        digits[j] = a
        r[j + 1 :] = (r[j + 1 :] - a) * inverses[j, j + 1 :, None] % pk[j + 1 :]
    if bound >= _INT64_SAFE_BOUND:
        digits = digits.astype(object)
    out = digits[k - 1]
    for j in range(k - 2, -1, -1):
        out = out * PRIMES[j] + digits[j]
    return out


# ---------------------------------------------------------------------------
# Clifford series


# Paterson–Stockmeyer block of the (even, odd) Taylor pair in Y = ±X^2: the
# pair is summed to degree _PS_BLOCK^2 - 1 = 15 in Y, 31 in X, as _PS_BLOCK
# blocks of _PS_BLOCK terms each.  X is scaled to ∞-norm below 4, where the
# first omitted term, at most 4^32 / 32! ≈ 7.0e-17, is below 2^-53.  The
# powers in spinor_series are built for a block of 4
_PS_BLOCK = 4
# row 2j + odd holds block j of the even (odd = 0) or odd series (before its
# factor X): the coefficients 1 / (2k + odd)! of Y^k, k = 4j .. 4j + 3
_PS_COEFFS = np.array(
    [
        [1 / math.factorial(2 * (_PS_BLOCK * j + i) + odd) for i in range(_PS_BLOCK)]
        for j in range(_PS_BLOCK)
        for odd in (0, 1)
    ]
)


def spinor_series(coeffs: dict, neg_mask: int, n: int, parities: tuple[int, ...], trig: bool) -> dict:
    """An elementary function of the float multivector ``coeffs`` as a matrix function: a coefficient dict.

    ``parities`` and ``trig`` are the function's rule (see
    :func:`quatype.qtypes.series_rule`).  u maps to its spinor matrix X,
    scaled by 2^-s to ∞-norm below 4.  The even/odd Taylor pair (cosh,
    sinh) of the scaled X, or (cos, sin), is summed in Y = X^2 (or -X^2) to
    degree 15 by Paterson–Stockmeyer (SIAM J. Comput. 1973): the powers Y
    to Y^4, one matrix product for all eight 4-term blocks of both series,
    and three Horner steps H <- H Y^4 + B_j on the pair.  It is doubled s
    times, (C, S) -> (C^2 ± S^2, 2 C S); exp squares C + S s times, the same
    doubling summed.  The coefficients come back as Re tr(Γ_bᴴ F) / d.  A
    non-finite coefficient in u, or an overflow, gives non-finite results.
    """
    # non-finite values only pass through to the result; numpy's warnings
    # would repeat what classify reports
    with np.errstate(over="ignore", invalid="ignore"):
        x = to_spinor(*float_arrays(coeffs), neg_mask, n)
        # 2^steps > ‖X‖∞ / 4; frexp(inf or nan) has exponent 0, so such an X is not scaled
        steps = max(0, math.frexp(np.abs(x).sum(axis=1).max() / 4)[1])
        x *= 0.5**steps
        d = len(x)
        # I, Y, Y^2, Y^3, Y^4; a stack of two d x d matrices is multiplied as
        # one 2d x d matrix, one matrix product in place of two
        powers = np.empty((_PS_BLOCK + 1, d, d), dtype=np.complex128)
        powers[0] = np.eye(d)
        np.matmul(x, -x if trig else x, out=powers[1])
        np.matmul(powers[1], powers[1], out=powers[2])
        np.matmul(powers[1:3].reshape(2 * d, d), powers[2], out=powers[3:].reshape(2 * d, d))
        # block j of the pair: its even rows over its odd ones
        blocks = (_PS_COEFFS @ powers[:_PS_BLOCK].reshape(_PS_BLOCK, d * d)).reshape(_PS_BLOCK, 2 * d, d)
        h = blocks[-1]
        for b in blocks[-2::-1]:
            h = h @ powers[_PS_BLOCK]
            h += b
        c, s = h[:d], x @ h[d:]
        if len(parities) == 2:
            # exp: C' + S' = (C + S)^2: summed before doubling, so an eigenvalue
            # with a large negative real part does not cancel in cosh + sinh
            f = c + s
            for _ in range(steps):
                f = f @ f
        else:
            for _ in range(steps):
                c, s = c @ c - s @ s if trig else c @ c + s @ s, 2 * (c @ s)
            f = (c, s)[parities[0]]
        return dense_coeffs(from_spinor(f, neg_mask, n))


# ---------------------------------------------------------------------------
# sampling


# int64 arrays of the blade groups drawn in chunks, by id; each entry keeps
# its group alive, so no other group can take that id while it is cached
_GROUP_ARRAYS: dict[int, tuple[tuple, np.ndarray]] = {}


def _group_array(blades: tuple[int, ...]) -> np.ndarray:
    hit = _GROUP_ARRAYS.get(id(blades))
    if hit is None:
        if len(_GROUP_ARRAYS) >= 256:
            _GROUP_ARRAYS.clear()
        hit = _GROUP_ARRAYS[id(blades)] = (blades, np.array(blades, dtype=np.int64))
    return hit[1]


def draw(rng, blade_groups: tuple, lo: int, hi: int, width: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero (blades, values) of :func:`quatype.algebra.sample_blades`'s draw, in order, group by group."""
    parts = [_draw_group(rng, blades, lo, hi, width, k) for blades in blade_groups if blades]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _draw_group(rng, blades: tuple[int, ...], lo: int, hi: int, width: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One nonempty group of the draw, k <= 8: its nonzero (blades, values) in order.

    ``getrandbits(32 m)`` is m successive 32-bit Mersenne Twister words,
    least significant first (Matsumoto and Nishimura, ACM TOMACS 8, 1998),
    and ``getrandbits(k)`` for k <= 32 is one word shifted right by 32 - k:
    for k <= 8, the word's top byte shifted right by 8 - k, so only the top
    bytes are kept.  Each chunk holds exactly the count of blades still
    without a value, and chunks are drawn down to the last word, so the draw
    takes the words the per-blade loop takes, in the same order, and leaves
    the generator in the same state.  An all-zero draw is patched by
    :func:`quatype.algebra._patch_zero_group`, as the per-blade loop patches it.
    """
    # a top byte t is accepted when t >> (8 - k) < width, that is when t <= top;
    # the table maps an accepted byte to 0, and counting zeros takes no array:
    # a chunk of a few words costs a fraction of a numpy call
    top = (width << (8 - k)) - 1
    table = bytes(top + 1).ljust(256, b"\x01")
    getrandbits = rng.getrandbits
    chunks = []
    need = len(blades)
    while need:
        chunk = getrandbits(need << 5).to_bytes(need << 2, "little")[3::4]
        chunks.append(chunk)
        need -= chunk.translate(table).count(0)
    t = np.frombuffer(b"".join(chunks), np.uint8)
    values = (t[t <= top] >> (8 - k)).astype(np.int64) + lo
    keep = values != 0
    if keep.any():
        return _group_array(blades)[keep], values[keep]
    b, v = _patch_zero_group(rng, blades, hi)
    return np.array([b], dtype=np.int64), np.array([v], dtype=np.int64)
