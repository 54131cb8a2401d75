"""Exact and float product kernels and the spinor form for the hot verification loops.

The blade-pair kernel flattens a sparse multivector with machine-sized
coefficients to (blade, value) arrays and scatter-adds every blade-pair
contribution of the geometric or exterior product into a dense length-2^n
output, in int64 or float64.

Blades are bitmaps over the n generators (Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*, ch. 19).  The sign of e_a e_b is
(-1)^s, where s counts the pairs (i in a, j in b) with i > j plus the
common generators that square to -1.  Both terms are linear in b over
GF(2), so s is odd exactly when popcount(w(a) & b) is, with

    w(a) = (a & neg_mask) ^ L(a),  L(a) = XOR over k >= 1 of (a >> k),

since bit j of L(a) is the parity of a's bits above j.  :func:`sign_word`
computes w(a) in four shift-and-xor doublings, on one blade or on an int64
array of them; every blade-pair path, sparse or dense, reads its signs off
it.  The dense kernel takes w of all 2^n blades from :func:`sign_form`,
built on first use and cached per signature.

The Jordan–Wigner spinor representation (Lounesto, *Clifford Algebras and
Spinors*, 2001) maps Cl faithfully into complex d x d matrices, d =
2^ceil(n/2).  Each blade's matrix is a signed Pauli string, fixed by two
d-bit masks and a phase i^k, so a multivector goes there and back by one
d x d matrix product (:func:`spinor_form`, cached per n, and
:func:`spinor_phase`, the exponents k per signature).  The Clifford series
run there in float64.  :func:`product_spinor` multiplies integer
multivectors there exactly in complex128, with no reduction: O(2^1.5n) work
in place of the kernel's O(4^n) blade pairs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# blade pairs per chunk of rows: bounds the temporaries at n = 11 and 12,
# and at 512 KB per int64 temporary they stay in cache (chunks of 2^20
# pairs ran 1.5x slower at n = 12)
CHUNK_PAIRS = 1 << 16


def sign_word(a, neg_mask: int):
    """w(a) of the sign rule, e_a e_b = (-1)^popcount(w(a) & b) e_{a^b}.

    ``a`` is a blade or an int64 array of blades below 2^17: the doublings
    fold a >> 1 through a >> 16 into L(a).
    """
    t = a >> 1
    t ^= t >> 1
    t ^= t >> 2
    t ^= t >> 4
    t ^= t >> 8
    return t ^ (a & neg_mask)


@lru_cache(maxsize=64)
def sign_form(n: int, neg_mask: int) -> np.ndarray:
    """The vector w of the sign rule for Cl with n generators and ``neg_mask``."""
    w = sign_word(np.arange(1 << n, dtype=np.int64), neg_mask)
    w.flags.writeable = False
    return w


def product_dense(ia, va, ib, vb, neg_mask, n, exterior=False):
    """Dense blade-pair product: returns a length-2^n coefficient array.

    ``ia``/``ib`` are int64 blade arrays, ``va``/``vb`` matching value arrays
    (int64 or float64).  Callers are responsible for keeping int64 inputs
    small enough that no accumulated coefficient overflows.  Pairs are
    accumulated in row-major order, ``CHUNK_PAIRS`` pairs at a time.
    """
    out = np.zeros(1 << n, dtype=va.dtype)
    wa = sign_form(n, neg_mask)[ia]
    rows = max(1, CHUNK_PAIRS // max(1, len(ib)))
    for lo in range(0, len(ia), rows):
        a = ia[lo : lo + rows, None]
        odd = np.bitwise_count(wa[lo : lo + rows, None] & ib) & 1
        # (+-1 * va) * vb is exact in float64 too, so it equals +-(va * vb)
        prod = np.subtract(1, odd << 1, dtype=out.dtype)
        prod *= va[lo : lo + rows, None]
        prod *= vb
        if exterior:
            prod[(a & ib) != 0] = 0
        np.add.at(out, (a ^ ib).ravel(), prod.ravel())
    return out


@lru_cache(maxsize=None)
def spinor_form(n: int) -> tuple[np.ndarray, ...]:
    """The spinor matrices Γ_b of the 2^n blades of Cl(n,0).

    Returns (xz, k, h, cells): Γ_b[r, r ^ x] = i^k[b] (-1)^popcount(z & r),
    where the two d-bit masks are packed as xz[b] = x d + z; h[r, s] =
    (-1)^popcount(r & s) is the d x d sign matrix, and cells[x, r] is the
    flat index of entry (r, r ^ x) of a d x d matrix.  Only the phase
    exponents k depend on the signature (:func:`spinor_phase`).
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
    h = np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0)
    cells = r * d + (r ^ r[:, None])
    for table in (xz, k, h, cells):
        table.flags.writeable = False
    return xz, k, h, cells


# i^k and i^-k, indexed by k
_I_POWERS = np.array([1, 1j, -1, -1j])
_I_INVERSES = _I_POWERS.conj()


@lru_cache(maxsize=64)
def spinor_phase(n: int, neg_mask: int) -> np.ndarray:
    """The phase exponents k of the Γ_b of Cl with n generators and ``neg_mask``: Γ_b's phase is i^k[b].

    A generator that squares to -1 is i times its Cl(n,0) matrix, so k[b] is
    the Cl(n,0) exponent plus popcount(b & neg_mask), mod 4.
    """
    k = spinor_form(n)[1]
    if neg_mask:
        k = (k + np.bitwise_count(np.arange(1 << n) & neg_mask).astype(np.uint8)) & 3
        k.flags.writeable = False
    return k


def to_spinor(ib, vb, neg_mask, n):
    """The complex matrix Σ_b v_b Γ_b of the blades ``ib`` and float or int64 values ``vb``."""
    xz, _, h, cells = spinor_form(n)
    d = len(h)
    # p[x, z] holds the Pauli string's weight; p @ h puts row r's signs on it
    p = np.zeros(d * d, dtype=np.complex128)
    p[xz[ib]] = vb * _I_POWERS[spinor_phase(n, neg_mask)[ib]]
    m = np.empty(d * d, dtype=np.complex128)
    m[cells] = p.reshape(d, d) @ h
    return m.reshape(d, d)


def from_spinor(m, neg_mask, n):
    """The real coefficients c_b = Re tr(Γ_bᴴ m) / d of a spinor matrix, one per blade."""
    xz, _, h, cells = spinor_form(n)
    # h @ h = d I, so this inverts to_spinor; 1 / i^k = i^-k
    p = m.ravel()[cells] @ h
    return (p.ravel()[xz] * _I_INVERSES[spinor_phase(n, neg_mask)]).real / len(m)


def product_spinor(ia, va, ib, vb, neg_mask, n):
    """The geometric product as one spinor matrix product: a length-2^n int64 coefficient array.

    ``ia``/``ib`` are int64 blade arrays and ``va``/``vb`` integral float64
    values.  Exact when the caller has bounded 2 d ‖va‖₁ ‖vb‖₁ below 2^53:
    a row of the first spinor matrix sums to at most ‖va‖₁ in |Re| + |Im|
    and an entry of the second to at most ‖vb‖₁, so every partial sum of
    the matrix product stays within ‖va‖₁ ‖vb‖₁ and of a trace within d
    times that, in any summation order.  A 3M complex multiply subtracts
    two such sums, hence the 2.  Every float is then an integer below 2^53,
    and the traces are d times the coefficients, d a power of 2.
    """
    m = to_spinor(ia, va, neg_mask, n) @ to_spinor(ib, vb, neg_mask, n)
    return from_spinor(m, neg_mask, n).astype(np.int64)
