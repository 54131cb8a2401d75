"""Dense blade-pair product kernel and spinor form for the hot verification loops.

A sparse multivector with machine-sized coefficients is flattened to
(blade, value) arrays, and the geometric or exterior product scatter-adds
every blade-pair contribution into a dense length-2^n output.

Blades are bitmaps over the n generators (Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*, ch. 19).  The sign of e_a e_b is
(-1)^s, where s counts the pairs (i in a, j in b) with i > j plus the
common generators that square to -1.  Both terms are linear in b over
GF(2), so s is odd exactly when popcount(w[a] & b) is, with

    w[a] = (a & neg_mask) ^ L(a),  bit j of L(a) = parity of popcount(a >> (j+1)).

``w`` is one int64 vector of 2^n entries per signature, built on first use
and cached.

The Clifford series run on the Jordan–Wigner spinor representation (Lounesto,
*Clifford Algebras and Spinors*, 2001), faithful into complex d x d matrices,
d = 2^ceil(n/2).  Each blade's matrix is a signed Pauli string, fixed by two
d-bit masks and a phase, so a multivector goes there and back by one d x d
matrix product (:func:`spinor_form`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# blade pairs per chunk of rows: bounds the temporaries at n = 11 and 12,
# and at 512 KB per int64 temporary they stay in cache (chunks of 2^20
# pairs ran 1.5x slower at n = 12)
CHUNK_PAIRS = 1 << 16


@lru_cache(maxsize=64)
def sign_form(n: int, neg_mask: int) -> np.ndarray:
    """The vector w of the sign rule for Cl with n generators and ``neg_mask``."""
    a = np.arange(1 << n, dtype=np.int64)
    w = a & neg_mask
    for j in range(n):
        w ^= (np.bitwise_count(a >> (j + 1)).astype(np.int64) & 1) << j
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


@lru_cache(maxsize=64)
def spinor_form(n: int, neg_mask: int) -> tuple[np.ndarray, ...]:
    """The spinor matrices Γ_b of the 2^n blades of Cl with n generators and ``neg_mask``.

    Returns (x, z, c, h, cells): Γ_b[r, r ^ x[b]] = c[b] (-1)^popcount(z[b] & r),
    with c[b] in {±1, ±i}; h[r, s] = (-1)^popcount(r & s) is the d x d sign
    matrix, and cells[x, r] is the flat index of entry (r, r ^ x) of a d x d matrix.
    """
    d = 1 << ((n + 1) >> 1)
    x, z = np.zeros((2, 1 << n), dtype=np.int64)
    c = np.ones(1 << n, dtype=np.complex128)
    for j in range(n):
        k = j >> 1
        # the Z string of the lower qubits, then X (j even) or Y = -iXZ (j odd),
        # times i when the generator squares to -1
        zj = (2 << k) - 1 if j & 1 else (1 << k) - 1
        cj = (-1j if j & 1 else 1) * (1j if neg_mask >> j & 1 else 1)
        lo = 1 << j
        # Γ_{b | 1<<j} = Γ_b γ_j for every b below 1 << j
        x[lo : 2 * lo] = x[:lo] ^ (1 << k)
        z[lo : 2 * lo] = z[:lo] ^ zj
        c[lo : 2 * lo] = cj * np.where(np.bitwise_count(x[:lo] & zj) & 1, -c[:lo], c[:lo])
    r = np.arange(d)
    h = np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0)
    cells = r * d + (r ^ r[:, None])
    for table in (x, z, c, h, cells):
        table.flags.writeable = False
    return x, z, c, h, cells


def to_spinor(ib, vb, neg_mask, n):
    """The complex matrix Σ_b v_b Γ_b of the blades ``ib`` and float values ``vb``."""
    x, z, c, h, cells = spinor_form(n, neg_mask)
    d = len(h)
    # p[x, z] holds the Pauli string's weight; p @ h puts row r's signs on it
    p = np.zeros((d, d), dtype=np.complex128)
    p[x[ib], z[ib]] = vb * c[ib]
    m = np.empty(d * d, dtype=np.complex128)
    m[cells] = p @ h
    return m.reshape(d, d)


def from_spinor(m, neg_mask, n):
    """The real coefficients c_b = Re tr(Γ_bᴴ m) / d of a spinor matrix, one per blade."""
    x, z, c, h, cells = spinor_form(n, neg_mask)
    # h @ h = d I, so this inverts to_spinor; 1 / c[b] = conj(c[b])
    p = m.ravel()[cells] @ h
    return (p[x, z] * c.conj()).real / len(h)
