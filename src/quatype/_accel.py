"""Dense blade-pair product kernel and spinor tables for the hot verification loops.

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
d = 2^ceil(n/2): generator j is Z...Z X I...I (j even) or Z...Z Y I...I (j odd)
on qubit j >> 1, times i when it squares to -1.  Each blade matrix is
monomial, so a multivector goes there by one scatter and back by one gather.
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


# i^k for k = popcount(b & neg_mask) mod 4: the phase a signature puts on blade b
_I_POWERS = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=16)
def spinor_form(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The spinor matrices Γ_b of the 2^n blades of Cl(n, 0).

    Returns (col, phase): row r of Γ_b holds its one nonzero entry,
    phase[b, r] in {±1, ±i}, in column col[b, r] (a uint8, as d <= 64 for
    n <= 12).  Another signature puts the factor i^popcount(b & neg_mask)
    on Γ_b, so one table serves every signature with n generators.
    """
    d = 1 << ((n + 1) >> 1)
    r = np.arange(d)
    col = np.empty((1 << n, d), dtype=np.uint8)
    col[0] = r
    phase = np.ones((1 << n, d), dtype=np.complex128)
    for j in range(n):
        k = j >> 1
        # the Z-string sign of the lower qubits, then X (j even) or Y (j odd)
        gamma = 1 - 2 * (np.bitwise_count(r & ((1 << k) - 1)) & 1).astype(np.complex128)
        if j & 1:
            gamma *= np.where(r >> k & 1, 1j, -1j)
        lo = 1 << j
        # Γ_{b | 1<<j} = Γ_b γ_j for every b below 1 << j
        col[lo : 2 * lo] = col[:lo] ^ (1 << k)
        phase[lo : 2 * lo] = phase[:lo] * gamma[col[:lo]]
    col.flags.writeable = False
    phase.flags.writeable = False
    return col, phase


def to_spinor(ib, vb, neg_mask, n):
    """The complex matrix Σ_b v_b Γ_b of the blades ``ib`` and float values ``vb``."""
    col, phase = spinor_form(n)
    d = phase.shape[1]
    w = (vb * _I_POWERS[np.bitwise_count(ib & neg_mask) & 3])[:, None] * phase[ib]
    cells = (np.arange(0, d * d, d) + col[ib]).ravel()
    m = np.empty(d * d, dtype=np.complex128)
    m.real = np.bincount(cells, w.real.ravel(), d * d)
    m.imag = np.bincount(cells, w.imag.ravel(), d * d)
    return m.reshape(d, d)


def from_spinor(m, neg_mask, n):
    """The real coefficients c_b = Re tr(Γ_bᴴ m) / d of a spinor matrix, one per blade."""
    col, phase = spinor_form(n)
    d = phase.shape[1]
    # Re(conj(z)) = Re(z), so tr(Γ_bᴴ m) may be summed as phase * conj(m)
    t = np.einsum("br,br->b", phase, m.conj().ravel().take(np.arange(0, d * d, d) + col))
    t *= _I_POWERS[np.bitwise_count(np.arange(1 << n) & neg_mask) & 3]
    return t.real / d
