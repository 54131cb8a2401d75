"""Dense blade-pair product kernel for the hot verification loops.

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
and cached.  Right multiplication by a fixed f is linear, so a series that
multiplies by f at every step can build its 2^n x 2^n matrix once
(:func:`step_matrix`) when it fits one chunk.
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


def step_matrix(ib, vb, neg_mask, n):
    """The float64 matrix M of right multiplication by f, so that x @ M = x f.

    ``ib``/``vb`` are the blades and values of f.  Row a of M is e_a f:
    M[a, a ^ b] = (-1)^popcount(w[a] & b) f[b].  It has 4^n entries.
    """
    a = np.arange(1 << n, dtype=np.int64)[:, None]
    odd = np.bitwise_count(sign_form(n, neg_mask)[:, None] & ib) & 1
    m = np.zeros((1 << n, 1 << n))
    m[a, a ^ ib] = np.subtract(1, odd << 1, dtype=np.float64) * vb
    return m
