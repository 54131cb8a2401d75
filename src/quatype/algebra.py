"""Exact multivector arithmetic in the real Clifford algebras Cl(p,q).

A basis blade is a bit set over the n = p+q generators (bit i-1 stands for
the i-th generator, 1-based); a multivector is a sparse map from blade to a
coefficient.  :class:`Multivector` holds exact rationals: Python ints
whenever the denominator is 1 and :class:`fractions.Fraction` otherwise, so
identities proved over the rationals can be asserted with ``==``.
:class:`ApproxMultivector` holds floats for the Clifford power series.  Both
share one class body and differ only in their coefficient domain.

All values are immutable after construction and every operation is a pure
function.  Validation happens at the public boundary only: ``__init__``,
:func:`from_obj`, ``from_exact`` and multiplication by a scalar check every
blade and coefficient.  Arithmetic results, projections and the typed
samplers are built by the trusted ``_make`` and keep two invariants without
re-checking: no coefficient is zero, and every integral exact coefficient is
an ``int`` (so the next product can take the int64 kernel).

An exact value holds its coefficients in one of two forms.  A *dict-born*
value keeps the dict, and caches its int64 arrays the first time a dense
product needs them.  An *array-born* value, which the exact dense products,
large samples and sums of array-born values return, keeps read-only int64
blade and value arrays with every |value| < 2^62 and builds the dict, of
Python ints in array order, only when something reads it.  Both forms give
the same results, the same ``terms()`` and the same iteration order.

Products of at least ``_DENSE_MIN_PAIRS`` blade pairs leave the sparse
path for :mod:`quatype._accel`.  Approximate operands take the float64
blade-pair kernel.  Integer operands take one of two exact paths: a
geometric product of at least ``_SPINOR_MIN_PAIRS_PER_BLADE`` pairs per
blade of the algebra with 2 d ‖u‖₁ ‖v‖₁ < 2^53, d the spinor dimension,
runs as one complex128 spinor matrix product, exact in floats; any other
product whose bound B = max|u| · max|v| · min(len(u), len(v)) is
int64-safe runs on the int64 blade-pair kernel.  The sparse path is the
reference implementation and the only one that handles Fraction
coefficients and integers past int64.  ``product_paths`` counts the
products each path ran and ``product_pairs`` the blade pairs they
multiplied, both keyed ``sparse``, ``int64``, ``float64`` and ``spinor``.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Mapping, Union

import numpy as np

from . import _accel

MAX_DIMENSION = 12

Coeff = Union[int, Fraction]

# dense dispatch: below this many blade pairs the sparse dict loop wins.
# Timed on operands holding both forms, the int64 route catches up with the
# sparse loop at about 96 pairs at n = 4 and 6, and at 64 to 96 at n = 8
_DENSE_MIN_PAIRS = 64
# any product whose coefficient bound stays under this is int64-safe
_INT64_SAFE_BOUND = 1 << 62
# below about this many blade pairs per blade of the algebra the int64 kernel
# beats the spinor path: the measured crossover is about 32 to 48 at n = 6
# and 7, about 16 at n = 8 and 9, and 8 to 32 at n = 10 to 12
_SPINOR_MIN_PAIRS_PER_BLADE = 64
# the spinor path is exact while 2 d ‖u‖₁ ‖v‖₁ stays below this
_SPINOR_EXACT_BOUND = 1 << 53
# a sampled draw of at least this many blades takes its random words in
# chunks and is born as arrays; smaller ones keep the per-blade loop
_CHUNKED_DRAW_MIN_BLADES = 256

# products run by each path since import, and the blade pairs they multiplied
product_paths: Counter = Counter()
product_pairs: Counter = Counter()


class SignatureMismatchError(ValueError):
    """Operands constructed over different algebras were combined."""


@dataclass(frozen=True)
class Signature:
    """The algebra Cl(p,q): p generators square to +1, q to -1.

    ``n = p + q`` and ``neg_mask``, the bit mask of the generators squaring
    to -1, are derived once at construction: every product reads them.
    """

    p: int
    q: int
    n: int = field(init=False, repr=False, compare=False)
    neg_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("generator counts must be nonnegative")
        n = self.p + self.q
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"need 1 <= p+q <= {MAX_DIMENSION}, got p+q={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neg_mask", ((1 << n) - 1) ^ ((1 << self.p) - 1))

    def metric(self, a: int) -> int:
        """Square of generator ``a`` (1-based): +1 or -1."""
        if not 1 <= a <= self.n:
            raise ValueError(f"generator index {a} outside 1..{self.n}")
        return 1 if a <= self.p else -1

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


# ---------------------------------------------------------------------------
# blades


def blade_bits(indices: Iterable[int]) -> int:
    """Bit set for the blade on the given distinct 1-based generator indices."""
    bits = 0
    for a in indices:
        if a < 1:
            raise ValueError(f"generator indices are 1-based, got {a}")
        bit = 1 << (a - 1)
        if bits & bit:
            raise ValueError(f"repeated generator index {a}")
        bits |= bit
    return bits


def blade_indices(bits: int) -> tuple[int, ...]:
    """Sorted 1-based generator indices of a blade bit set."""
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


def blade_grade(bits: int) -> int:
    return bits.bit_count()


def blade_name(bits: int) -> str:
    """Canonical display name: ``e`` for the identity, ``e12`` for e^1 e^2.

    Indices above 9 are comma-separated to stay unambiguous.
    """
    if bits == 0:
        return "e"
    idx = blade_indices(bits)
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e" + ",".join(str(i) for i in idx)


def blade_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades: (sign, result blade).

    The result blade is ``a ^ b``; the sign folds reordering parity with the
    metric squares of all shared generators, so it is always +1 or -1.
    """
    limit = 1 << sig.n
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade outside {sig}")
    return (-1 if (_accel.sign_word(a, sig.neg_mask) & b).bit_count() & 1 else 1), a ^ b


def ext_blade_product(a: int, b: int) -> tuple[int, int]:
    """Exterior product of two basis blades: (sign, blade); sign 0 on overlap."""
    limit = 1 << MAX_DIMENSION
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade outside the algebras with up to {MAX_DIMENSION} generators")
    if a & b:
        return 0, 0
    return (-1 if (_accel.sign_word(a, 0) & b).bit_count() & 1 else 1), a | b


# ---------------------------------------------------------------------------
# coefficient plumbing


def _as_coeff(value) -> Coeff:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"exact coefficients must be int or Fraction, got {type(value).__name__}")


def _clean(coeffs: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {k: int(v) if type(v) is Fraction and v.denominator == 1 else v for k, v in coeffs.items() if v}


def _mul_sparse(ca: dict, cb: dict, neg_mask: int, exterior: bool) -> dict:
    out: dict = {}
    for a, x in ca.items():
        w = _accel.sign_word(a, neg_mask)
        for b, y in cb.items():
            if exterior and a & b:
                continue
            key = a ^ b
            v = x * y
            cur = out.get(key, 0)
            out[key] = cur - v if (w & b).bit_count() & 1 else cur + v
    return _clean(out)


def _blade_arrays(coeffs: dict, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A float coefficient dict as int64 blade and ``dtype`` value arrays, for the dense kernels."""
    return np.fromiter(coeffs.keys(), np.int64, len(coeffs)), np.fromiter(coeffs.values(), dtype, len(coeffs))


def _dense_coeffs(out: np.ndarray) -> dict:
    """The nonzero entries of a dense length-2^n float coefficient array, as a coefficient dict."""
    nz = np.flatnonzero(out)
    return dict(zip(nz.tolist(), out[nz].tolist()))


def _int_arrays(blades: np.ndarray, values: np.ndarray) -> tuple:
    """The ``_arr`` slot of int64 ``blades`` and ``values``: the two made read-only, then max |v| and Σ |v| as exact ints."""
    m = max(int(values.max()), -int(values.min())) if len(values) else 0
    # Σ |v| in int64 cannot overflow below this; -2^63 has no int64 abs
    total = int(np.abs(values).sum()) if m * len(values) < 1 << 63 else sum(map(abs, values.tolist()))
    blades.flags.writeable = values.flags.writeable = False
    return blades, values, m, total


def _dict_arrays(coeffs: dict):
    """The ``_arr`` slot of a coefficient dict: ``False`` unless every value is an int64."""
    values = np.array(list(coeffs.values()))
    # Fractions give the object dtype, ints past int64 float64 or object
    return values.dtype == np.int64 and _int_arrays(np.fromiter(coeffs, np.int64, len(coeffs)), values)


def _from_arrays(sig: Signature, blades: np.ndarray, values: np.ndarray) -> "Multivector":
    """Trusted construction of an array-born value: int64 arrays, no zero value, every |value| < 2^62."""
    u = object.__new__(Multivector)
    u.sig = sig
    u._coeffs = None
    u._arr = _int_arrays(blades, values)
    return u


def _from_dense(sig: Signature, out: np.ndarray) -> "Multivector":
    """The nonzero entries of a dense length-2^n int64 coefficient array, as an array-born value."""
    nz = np.flatnonzero(out)
    return _from_arrays(sig, nz, out[nz])


def _product(u, v, exterior: bool):
    """u v, or u ∧ v with ``exterior``: two multivectors of one signature and class."""
    sig = u.sig
    ca, cb = u._coeffs, v._coeffs
    pairs = (len(u._arr[0]) if ca is None else len(ca)) * (len(v._arr[0]) if cb is None else len(cb))
    if not pairs:
        return u._make(sig, {})
    if pairs >= _DENSE_MIN_PAIRS:
        if u._approx:
            product_paths["float64"] += 1
            product_pairs["float64"] += pairs
            # float overflow surfaces as inf/NaN, which classification reports;
            # the exact paths below cannot overflow within their bounds
            with np.errstate(over="ignore", invalid="ignore"):
                out = _accel.product_dense(
                    *_blade_arrays(ca, np.float64), *_blade_arrays(cb, np.float64), sig.neg_mask, sig.n, exterior=exterior
                )
            return u._make(sig, _dense_coeffs(out))
        a = u._int64()
        b = a and v._int64()
        if b:
            (ia, va, ma, sa), (ib, vb, mb, sb) = a, b
            d = 1 << ((sig.n + 1) >> 1)  # the spinor matrices are d x d
            if not exterior and pairs >= _SPINOR_MIN_PAIRS_PER_BLADE << sig.n and 2 * d * sa * sb < _SPINOR_EXACT_BOUND:
                product_paths["spinor"] += 1
                product_pairs["spinor"] += pairs
                return _from_dense(sig, _accel.product_spinor(ia, va, ib, vb, sig.neg_mask, sig.n))
            if ma * mb * min(len(ia), len(ib)) < _INT64_SAFE_BOUND:
                product_paths["int64"] += 1
                product_pairs["int64"] += pairs
                return _from_dense(sig, _accel.product_dense(ia, va, ib, vb, sig.neg_mask, sig.n, exterior=exterior))
    product_paths["sparse"] += 1
    product_pairs["sparse"] += pairs
    return u._make(sig, _mul_sparse(ca or u._dict(), cb or v._dict(), sig.neg_mask, exterior))


def _sum_arrays(sig: Signature, a: tuple, b: tuple) -> "Multivector":
    """u + v from the ``_arr`` slots of u and v: u's blades in order, then v's new ones, as the dict sum orders them."""
    (ia, va), (ib, vb) = a[:2], b[:2]
    acc = np.zeros(1 << sig.n, dtype=np.int64)
    acc[ia] = va
    # u stores no zero, so a blade of v is new exactly where acc is still 0
    blades = np.concatenate((ia, ib[acc[ib] == 0]))
    acc[ib] += vb
    values = acc[blades]
    keep = values != 0
    return _from_arrays(sig, blades[keep], values[keep])


# ---------------------------------------------------------------------------
# multivectors


class _MultivectorBase:
    """Sparse multivector over one coefficient domain; zero coefficients are never stored.

    Subclasses fix the domain: ``_coeff`` validates and normalises one
    outside coefficient, ``_one`` and ``_zero`` are its unit and zero,
    ``_scalar_types`` are the scalars ``*`` accepts and ``_approx`` selects
    the float64 dense kernel.

    ``_coeffs`` is the coefficient dict and ``_arr`` the int64 form (see the
    module docstring): ``None`` until a dense product asks for it, then
    ``(blades, values, max |v|, Σ |v|)``, the last two exact ints, or
    ``False`` when some value is not an int64.  An array-born value starts
    with ``_coeffs = None`` and builds the dict on its first :meth:`_dict`.
    Both are plain slots: a property would slow every dict-born access.
    """

    __slots__ = ("sig", "_coeffs", "_arr")

    def __init__(self, sig: Signature, coeffs: Mapping | Iterable[tuple] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        coerce = self._coeff
        limit = 1 << sig.n
        acc: dict = {}
        for blade, value in items:
            blade = operator.index(blade)
            if not 0 <= blade < limit:
                raise ValueError(f"blade {blade} outside {sig}")
            acc[blade] = acc.get(blade, 0) + coerce(value)
        self.sig = sig
        self._coeffs = {k: coerce(v) for k, v in acc.items() if v}
        self._arr = None

    @classmethod
    def _make(cls, sig: Signature, coeffs: dict):
        """Trusted construction: ``coeffs`` already keeps both invariants."""
        u = object.__new__(cls)
        u.sig = sig
        u._coeffs = coeffs
        u._arr = None
        return u

    def _dict(self) -> dict:
        """The coefficient dict; an array-born value builds it once, Python ints in array order."""
        c = self._coeffs
        if c is None:
            blades, values = self._arr[:2]
            c = self._coeffs = dict(zip(blades.tolist(), values.tolist()))
        return c

    def _int64(self):
        """The ``_arr`` slot, converting the dict on the first call."""
        arr = self._arr
        if arr is None:
            arr = self._arr = _dict_arrays(self._coeffs)
        return arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature):
        return cls._make(sig, {})

    @classmethod
    def scalar(cls, sig: Signature, value):
        return cls(sig, {0: value})

    @classmethod
    def from_exact(cls, u: "Multivector"):
        """The exact multivector u in this class's coefficient domain."""
        return u if type(u) is cls else cls(u.sig, u._dict())

    # -- inspection --------------------------------------------------------

    def coefficient(self, blade: int):
        return self._dict().get(blade, self._zero)

    def terms(self) -> list[tuple]:
        """(blade, coefficient) pairs sorted by grade then blade bits."""
        return sorted(self._dict().items(), key=lambda kv: (blade_grade(kv[0]), kv[0]))

    def grades(self) -> frozenset[int]:
        return frozenset(blade_grade(b) for b in self._dict())

    def max_abs(self):
        c = self._coeffs
        if c is None:
            return self._arr[2]
        return max(map(abs, c.values()), default=self._zero)

    def __len__(self) -> int:
        c = self._coeffs
        return len(self._arr[0]) if c is None else len(c)

    def __bool__(self) -> bool:
        c = self._coeffs
        return bool(len(self._arr[0])) if c is None else bool(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sig == other.sig and self._dict() == other._dict()

    __hash__ = None

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sig}, {format_multivector(self)})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_sig(self, other) -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"cannot combine {self.sig} with {other.sig}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_sig(other)
        if self._arr and other._arr and self._arr[2] + other._arr[2] < _INT64_SAFE_BOUND:
            return _sum_arrays(self.sig, self._arr, other._arr)
        out = dict(self._coeffs or self._dict())
        for b, v in (other._coeffs or other._dict()).items():
            out[b] = out.get(b, 0) + v
        return self._make(self.sig, _clean(out))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        c = self._coeffs
        if c is None:
            blades, values = self._arr[:2]
            return _from_arrays(self.sig, blades, -values)
        return self._make(self.sig, {b: -v for b, v in c.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._require_same_sig(other)
            return _product(self, other, False)
        if isinstance(other, self._scalar_types):
            f = self._coeff(other)
            return self._make(self.sig, _clean({b: v * f for b, v in (self._coeffs or self._dict()).items()}))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, self._scalar_types):
            return self * other
        return NotImplemented

    def __xor__(self, other):
        """Exterior (wedge) product.  Binds loosely in Python: parenthesize."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_sig(other)
        return _product(self, other, True)

    def __pow__(self, m: int):
        return _power(self, m, operator.mul)


def _power(u, m: int, mul):
    """u**m under the geometric (``operator.mul``) or exterior (``operator.xor``) product, by squaring."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = u._make(u.sig, {0: u._one})
    while m:
        if m & 1:
            result = mul(result, u)
        m >>= 1
        if m:
            u = mul(u, u)
    return result


class Multivector(_MultivectorBase):
    """Exact multivector: int and :class:`fractions.Fraction` coefficients."""

    __slots__ = ()
    _coeff = staticmethod(_as_coeff)
    _one = 1
    _zero = 0
    _scalar_types = (int, Fraction)
    _approx = False

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], value: Coeff = 1) -> "Multivector":
        return cls(sig, {blade_bits(indices): value})

    @classmethod
    def generator(cls, sig: Signature, a: int) -> "Multivector":
        sig.metric(a)  # validates the index
        return cls._make(sig, {1 << (a - 1): 1})


class ApproxMultivector(_MultivectorBase):
    """Float-coefficient multivector, used by the Clifford power series.

    A distinct type from :class:`Multivector`: the two never mix in
    arithmetic and never compare equal.
    """

    __slots__ = ()
    _coeff = staticmethod(float)
    _one = 1.0
    _zero = 0.0
    _scalar_types = (int, float, Fraction)
    _approx = True


def geo_mul(u: Multivector, v: Multivector) -> Multivector:
    """Geometric (Clifford) product."""
    return u * v


def ext_mul(u: Multivector, v: Multivector) -> Multivector:
    """Exterior (wedge) product: index-alternated part of the geometric product."""
    return u ^ v


def grade_project(u: Multivector, k: int) -> Multivector:
    """Keep only the grade-k part of u."""
    if not 0 <= k <= u.sig.n:
        raise ValueError(f"grade {k} outside 0..{u.sig.n}")
    return u._make(u.sig, {b: v for b, v in u._dict().items() if blade_grade(b) == k})


def parity_split(u: Multivector) -> tuple[Multivector, Multivector]:
    """Split into (even, odd) grade parts; the two sum back to u."""
    even: dict = {}
    odd: dict = {}
    for b, v in u._dict().items():
        (odd if blade_grade(b) & 1 else even)[b] = v
    return u._make(u.sig, even), u._make(u.sig, odd)


def qtype_project(u: Multivector, t: int) -> Multivector:
    """Keep the grades congruent to t mod 4; the four projections sum to u."""
    if t not in (0, 1, 2, 3):
        raise ValueError(f"residue class must be 0..3, got {t}")
    return u._make(u.sig, {b: v for b, v in u._dict().items() if blade_grade(b) % 4 == t})


# ---------------------------------------------------------------------------
# random generation: every sampler draws through sample_blades


@lru_cache(maxsize=None)
def blades_of_grades(n: int, grades: tuple[int, ...]) -> tuple[int, ...]:
    """Blades of an n-generator algebra with the given grades: by grade in that order, then by bit order."""
    return tuple(b for g in grades for b in range(1 << n) if blade_grade(b) == g)


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


def sample_blades(
    sig: Signature, rng: Random, blade_groups: Iterable[tuple[int, ...]], lo: int = -9, hi: int = 9
) -> Multivector:
    """The draw loop of every typed sampler.

    Each group in turn draws one coefficient per blade, in order, uniformly
    from [lo, hi] (zero allowed).  A nonempty group whose draw comes out all
    zero is patched at one random blade, so the result is nonzero on it.
    The groups are disjoint tuples of distinct blades.

    A coefficient is ``lo + r`` with ``r = rng.getrandbits(k)``, drawn again
    while ``r`` is not below the width ``hi - lo + 1`` (k is the width's bit
    length).  That is ``rng.randint(lo, hi)``'s own algorithm on CPython
    3.10-3.13, inlined: the same values and the same state afterwards.
    Raises ``ValueError`` when ``lo > hi``.

    A draw of at least ``_CHUNKED_DRAW_MIN_BLADES`` blades with k <= 32
    takes its words in chunks (:func:`_draw_group`) and is array-born.
    """
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range for a coefficient draw: [{lo}, {hi}]")
    k = width.bit_length()
    # only an algebra of that many blades can hold a draw that large
    if 1 << sig.n >= _CHUNKED_DRAW_MIN_BLADES and k <= 32 and -_INT64_SAFE_BOUND < lo <= hi < _INT64_SAFE_BOUND:
        blade_groups = tuple(blade_groups)
        if sum(map(len, blade_groups)) >= _CHUNKED_DRAW_MIN_BLADES:
            parts = [_draw_group(rng, blades, lo, hi, width, k) for blades in blade_groups if blades]
            return _from_arrays(sig, *(np.concatenate(p) for p in zip(*parts)))
    getrandbits = rng.getrandbits
    coeffs: dict[int, int] = {}
    for blades in blade_groups:
        hit = False
        for b in blades:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            if r != -lo:
                coeffs[b] = lo + r
                hit = True
        if not hit and blades:
            b = rng.choice(blades)
            coeffs[b] = rng.randint(1, max(hi, 1)) * rng.choice((-1, 1))
    return Multivector._make(sig, coeffs)


def _draw_group(rng: Random, blades: tuple[int, ...], lo: int, hi: int, width: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One nonempty group of :func:`sample_blades` drawn in chunks: its nonzero (blades, values) in order.

    ``getrandbits(32 m)`` is m successive 32-bit Mersenne Twister words,
    least significant first (Matsumoto and Nishimura, ACM TOMACS 8, 1998),
    and ``getrandbits(k)`` for k <= 32 is one word shifted right by 32 - k.
    A chunk holds exactly the count of blades still without a value, so the
    draw takes the words the per-blade loop takes, in the same order, and
    leaves the generator in the same state.
    """
    accepted = []
    need = len(blades)
    while need:
        words = np.frombuffer(rng.getrandbits(need << 5).to_bytes(need << 2, "little"), "<u4") >> (32 - k)
        words = words[words < width]
        accepted.append(words)
        need -= len(words)
    values = np.concatenate(accepted).astype(np.int64) + lo
    nonzero = values != 0
    if nonzero.any():
        return _group_array(blades)[nonzero], values[nonzero]
    b = rng.choice(blades)
    return np.array([b], dtype=np.int64), np.array([rng.randint(1, max(hi, 1)) * rng.choice((-1, 1))], dtype=np.int64)


def random_multivector(
    sig: Signature, rng: Random, grades: Iterable[int] | None = None, lo: int = -9, hi: int = 9
) -> Multivector:
    """Random integer-coefficient multivector supported on the given grades.

    The blades of all given grades form one group of :func:`sample_blades`,
    so the result is nonzero unless no grade is given.
    """
    wanted = tuple(range(sig.n + 1)) if grades is None else tuple(sorted(set(grades)))
    for g in wanted:
        if not 0 <= g <= sig.n:
            raise ValueError(f"grade {g} outside 0..{sig.n}")
    return sample_blades(sig, rng, (blades_of_grades(sig.n, wanted),), lo, hi)


# ---------------------------------------------------------------------------
# rendering and JSON


def _format_coeff(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def format_multivector(u) -> str:
    """Canonical display form: terms sorted by grade then blade bits."""
    items = u.terms()
    if not items:
        return "0"
    parts: list[str] = []
    for i, (blade, v) in enumerate(items):
        neg = v < 0
        body = f"{_format_coeff(-v if neg else v)} {blade_name(blade)}"
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def to_obj(u: Multivector) -> dict:
    """JSON-ready form: {"sig": [p, q], "terms": [{"blade": [...], "num": N, "den": D}, ...]}."""
    terms = []
    for blade, v in u.terms():
        f = Fraction(v)
        terms.append({"blade": list(blade_indices(blade)), "num": f.numerator, "den": f.denominator})
    return {"sig": [u.sig.p, u.sig.q], "terms": terms}


def from_obj(obj: Mapping) -> Multivector:
    try:
        p, q = obj["sig"]
        sig = Signature(int(p), int(q))
        coeffs: dict[int, Coeff] = {}
        for term in obj["terms"]:
            num = term["num"]
            den = term["den"]
            if not (isinstance(num, int) and isinstance(den, int)):
                raise ValueError("num/den must be integers")
            if den < 1:
                raise ValueError("denominators must be positive")
            bits = blade_bits(term["blade"])
            coeffs[bits] = coeffs.get(bits, 0) + Fraction(num, den)
        return Multivector(sig, coeffs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed multivector object: {exc}") from exc


def to_json(u: Multivector) -> str:
    return json.dumps(to_obj(u))


def from_json(text: str) -> Multivector:
    return from_obj(json.loads(text))
