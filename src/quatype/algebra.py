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
:func:`from_obj`, ``Multivector.from_exact`` and multiplication by a scalar
check every blade and coefficient.  Arithmetic results, projections, the
typed samplers and the float copy of an exact value
(``ApproxMultivector.from_exact``) are built by the trusted ``_make`` and
keep two invariants without re-checking: no coefficient is zero, and every
integral exact coefficient is an ``int`` (so the next product can take the
int64 kernel).

An exact value holds its coefficients in one of three forms.  A *dict-born*
value keeps the dict, and caches its arrays the first time a dense product
needs them.  An *array-born* value, which the int64 and residue products,
large samples and sums of array-born values return, keeps read-only int64
blade and value arrays with ‖v‖₁ < 2^62 and builds the dict, of Python ints
in array order, only when something reads it.  Dict-born and array-born
values give the same results and the same ``terms()``.  Their iteration
orders need not agree: an int64 or residue product lists its blades
ascending and the sparse loop in the order it first meets them, while draws
and array sums keep the order the dict path gives.  A *resident* value,
which an exact spinor product returns, keeps only its read-only complex128
spinor matrix and a bound L >= ‖v‖₁ with 2 d L < 2^53, d the spinor
dimension.
Its first read (the dict, the arrays, ``len``, ``max_abs``, classification,
a wedge, a product off the spinor route, a scaling) reads its coefficients
off the matrix once, exactly, as arrays in ascending blade order, and
replaces L by the exact ‖v‖₁.  Every value that enters the spinor route
caches its matrix beside its other form.

Every array operation lives in :mod:`quatype._accel`, which the package
binds lazily: it loads, and numpy with it, on the first dense product,
chunked draw or Clifford series.  A product takes one of three routes:

- the spinor route, for a geometric product with a resident operand or of
  at least max(``_DENSE_MIN_PAIRS``, ``_SPINOR_MIN_PAIRS_PER_BLADE`` 2^n)
  blade pairs.  Float operands run there as one complex128 matrix product,
  with no gate since floats need no exactness.  Integer operands run there
  whatever the size of their coefficients: while 2 d ‖u‖₁ ‖v‖₁ < 2^53 (the
  bounds L in place of the norms of resident operands) as one complex128
  matrix product, exact in floats, whose result stays resident; past that,
  as the same product mod a few primes, rebuilt by the Chinese remainder
  theorem, which returns Python ints once ‖u‖₁ ‖v‖₁ reaches 2^62.  A
  resident operand that fails the gate on its bound, or meets a Fraction,
  materializes with the other operand, and the product is routed again on
  their exact norms;
- the int64 blade-pair kernel, for any other integer product of at least
  ``_DENSE_MIN_PAIRS`` pairs with ‖u‖₁ ‖v‖₁ < 2^62;
- the sparse loop, the reference implementation, for the rest: small
  products, Fraction coefficients, float products and wedges off the
  spinor route, and integer products past both gates.

A sum with a resident operand stays resident while 2 d (L_u + L_v) < 2^53,
and so does a negation, and a sum of two array operands with
‖u‖₁ + ‖v‖₁ < 2^62 stays in arrays: the ℓ1 norm is the one bound every
exact route reads.  ``product_paths`` counts the products each route ran
and ``product_pairs`` the blade pairs they multiplied, both keyed
``sparse``, ``int64``, ``float64`` (the float spinor products), ``spinor``
and ``residue``; a spinor product with a resident operand adds no pairs,
since its blade count is not known.
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

from . import _accel

MAX_DIMENSION = 12

Coeff = Union[int, Fraction]

# dense dispatch: below this many blade pairs the sparse dict loop wins.
# Timed on dict-born ±1..9 operands of random blades, their array conversion
# counted (n = 4, 5, 8 and 12, best of 15 x 200 calls, two runs), a geometric
# product takes 15-38 µs sparse against 25-58 µs on the int64 route at 64
# pairs and 20-54 against 25-59 at 96, is level at 128 (26-67 against 28-60)
# and behind from 160 on.  A wedge of 64 to 256 pairs ran faster sparse in 46
# of 48 timings (8-51 µs against 27-65 µs): overlapping pairs cost the sparse
# loop almost nothing
_DENSE_MIN_PAIRS = 128
# the int64 kernel, array sums and array-born values keep every ℓ1 norm, and
# with it every partial sum, under this
_INT64_SAFE_BOUND = 1 << 62
# from this many blade pairs per blade of the algebra a product runs on the
# spinor matrices.  Timed alone on fresh operands, the int64 kernel wins below
# about 4 pairs per blade while the result stays resident and below 8 to 32
# once it is read; a product's result is mostly the next product's operand, and
# check_dense passes run fastest from 8 (README, Product kernel)
_SPINOR_MIN_PAIRS_PER_BLADE = 8
# spinor matrices and their products are exact while 2 d ‖u‖₁ ‖v‖₁ stays below this
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


def sign_word(a, neg_mask: int):
    """w(a) of the sign rule, e_a e_b = (-1)^popcount(w(a) & b) e_{a^b}.

    Blades are bitmaps over the n generators (Dorst, Fontijne and Mann,
    *Geometric Algebra for Computer Science*, ch. 19).  The sign of e_a e_b
    is (-1)^s, where s counts the pairs (i in a, j in b) with i > j plus the
    common generators that square to -1.  Both terms are linear in b over
    GF(2), so s is odd exactly when popcount(w(a) & b) is, with

        w(a) = (a & neg_mask) ^ L(a),  L(a) = XOR over k >= 1 of (a >> k),

    since bit j of L(a) is the parity of a's bits above j.  ``a`` is a blade
    or an int64 array of blades below 2^17: four shift-and-xor doublings
    fold a >> 1 through a >> 16 into L(a).  Every blade-pair path, sparse or
    dense, reads its signs off w.
    """
    t = a >> 1
    t ^= t >> 1
    t ^= t >> 2
    t ^= t >> 4
    t ^= t >> 8
    return t ^ (a & neg_mask)


def blade_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades: (sign, result blade).

    The result blade is ``a ^ b``; the sign folds reordering parity with the
    metric squares of all shared generators, so it is always +1 or -1.
    """
    limit = 1 << sig.n
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade outside {sig}")
    return (-1 if (sign_word(a, sig.neg_mask) & b).bit_count() & 1 else 1), a ^ b


def ext_blade_product(a: int, b: int) -> tuple[int, int]:
    """Exterior product of two basis blades: (sign, blade); sign 0 on overlap."""
    limit = 1 << MAX_DIMENSION
    if not (0 <= a < limit and 0 <= b < limit):
        raise ValueError(f"blade outside the algebras with up to {MAX_DIMENSION} generators")
    if a & b:
        return 0, 0
    return (-1 if (sign_word(a, 0) & b).bit_count() & 1 else 1), a | b


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
    get = out.get
    for a, x in ca.items():
        w = sign_word(a, neg_mask)
        # two copies of the inner loop, so the geometric one runs without the overlap test
        if exterior:
            for b, y in cb.items():
                if a & b:
                    continue
                key = a ^ b
                v = x * y
                cur = get(key, 0)
                out[key] = cur - v if (w & b).bit_count() & 1 else cur + v
        else:
            for b, y in cb.items():
                key = a ^ b
                v = x * y
                cur = get(key, 0)
                out[key] = cur - v if (w & b).bit_count() & 1 else cur + v
    return _clean(out)


def _from_arrays(sig: Signature, blades, values) -> "Multivector":
    """Trusted construction of an array-born value: int64 arrays, no zero value, Σ |value| < 2^62."""
    u = object.__new__(Multivector)
    u.sig = sig
    u._coeffs = None
    u._arr = _accel.int_slot(blades, values)
    u._spin = None
    return u


def _resident(sig: Signature, m, bound: int) -> "Multivector":
    """Trusted construction of a resident value: its exact spinor matrix ``m`` and a ``bound`` >= its ℓ1 norm, within the gate."""
    m.flags.writeable = False
    u = object.__new__(Multivector)
    u.sig = sig
    u._coeffs = u._arr = None
    u._spin = (m, bound)
    return u


def _spinor_exact(sig: Signature, bound: int) -> bool:
    """2 d ``bound`` < 2^53, d = 2^ceil(n/2): the gate that keeps spinor matrices of that ℓ1 bound exact.

    Each Γ_b is a signed monomial matrix of units, so a row of the matrix
    of u sums to at most ‖u‖₁ in |Re| + |Im|, and an entry is at most ‖u‖₁.
    A product U V then keeps every partial sum within ‖u‖₁ ‖v‖₁ and a trace
    within d times that, in any summation order; a 3M complex multiply
    subtracts two such sums, hence the 2.  Every float on the way is an
    integer below 2^53, so U V is the exact matrix of u v, and the bound
    L_u L_v of a resident product, or L_u + L_v of a sum, serves the next
    product as its norm would.  Reading a matrix back sums d entries of it
    per trace, within d L.
    """
    return bound << ((sig.n + 3) >> 1) < _SPINOR_EXACT_BOUND


def _bound(u) -> int | None:
    """A bound on ‖u‖₁ of an exact value: a resident one's, else its exact Σ |v|; ``None`` if it holds a Fraction."""
    s = u._spin
    if s:
        return s[1]
    arr = u._int64()
    return arr[2] if arr else None


def _matrix(u):
    """The spinor matrix of an exact value within the gate, converted from its int64 arrays and cached on the first call."""
    s = u._spin
    if s is None:
        sig = u.sig
        blades, values, total = u._arr
        m = _accel.to_spinor(blades, values, sig.neg_mask, sig.n)
        m.flags.writeable = False
        s = u._spin = (m, total)
    return s[0]


def _product(u, v, exterior: bool):
    """u v, or u ∧ v with ``exterior``: two multivectors of one signature and class.

    One decision with three outcomes: the spinor route, the int64 kernel or
    the sparse loop, as the module docstring sets out.
    """
    sig = u.sig
    ca, cb = u._coeffs, v._coeffs
    resident = not exterior and (ca is None and u._arr is None or cb is None and v._arr is None)
    # a resident operand's blade count is not known
    pairs = 0 if resident else (len(u._int64()[0]) if ca is None else len(ca)) * (len(v._int64()[0]) if cb is None else len(cb))
    if not pairs and not resident:
        return u._make(sig, {})
    w = None
    if resident or pairs >= _DENSE_MIN_PAIRS and not exterior and pairs >= _SPINOR_MIN_PAIRS_PER_BLADE << sig.n:
        if u._approx:
            # floats need no exactness, so no gate
            path, w = "float64", u._make(sig, _accel.product_float(ca, cb, sig.neg_mask, sig.n))
        else:
            lu = _bound(u)
            bound = None if lu is None or (lv := _bound(v)) is None else lu * lv
            if bound is not None and _spinor_exact(sig, bound):
                path, w = "spinor", _resident(sig, _matrix(u) @ _matrix(v), bound)
            elif resident:
                # past the gate on bounds, or beside a Fraction: both operands
                # materialize and take the route their exact norms give
                u._int64(), v._int64()
                return _product(u, v, exterior)
            elif bound is not None and bound < _accel.RESIDUE_LIMIT:
                (ia, va, _), (ib, vb, _) = u._int64(), v._int64()
                out = _accel.product_residue(ia, va, ib, vb, sig.neg_mask, sig.n, bound)
                path = "residue"
                if out.dtype == object:  # Python ints once the bound reaches 2^62
                    w = u._make(sig, _accel.dense_coeffs(out))
                else:
                    w = _from_arrays(sig, *_accel.nonzero(out))
    elif pairs >= _DENSE_MIN_PAIRS and not u._approx:
        a = u._int64()
        b = a and v._int64()
        if b and a[2] * b[2] < _INT64_SAFE_BOUND:
            out = _accel.product_dense(a[0], a[1], b[0], b[1], sig.neg_mask, sig.n, exterior=exterior)
            path, w = "int64", _from_arrays(sig, *_accel.nonzero(out))
    if w is None:
        path, w = "sparse", u._make(sig, _mul_sparse(ca or u._dict(), cb or v._dict(), sig.neg_mask, exterior))
    product_paths[path] += 1
    product_pairs[path] += pairs
    return w


# ---------------------------------------------------------------------------
# multivectors


class _MultivectorBase:
    """Sparse multivector over one coefficient domain; zero coefficients are never stored.

    Subclasses fix the domain: ``_coeff`` validates and normalises one
    outside coefficient, ``_one`` and ``_zero`` are its unit and zero,
    ``_scalar_types`` are the scalars ``*`` accepts and ``_approx`` selects
    the float route of the products: spinor matrices past the threshold,
    with no exactness gate, and the sparse path below it.

    ``_coeffs`` is the coefficient dict, ``_arr`` the array form and
    ``_spin`` the spinor form (see the module docstring).  ``_arr`` is
    ``None`` until a dense product asks for it, then
    ``(blades, values, Σ |v|)`` with int64 blades and Σ |v| an exact int,
    or ``False`` when some value is a Fraction.  The values are int64
    while Σ |v| < 2^62, and Python ints in an object array from there,
    which only the residue route reads.  ``_spin`` is ``None``
    until the spinor route asks for it, then ``(matrix, L)``, L >= Σ |v|
    and exactly Σ |v| once the arrays exist.  An array-born value starts
    with ``_coeffs = None`` and builds the dict on its first :meth:`_dict`;
    a resident value starts with ``_arr = None`` as well and builds the
    arrays on its first :meth:`_int64`.  All three are plain slots: a
    property would slow every dict-born access.
    """

    __slots__ = ("sig", "_coeffs", "_arr", "_spin")

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
        self._arr = self._spin = None

    @classmethod
    def _make(cls, sig: Signature, coeffs: dict):
        """Trusted construction: ``coeffs`` already keeps both invariants."""
        u = object.__new__(cls)
        u.sig = sig
        u._coeffs = coeffs
        u._arr = u._spin = None
        return u

    def _dict(self) -> dict:
        """The coefficient dict; an array-born value builds it once, Python ints in array order."""
        c = self._coeffs
        if c is None:
            blades, values = self._int64()[:2]
            c = self._coeffs = dict(zip(blades.tolist(), values.tolist()))
        return c

    def _residues(self) -> frozenset:
        """The residues mod 4 of the grades u holds: read off its dict, else off its arrays, which a resident value builds."""
        c = self._coeffs
        if c is None:
            return frozenset(_accel.grade_residues(self._int64()[0]))
        return frozenset({b.bit_count() & 3 for b in c})

    def _select(self, grades: int, scale: int = 1):
        """``scale`` times the part of u on the grades set in the bitmask ``grades`` (bit g for grade g), in u's form and order.

        An array-born or resident u stays in arrays while |scale| ‖u‖₁ < 2^62.
        Past that, and for a dict-born u, the dict is filtered and scaled, and
        integral Fractions become ints, as :func:`_clean` keeps them.
        """
        c = self._coeffs
        if c is None:
            blades, values, total = self._int64()
            if abs(scale) * total < _INT64_SAFE_BOUND:
                return _from_arrays(self.sig, *_accel.select(blades, values, grades, scale))
            c = self._dict()
        return self._make(
            self.sig,
            {
                b: int(x) if type(x := v * scale) is Fraction and x.denominator == 1 else x
                for b, v in c.items()
                if grades >> b.bit_count() & 1
            },
        )

    def _int64(self):
        """The ``_arr`` slot, converting the dict, or a resident value's matrix, on the first call."""
        arr = self._arr
        if arr is None:
            c = self._coeffs
            if c is None:
                # resident: the traces are exact integers under the gate, and
                # the exact Σ |v| replaces the bound
                sig, m = self.sig, self._spin[0]
                out = _accel.from_spinor(m, sig.neg_mask, sig.n).astype("int64")
                arr = _accel.int_slot(*_accel.nonzero(out))
                self._spin = (m, arr[2])
            else:
                arr = _accel.dict_slot(c)
            self._arr = arr
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
            values = self._int64()[1]
            return max(int(values.max()), -int(values.min())) if len(values) else 0
        return max(map(abs, c.values()), default=self._zero)

    def __len__(self) -> int:
        c = self._coeffs
        return len(self._int64()[0]) if c is None else len(c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.sig is other.sig or self.sig == other.sig) and self._dict() == other._dict()

    __hash__ = None

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sig}, {format_multivector(self)})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_sig(self, other) -> None:
        # the identity test skips the dataclass __eq__ for operands of one Signature object
        if self.sig is not other.sig and self.sig != other.sig:
            raise SignatureMismatchError(f"cannot combine {self.sig} with {other.sig}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_sig(other)
        a, b = self._arr, other._arr
        if a is None and self._coeffs is None or b is None and other._coeffs is None:
            # a resident operand: the sum stays resident while the bounds pass the gate
            lu, lv = _bound(self), _bound(other)
            if lu is not None and lv is not None and _spinor_exact(self.sig, lu + lv):
                return _resident(self.sig, _matrix(self) + _matrix(other), lu + lv)
            a, b = self._int64(), other._int64()
        if a and b and a[2] + b[2] < _INT64_SAFE_BOUND:
            return _from_arrays(self.sig, *_accel.sum_arrays(self.sig.n, a, b))
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
            if self._arr is None:
                m, bound = self._spin
                return _resident(self.sig, -m, bound)
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
    """u**m under the geometric (``operator.mul``) or exterior (``operator.xor``) product, by squaring.

    The result starts from the square at m's lowest set bit, never from the unit:
    m >= 1 takes bit_length(m) - 1 squarings and popcount(m) - 1 other products.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if not m:
        return u._make(u.sig, {0: u._one})
    while not m & 1:
        u = mul(u, u)
        m >>= 1
    result = u
    while m := m >> 1:
        u = mul(u, u)
        if m & 1:
            result = mul(result, u)
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

    @classmethod
    def from_exact(cls, u: "Multivector"):
        """The exact multivector u with float coefficients, dropping those that round to 0.0."""
        if type(u) is cls:
            return u
        # u's dict already keeps the blades in range and holds no zero
        return cls._make(u.sig, {b: f for b, v in u._dict().items() if (f := float(v))})


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
    return u._select(1 << k)


def parity_split(u: Multivector) -> tuple[Multivector, Multivector]:
    """Split into (even, odd) grade parts; the two sum back to u."""
    # 0x1555 sets the even grades 0..MAX_DIMENSION
    return u._select(0x1555), u._select(0x1555 << 1)


def qtype_project(u: Multivector, t: int) -> Multivector:
    """Keep the grades congruent to t mod 4; the four projections sum to u."""
    if t not in (0, 1, 2, 3):
        raise ValueError(f"residue class must be 0..3, got {t}")
    # 0x1111 sets the grades 0, 4, 8 and 12, the residue 0 up to MAX_DIMENSION
    return u._select(0x1111 << t)


# ---------------------------------------------------------------------------
# random generation: every sampler draws through sample_blades


@lru_cache(maxsize=None)
def blades_of_grades(n: int, grades: tuple[int, ...]) -> tuple[int, ...]:
    """Blades of an n-generator algebra with the given grades: by grade in that order, then by bit order."""
    return tuple(b for g in grades for b in range(1 << n) if blade_grade(b) == g)


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
    and max(|lo|, |hi|) 2^n < 2^62, which keeps its ℓ1 norm below 2^62,
    takes its words in chunks (:func:`quatype._accel.draw`) and is
    array-born: each chunk is one ``getrandbits`` call for exactly the words
    its group still needs, and chunks are drawn down to the last word.
    Either way the values and the generator's state afterwards are the
    same, and an all-zero group is patched by :func:`_patch_zero_group`.
    """
    width = hi - lo + 1
    if width <= 0:
        raise ValueError(f"empty range for a coefficient draw: [{lo}, {hi}]")
    k = width.bit_length()
    # only an algebra of that many blades can hold a draw that large
    if 1 << sig.n >= _CHUNKED_DRAW_MIN_BLADES and k <= 32 and max(-lo, hi) << sig.n < _INT64_SAFE_BOUND:
        blade_groups = tuple(blade_groups)
        if sum(map(len, blade_groups)) >= _CHUNKED_DRAW_MIN_BLADES:
            return _from_arrays(sig, *_accel.draw(rng, blade_groups, lo, hi, width, k))
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
            b, v = _patch_zero_group(rng, blades, hi)
            coeffs[b] = v
    return Multivector._make(sig, coeffs)


def _patch_zero_group(rng: Random, blades: tuple[int, ...], hi: int) -> tuple[int, int]:
    """The one term that patches a group whose draw came out all zero: a random blade and a nonzero value."""
    return rng.choice(blades), rng.randint(1, max(hi, 1)) * rng.choice((-1, 1))


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


def _plain_int(value, what: str) -> int:
    """``value`` if it is an ``int`` and not a ``bool``; a JSON float, string or boolean raises ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def from_obj(obj: Mapping) -> Multivector:
    """The multivector of a :func:`to_obj` object; every p, q, blade index, num and den must be an ``int``."""
    try:
        p, q = obj["sig"]
        sig = Signature(_plain_int(p, "p"), _plain_int(q, "q"))
        coeffs: dict[int, Coeff] = {}
        for term in obj["terms"]:
            num = _plain_int(term["num"], "num")
            den = _plain_int(term["den"], "den")
            if den < 1:
                raise ValueError("denominators must be positive")
            bits = blade_bits([_plain_int(a, "blade index") for a in term["blade"]])
            coeffs[bits] = coeffs.get(bits, 0) + Fraction(num, den)
        return Multivector(sig, coeffs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed multivector object: {exc}") from exc


def to_json(u: Multivector) -> str:
    return json.dumps(to_obj(u))


def from_json(text: str) -> Multivector:
    return from_obj(json.loads(text))
