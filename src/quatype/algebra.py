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

Products of at least ``_DENSE_MIN_PAIRS`` blade pairs run on the dense
kernel in :mod:`quatype._accel`: float64 for approximate operands, and int64
for integer operands whose coefficient bound is provably safe against int64
overflow.  The sparse path is the reference implementation and the only one
that handles Fraction coefficients and big integers.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Mapping, Union

import numpy as np

from . import _accel

MAX_DIMENSION = 12

Coeff = Union[int, Fraction]

# dense dispatch: below this many blade pairs the sparse dict loop wins
_DENSE_MIN_PAIRS = 64
# any product whose coefficient bound stays under this is int64-safe
_INT64_SAFE_BOUND = 1 << 62


class SignatureMismatchError(ValueError):
    """Operands constructed over different algebras were combined."""


@dataclass(frozen=True)
class Signature:
    """The algebra Cl(p,q): p generators square to +1, q to -1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("generator counts must be nonnegative")
        if not 1 <= self.p + self.q <= MAX_DIMENSION:
            raise ValueError(f"need 1 <= p+q <= {MAX_DIMENSION}, got p+q={self.p + self.q}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def neg_mask(self) -> int:
        """Bit mask of the generators squaring to -1."""
        return ((1 << self.n) - 1) ^ ((1 << self.p) - 1)

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


def _int_bound(coeffs: dict) -> int | None:
    """Max abs value if every coefficient is an int, else None."""
    m = 0
    for v in coeffs.values():
        if not isinstance(v, int):
            return None
        if v < 0:
            v = -v
        if v > m:
            m = v
    return m


def _blade_arrays(coeffs: dict, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A coefficient dict as int64 blade and ``dtype`` value arrays, for the dense kernel."""
    return np.fromiter(coeffs.keys(), np.int64, len(coeffs)), np.fromiter(coeffs.values(), dtype, len(coeffs))


def _dense_coeffs(out: np.ndarray) -> dict:
    """The nonzero entries of a dense length-2^n coefficient array, as a coefficient dict."""
    nz = np.flatnonzero(out)
    return dict(zip(nz.tolist(), out[nz].tolist()))


def _mul_dense(ca: dict, cb: dict, sig: Signature, exterior: bool, dtype) -> dict:
    ia, va = _blade_arrays(ca, dtype)
    ib, vb = _blade_arrays(cb, dtype)
    return _dense_coeffs(_accel.product_dense(ia, va, ib, vb, sig.neg_mask, sig.n, exterior=exterior))


def _mul_coeffs(ca: dict, cb: dict, sig: Signature, exterior: bool, approx: bool) -> dict:
    if not ca or not cb:
        return {}
    if len(ca) * len(cb) >= _DENSE_MIN_PAIRS:
        if approx:
            # float overflow surfaces as inf/NaN, which classification reports;
            # the int64 path below cannot overflow within its bound
            with np.errstate(over="ignore", invalid="ignore"):
                return _mul_dense(ca, cb, sig, exterior, np.float64)
        ma = _int_bound(ca)
        mb = _int_bound(cb) if ma is not None else None
        if mb is not None and ma * mb * min(len(ca), len(cb)) < _INT64_SAFE_BOUND:
            return _mul_dense(ca, cb, sig, exterior, np.int64)
    return _mul_sparse(ca, cb, sig.neg_mask, exterior)


# ---------------------------------------------------------------------------
# multivectors


class _MultivectorBase:
    """Sparse multivector over one coefficient domain; zero coefficients are never stored.

    Subclasses fix the domain: ``_coeff`` validates and normalises one
    outside coefficient, ``_one`` and ``_zero`` are its unit and zero,
    ``_scalar_types`` are the scalars ``*`` accepts and ``_approx`` selects
    the float64 dense kernel.
    """

    __slots__ = ("sig", "_coeffs")

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

    @classmethod
    def _make(cls, sig: Signature, coeffs: dict):
        """Trusted construction: ``coeffs`` already keeps both invariants."""
        u = object.__new__(cls)
        u.sig = sig
        u._coeffs = coeffs
        return u

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
        return u if type(u) is cls else cls(u.sig, u._coeffs)

    # -- inspection --------------------------------------------------------

    def coefficient(self, blade: int):
        return self._coeffs.get(blade, self._zero)

    def terms(self) -> list[tuple]:
        """(blade, coefficient) pairs sorted by grade then blade bits."""
        return sorted(self._coeffs.items(), key=lambda kv: (blade_grade(kv[0]), kv[0]))

    def grades(self) -> frozenset[int]:
        return frozenset(blade_grade(b) for b in self._coeffs)

    def max_abs(self):
        return max((abs(v) for v in self._coeffs.values()), default=self._zero)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sig == other.sig and self._coeffs == other._coeffs

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
        out = dict(self._coeffs)
        for b, v in other._coeffs.items():
            out[b] = out.get(b, 0) + v
        return self._make(self.sig, _clean(out))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._make(self.sig, {b: -v for b, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._require_same_sig(other)
            return self._make(self.sig, _mul_coeffs(self._coeffs, other._coeffs, self.sig, False, self._approx))
        if isinstance(other, self._scalar_types):
            f = self._coeff(other)
            return self._make(self.sig, _clean({b: v * f for b, v in self._coeffs.items()}))
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
        return self._make(self.sig, _mul_coeffs(self._coeffs, other._coeffs, self.sig, True, self._approx))

    def __pow__(self, m: int):
        if not isinstance(m, int) or m < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._make(self.sig, {0: self._one})
        base = self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
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
    return u._make(u.sig, {b: v for b, v in u._coeffs.items() if blade_grade(b) == k})


def parity_split(u: Multivector) -> tuple[Multivector, Multivector]:
    """Split into (even, odd) grade parts; the two sum back to u."""
    even: dict = {}
    odd: dict = {}
    for b, v in u._coeffs.items():
        (odd if blade_grade(b) & 1 else even)[b] = v
    return u._make(u.sig, even), u._make(u.sig, odd)


def qtype_project(u: Multivector, t: int) -> Multivector:
    """Keep the grades congruent to t mod 4; the four projections sum to u."""
    if t not in (0, 1, 2, 3):
        raise ValueError(f"residue class must be 0..3, got {t}")
    return u._make(u.sig, {b: v for b, v in u._coeffs.items() if blade_grade(b) % 4 == t})


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
    """
    randint = rng.randint
    coeffs: dict[int, int] = {}
    for blades in blade_groups:
        hit = False
        for b in blades:
            v = randint(lo, hi)
            if v:
                coeffs[b] = v
                hit = True
        if not hit and blades:
            b = rng.choice(blades)
            coeffs[b] = rng.randint(1, max(hi, 1)) * rng.choice((-1, 1))
    return Multivector._make(sig, coeffs)


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
