"""The quaternion-type lattice and the closed-form type inference rules.

The four subspaces spanned by grades congruent to 0, 1, 2, 3 mod 4 are the
main quaternion types; arbitrary subsets of {0,1,2,3} name the 15 compound
types, with the empty set reserved for the zero element (which belongs to
every type, so "zero ⊆ anything" is literal subset containment).

Inference works on residues: a k-fold commutator of main types a_1..a_k has
type (Σa_i + 1 + (-1)^S) mod 4 with S = Σ_{i<j} a_i a_j, the anticommutator
the same with the opposite sign, and a plain product lands in {0,2} or {1,3}
according to the parity of Σa_i.  On two-bit residues the bracket rule is an
XOR: Σa_i differs from a_1 ⊕ ... ⊕ a_k only by the carries into the 2-bit,
⌊#odd/2⌋ of them, and that count has the parity of S.  So the anticommutator
has type a_1 ⊕ ... ⊕ a_k and the commutator that XOR ⊕ 2.  The
sharp/flat/natural operations are XOR with the masks 2, 1, 3; with the
identity they form the Klein four-group.

Every rule runs on one engine, with :func:`infer_kfold` and
:func:`infer_product` as its cases of main-type operands: a tuple of
operand types reduces to its reach set, the XORs of one residue drawn from
each operand (``_reach``), and each rule reads its type off that set.
Anticommutators read it as is, commutators ⊕ 2, products keep its parities,
Clifford powers are half their own anticommutator.  Exterior products and
powers add grades, so they read the sums mod 4 instead.  The reach sets of
m = 0, 1, 2, ... copies of a type form one short cycle (``_power_reach``), so
a power's type costs the same for any m.  One table, ``_SERIES``, gives the
power parities and sign rule of each elementary function; :func:`series_type`
and :mod:`quatype.powers` read it.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from itertools import combinations_with_replacement
from random import Random
from typing import Iterable, Sequence

from .algebra import (
    ApproxMultivector,
    Multivector,
    Signature,
    blade_name,
    blades_of_grades,
    sample_blades,
)

_RESIDUES = frozenset((0, 1, 2, 3))


class InfeasibleDeclarationError(ValueError):
    """A declared type or rank has no nonzero representative in the algebra."""


class QType(frozenset):
    """A quaternion type: a subset of the residues {0,1,2,3}.

    Singletons are the main types; the empty set is the type of 0 and sits
    at the bottom of the containment order.
    """

    def __new__(cls, members: Iterable[int] = ()):
        members = frozenset(members)
        if not members <= _RESIDUES:
            raise ValueError(f"type members must lie in 0..3, got {sorted(members)}")
        return super().__new__(cls, members)

    def __or__(self, other):
        return QType(frozenset.__or__(self, frozenset(other)))

    def __and__(self, other):
        return QType(frozenset.__and__(self, frozenset(other)))

    def __sub__(self, other):
        return QType(frozenset.__sub__(self, frozenset(other)))

    def render(self) -> str:
        if not self:
            return "⊥"  # bottom: the type of the zero element
        return "".join(f"{t}~" for t in sorted(self))

    @classmethod
    def parse(cls, text: str) -> "QType":
        text = text.strip()
        if text == "⊥":
            return cls()
        members = []
        for ch in text:
            if ch == "~":
                continue
            if ch not in "0123":
                raise ValueError(f"bad type syntax {text!r}")
            members.append(int(ch))
        if not members:
            raise ValueError(f"bad type syntax {text!r}")
        return cls(members)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QType({sorted(self)})"


class BracketKind(enum.Enum):
    COMMUTATOR = "commutator"
    ANTICOMMUTATOR = "anticommutator"

    def __str__(self) -> str:
        return self.value


COMMUTATOR = BracketKind.COMMUTATOR
ANTICOMMUTATOR = BracketKind.ANTICOMMUTATOR


def as_kind(kind) -> BracketKind:
    if isinstance(kind, BracketKind):
        return kind
    if isinstance(kind, str):
        k = kind.strip().lower()
        if k in ("commutator", "comm"):
            return COMMUTATOR
        if k in ("anticommutator", "anti"):
            return ANTICOMMUTATOR
    raise ValueError(f"unknown bracket kind {kind!r}")


# ---------------------------------------------------------------------------
# musical operations


class MusicalOp(enum.Enum):
    """Identity, sharp, flat, natural: XOR of a residue with the mask 0, 2, 1, 3."""

    IDENTITY = "I"
    SHARP = "#"
    FLAT = "b"
    NATURAL = "n"

    @property
    def permutation(self) -> tuple[int, int, int, int]:
        return tuple(t ^ self._mask for t in range(4))

    def apply_residue(self, t: int) -> int:
        if t not in (0, 1, 2, 3):
            raise ValueError(f"residue must be 0..3, got {t}")
        return t ^ self._mask

    @property
    def _mask(self) -> int:
        return _BY_MASK.index(self)

    def __str__(self) -> str:
        return self.value


_BY_MASK = (MusicalOp.IDENTITY, MusicalOp.FLAT, MusicalOp.SHARP, MusicalOp.NATURAL)


def musical_apply(op: MusicalOp, t: QType) -> QType:
    """Apply a musical operation element-wise to a type."""
    return QType(op.apply_residue(m) for m in t)


def musical_compose(a: MusicalOp, b: MusicalOp) -> MusicalOp:
    """Composition a∘b (apply b, then a): the XOR of the masks; the group is the Klein four-group."""
    return _BY_MASK[a._mask ^ b._mask]


# ---------------------------------------------------------------------------
# concrete type of a multivector


# the 16 types, keyed by their residues as a plain frozenset
_INTERNED = {frozenset(t): t for t in (QType(r for r in range(4) if mask >> r & 1) for mask in range(16))}

# s with u~ = s u for every u of a type: reversion multiplies a grade-g blade
# by (-1)^(g(g-1)/2), which fixes the residues 0 and 1 and negates 2 and 3;
# 0 for a type that holds both pairs
REVERSION_SIGN = {t: 1 if t <= {0, 1} else -1 if t <= {2, 3} else 0 for t in _INTERNED.values()}


def qtype_of(u: Multivector) -> QType:
    """Residue classes mod 4 on which u has nonzero grades; empty for u = 0.

    One of 16 shared :class:`QType` objects, so a classification builds none.
    """
    return _INTERNED[u._residues()]


# relative weight below which a float coefficient counts as cancellation noise
_APPROX_TOL = 1e-9


def qtype_of_approx(u: ApproxMultivector) -> QType:
    """Type of a float multivector, ignoring coefficients below ``_APPROX_TOL``.

    The threshold scales with the largest coefficient present, so a residue
    counts only if it carries weight above float cancellation noise.  An
    infinite or NaN coefficient raises ``ValueError``: it has no type.  One
    of the 16 shared :class:`QType` objects, as :func:`qtype_of` returns.
    """
    coeffs = u._dict()
    if not all(map(math.isfinite, coeffs.values())):
        b, v = next((b, v) for b, v in coeffs.items() if not math.isfinite(v))
        raise ValueError(f"non-finite coefficient {v} on {blade_name(b)}: the float evaluation overflowed")
    thresh = _APPROX_TOL * max(1.0, u.max_abs())
    return _INTERNED[frozenset({b.bit_count() & 3 for b, v in coeffs.items() if abs(v) > thresh})]


# ---------------------------------------------------------------------------
# closed-form inference on main types


def _check_main(t: int) -> int:
    if t not in (0, 1, 2, 3):
        raise ValueError(f"main type must be 0..3, got {t}")
    return t


def infer_pair(kind, k: int, l: int) -> int:
    """Type of the commutator/anticommutator of two main types."""
    return infer_kfold(kind, (k, l))


def infer_kfold(kind, types: Sequence[int]) -> int:
    """Type of a k-fold commutator/anticommutator of main types, k >= 2."""
    (residue,) = infer_kfold_set(kind, [(_check_main(t),) for t in types])
    return residue


def infer_product(types: Sequence[int]) -> QType:
    """Type envelope of a product of main types: {0,2} or {1,3} by sum parity."""
    return infer_product_set([(_check_main(t),) for t in types])


def infer_pair_musical(kind, partner: int) -> MusicalOp:
    """The musical operation m with bracket(k, partner) of type m(k) for all k.

    The bracket is XOR-linear in k, so m's mask is the bracket's type at k = 0.
    """
    return _BY_MASK[infer_pair(kind, 0, partner)]


# ---------------------------------------------------------------------------
# inference over compound types: the reach-set engine
#
# Brackets and products are multilinear, so a compound operand contributes
# the union over its member residues.  The type of a residue tuple depends
# only on its XOR (on its sum mod 4 for wedges), so one set of those values
# carries the whole tuple and the sweep stays linear in the operand count.


def _reach(member_sets: Iterable[Iterable[int]], exterior: bool = False) -> frozenset:
    """XORs (sums mod 4 if exterior) of one residue drawn from each operand.

    {0} for no operands; empty when some operand is zero, which annihilates the expression.
    """
    reach = frozenset((0,))
    for members in member_sets:
        members = tuple(members)
        reach = frozenset((x + t) % 4 if exterior else x ^ t for x in reach for t in members)
    return reach


def infer_kfold_set(kind, member_sets: Sequence[Iterable[int]]) -> QType:
    """Union of infer_kfold over all residue tuples drawn from the operands."""
    kind = as_kind(kind)
    if len(member_sets) < 2:
        raise ValueError("k-fold brackets need at least two operands")
    flip = 2 if kind is COMMUTATOR else 0
    return QType(x ^ flip for x in _reach(member_sets))


def infer_product_set(member_sets: Sequence[Iterable[int]]) -> QType:
    """Union of infer_product over all residue tuples drawn from the operands."""
    if not member_sets:
        raise ValueError("empty product")
    return QType(r for x in _reach(member_sets) for r in (x & 1, x & 1 | 2))


def infer_ext_product_set(member_sets: Sequence[Iterable[int]]) -> QType:
    """Type of an exterior product: the sums of residues drawn from the operands."""
    return QType(_reach(member_sets, exterior=True))


@lru_cache(maxsize=None)
def _power_reach(t: frozenset, exterior: bool) -> tuple[tuple[frozenset, ...], int]:
    """Reach sets of m = 0, 1, 2, ... copies of t, and the index where their cycle restarts.

    The m-th entry is the type of an m-th power: a Clifford power is a
    palindromic product, hence half its own m-fold anticommutator, and an
    exterior power lands on the sums.  The list stops before its first
    repeat: at most 4 entries.
    """
    seq = [frozenset((0,))]
    while (reach := _reach((seq[-1], t), exterior)) not in seq:
        seq.append(reach)
    return tuple(seq), seq.index(reach)


def infer_power_set(t: QType, m: int, exterior: bool = False) -> QType:
    """Type of the m-th Clifford (or exterior) power of an element of type t."""
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    seq, cycle = _power_reach(frozenset(t), exterior)
    if m >= len(seq):
        m = cycle + (m - cycle) % (len(seq) - cycle)
    return QType(seq[m])


def power_types_by_parity(t: Iterable[int], exterior: bool = False) -> tuple[QType, QType]:
    """Types reachable by even / odd powers of an element of type t: unions over its power reach sets."""
    return _types_by_parity(frozenset(t), exterior)


@lru_cache(maxsize=None)
def _types_by_parity(t: frozenset, exterior: bool) -> tuple[QType, QType]:
    by_parity = (set(), set())
    for m in range(2 * len(_power_reach(t, exterior)[0])):  # every entry of the cycle at both parities
        by_parity[m & 1].update(infer_power_set(t, m, exterior))
    return QType(by_parity[0]), QType(by_parity[1])


# the five elementary functions: the parities of the powers each one sums,
# and whether the signs of its terms alternate
_SERIES = {
    "exp": ((0, 1), False),
    "sin": ((1,), True),
    "cos": ((0,), True),
    "sinh": ((1,), False),
    "cosh": ((0,), False),
}
SERIES_NAMES = tuple(_SERIES)


def series_rule(name: str) -> tuple[tuple[int, ...], bool]:
    """(parities of the summed powers, alternating signs) of an elementary function."""
    try:
        return _SERIES[name]
    except KeyError:
        raise ValueError(f"unknown series {name!r}") from None


def series_type(name: str, t: Iterable[int], exterior: bool = False) -> QType:
    """Type of exp/sin/cos/sinh/cosh of an element of type t: the union over its powers' parities."""
    parities, _ = series_rule(name)
    by_parity = power_types_by_parity(t, exterior)
    return QType(r for p in parities for r in by_parity[p])


# ---------------------------------------------------------------------------
# tables


def triple_table() -> list[tuple[tuple[int, int, int], int, int, QType]]:
    """All 20 main-type multisets {k,l,m} with their 3-fold bracket types.

    Rows are (types, anticommutator type, commutator type, product envelope),
    in lexicographic order over nondecreasing (k,l,m).
    """
    rows = []
    for types in combinations_with_replacement(range(4), 3):
        anti = infer_kfold(ANTICOMMUTATOR, types)
        comm = infer_kfold(COMMUTATOR, types)
        rows.append((types, anti, comm, QType((anti, comm))))
    return rows


def pair_musical_table() -> list[tuple[BracketKind, int, MusicalOp]]:
    """For each kind and fixed partner type, the musical op acting on the free slot."""
    return [
        (kind, partner, infer_pair_musical(kind, partner))
        for kind in (ANTICOMMUTATOR, COMMUTATOR)
        for partner in range(4)
    ]


def threefold_fixed_table() -> list[tuple[BracketKind, tuple[int, int], MusicalOp]]:
    """3-fold brackets with two fixed main types: the musical op on the free slot."""
    return [
        (kind, pair, _BY_MASK[infer_kfold(kind, (*pair, 0))])
        for kind in (ANTICOMMUTATOR, COMMUTATOR)
        for pair in combinations_with_replacement(range(4), 2)
    ]


def klein_table() -> list[list[MusicalOp]]:
    """The 4x4 composition table of I, sharp, flat, natural."""
    ops = (MusicalOp.IDENTITY, MusicalOp.SHARP, MusicalOp.FLAT, MusicalOp.NATURAL)
    return [[musical_compose(a, b) for b in ops] for a in ops]


# ---------------------------------------------------------------------------
# typed random sampling


def random_of_type(sig: Signature, rng: Random, declaration: QType | int) -> Multivector:
    """Random multivector of a declared type or rank, nonzero in every member residue.

    A type draws each member residue, in ascending order, as one group of
    :func:`~quatype.algebra.sample_blades`: its blades by grade, then by bit
    order.  A rank (an ``int``) draws the blades of that grade, in bit
    order, as one group.  Raises :class:`InfeasibleDeclarationError` when
    some group has no blade in ``sig``.
    """
    return sample_blades(sig, rng, _declared_blade_groups(sig, declaration))


# one sampler: _declared_blade_groups tells a rank from a type
random_of_rank = random_of_type


@lru_cache(maxsize=None)
def _declared_blade_groups(sig: Signature, declaration: QType | int) -> tuple[tuple[int, ...], ...]:
    """The blade groups of a declared type (one per member residue, ascending) or rank (its grade).

    The one feasibility rule: a declaration is feasible in ``sig`` exactly when none of its groups is empty.
    """
    n = sig.n
    if isinstance(declaration, int):
        what, groups = f"rank {declaration}", (blades_of_grades(n, (declaration,)),)
    else:
        members = QType(declaration)
        what = f"type {members.render()}"
        groups = tuple(blades_of_grades(n, tuple(range(r, n + 1, 4))) for r in sorted(members))
    if not all(groups):
        raise InfeasibleDeclarationError(f"{what} is infeasible in {sig}")
    return groups
