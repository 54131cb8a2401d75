"""The quaternion-type lattice and the closed-form type inference rules.

The four subspaces spanned by grades congruent to 0, 1, 2, 3 mod 4 are the
main quaternion types; arbitrary subsets of {0,1,2,3} name the 15 compound
types, with the empty set reserved for the zero element (which belongs to
every type, so "zero ⊆ anything" is literal subset containment).

Inference works on residues: a k-fold commutator of main types a_1..a_k has
type (Σa_i + 1 + (-1)^S) mod 4 with S = Σ_{i<j} a_i a_j, the anticommutator
the same with the opposite sign, and a plain product lands in {0,2} or {1,3}
according to the parity of Σa_i.  The sharp/flat/natural operations permute
the four main types and form a Klein four-group with the identity.

Every rule runs on one engine, with :func:`infer_kfold` and
:func:`infer_product` as its cases of main-type operands: a tuple of
operand types reduces to its residue states (Σ residues mod 4, number of odd
residues mod 4), built one operand at a time by ``_step``, and each rule
reads its type off those states.  k-fold brackets apply the bracket formula
(``_bracket_types``), products take the parity of the total, exterior
products and powers take the totals, Clifford powers are half their own
anticommutator, and the series types (:func:`series_type`) are the unions
over even or odd powers (:func:`power_types_by_parity`).
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
    blade_grade,
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
    """Identity, sharp, flat, natural: involutive permutations of 0..3."""

    IDENTITY = "I"
    SHARP = "#"
    FLAT = "b"
    NATURAL = "n"

    @property
    def permutation(self) -> tuple[int, int, int, int]:
        return _PERMS[self]

    def apply_residue(self, t: int) -> int:
        if t not in (0, 1, 2, 3):
            raise ValueError(f"residue must be 0..3, got {t}")
        return _PERMS[self][t]

    def __str__(self) -> str:
        return self.value


_PERMS = {
    MusicalOp.IDENTITY: (0, 1, 2, 3),
    MusicalOp.SHARP: (2, 3, 0, 1),  # +2 mod 4
    MusicalOp.FLAT: (1, 0, 3, 2),  # 0<->1, 2<->3
    MusicalOp.NATURAL: (3, 2, 1, 0),  # 0<->3, 1<->2
}

_PERM_TO_OP = {perm: op for op, perm in _PERMS.items()}


def musical_apply(op: MusicalOp, t: QType) -> QType:
    """Apply a musical operation element-wise to a type."""
    return QType(op.apply_residue(m) for m in t)


def musical_compose(a: MusicalOp, b: MusicalOp) -> MusicalOp:
    """Composition a∘b (apply b, then a); the group is the Klein four-group."""
    pa, pb = a.permutation, b.permutation
    return _PERM_TO_OP[tuple(pa[pb[k]] for k in range(4))]


# ---------------------------------------------------------------------------
# concrete type of a multivector


def qtype_of(u: Multivector) -> QType:
    """Residue classes mod 4 on which u has nonzero grades; empty for u = 0."""
    return QType(blade_grade(b) % 4 for b in u._coeffs)


# relative weight below which a float coefficient counts as cancellation noise
_APPROX_TOL = 1e-9


def qtype_of_approx(u: ApproxMultivector) -> QType:
    """Type of a float multivector, ignoring coefficients below ``_APPROX_TOL``.

    The threshold scales with the largest coefficient present, so a residue
    counts only if it carries weight above float cancellation noise.  An
    infinite or NaN coefficient raises ``ValueError``: it has no type.
    """
    thresh = _APPROX_TOL * max(1.0, u.max_abs())
    members = set()
    for b, v in u._coeffs.items():
        if not math.isfinite(v):
            raise ValueError(f"non-finite coefficient {v} on {blade_name(b)}: the float evaluation overflowed")
        if abs(v) > thresh:
            members.add(blade_grade(b) % 4)
    return QType(members)


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
    """The musical operation m with bracket(k, partner) of type m(k) for all k."""
    kind = as_kind(kind)
    _check_main(partner)
    perm = tuple(infer_pair(kind, k, partner) for k in range(4))
    return _PERM_TO_OP[perm]


# ---------------------------------------------------------------------------
# inference over compound types: the residue-state engine
#
# Brackets and products are multilinear, so a compound operand contributes
# the union over its member residues.  Only (Σ residues mod 4) and the
# number of odd residues mod 4 matter (S = Σ_{i<j} a_i a_j is odd exactly
# when C(#odd, 2) is), which keeps the sweep linear in the operand count.

_NO_OPERANDS = frozenset(((0, 0),))


def _step(states: frozenset, members: Sequence[int]) -> frozenset:
    """Residue states after one more operand with the given member residues."""
    return frozenset(((s + t) % 4, (c + (t & 1)) % 4) for s, c in states for t in members)


def _residue_states(member_sets: Iterable[Iterable[int]]) -> frozenset:
    """(Σ residues mod 4, #odd residues mod 4) over all residue tuples drawn from the operands.

    Empty when some operand is zero, which annihilates the expression.
    """
    states = _NO_OPERANDS
    for members in member_sets:
        states = _step(states, tuple(members))
    return states


def _bracket_types(kind: BracketKind, states) -> QType:
    """Bracket residue (total + 1 ± (-1)^S) mod 4 of each residue state."""
    out = set()
    for total, odd in states:
        eps = -1 if (odd * (odd - 1) // 2) & 1 else 1
        out.add((total + 1 + eps) % 4 if kind is COMMUTATOR else (total + 1 - eps) % 4)
    return QType(out)


def _power_types(states, exterior: bool) -> QType:
    """Type of an m-th power from the residue states of m copies of its base.

    Wedge products add grades, so an exterior power lands on the state
    totals.  A Clifford power is a palindromic product, hence half its own
    m-fold anticommutator; the formula gives {0} for m = 0 and the base
    type for m = 1 as well.
    """
    if exterior:
        return QType(total for total, _ in states)
    return _bracket_types(ANTICOMMUTATOR, states)


def infer_kfold_set(kind, member_sets: Sequence[Iterable[int]]) -> QType:
    """Union of infer_kfold over all residue tuples drawn from the operands."""
    kind = as_kind(kind)
    if len(member_sets) < 2:
        raise ValueError("k-fold brackets need at least two operands")
    return _bracket_types(kind, _residue_states(member_sets))


def infer_product_set(member_sets: Sequence[Iterable[int]]) -> QType:
    """Union of infer_product over all residue tuples drawn from the operands."""
    if not member_sets:
        raise ValueError("empty product")
    out = QType()
    for parity in {total & 1 for total, _ in _residue_states(member_sets)}:
        out |= QType((parity, parity + 2))
    return out


def infer_ext_product_set(member_sets: Sequence[Iterable[int]]) -> QType:
    """Type of an exterior product: the sums of residues drawn from the operands."""
    return _power_types(_residue_states(member_sets), exterior=True)


def infer_power_set(t: QType, m: int, exterior: bool = False) -> QType:
    """Type of the m-th Clifford (or exterior) power of an element of type t."""
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    return _power_types(_residue_states([t] * m), exterior)


def power_types_by_parity(t: Iterable[int], exterior: bool = False) -> tuple[QType, QType]:
    """Types reachable by even / odd powers of an element of type t.

    The residue states of m copies are periodic in m, so the unions are
    complete once (m mod 2, states) repeats.
    """
    t = tuple(t)
    by_parity = (set(), set())
    states = _NO_OPERANDS
    seen = set()
    m = 0
    while (m & 1, states) not in seen:
        seen.add((m & 1, states))
        by_parity[m & 1].update(_power_types(states, exterior))
        states = _step(states, t)
        m += 1
    return QType(by_parity[0]), QType(by_parity[1])


def series_type(name: str, t: Iterable[int], exterior: bool = False) -> QType:
    """Type of exp/sin/cos/sinh/cosh of an element of type t.

    exp sums every power; sine and sinh keep the odd powers, cosine and
    cosh the even ones.
    """
    even, odd = power_types_by_parity(t, exterior)
    if name == "exp":
        return even | odd
    if name in ("sin", "sinh"):
        return odd
    return even


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
    rows = []
    for kind in (ANTICOMMUTATOR, COMMUTATOR):
        for pair in combinations_with_replacement(range(4), 2):
            perm = tuple(infer_kfold(kind, (pair[0], pair[1], k)) for k in range(4))
            rows.append((kind, pair, _PERM_TO_OP[perm]))
    return rows


def klein_table() -> list[list[MusicalOp]]:
    """The 4x4 composition table of I, sharp, flat, natural."""
    ops = (MusicalOp.IDENTITY, MusicalOp.SHARP, MusicalOp.FLAT, MusicalOp.NATURAL)
    return [[musical_compose(a, b) for b in ops] for a in ops]


# ---------------------------------------------------------------------------
# typed random sampling


@lru_cache(maxsize=None)
def feasible_residues(sig: Signature) -> QType:
    """Residues mod 4 realized by some grade 0..n."""
    return QType(g % 4 for g in range(sig.n + 1))


def random_of_type(sig: Signature, rng: Random, members: QType) -> Multivector:
    """Random multivector of the given type, nonzero in every member residue.

    Each member residue, in ascending order, is one group of
    :func:`~quatype.algebra.sample_blades`: its blades by grade, then by bit
    order.  Raises :class:`InfeasibleDeclarationError` when some member
    residue has no grade <= n.
    """
    return sample_blades(sig, rng, _residue_groups(sig, members))


@lru_cache(maxsize=None)
def _residue_groups(sig: Signature, members: frozenset) -> tuple[tuple[int, ...], ...]:
    """The blade groups of :func:`random_of_type`, checked feasible once per (signature, type)."""
    members = QType(members)
    missing = members - feasible_residues(sig)
    if missing:
        raise InfeasibleDeclarationError(
            f"type {members.render()} has no grade for residue(s) {sorted(missing)} in {sig}"
        )
    n = sig.n
    return tuple(blades_of_grades(n, tuple(range(r, n + 1, 4))) for r in sorted(members))


def random_of_rank(sig: Signature, rng: Random, rank: int) -> Multivector:
    """Random nonzero homogeneous multivector of the given grade."""
    if not 0 <= rank <= sig.n:
        raise InfeasibleDeclarationError(f"rank {rank} is infeasible in {sig}")
    return sample_blades(sig, rng, [blades_of_grades(sig.n, (rank,))])
