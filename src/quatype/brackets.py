"""k-fold commutators/anticommutators and their expansion identities.

The k-fold commutator of U_1..U_k is the forward product minus the product
in reversed order; the anticommutator takes the plus sign.  Every left-nested
chain of two-operand brackets over the same leaves evaluates to a signed sum
of the same two products, and averaging the 2^(k-1) chains (with weight
1/2^(k-1)) reproduces the plain product exactly.  Splitting the chains by
the parity of their commutator tags recovers the k-fold brackets themselves:
an odd number of commutator tags sums (with weight 1/2^(k-2)) to the k-fold
commutator, an even number to the anticommutator.

Reversion reverses products, U_k ... U_1 = (U_1~ ... U_k~)~, and multiplies
a grade-g blade by (-1)^(g(g-1)/2): it fixes the residues 0 and 1 mod 4 and
negates 2 and 3, the bit 1 of the blade's popcount.  When that bit is the
same on every blade of each operand, U_i~ = s_i U_i, and the reversed chain
is ε (U_1 ... U_k)~ with ε = s_1 ... s_k.  Forward ∓ reversed then keeps one
pair of residues of the forward chain and doubles it, so :func:`kfold`
multiplies out that one chain: k - 1 products in place of 2(k - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from . import _accel
from .algebra import _INT64_SAFE_BOUND, Multivector, _from_arrays, geo_mul
from .qtypes import ANTICOMMUTATOR, COMMUTATOR, BracketKind, as_kind, infer_kfold, infer_pair

MAX_TREE_LEAVES = 6  # enumeration cost grows as 2^(k-1) trees


def kfold(kind, us: Sequence[Multivector]) -> Multivector:
    """k-fold bracket: forward product -/+ reversed product, k >= 2.

    When reversion sends every operand to ±itself, read off its blades (a
    zero operand counts as fixed), the reversed chain is ε fwd~ (module
    docstring) and is not multiplied out: the bracket is 2 P(fwd), where P
    keeps the residues {2, 3} for a commutator with ε = 1 or an
    anticommutator with ε = -1, and {0, 1} otherwise.  Both chains are
    multiplied out when some operand has no sign or is resident.  Either
    way the value and its coefficient types are those of forward -/+
    reversed.

    In floats, rounding leaves the forward chain of operands that read the
    same backwards only nearly reversion-symmetric, so their commutator is
    taken as fwd - fwd, exactly zero, as the two chains gave it.
    """
    kind = as_kind(kind)
    if len(us) < 2:
        raise ValueError("k-fold brackets need at least two operands")
    fwd = reduce(geo_mul, us)
    if fwd._approx and kind is COMMUTATOR and us == us[::-1]:
        return fwd - fwd
    eps = 1
    for u in us:
        s = _reversion_sign(u)
        if not s:
            rev = reduce(geo_mul, reversed(us))
            return fwd - rev if kind is COMMUTATOR else fwd + rev
        eps *= s
    return _doubled_part(fwd, 2 if (kind is COMMUTATOR) == (eps == 1) else 0)


def _reversion_sign(u) -> int:
    """s with u~ = s u, read off u's blades: 1 (also for u = 0) or -1; 0 if neither holds, or u is resident."""
    c = u._coeffs
    if c is None:
        if u._arr is None:
            # resident: its blades are not known without reading the matrix
            return 0
        bits = {r & 2 for r in _accel.grade_residues(u._arr[0])}
    elif c and (next(iter(c)).bit_count() ^ next(reversed(c)).bit_count()) & 2:
        # a draw lists its residues in ascending order, so its first and last
        # blades show most operands that mix {0, 1} with {2, 3}
        return 0
    else:
        bits = {b.bit_count() & 2 for b in c}
    return 0 if len(bits) > 1 else -1 if 2 in bits else 1


def _doubled_part(u, bit: int):
    """2 P(u), P keeping the blades whose popcount has bit 1 equal to ``bit``: in u's form and order."""
    c = u._coeffs
    if c is None:
        blades, values, total = u._int64()
        if 2 * total < _INT64_SAFE_BOUND:
            return _from_arrays(u.sig, *_accel.doubled_part(blades, values, bit))
        c = u._dict()
    # twice a Fraction in lowest terms is integral when its denominator is 2,
    # and becomes an int, as every integral exact coefficient is kept
    return u._make(
        u.sig,
        {
            b: int(v + v) if type(v) is Fraction and v.denominator == 2 else v + v
            for b, v in c.items()
            if b.bit_count() & 2 == bit
        },
    )


@dataclass(frozen=True)
class BracketTree:
    """A left-nested bracket chain (((U1 . U2) . U3) ... Uk), tags innermost first."""

    tags: tuple[BracketKind, ...]

    def __post_init__(self) -> None:
        if not self.tags:
            raise ValueError("a bracket tree needs at least one bracket")

    @property
    def leaves(self) -> int:
        return len(self.tags) + 1

    def sign_class(self) -> BracketKind:
        """Which k-fold bracket this tree's class sums to.

        Chains with an odd number of commutator tags reconstruct the k-fold
        commutator; an even number reconstructs the anticommutator.
        """
        odd = sum(1 for t in self.tags if t is COMMUTATOR) & 1
        return COMMUTATOR if odd else ANTICOMMUTATOR

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"U{i + 1}" for i in range(self.leaves)]
        if len(names) != self.leaves:
            raise ValueError(f"need {self.leaves} names, got {len(names)}")
        out = names[0]
        for i, tag in enumerate(self.tags):
            left, right = ("[", "]") if tag is COMMUTATOR else ("{", "}")
            out = f"{left}{out},{names[i + 1]}{right}"
        return out


def enumerate_trees(k: int) -> list[BracketTree]:
    """All 2^(k-1) left-nested bracket chains over k leaves, 2 <= k <= 6.

    Deterministic order: the tag word reads as a binary counter with the
    innermost bracket in the most significant position, all-commutator chain
    first (so k=2 yields [U1,U2] then {U1,U2}).
    """
    if not 2 <= k <= MAX_TREE_LEAVES:
        raise ValueError(f"leaf count must be 2..{MAX_TREE_LEAVES}, got {k}")
    trees = []
    for j in range(1 << (k - 1)):
        tags = tuple(
            ANTICOMMUTATOR if (j >> (k - 2 - i)) & 1 else COMMUTATOR
            for i in range(k - 1)
        )
        trees.append(BracketTree(tags))
    return trees


def eval_tree(tree: BracketTree, us: Sequence[Multivector]) -> Multivector:
    """Evaluate a nested bracket chain bottom-up."""
    if len(us) != tree.leaves:
        raise ValueError(f"tree has {tree.leaves} leaves, got {len(us)} operands")
    acc = us[0]
    for i, tag in enumerate(tree.tags):
        acc = kfold(tag, (acc, us[i + 1]))
    return acc


def expand_product(us: Sequence[Multivector]) -> Multivector:
    """Reconstruct U1 U2 ... Uk as the average of all 2^(k-1) bracket chains: the mean of the two classes."""
    return (expand_kfold(COMMUTATOR, us) + expand_kfold(ANTICOMMUTATOR, us)) * Fraction(1, 2)


def expand_kfold(kind, us: Sequence[Multivector]) -> Multivector:
    """Reconstruct the k-fold bracket from the chains of its sign class."""
    kind = as_kind(kind)
    k = len(us)
    if not 2 <= k <= MAX_TREE_LEAVES:
        raise ValueError(f"operand count must be 2..{MAX_TREE_LEAVES}, got {k}")
    total = Multivector.zero(us[0].sig)
    for tree in enumerate_trees(k):
        if tree.sign_class() is kind:
            total = total + eval_tree(tree, us)
    return total * Fraction(1, 1 << (k - 2))


def class_type_uniformity(kind, types: Sequence[int]) -> int:
    """Common inferred type of every chain in a sign class.

    Folds the two-operand type rule through each chain of the class and
    checks that all chains agree and match the k-fold closed form; a
    disagreement would mean the type formulas are inconsistent.  A chain's
    type is a_1 ⊕ ... ⊕ a_k ⊕ 2·(number of commutator tags), so the chains
    of one sign class, which share that number's parity, agree.
    """
    kind = as_kind(kind)
    k = len(types)
    if not 2 <= k <= MAX_TREE_LEAVES:
        raise ValueError(f"type count must be 2..{MAX_TREE_LEAVES}, got {k}")
    folded = set()
    for tree in enumerate_trees(k):
        if tree.sign_class() is not kind:
            continue
        t = types[0]
        for i, tag in enumerate(tree.tags):
            t = infer_pair(tag, t, types[i + 1])
        folded.add(t)
    expected = infer_kfold(kind, types)
    if folded != {expected}:
        raise AssertionError(
            f"type formulas disagree for {kind} over {tuple(types)}: folded {sorted(folded)}, k-fold {expected}"
        )
    return expected


def product_grade_envelope(j: int, k: int, n: int) -> frozenset[int]:
    """Grades a product of homogeneous grade-j and grade-k elements can reach.

    The range |j-k| .. min(j+k, 2n-j-k) in steps of two; the upper reflection
    accounts for blades running out of fresh generators near grade n.
    """
    if not (0 <= j <= n and 0 <= k <= n):
        raise ValueError(f"grades must lie in 0..{n}")
    top = min(j + k, 2 * n - j - k)
    return frozenset(range(abs(j - k), top + 1, 2))
