import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from quatype import algebra
from quatype.algebra import ApproxMultivector, Multivector, Signature, grade_project, random_multivector, sample_blades
from quatype.brackets import (
    BracketTree,
    class_type_uniformity,
    enumerate_trees,
    eval_tree,
    expand_kfold,
    expand_product,
    kfold,
    product_grade_envelope,
)
from quatype.dsl import check
from quatype.qtypes import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    QType,
    _declared_blade_groups,
    infer_kfold,
    qtype_of,
    random_of_type,
)

CL30 = Signature(3, 0)


# ---------------------------------------------------------------------------
# a free noncommuting-word algebra: the symbolic oracle for the expansions


class Words(dict):
    """Integer combinations of words over abstract noncommuting symbols."""

    def __mul__(self, other):
        out = Words()
        for wa, ca in self.items():
            for wb, cb in other.items():
                key = wa + wb
                out[key] = out.get(key, 0) + ca * cb
        return out

    def __add__(self, other):
        out = Words(self)
        for w, c in other.items():
            out[w] = out.get(w, 0) + c
        return Words({w: c for w, c in out.items() if c})

    def __sub__(self, other):
        return self + Words({w: -c for w, c in other.items()})

    def scaled(self, k):
        return Words({w: k * c for w, c in self.items()})


def sym(i):
    return Words({(i,): 1})


def word_bracket(kind, a, b):
    return a * b - b * a if kind is COMMUTATOR else a * b + b * a


def word_eval_tree(tree, leaves):
    acc = leaves[0]
    for i, tag in enumerate(tree.tags):
        acc = word_bracket(tag, acc, leaves[i + 1])
    return acc


def word_chain(leaves):
    acc = leaves[0]
    for w in leaves[1:]:
        acc = acc * w
    return acc


# ---------------------------------------------------------------------------
# kfold


def test_kfold_examples():
    rng = random.Random(0)
    u = random_multivector(CL30, rng)
    assert kfold(COMMUTATOR, [u, u]) == Multivector.zero(CL30)

    s2 = Signature(2, 0)
    e1 = Multivector.generator(s2, 1)
    e2 = Multivector.generator(s2, 2)
    assert kfold(ANTICOMMUTATOR, [e1, e2]) == Multivector.zero(s2)

    es = [Multivector.generator(CL30, i) for i in (1, 2, 3)]
    # e321 reverses a 3-blade with sign (-1)^(3*2/2) = -1, so [e1,e2,e3] = 2 e123
    assert kfold(COMMUTATOR, es) == Multivector.blade(CL30, [1, 2, 3], 2)
    with pytest.raises(ValueError):
        kfold(COMMUTATOR, [u])


def test_kfold_reversal_identity():
    rng = random.Random(4)
    for sig in [Signature(2, 1), Signature(4, 0)]:
        for k in (2, 3, 4, 5):
            us = [random_multivector(sig, rng) for _ in range(k)]
            fwd = us[0]
            for u in us[1:]:
                fwd = fwd * u
            rev = us[-1]
            for u in reversed(us[:-1]):
                rev = rev * u
            anti = kfold(ANTICOMMUTATOR, us)
            comm = kfold(COMMUTATOR, us)
            assert anti + comm == 2 * fwd
            assert anti - comm == 2 * rev


def _typed_terms(w):
    # the coefficients with their types, as byte-equal values share them
    return sorted((b, type(v), v) for b, v in w._dict().items())


def _explicit_kfold(kind, us):
    fwd = reduce(operator.mul, us)
    rev = reduce(operator.mul, us[::-1])
    return fwd - rev if kind is COMMUTATOR else fwd + rev


# declarations whose blades reversion fixes (1~, 0~1~), negates (2~, 2~3~)
# or treats alike by grade (a rank)
_SIGNED = (QType({1}), QType({2}), QType({0, 1}), QType({2, 3}), "rank")


def _draw(sig, rng, declaration, lo=-9, hi=9):
    if declaration == "rank":
        declaration = rng.randrange(sig.n + 1)
    return sample_blades(sig, rng, _declared_blade_groups(sig, declaration), lo, hi)


def _in_form(u, form):
    """u as a dict-born, array-born, resident or float value."""
    sig = u.sig
    if form == "float":
        return ApproxMultivector.from_exact(u)
    copy = Multivector(sig, u._dict())
    if form == "dict":
        return copy
    blades, values, total = copy._int64()
    if form == "array":
        return algebra._from_arrays(sig, blades, values)
    return algebra._resident(sig, algebra._matrix(copy), total)


@pytest.mark.parametrize("form", ["dict", "array", "resident", "float"])
@pytest.mark.parametrize("sig", [Signature(3, 0), Signature(2, 1), Signature(0, 4), Signature(5, 3), Signature(12, 0)], ids=str)
def test_kfold_of_signed_operands_equals_both_chains(sig, form, monkeypatch):
    # every k-fold bracket of operands that reversion fixes or negates, in
    # each form, byte-equals forward -/+ reversed multiplied out with * on
    # dict-born (or float) copies.  Every form, a resident one included, runs
    # one chain, k - 1 products.  Float operands hold small integers, so every
    # product and sum on the way is exact: 2 d Π ‖u_i‖₁ < 2^53, which at
    # n = 12 holds to k = 3
    rng = random.Random(sig.p * 13 + sig.q)
    lo, hi = (-2, 2) if form == "float" else (-9, 9)
    ks = (2, 3) if form == "float" and sig.n == 12 else (2, 3, 4, 5)
    cases = 0
    for k in ks:
        for start in range(len(_SIGNED)):
            exact = [_draw(sig, rng, _SIGNED[(start + i) % len(_SIGNED)], lo, hi) for i in range(k)]
            refs = [_in_form(u, "float" if form == "float" else "dict") for u in exact]
            if form == "float":
                assert 2 * (1 << ((sig.n + 1) >> 1)) * math.prod(u._int64()[2] for u in exact) < 1 << 53
            for kind in (COMMUTATOR, ANTICOMMUTATOR):
                us = [_in_form(u, form) for u in exact]
                monkeypatch.setattr(algebra, "product_paths", Counter())
                w = kfold(kind, us)
                assert sum(algebra.product_paths.values()) == k - 1
                assert _typed_terms(w) == _typed_terms(_explicit_kfold(kind, refs)), (k, start, kind)
                cases += 1
    assert cases == 2 * len(_SIGNED) * len(ks)


@pytest.mark.parametrize("form", ["dict", "array", "float"])
def test_kfold_with_a_mixed_or_zero_operand(form, monkeypatch):
    # an operand on 0~ and 2~ is neither fixed nor negated by reversion, so
    # both chains run; a zero operand counts as fixed and gives zero
    rng = random.Random(30)
    for sig in (Signature(3, 0), Signature(2, 2)):
        for k in (2, 3, 4, 5):
            exact = [_draw(sig, rng, _SIGNED[i % len(_SIGNED)]) for i in range(k)]
            exact[k // 2] = random_of_type(sig, rng, QType({0, 2}))
            for kind in (COMMUTATOR, ANTICOMMUTATOR):
                us = [_in_form(u, form) for u in exact]
                monkeypatch.setattr(algebra, "product_paths", Counter())
                w = kfold(kind, us)
                assert sum(algebra.product_paths.values()) == 2 * (k - 1)
                refs = [_in_form(u, "float" if form == "float" else "dict") for u in exact]
                assert _typed_terms(w) == _typed_terms(_explicit_kfold(kind, refs))
                us[k // 2] = us[k // 2] * 0
                zero = kfold(kind, us)
                assert not zero and type(zero) is type(us[0])


def test_kfold_product_count():
    # a bracket of operands that reversion fixes or negates multiplies out one
    # chain, k - 1 products; one operand on 0~ and 2~ takes both, 2(k - 1)
    rng = random.Random(31)
    sig = Signature(3, 1)
    for k in (2, 3, 4, 5):
        signed = [random_of_type(sig, rng, QType({i % 4})) for i in range(1, k + 1)]
        mixed = [*signed[:-1], random_of_type(sig, rng, QType({0, 2}))]
        for us, products in ((signed, k - 1), (mixed, 2 * (k - 1))):
            for kind in (COMMUTATOR, ANTICOMMUTATOR):
                before = sum(algebra.product_paths.values())
                kfold(kind, us)
                assert sum(algebra.product_paths.values()) - before == products, (k, kind)


def test_doubled_part_stays_in_arrays_below_the_bound():
    # the selector doubles an array-born or resident forward chain's part on
    # residues {0, 1} or {2, 3} (grade bitmask 0x3333 shifted by 0 or 2) on its
    # arrays, and it stays array-born while twice its ℓ1 norm, 2 · 256 · scale
    # here, is below 2^62
    sig = Signature(4, 4)
    blades = np.arange(1 << sig.n, dtype=np.int64)
    for scale, born_as_arrays in ((1, True), ((1 << 53) - 1, True), (1 << 53, False)):
        values = np.where(blades & 1, -scale, scale)
        u = algebra._from_arrays(sig, blades, values)
        for bit in (0, 2):
            w = u._select(0x3333 << bit, 2)
            assert (w._coeffs is None) == born_as_arrays
            assert w._dict() == {b: 2 * v for b, v in zip(blades.tolist(), values.tolist()) if b.bit_count() & 2 == bit}
    u = Multivector(sig, {b: b % 7 - 3 for b in range(1 << sig.n)})
    total = u._int64()[2]
    resident = algebra._resident(sig, algebra._matrix(u), total)
    w = resident._select(0x3333 << 2, 2)
    assert w._coeffs is None and w._arr is not None
    assert _typed_terms(w) == sorted((b, int, 2 * v) for b, v in u._dict().items() if b.bit_count() & 2)


def test_kfold_doubled_fraction_is_an_int():
    # [e1/2, e2] = e12: the doubled Fraction comes back as the int 1, as every
    # integral exact coefficient does
    sig = Signature(2, 0)
    half = Multivector(sig, {0b01: Fraction(1, 2)})
    w = kfold(COMMUTATOR, [half, Multivector.generator(sig, 2)])
    assert w._dict() == {0b11: 1} and type(w.coefficient(0b11)) is int
    w = kfold(ANTICOMMUTATOR, [half, Multivector(sig, {0b10: Fraction(3, 4)})])
    assert w == Multivector.zero(sig)
    w = kfold(ANTICOMMUTATOR, [half, Multivector(sig, {0b01: Fraction(3, 2)})])
    assert _typed_terms(w) == [(0, Fraction, Fraction(3, 2))]
    w = kfold(ANTICOMMUTATOR, [half, half * 2])
    assert _typed_terms(w) == [(0, int, 1)]


def test_float_palindromic_commutator_is_exactly_zero():
    # sinh of a vector is a vector, so [S, V, S] runs one chain, whose
    # rounding leaves it only nearly reversion-symmetric; its commutator is
    # still exactly zero, as infer's ⊥ for the palindrome claims
    report = check("[sinh(U:#1), V:#2, sinh(U)]", Signature(4, 1), trials=300, seed=0)
    assert report.ok and report.inferred == QType() and report.observed == QType()


# ---------------------------------------------------------------------------
# tree enumeration and evaluation


def test_enumerate_trees_counts_and_order():
    assert [t.render() for t in enumerate_trees(2)] == ["[U1,U2]", "{U1,U2}"]
    assert [t.render() for t in enumerate_trees(3)] == [
        "[[U1,U2],U3]",
        "{[U1,U2],U3}",
        "[{U1,U2},U3]",
        "{{U1,U2},U3}",
    ]
    trees4 = enumerate_trees(4)
    assert len(trees4) == 8
    assert sum(1 for t in trees4 if t.sign_class() is COMMUTATOR) == 4
    assert sum(1 for t in trees4 if t.sign_class() is ANTICOMMUTATOR) == 4
    with pytest.raises(ValueError):
        enumerate_trees(1)
    with pytest.raises(ValueError):
        enumerate_trees(7)


def test_sign_class_from_tag_parity():
    t = BracketTree((COMMUTATOR, ANTICOMMUTATOR, COMMUTATOR))
    assert t.sign_class() is ANTICOMMUTATOR  # two commutator tags: even
    t = BracketTree((COMMUTATOR, ANTICOMMUTATOR))
    assert t.sign_class() is COMMUTATOR
    assert t.render(["A", "B", "C"]) == "{[A,B],C}"
    with pytest.raises(ValueError):
        t.render(["A"])


def test_eval_tree_examples():
    es = [Multivector.generator(CL30, i) for i in (1, 2, 3)]
    anti_anti = BracketTree((ANTICOMMUTATOR, ANTICOMMUTATOR))
    assert eval_tree(anti_anti, es) == Multivector.zero(CL30)  # {e1,e2} = 0 already
    rng = random.Random(8)
    us = [random_multivector(CL30, rng) for _ in range(3)]
    lhs = eval_tree(BracketTree((COMMUTATOR, COMMUTATOR)), us)
    rhs = kfold(ANTICOMMUTATOR, us) - kfold(ANTICOMMUTATOR, [us[1], us[0], us[2]])
    assert lhs == rhs  # [[U,V],W] = {U,V,W} - {V,U,W}
    with pytest.raises(ValueError):
        eval_tree(anti_anti, us[:2])


def test_eval_tree_multilinear():
    rng = random.Random(15)
    for tree in enumerate_trees(3):
        u, u2, v, w = (random_multivector(CL30, rng) for _ in range(4))
        left = eval_tree(tree, [u + u2, v, w])
        assert left == eval_tree(tree, [u, v, w]) + eval_tree(tree, [u2, v, w])
        scaled = eval_tree(tree, [u, 3 * v, w])
        assert scaled == 3 * eval_tree(tree, [u, v, w])


# ---------------------------------------------------------------------------
# the expansion identities, first re-derived symbolically


def test_threefold_decomposition_identities_symbolic():
    # the three-operand decomposition identities, derived over free
    # noncommuting symbols; these are what the class split relies on
    U, V, W = sym(0), sym(1), sym(2)
    uvw = U * V * W
    wvu = W * V * U
    anti3 = uvw + wvu
    comm3 = uvw - wvu

    def b(kind, a, c):
        return word_bracket(kind, a, c)

    assert b(ANTICOMMUTATOR, b(COMMUTATOR, U, V), W) + b(COMMUTATOR, b(ANTICOMMUTATOR, U, V), W) == comm3.scaled(2)
    assert b(COMMUTATOR, b(COMMUTATOR, U, V), W) + b(ANTICOMMUTATOR, b(ANTICOMMUTATOR, U, V), W) == anti3.scaled(2)
    # and the full four-chain average reproduces the plain product
    total = Words()
    for tree in enumerate_trees(3):
        total = total + word_eval_tree(tree, [U, V, W])
    assert total == uvw.scaled(4)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_expansion_identities_symbolic(k):
    leaves = [sym(i) for i in range(k)]
    fwd = word_chain(leaves)
    rev = word_chain(list(reversed(leaves)))
    total, plus, minus = Words(), Words(), Words()
    for tree in enumerate_trees(k):
        value = word_eval_tree(tree, leaves)
        total = total + value
        if tree.sign_class() is COMMUTATOR:
            plus = plus + value
        else:
            minus = minus + value
    assert total == fwd.scaled(1 << (k - 1))
    assert plus == (fwd - rev).scaled(1 << max(k - 2, 0))
    assert minus == (fwd + rev).scaled(1 << max(k - 2, 0))


def test_expand_product_and_kfold_exact():
    rng = random.Random(12)
    for sig in [Signature(1, 0), Signature(1, 1), Signature(3, 0), Signature(2, 3)]:
        for k in (2, 3, 4, 5):
            us = [random_multivector(sig, rng) for _ in range(k)]
            chain = us[0]
            for u in us[1:]:
                chain = chain * u
            assert expand_product(us) == chain, (sig, k)
            assert expand_kfold(COMMUTATOR, us) == kfold(COMMUTATOR, us), (sig, k)
            assert expand_kfold(ANTICOMMUTATOR, us) == kfold(ANTICOMMUTATOR, us), (sig, k)


def test_expand_product_pair_identity():
    rng = random.Random(13)
    u, v = (random_multivector(CL30, rng) for _ in range(2))
    half = Fraction(1, 2)
    assert half * (kfold(COMMUTATOR, [u, v]) + kfold(ANTICOMMUTATOR, [u, v])) == u * v
    assert expand_product([u, v]) == u * v


# ---------------------------------------------------------------------------
# class type uniformity


def test_class_type_uniformity_examples():
    assert class_type_uniformity(COMMUTATOR, (0, 1, 2)) == 1
    assert class_type_uniformity(COMMUTATOR, (1, 1, 1, 1)) == 2
    for k in (2, 3, 4, 5):
        assert class_type_uniformity(COMMUTATOR, (0,) * k) == 2
        assert class_type_uniformity(ANTICOMMUTATOR, (0,) * k) == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_class_type_uniformity_exhaustive(k):
    for types in itertools.product(range(4), repeat=k):
        for kind in (COMMUTATOR, ANTICOMMUTATOR):
            assert class_type_uniformity(kind, types) == infer_kfold(kind, types)


def test_threefold_class_uniformity_concrete():
    # all chains of one class land in the same main type as the k-fold form
    rng = random.Random(77)
    sig = Signature(3, 1)
    for _ in range(40):
        types = [rng.randrange(4) for _ in range(3)]
        us = [random_of_type(sig, rng, QType({t})) for t in types]
        for tree in enumerate_trees(3):
            expected = infer_kfold(tree.sign_class(), types)
            assert qtype_of(eval_tree(tree, us)) <= QType({expected})


# ---------------------------------------------------------------------------
# grade envelope


def test_product_grade_envelope_examples():
    assert product_grade_envelope(1, 1, 2) == frozenset({0, 2})
    assert product_grade_envelope(1, 1, 5) == frozenset({0, 2})
    assert product_grade_envelope(2, 3, 5) == frozenset({1, 3, 5})
    assert product_grade_envelope(3, 3, 4) == frozenset({0, 2})
    with pytest.raises(ValueError):
        product_grade_envelope(3, 1, 2)


def test_product_grade_envelope_brute_force():
    rng = random.Random(19)
    for n in range(1, 6):
        sig = Signature(n, 0)
        for j in range(n + 1):
            for k in range(n + 1):
                envelope = product_grade_envelope(j, k, n)
                observed = set()
                for _ in range(25):
                    u = random_multivector(sig, rng, grades=(j,))
                    v = random_multivector(sig, rng, grades=(k,))
                    observed |= set((u * v).grades())
                assert observed <= envelope, (n, j, k)
    # the three documented cells are attained exactly
    rng = random.Random(20)
    sig5 = Signature(5, 0)
    observed = set()
    for _ in range(60):
        u = random_multivector(sig5, rng, grades=(2,))
        v = random_multivector(sig5, rng, grades=(3,))
        observed |= set((u * v).grades())
    assert observed == {1, 3, 5}


def test_uvvu_concrete_property():
    rng = random.Random(23)
    for sig in [Signature(3, 1), Signature(5, 0)]:
        for _ in range(25):
            k = rng.randrange(4)
            l = rng.randrange(4)
            try:
                u = random_of_type(sig, rng, QType({k}))
                v = random_of_type(sig, rng, QType({l}))
            except Exception:
                continue
            assert qtype_of(u * v * v * u) <= QType({0}), (sig, k, l)
