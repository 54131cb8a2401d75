import itertools
import math
import random

import pytest

from quatype.algebra import (
    ApproxMultivector,
    Multivector,
    Signature,
    blades_of_grades,
    random_multivector,
    sample_blades,
)
from quatype.brackets import kfold
from quatype.qtypes import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    InfeasibleDeclarationError,
    MusicalOp,
    QType,
    as_kind,
    infer_kfold,
    infer_kfold_set,
    infer_pair,
    infer_pair_musical,
    infer_product,
    infer_product_set,
    klein_table,
    musical_apply,
    musical_compose,
    pair_musical_table,
    power_types_by_parity,
    qtype_of,
    qtype_of_approx,
    random_of_rank,
    random_of_type,
    threefold_fixed_table,
    triple_table,
)
from quatype.qtypes import _declared_blade_groups

I, SHARP, FLAT, NATURAL = MusicalOp.IDENTITY, MusicalOp.SHARP, MusicalOp.FLAT, MusicalOp.NATURAL


# ---------------------------------------------------------------------------
# QType basics


def test_qtype_construction_and_render():
    assert QType({0, 2}).render() == "0~2~"
    assert QType().render() == "⊥"
    assert QType.parse("1~3~") == QType({1, 3})
    assert QType.parse("13") == QType({1, 3})
    assert QType.parse("⊥") == QType()
    with pytest.raises(ValueError):
        QType({4})
    with pytest.raises(ValueError):
        QType.parse("5~")
    assert (QType({0}) | QType({2})) == QType({0, 2})
    assert isinstance(QType({0}) | QType({2}), QType)


def test_qtype_of_examples():
    s4 = Signature(4, 0)
    u = Multivector.scalar(s4, 1) + Multivector.blade(s4, [1, 2, 3, 4])
    assert qtype_of(u) == QType({0})
    v = Multivector.generator(s4, 1) + Multivector.blade(s4, [2, 3])
    assert qtype_of(v) == QType({1, 2})
    assert qtype_of(Multivector.zero(s4)) == QType()
    # zero's type is contained in every other type
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(4), r) for r in range(1, 5)
    ):
        assert qtype_of(Multivector.zero(s4)) <= QType(members)


def test_qtype_of_returns_interned_types():
    # one shared QType per residue set, equal to the one a caller builds,
    # from dict-born and array-born values alike
    from quatype import algebra

    sig = Signature(4, 0)
    for members in itertools.chain.from_iterable(itertools.combinations(range(4), r) for r in range(5)):
        coeffs = {b: 1 for r in members for b in blades_of_grades(4, (r,))}
        u = Multivector(sig, coeffs)
        arrays = algebra._from_arrays(sig, *u._int64()[:2])
        for value in (u, arrays):
            got = qtype_of(value)
            assert type(got) is QType and got == QType(members) and got.render() == QType(members).render()
            assert got is qtype_of(value)
        assert qtype_of(arrays) is qtype_of(u)


def test_qtype_of_approx_threshold():
    s2 = Signature(2, 0)
    u = ApproxMultivector(s2, {0: 1.0, 0b01: 1e-13})
    assert qtype_of_approx(u) == QType({0})
    v = ApproxMultivector(s2, {0: 1e9, 0b01: 1.0})  # noise relative to 1e9
    assert qtype_of_approx(v) == QType({0})
    w = ApproxMultivector(s2, {0: 1.0, 0b01: 1e-3})
    assert qtype_of_approx(w) == QType({0, 1})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_qtype_of_approx_rejects_non_finite(bad):
    # an overflowed float evaluation has no type; dropping the coefficient
    # would report a vacuous bottom type; the error names the first such blade
    u = ApproxMultivector(Signature(3, 0), {0: 1.0, 0b011: bad, 0b101: math.nan})
    with pytest.raises(ValueError) as err:
        qtype_of_approx(u)
    assert str(err.value) == f"non-finite coefficient {bad} on e12: the float evaluation overflowed"


# ---------------------------------------------------------------------------
# musical operations


def test_musical_values():
    # the defining permutation table
    assert [SHARP.apply_residue(k) for k in range(4)] == [2, 3, 0, 1]
    assert [FLAT.apply_residue(k) for k in range(4)] == [1, 0, 3, 2]
    assert [NATURAL.apply_residue(k) for k in range(4)] == [3, 2, 1, 0]
    assert musical_apply(SHARP, QType({0})) == QType({2})
    assert musical_apply(FLAT, QType({2})) == QType({3})
    assert musical_apply(NATURAL, QType({1, 3})) == QType({0, 2})


def test_klein_composition_table():
    expected = {
        (I, I): I, (SHARP, SHARP): I, (FLAT, FLAT): I, (NATURAL, NATURAL): I,
        (I, SHARP): SHARP, (SHARP, I): SHARP, (FLAT, NATURAL): SHARP, (NATURAL, FLAT): SHARP,
        (I, FLAT): FLAT, (FLAT, I): FLAT, (SHARP, NATURAL): FLAT, (NATURAL, SHARP): FLAT,
        (I, NATURAL): NATURAL, (NATURAL, I): NATURAL, (SHARP, FLAT): NATURAL, (FLAT, SHARP): NATURAL,
    }
    for (a, b), want in expected.items():
        assert musical_compose(a, b) == want, (a, b)
    # commutative, self-inverse, I neutral: all 16 pairs
    ops = (I, SHARP, FLAT, NATURAL)
    for a in ops:
        assert musical_compose(a, a) == I
        assert musical_compose(a, I) == a
        for b in ops:
            assert musical_compose(a, b) == musical_compose(b, a)
    grid = klein_table()
    assert grid[1][2] == NATURAL  # sharp o flat


def test_musical_apply_is_lattice_automorphism():
    subsets = [QType(c) for r in range(5) for c in itertools.combinations(range(4), r)]
    for op in MusicalOp:
        images = {musical_apply(op, t) for t in subsets}
        assert len(images) == len(subsets)
        for a in subsets:
            for b in subsets:
                assert musical_apply(op, a | b) == musical_apply(op, a) | musical_apply(op, b)
                assert (a <= b) == (musical_apply(op, a) <= musical_apply(op, b))


# ---------------------------------------------------------------------------
# pair inference: the twenty two-operand cells


PAIR_COMM = {
    # [k, k] in 2, [k, 2] in k, [0,1] in 3, [0,3] in 1, [1,3] in 0
    (0, 0): 2, (1, 1): 2, (2, 2): 2, (3, 3): 2,
    (0, 2): 0, (1, 2): 1, (3, 2): 3,
    (0, 1): 3, (0, 3): 1, (1, 3): 0,
}
PAIR_ANTI = {
    # {k, k} in 0, {k, 0} in k, {1,2} in 3, {1,3} in 2, {2,3} in 1
    (0, 0): 0, (1, 1): 0, (2, 2): 0, (3, 3): 0,
    (1, 0): 1, (2, 0): 2, (3, 0): 3,
    (1, 2): 3, (1, 3): 2, (2, 3): 1,
}


def test_infer_pair_reproduces_all_cells():
    for (k, l), want in PAIR_COMM.items():
        assert infer_pair(COMMUTATOR, k, l) == want
        assert infer_pair(COMMUTATOR, l, k) == want
    for (k, l), want in PAIR_ANTI.items():
        assert infer_pair(ANTICOMMUTATOR, k, l) == want
        assert infer_pair(ANTICOMMUTATOR, l, k) == want


def test_infer_pair_examples():
    assert infer_pair(COMMUTATOR, 1, 1) == 2
    assert infer_pair(ANTICOMMUTATOR, 1, 2) == 3
    assert infer_pair(COMMUTATOR, 0, 3) == 1
    assert infer_pair("comm", 0, 3) == 1
    with pytest.raises(ValueError):
        infer_pair(COMMUTATOR, 4, 0)
    with pytest.raises(ValueError):
        as_kind("braid")


def test_infer_pair_musical_mapping():
    anti_expected = {0: I, 2: SHARP, 1: FLAT, 3: NATURAL}
    comm_expected = {2: I, 0: SHARP, 3: FLAT, 1: NATURAL}
    for partner in range(4):
        assert infer_pair_musical(ANTICOMMUTATOR, partner) == anti_expected[partner]
        assert infer_pair_musical(COMMUTATOR, partner) == comm_expected[partner]
    # applying the op reproduces infer_pair on every slot
    for kind in (ANTICOMMUTATOR, COMMUTATOR):
        for partner in range(4):
            op = infer_pair_musical(kind, partner)
            for k in range(4):
                assert op.apply_residue(k) == infer_pair(kind, k, partner)
    rows = pair_musical_table()
    assert len(rows) == 8


# ---------------------------------------------------------------------------
# k-fold inference


def test_infer_kfold_examples():
    assert infer_kfold(ANTICOMMUTATOR, (0, 1, 2)) == 3
    assert infer_kfold(COMMUTATOR, (0, 1, 2)) == 1
    assert infer_kfold(ANTICOMMUTATOR, (3, 3, 3)) == 3
    assert infer_kfold(COMMUTATOR, (3, 3, 3)) == 1
    assert infer_kfold(COMMUTATOR, (1, 1, 1, 1)) == 2
    with pytest.raises(ValueError):
        infer_kfold(COMMUTATOR, (1,))


def test_infer_kfold_matches_pair_and_triple_formulas():
    for k in range(4):
        for l in range(4):
            assert infer_kfold(COMMUTATOR, (k, l)) == infer_pair(COMMUTATOR, k, l)
            assert infer_kfold(ANTICOMMUTATOR, (k, l)) == infer_pair(ANTICOMMUTATOR, k, l)
            for m in range(4):
                eps = (-1) ** (k * l + k * m + l * m)
                assert infer_kfold(COMMUTATOR, (k, l, m)) == (k + l + m + 1 + eps) % 4
                assert infer_kfold(ANTICOMMUTATOR, (k, l, m)) == (k + l + m + 1 - eps) % 4


def test_infer_kfold_matches_paper_formula_for_every_k():
    # the paper's (Σa + 1 ∓ (-1)^S) mod 4 with S = Σ_{i<j} a_i a_j, on every
    # main-type tuple with 2 <= k <= 7: the commutator takes +, the anticommutator -
    for k in range(2, 8):
        for types in itertools.product(range(4), repeat=k):
            eps = (-1) ** sum(a * b for a, b in itertools.combinations(types, 2))
            assert infer_kfold(COMMUTATOR, types) == (sum(types) + 1 + eps) % 4, types
            assert infer_kfold(ANTICOMMUTATOR, types) == (sum(types) + 1 - eps) % 4, types
    # with all operands fixed but one, every bracket of k <= 6 operands acts on
    # the free slot as a musical operation, as the pair and threefold tables do for k = 2, 3
    perms = {op.permutation for op in MusicalOp}
    for k in range(2, 7):
        for fixed in itertools.product(range(4), repeat=k - 1):
            for slot in range(k):
                for kind in (COMMUTATOR, ANTICOMMUTATOR):
                    perm = tuple(infer_kfold(kind, fixed[:slot] + (t,) + fixed[slot:]) for t in range(4))
                    assert perm in perms, (kind, fixed, slot)


def test_infer_kfold_permutation_invariant():
    rng = random.Random(0)
    for types in itertools.product(range(4), repeat=3):
        for perm in itertools.permutations(types):
            assert infer_kfold(COMMUTATOR, types) == infer_kfold(COMMUTATOR, perm)
    for _ in range(100):
        types = [rng.randrange(4) for _ in range(rng.randint(2, 6))]
        shuffled = types[:]
        rng.shuffle(shuffled)
        for kind in (COMMUTATOR, ANTICOMMUTATOR):
            assert infer_kfold(kind, types) == infer_kfold(kind, shuffled)


def test_infer_product():
    assert infer_product((1, 2)) == QType({1, 3})
    assert infer_product((0, 0)) == QType({0, 2})
    with pytest.raises(ValueError):
        infer_product(())
    # union of both bracket kinds equals the product envelope
    for k in range(2, 6):
        for types in itertools.product(range(4), repeat=k):
            union = QType({infer_kfold(COMMUTATOR, types), infer_kfold(ANTICOMMUTATOR, types)})
            assert union == infer_product(types), types


def test_uvvu_lands_in_zero_bar():
    for k in range(4):
        for l in range(4):
            assert infer_kfold(ANTICOMMUTATOR, (k, l, l, k)) == 0


def test_infer_set_versions_match_bruteforce():
    rng = random.Random(9)
    subsets = [QType(c) for r in range(1, 5) for c in itertools.combinations(range(4), r)]
    for _ in range(120):
        k = rng.randint(2, 4)
        sets = [rng.choice(subsets) for _ in range(k)]
        for kind in (COMMUTATOR, ANTICOMMUTATOR):
            brute = QType(
                infer_kfold(kind, combo) for combo in itertools.product(*[sorted(s) for s in sets])
            )
            assert infer_kfold_set(kind, sets) == brute, (kind, sets)
        brute_prod = QType()
        for combo in itertools.product(*[sorted(s) for s in sets]):
            brute_prod |= infer_product(combo)
        assert infer_product_set(sets) == brute_prod
    # a zero operand annihilates everything
    assert infer_kfold_set(COMMUTATOR, [QType({1}), QType()]) == QType()
    assert infer_product_set([QType(), QType({2})]) == QType()


def test_power_types_by_parity_match_bruteforce():
    # the m-th Clifford power is half its m-fold anticommutator and the m-th
    # exterior power lands on residue sums; union both over m <= 12 by parity
    for r in range(5):
        for members in itertools.combinations(range(4), r):
            t = QType(members)
            clifford = [set(), set()]
            exterior = [set(), set()]
            for m in range(13):
                for combo in itertools.combinations_with_replacement(sorted(t), m):
                    clifford[m & 1].add(infer_kfold(ANTICOMMUTATOR, combo) if m >= 2 else sum(combo))
                    exterior[m & 1].add(sum(combo) % 4)
            assert power_types_by_parity(t) == (QType(clifford[0]), QType(clifford[1])), t
            assert power_types_by_parity(t, exterior=True) == (QType(exterior[0]), QType(exterior[1])), t


# ---------------------------------------------------------------------------
# the twenty-row table of threefold brackets


KNOWN_TRIPLE_TABLE = {
    (0, 0, 0): (0, 2), (0, 0, 1): (1, 3), (0, 0, 2): (2, 0), (0, 0, 3): (3, 1),
    (0, 1, 1): (0, 2), (0, 1, 2): (3, 1), (0, 1, 3): (2, 0), (0, 2, 2): (0, 2),
    (0, 2, 3): (1, 3), (0, 3, 3): (0, 2), (1, 1, 1): (1, 3), (1, 1, 2): (2, 0),
    (1, 1, 3): (3, 1), (1, 2, 2): (1, 3), (1, 2, 3): (0, 2), (1, 3, 3): (1, 3),
    (2, 2, 2): (2, 0), (2, 2, 3): (3, 1), (2, 3, 3): (2, 0), (3, 3, 3): (3, 1),
}


def test_triple_table_known_values():
    rows = triple_table()
    assert len(rows) == 20
    assert [r[0] for r in rows] == sorted(KNOWN_TRIPLE_TABLE)
    for types, anti, comm, union in rows:
        want_anti, want_comm = KNOWN_TRIPLE_TABLE[types]
        assert (anti, comm) == (want_anti, want_comm), types
        assert union == QType({anti, comm})
        assert union in (QType({0, 2}), QType({1, 3}))


def test_triple_table_spot_rows():
    rows = {r[0]: r for r in triple_table()}
    assert rows[(0, 2, 3)][1:3] == (1, 3)
    assert rows[(1, 2, 2)][1:3] == (1, 3)
    assert rows[(0, 0, 0)][1:3] == (0, 2)


def test_threefold_fixed_table_matches_musical_rows():
    anti_expected = {
        (0, 0): I, (1, 1): I, (2, 2): I, (3, 3): I,
        (0, 2): SHARP, (1, 3): SHARP,
        (0, 1): FLAT, (2, 3): FLAT,
        (0, 3): NATURAL, (1, 2): NATURAL,
    }
    comm_expected = {pair: musical_compose(SHARP, op) for pair, op in anti_expected.items()}
    rows = threefold_fixed_table()
    assert len(rows) == 20
    for kind, pair, op in rows:
        want = anti_expected[pair] if kind is ANTICOMMUTATOR else comm_expected[pair]
        assert op == want, (kind, pair)


# ---------------------------------------------------------------------------
# soundness spot checks (the exhaustive sweep lives in the acceptance suite)


def test_concrete_brackets_obey_inference():
    rng = random.Random(21)
    for sig in [Signature(3, 0), Signature(2, 2), Signature(1, 4)]:
        feasible = [t for t in range(4) if any(g % 4 == t for g in range(sig.n + 1))]
        for _ in range(30):
            k = rng.randint(2, 4)
            types = [rng.choice(feasible) for _ in range(k)]
            us = [random_of_type(sig, rng, QType({t})) for t in types]
            for kind in (COMMUTATOR, ANTICOMMUTATOR):
                got = qtype_of(kfold(kind, us))
                assert got <= QType({infer_kfold(kind, types)}), (sig, kind, types)


def test_parity_coarsening_of_product_envelope():
    rng = random.Random(33)
    sig = Signature(3, 1)
    for _ in range(40):
        k = rng.randint(2, 5)
        types = [rng.choice((0, 1, 2, 3)) for _ in range(k)]
        us = [random_of_type(sig, rng, QType({t})) for t in types]
        prod = us[0]
        for u in us[1:]:
            prod = prod * u
        envelope = infer_product(types)
        assert qtype_of(prod) <= envelope
        from quatype.algebra import parity_split

        even, odd = parity_split(prod)
        if envelope == QType({0, 2}):
            assert not odd
        else:
            assert not even


# ---------------------------------------------------------------------------
# typed sampling


def test_random_of_type_covers_residues():
    rng = random.Random(2)
    sig = Signature(4, 1)
    u = random_of_type(sig, rng, QType({1, 2}))
    assert qtype_of(u) == QType({1, 2})
    assert random_of_type(sig, rng, QType()) == Multivector.zero(sig)
    with pytest.raises(InfeasibleDeclarationError):
        random_of_type(Signature(2, 0), rng, QType({3}))
    v = random_of_rank(sig, rng, 3)
    assert v.grades() == frozenset({3})
    with pytest.raises(InfeasibleDeclarationError):
        random_of_rank(Signature(3, 0), rng, 5)


def test_random_of_type_deterministic_per_seed():
    sig = Signature(3, 1)
    a = random_of_type(sig, random.Random(99), QType({0, 3}))
    b = random_of_type(sig, random.Random(99), QType({0, 3}))
    assert a == b


@pytest.mark.parametrize(
    "draw, terms",
    [
        # residue 0 of Cl(1,0) draws all zero and is patched
        (lambda: random_of_type(Signature(1, 0), random.Random(4), QType({0, 1})), [(0, -2), (1, 7)]),
        # residue 0 (blades e, e1234) is patched before residue 3 draws
        (
            lambda: random_of_type(Signature(3, 1), random.Random(60), QType({0, 3})),
            [(0, -5), (7, 6), (11, 5), (13, 1), (14, -8)],
        ),
        (
            lambda: random_of_type(Signature(3, 1), random.Random(5), QType({0, 3})),
            [(0, -1), (7, 7), (11, -9), (13, 5), (14, -2), (15, 2)],
        ),
        (
            lambda: random_of_rank(Signature(3, 1), random.Random(7), 2),
            [(3, 1), (5, -5), (6, 3), (9, -8), (10, -7), (12, 8)],
        ),
        # both grade-1 draws come out zero: patched at e1
        (lambda: random_of_rank(Signature(2, 0), random.Random(60), 1), [(1, -5)]),
        (lambda: random_multivector(Signature(2, 0), random.Random(60), grades=(1,)), [(1, -5)]),
        (lambda: random_multivector(Signature(2, 0), random.Random(3)), [(0, -2), (1, 9), (2, 8), (3, -5)]),
    ],
    ids=["type-patched", "type-patched-first", "type", "rank", "rank-patched", "grades-patched", "all-grades"],
)
def test_sampler_draws_are_pinned(draw, terms):
    # check's reproducer seeds depend on this exact order of random draws
    assert draw().terms() == terms


def _randint_draw(rng, blade_groups, lo, hi):
    """The sampler's draw loop as written with ``Random.randint``: the oracle of the inlined draw."""
    coeffs = {}
    for blades in blade_groups:
        hit = False
        for b in blades:
            v = rng.randint(lo, hi)
            if v:
                coeffs[b] = v
                hit = True
        if not hit and blades:
            b = rng.choice(blades)
            coeffs[b] = rng.randint(1, max(hi, 1)) * rng.choice((-1, 1))
    return coeffs


_CL31_ALL = (blades_of_grades(4, (0, 1, 2, 3, 4)),)
_CL12_ALL = (blades_of_grades(12, tuple(range(13))),)
_CL12 = Signature(12, 0)
# 2^50 2^12 = 2^62, the bound on the ℓ1 norm of an array-born value; a draw of width 2^20 takes 21-bit words
_EDGE, _SPAN = 1 << 50, 1 << 20
_CL8 = Signature(8, 0)
_CL8_ALL = blades_of_grades(8, tuple(range(9)))
# a group of m blades beside the other 256 - m of Cl(8,0): 256 blades in all,
# so the draw is chunked, and each group's chunks run down to a single word;
# [-300, 300] takes 10-bit words, whose top byte does not decide alone
_CL8_SPLITS = [
    ((_CL8_ALL[:m], _CL8_ALL[m:]), lo, hi) for m in (1, 2, 31, 32, 33) for lo, hi in ((-9, 9), (0, 0), (-300, 300))
]


@pytest.mark.parametrize(
    "draw, groups, lo, hi, chunked",
    [
        (lambda rng: random_multivector(Signature(3, 1), rng), _CL31_ALL, -9, 9, False),
        (lambda rng: random_multivector(Signature(3, 1), rng, lo=1, hi=5), _CL31_ALL, 1, 5, False),
        # every draw is zero, so the group is always patched
        (lambda rng: random_multivector(Signature(3, 1), rng, lo=0, hi=0), _CL31_ALL, 0, 0, False),
        (lambda rng: random_multivector(_CL12, rng), _CL12_ALL, -9, 9, True),
        (
            lambda rng: random_of_type(Signature(4, 2), rng, QType({0, 2, 3})),
            _declared_blade_groups(Signature(4, 2), QType({0, 2, 3})),
            -9,
            9,
            False,
        ),
        # residue 0 of Cl(1,0) is the one blade e, patched whenever it draws zero
        (
            lambda rng: random_of_type(Signature(1, 0), rng, QType({0, 1})),
            _declared_blade_groups(Signature(1, 0), QType({0, 1})),
            -9,
            9,
            False,
        ),
        (
            lambda rng: random_of_type(_CL12, rng, QType({0, 1, 2, 3})),
            _declared_blade_groups(_CL12, QType({0, 1, 2, 3})),
            -9,
            9,
            True,
        ),
        (lambda rng: random_multivector(_CL12, rng, lo=0, hi=0), _CL12_ALL, 0, 0, True),
        # a word of more than 32 bits is not one Mersenne Twister output
        (lambda rng: random_multivector(_CL12, rng, lo=-(1 << 32), hi=1 << 32), _CL12_ALL, -(1 << 32), 1 << 32, False),
        # max(|lo|, |hi|) 2^12 just under 2^62 keeps the ℓ1 norm in int64; at 2^62 the draw is dict-born
        (lambda rng: random_multivector(_CL12, rng, lo=_EDGE - _SPAN, hi=_EDGE - 1), _CL12_ALL, _EDGE - _SPAN, _EDGE - 1, True),
        (lambda rng: random_multivector(_CL12, rng, lo=_EDGE - _SPAN + 1, hi=_EDGE), _CL12_ALL, _EDGE - _SPAN + 1, _EDGE, False),
        (lambda rng: random_multivector(_CL12, rng, lo=-_EDGE, hi=_SPAN - _EDGE), _CL12_ALL, -_EDGE, _SPAN - _EDGE, False),
        *[
            (lambda rng, groups=groups, lo=lo, hi=hi: sample_blades(_CL8, rng, groups, lo, hi), groups, lo, hi, True)
            for groups, lo, hi in _CL8_SPLITS
        ],
    ],
    ids=[
        "range-9..9",
        "range1..5",
        "range0..0-patched",
        "Cl(12,0)",
        "type-3-groups",
        "type-patched",
        "Cl(12,0)-type-4-groups",
        "Cl(12,0)-range0..0-patched",
        "Cl(12,0)-range-past-32-bits",
        "Cl(12,0)-l1-under-2^62",
        "Cl(12,0)-l1-at-2^62",
        "Cl(12,0)-negative-l1-at-2^62",
        *[f"Cl(8,0)-group-of-{len(groups[0])}-range{lo}..{hi}" for groups, lo, hi in _CL8_SPLITS],
    ],
)
def test_sampler_draws_as_randint(draw, groups, lo, hi, chunked):
    # the same terms in the same order, and the same generator state
    # afterwards, as randint; large draws with at most 32-bit words are chunked
    for seed in range(500):
        rng, oracle = random.Random(seed), random.Random(seed)
        u = draw(rng)
        assert (u._coeffs is None) == chunked
        assert list(u._dict().items()) == list(_randint_draw(oracle, groups, lo, hi).items()), seed
        assert rng.getstate() == oracle.getstate(), seed


@pytest.mark.parametrize("m", [1, 2, 37, 4096])
def test_getrandbits_concatenates_32_bit_words(m):
    # the chunked draw rests on two CPython facts: getrandbits(32 m) is m
    # getrandbits(32) words, least significant first, and getrandbits(k)
    # for k <= 32 is one word shifted right by 32 - k
    for seed in range(20):
        rng, words = random.Random(seed), random.Random(seed)
        assert rng.getrandbits(32 * m) == sum(words.getrandbits(32) << (32 * i) for i in range(m))
        assert rng.getstate() == words.getstate()
        for k in (1, 5, 31, 32):
            assert rng.getrandbits(k) == words.getrandbits(32) >> (32 - k)
        assert rng.getstate() == words.getstate()


def test_sampler_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        random_multivector(Signature(2, 0), random.Random(0), lo=1, hi=0)
