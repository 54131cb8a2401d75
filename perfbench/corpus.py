"""Seeded expression corpora for the four benchmark workloads.

Each workload is a fixed plan of slots (what kind of expression, in which
dimension).  The p/q split, the declared types, bracket arities and
exponents rotate in a fixed order, so every corpus of a workload has the
same cost mix and the end-to-end figures compare across seeds and commits;
the workload seed draws the rest: aliasing, bracket kinds, literals and the
per-call check seeds, hence every sampled coefficient.

Expressions are built as a small AST of this module's own (the independent
reference in ``reference.py`` evaluates it) and rendered to the quatype
expression language, which is what the benchmark hands to ``check``.  The
generator uses no quatype code, so a library change cannot change a corpus.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from random import Random

SERIES = ("exp", "sin", "cos", "sinh", "cosh")
BRACKET_SCALE = Fraction(1, 32)  # bracket operands of a Clifford series are scaled by this

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str
    members: frozenset | None = None  # declared quaternion type (residues mod 4)
    rank: int | None = None  # or declared rank

    def decl(self) -> str:
        if self.rank is not None:
            return f"#{self.rank}"
        rs = sorted(self.members)
        return str(rs[0]) if len(rs) == 1 else "".join(f"{r}~" for r in rs)


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Bin:
    op: str  # "+", "-", "*", "^"
    left: object
    right: object


@dataclass(frozen=True)
class Bracket:
    commutator: bool
    operands: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    exterior: bool


@dataclass(frozen=True)
class Fn:
    name: str  # a SERIES name, prefixed with "w" for the exterior series
    operand: object


def _atomic(e) -> bool:
    return isinstance(e, (Var, Bracket, Fn)) or (isinstance(e, Lit) and e.value.denominator == 1)


def render(e) -> str:
    """Expression text; each variable carries its declaration at first use."""
    seen: set[str] = set()

    def go(e) -> str:
        if isinstance(e, Var):
            if e.name in seen:
                return e.name
            seen.add(e.name)
            return f"{e.name}:{e.decl()}"
        if isinstance(e, Lit):
            v = e.value
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if isinstance(e, Bin):
            left = wrap(e.left)
            return f"{left} {e.op} {wrap(e.right)}"
        if isinstance(e, Bracket):
            left, right = ("[", "]") if e.commutator else ("{", "}")
            return left + ", ".join(go(o) for o in e.operands) + right
        if isinstance(e, Pow):
            return f"{wrap(e.base)}{'^^' if e.exterior else '**'}{e.exponent}"
        if isinstance(e, Fn):
            return f"{e.name}({go(e.operand)})"
        raise TypeError(f"not a corpus node: {e!r}")

    def wrap(e) -> str:
        text = go(e)
        return text if _atomic(e) else f"({text})"

    return go(e)


def variables(e) -> dict[str, Var]:
    out: dict[str, Var] = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.setdefault(node.name, node)
        elif isinstance(node, Fn):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack += [node.left, node.right]
        elif isinstance(node, Bracket):
            stack += list(node.operands)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return out


def has_clifford_series(e) -> bool:
    if isinstance(e, Fn):
        return not e.name.startswith("w") or has_clifford_series(e.operand)
    if isinstance(e, Bin):
        return has_clifford_series(e.left) or has_clifford_series(e.right)
    if isinstance(e, Bracket):
        return any(has_clifford_series(o) for o in e.operands)
    if isinstance(e, Pow):
        return has_clifford_series(e.base)
    return False


# ---------------------------------------------------------------------------
# grade-support bounds
#
# A conservative set of grades each node can occupy, from the declarations
# and the product grade envelope |j-k| .. min(j+k, 2n-j-k) step 2.  It bounds
# the number of terms of every operand, hence the blade pairs of every
# product the library will form, which lets a workload promise which product
# path it exercises (check_small keeps every product under the 64-pair dense
# threshold).  These are grade envelopes, not the library's type rules.


def _mul_support(a: frozenset, b: frozenset, n: int) -> frozenset:
    return frozenset(g for j in a for k in b for g in range(abs(j - k), min(j + k, 2 * n - j - k) + 1, 2))


def _wedge_support(a: frozenset, b: frozenset, n: int) -> frozenset:
    return frozenset(j + k for j in a for k in b if j + k <= n)


def max_pairs(e, n: int) -> int:
    """Upper bound on the blade pairs of any product evaluating e forms."""
    size = lambda s: sum(comb(n, g) for g in s)  # noqa: E731
    worst = 0

    def mul(a, b, wedge=False):
        nonlocal worst
        worst = max(worst, size(a) * size(b))
        return _wedge_support(a, b, n) if wedge else _mul_support(a, b, n)

    def go(e) -> frozenset:
        if isinstance(e, Var):
            if e.rank is not None:
                return frozenset((e.rank,))
            return frozenset(g for g in range(n + 1) if g % 4 in e.members)
        if isinstance(e, Lit):
            return frozenset((0,))
        if isinstance(e, Bin):
            a, b = go(e.left), go(e.right)
            if e.op in "+-":
                return a | b
            return mul(a, b, wedge=e.op == "^")
        if isinstance(e, Bracket):
            ops = [go(o) for o in e.operands]
            out = frozenset()
            for chain in (ops, ops[::-1]):
                acc = chain[0]
                for s in chain[1:]:
                    acc = mul(acc, s)
                out |= acc
            return out
        if isinstance(e, Pow):
            base = go(e.base)
            result = frozenset((0,))
            if e.exterior:
                for _ in range(e.exponent):
                    result = mul(result, base, wedge=True)
                return result
            m = e.exponent  # square-and-multiply, as Multivector.__pow__ does
            while m:
                if m & 1:
                    result = mul(result, base)
                m >>= 1
                if m:
                    base = mul(base, base)
            return result
        if isinstance(e, Fn):
            u = go(e.operand)
            out = frozenset((0,))
            if e.name.startswith("w"):
                power = frozenset((0,))
                for _ in range(n + 1):
                    power = mul(power, u, wedge=True)
                    out |= power
                return out
            mul(u, u)
            return frozenset(range(n + 1))
        raise TypeError(f"not a corpus node: {e!r}")

    go(e)
    return worst


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class Call:
    """One ``check(expr, Signature(p, q), trials=trials, seed=seed)`` call."""

    slot: str
    expr: str
    p: int
    q: int
    trials: int
    seed: int
    tree: object


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    calls: tuple[Call, ...]
    warmup_expr: str
    calibration: str  # the calib.py task whose speed tracks these calls

    @property
    def signatures(self) -> list[tuple[int, int]]:
        return sorted({(c.p, c.q) for c in self.calls})

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.calls:
            h.update(f"{c.p},{c.q}|{c.trials}|{c.seed}|{c.expr}\n".encode())
        return h.hexdigest()[:16]


_NAMES = "UVWXYZABCDEFGH"


class _Gen:
    """Operands and expressions inside one signature.

    Choices that set the cost of a call (declared types, arities, exponents)
    are ``pick``-ed in a fixed rotation keyed by the call's position, so every
    corpus of a workload has the same cost mix; the seed draws the rest.
    """

    def __init__(self, rng: Random, n: int, position: int):
        self.rng = rng
        self.feasible = sorted({g % 4 for g in range(n + 1)})
        self.vars: list[Var] = []
        self.turn = 7 * position

    def pick(self, choices):
        self.turn += 1
        return choices[self.turn % len(choices)]

    def members(self, size: int, exclude: tuple = ()) -> frozenset:
        pool = [r for r in self.feasible if r not in exclude]
        return frozenset(self.pick(list(combinations(pool, min(size, len(pool))))))

    def var(self, size: int = 1, rank: int | None = None, exclude: tuple = (), alias: float = 0.0) -> Var:
        if self.vars and self.rng.random() < alias:
            return self.rng.choice(self.vars)
        name = _NAMES[len(self.vars)]
        v = Var(name, rank=rank) if rank is not None else Var(name, members=self.members(size, exclude))
        self.vars.append(v)
        return v

    def vars_(self, k: int, size_choices, alias: float = 0.0) -> list[Var]:
        return [self.var(self.pick(size_choices), alias=alias if i else 0.0) for i in range(k)]

    def bracket(self, k: int, size_choices, alias: float = 0.0) -> Bracket:
        return Bracket(self.rng.random() < 0.5, tuple(self.vars_(k, size_choices, alias)))


def _small_slot(slot: str, g: _Gen):
    main = (1, 1, 1, 2)  # mostly main types, some two-residue compounds
    rng = g.rng
    if slot == "bracket2":
        return g.bracket(2, main, alias=0.1)
    if slot == "bracketk":
        return g.bracket(g.pick((3, 4, 5)), (1,), alias=0.1)
    if slot == "product":
        a, b = g.vars_(2, main, alias=0.2)
        e = Bin("*", a, b)
        return Bin("*", e, g.var(1, alias=0.5)) if g.pick((True, False)) else e
    if slot == "wedge":
        a, b = g.vars_(2, main)
        return Bin("^", a, b)
    if slot == "sum":
        a, b, c = g.vars_(3, main, alias=0.2)
        return Bin(rng.choice("+-"), Bin("*", a, b), c)
    if slot == "power":
        return Pow(g.var(1), g.pick((2, 3, 4)), False)
    if slot == "extpower":
        return Pow(g.var(g.pick(main)), g.pick((2, 3)), True)
    if slot == "extseries":
        # an operand type without residue 0 has no scalar part, so the
        # exterior series terminates (series_float covers residue 0)
        return Fn("w" + rng.choice(SERIES), g.var(g.pick((1, 2)), exclude=(0,)))
    if slot == "literal":
        lit = Lit(Fraction(rng.randint(1, 5), rng.choice((1, 2, 3))))
        return Bin(rng.choice("*+"), lit, g.var(g.pick(main)))
    if slot == "nested":
        inner = g.bracket(2, (1,))
        return Bracket(rng.random() < 0.5, (inner, g.var(1)))
    raise ValueError(slot)


def _dense_slot(slot: str, g: _Gen, exponent: int):
    compound = (2, 3, 4)
    rng = g.rng
    if slot == "product":
        return Bin("*", *g.vars_(2, compound, alias=0.1))
    if slot == "bracket2":
        return g.bracket(2, compound)
    if slot == "bracketk":
        return g.bracket(g.pick((3, 4, 5)), (1, 2, 3))
    if slot == "power":
        return Pow(g.var(g.pick(compound)), exponent, False)
    if slot == "wedge":
        return Bin("^", *g.vars_(2, compound))
    if slot == "sum":
        a, b, c = g.vars_(3, compound)
        return Bin(rng.choice("+-"), Bin("*", a, b), c)
    if slot == "nested":
        return Bin("*", g.bracket(2, compound), g.var(g.pick(compound)))
    raise ValueError(slot)


def _series_slot(slot: str, g: _Gen, fn: str, t: int):
    rng = g.rng
    if slot == "main":
        return Fn(fn, Var("U", members=frozenset((t,))))
    if slot == "compound":
        return Fn(fn, g.var(g.pick((2, 3))))
    if slot == "bracket":
        # scaled down: at full size a bracket's coefficients grow past what
        # the 200-term budget absorbs and the series aborts (a known defect,
        # probed by defects.py)
        return Fn(fn, Bin("*", Lit(BRACKET_SCALE), g.bracket(2, (1,))))
    if slot == "exterior":
        # residue 0 would give the operand a scalar part, which makes the
        # exterior series abort (a known defect, probed by defects.py)
        return Fn("w" + fn, Var("U", members=g.members(1, exclude=(0,))))
    raise ValueError(slot)


def _wide_slot(slot: str, g: _Gen):
    rng = g.rng
    if slot == "full_product":
        return Bin("*", g.var(4), g.var(4))
    if slot == "full_bracket":
        return Bracket(rng.random() < 0.5, (g.var(4), g.var(4)))
    if slot == "main_product":
        return Bin("*", g.var(1), g.var(1))
    ranks = lambda k: [g.var(rank=g.pick((1, 2, 3))) for _ in range(k)]  # noqa: E731
    if slot == "rank_product":
        return Bin("*", *ranks(2))
    if slot == "rank_bracket":
        return Bracket(rng.random() < 0.5, tuple(ranks(g.pick((2, 3, 4)))))
    if slot == "rank_wedge":
        return Bin("^", *ranks(2))
    if slot == "rank_power":
        return Pow(ranks(1)[0], g.pick((2, 3)), g.pick((True, False)))
    raise ValueError(slot)


def _anchor(tree, p: int, q: int, trials: int) -> Call:
    return Call("anchor", render(tree), p, q, trials, 0, tree)


def _call_seed(rng: Random) -> int:
    return rng.randrange(1 << 20) * 1000


def build(workload: str, seed: int) -> Corpus:
    """The corpus of one workload; the same (workload, seed) gives the same corpus.

    Slots, dimensions, p/q splits and the cost-setting choices rotate
    deterministically, so every corpus of a workload has the same mix; the
    seed draws aliasing, bracket kinds, literals and the per-call check
    seeds, hence every coefficient.
    """
    rng = Random(f"{workload}:{seed}")
    calls: list[Call] = []

    def add(slot, make, n, trials, pair_limit=None):
        p = len(calls) % (n + 1)
        for attempt in range(200):
            g = _Gen(rng, n, len(calls) + attempt)
            tree = make(g)
            if pair_limit is None or max_pairs(tree, n) < pair_limit:
                calls.append(Call(slot, render(tree), p, n - p, trials, _call_seed(rng), tree))
                return
        raise RuntimeError(f"{workload}: no {slot} expression fits after 200 draws")

    if workload == "check_small":
        u, v = Var("U", frozenset((1,))), Var("V", frozenset((3,)))
        calls.append(_anchor(Bracket(True, (u, v)), 3, 1, 40))
        slots = ("bracket2", "bracketk", "product", "wedge", "sum", "power", "extpower", "extseries", "literal", "nested")
        for i in range(299):
            slot = slots[i % len(slots)]
            add(slot, lambda g, s=slot: _small_slot(s, g), (2, 3, 4)[i % 3], 40, pair_limit=64)
        warm = "U:#1 * V:#1"
    elif workload == "check_dense":
        ops = tuple(Var(name, frozenset(m)) for name, m in zip("UVWX", ((0, 1), (1, 2), (2, 3), (0, 3))))
        calls.append(_anchor(Bracket(True, ops), 6, 0, 3))
        slots = ("product", "bracket2", "bracketk", "power", "wedge", "sum", "nested", "product", "bracketk", "power")
        exponents = iter(list(range(2, 10)) * 6)
        for i in range(197):
            slot = slots[i % len(slots)]
            m = next(exponents) if slot == "power" else 0
            add(slot, lambda g, s=slot, m=m: _dense_slot(s, g, m), (6, 7, 8)[i % 3], 3)
        # exponents up to 9 stay int64-safe; these two pass the bound at n = 7
        # and take the exact big-int fallback for a few products each
        for m in (10, 11):
            add("power_high", lambda g, m=m: _dense_slot("power", g, m), 7, 3)
        warm = "U:#1 * V:#1"
    elif workload == "series_float":
        u = Var("U", frozenset((2,)))
        calls.append(_anchor(Fn("exp", u), 5, 0, 3))
        plan = []
        for fn in SERIES:
            plan += [("main", fn, n, t) for t in range(4) for n in (3, 4, 5) for _ in range(4)]
            plan += [("compound", fn, n, None) for n in (3, 4, 5) for _ in range(6)]
            plan += [("bracket", fn, n, None) for n in (3, 4, 5) for _ in range(2)]
        plan += [("exterior", SERIES[i % 5], (3, 4, 5)[i % 3], None) for i in range(39)]
        for slot, fn, n, t in plan:
            add(slot, lambda g, s=slot, fn=fn, t=t: _series_slot(s, g, fn, t), n, 3)
        warm = "exp(U:#1)"
    elif workload == "wide_algebra":
        full = Var("U", frozenset(range(4))), Var("V", frozenset(range(4)))
        calls.append(_anchor(Bin("*", *full), 12, 0, 1))
        add("full_bracket", lambda g: _wide_slot("full_bracket", g), 11, 1)
        # twenty like-sized main-type products hold the median and the tail
        # call, so neither sits on a gap between cost classes
        for _ in range(20):
            add("main_product", lambda g: _wide_slot("main_product", g), 12, 1)
        small = ("rank_product", "rank_bracket", "rank_wedge", "rank_power")
        for i in range(18):
            slot = small[i % len(small)]
            add(slot, lambda g, s=slot: _wide_slot(s, g), (11, 12)[i % 2], 2)
        warm = "U:#1 * V:#1"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    calibration = "memory" if workload == "wide_algebra" else "interpreter"
    return Corpus(workload, seed, tuple(calls), warm, calibration)
