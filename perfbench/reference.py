"""Independent dict-of-blades evaluator that cross-checks ``check`` reports.

A blade is a bit set over the generators (bit i for generator i+1) and a
multivector is a dict from blade to an exact int or Fraction.  The sign of a
blade product is written here from popcount parity, independently of the
library: moving every generator of ``b`` left past the generators of ``a``
with a higher index costs one transposition per such pair, and each shared
generator that squares to -1 flips the sign once more.

Only the operands come from quatype: the trials are re-sampled with the
library's public samplers under the same per-trial seeds that ``check``
uses, because the benchmark verifies the evaluation and the type rules, not
the sampler.  No quatype product, bracket, power or series code runs here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from random import Random

import corpus as C


class OverBudget(Exception):
    """The reference would form more blade pairs than it may spend on a call."""


def _sign(a: int, b: int, neg_mask: int) -> int:
    swaps = 0
    for i in range(1, a.bit_length()):
        swaps += ((a >> i) & b).bit_count()
    swaps += (a & b & neg_mask).bit_count()
    return -1 if swaps & 1 else 1


class Evaluator:
    """Exact evaluation of corpus ASTs in Cl(p,q), counting blade pairs."""

    def __init__(self, p: int, q: int, budget: int):
        self.n = p + q
        self.neg_mask = ((1 << self.n) - 1) ^ ((1 << p) - 1)
        self.budget = budget
        self.pairs = 0

    def _spend(self, pairs: int) -> None:
        self.pairs += pairs
        if self.pairs > self.budget:
            raise OverBudget

    def mul(self, x: dict, y: dict, wedge: bool = False) -> dict:
        self._spend(len(x) * len(y))
        out: dict = {}
        for a, u in x.items():
            for b, v in y.items():
                if wedge and a & b:
                    continue
                blade = a ^ b
                out[blade] = out.get(blade, 0) + _sign(a, b, 0 if wedge else self.neg_mask) * u * v
        return {k: v for k, v in out.items() if v}

    @staticmethod
    def add(x: dict, y: dict, scale: int = 1) -> dict:
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, 0) + scale * v
        return {k: v for k, v in out.items() if v}

    def chain(self, factors: list) -> dict:
        acc = factors[0]
        for f in factors[1:]:
            acc = self.mul(acc, f)
        return acc

    def ext_series(self, name: str, u: dict) -> dict:
        if u.get(0):
            raise ValueError("exterior series of an element with a scalar part is infinite")
        acc: dict = {}
        power = {0: 1}
        for j in range(self.n + 2):
            odd = j & 1
            if (name == "exp") or (odd and name in ("sin", "sinh")) or (not odd and name in ("cos", "cosh")):
                sign = -1 if name in ("sin", "cos") and (j // 2) & 1 else 1
                acc = self.add(acc, {k: Fraction(sign * v, factorial(j)) for k, v in power.items()})
            power = self.mul(power, u, wedge=True)
            if not power:
                break
        return acc

    def eval(self, e, env: dict) -> dict:
        if isinstance(e, C.Var):
            return env[e.name]
        if isinstance(e, C.Lit):
            return {0: e.value} if e.value else {}
        if isinstance(e, C.Bin):
            x, y = self.eval(e.left, env), self.eval(e.right, env)
            if e.op == "+":
                return self.add(x, y)
            if e.op == "-":
                return self.add(x, y, -1)
            return self.mul(x, y, wedge=e.op == "^")
        if isinstance(e, C.Bracket):
            ops = [self.eval(o, env) for o in e.operands]
            return self.add(self.chain(ops), self.chain(ops[::-1]), -1 if e.commutator else 1)
        if isinstance(e, C.Pow):
            x = self.eval(e.base, env)
            acc = {0: 1}
            for _ in range(e.exponent):
                acc = self.mul(acc, x, wedge=e.exterior)
            return acc
        if isinstance(e, C.Fn) and e.name.startswith("w"):
            return self.ext_series(e.name[1:], self.eval(e.operand, env))
        raise TypeError(f"the reference evaluates exact expressions only, not {e!r}")


def residues(x: dict) -> frozenset:
    return frozenset(b.bit_count() % 4 for b, v in x.items() if v)


def sample(call: C.Call, trial_seed: int) -> dict[str, dict]:
    """The operands ``check`` draws for one trial, as plain blade dicts."""
    from quatype.algebra import Signature
    from quatype.qtypes import QType, random_of_rank, random_of_type

    sig = Signature(call.p, call.q)
    rng = Random(trial_seed)
    out = {}
    for name, var in sorted(C.variables(call.tree).items()):
        if var.rank is not None:
            mv = random_of_rank(sig, rng, var.rank)
        else:
            mv = random_of_type(sig, rng, QType(var.members))
        out[name] = dict(mv.terms())
    return out


def verify(call: C.Call, inferred: frozenset, observed: frozenset, failed_trials: list[int],
           budget: int) -> tuple[str | None, int]:
    """Re-evaluate every trial of a call: (disagreement or None, blade pairs spent).

    Raises :class:`OverBudget` when the call needs more than ``budget`` blade
    pairs.  The union of reference types must equal the report's observed
    set and lie in the inferred type, and the trials outside the inferred
    type must be exactly the report's failures.
    """
    ev = Evaluator(call.p, call.q, budget)
    union: frozenset = frozenset()
    outside = []
    for i in range(call.trials):
        got = residues(ev.eval(call.tree, sample(call, call.seed + i)))
        union |= got
        if not got <= inferred:
            outside.append(i)
    problem = None
    if union != observed:
        problem = f"observed {sorted(observed)} but the reference found {sorted(union)}"
    elif not union <= inferred:
        problem = f"reference types {sorted(union)} escape the inferred {sorted(inferred)}"
    elif outside != failed_trials:
        problem = f"failures at trials {failed_trials} but the reference fails {outside}"
    return problem, ev.pairs
