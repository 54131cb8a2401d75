"""A small expression language over typed multivector variables.

Syntax, loosest binding first; the levels 1-5 are the parser's one table
(``_LEVEL``), which ``render`` reads too, and the binary levels group left::

    1  U + V, U - V       sum / difference (U - V is U + (-V))
    2  U V,  U * V        geometric product (juxtaposition works)
    3  U ^ V              exterior product
    4  -U                 negation
    5  U**3, U^^2         Clifford / exterior power (nonnegative integers)
    atoms:
    [A, B, ...]           k-fold commutator          (two or more operands)
    {A, B, ...}           k-fold anticommutator
    exp(U) sin(U) cos(U) sinh(U) cosh(U)       Clifford series
    wexp(U) wsin(U) wcos(U) wsinh(U) wcosh(U)  exterior series
    3, 3/2                scalar literals
    U:1~  V:0~2~  W:#3    variables declared by type or by rank

A variable's declaration must appear at its first use and may be repeated
verbatim afterwards.  ``infer`` computes the quaternion type an expression
is guaranteed to land in, bottom-up from the declarations; ``check``
instantiates the variables with random integer multivectors, evaluates
concretely and verifies the containment, reporting any counterexample with
its reproducer seed.
"""

from __future__ import annotations

import _random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, Iterator, Mapping, Union

from .algebra import ApproxMultivector, Multivector, Signature
from .brackets import kfold
from .powers import ext_power, ext_series_fn, series_fn
from .qtypes import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    SERIES_NAMES,
    BracketKind,
    InfeasibleDeclarationError,
    QType,
    _declared_blade_groups,
    infer_ext_product_set,
    infer_kfold_set,
    infer_power_set,
    infer_product_set,
    qtype_of,
    qtype_of_approx,
    random_of_rank,
    random_of_type,
    series_type,
)

FN_NAMES = tuple(SERIES_NAMES) + tuple("w" + n for n in SERIES_NAMES)

# the C seeding under random.Random.seed: for an int the same state, without
# the Python method around it, and cheaper than a new Random per trial
_reseed = _random.Random.seed


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UntypedVariableError(ValueError):
    """A variable without a declaration reached type inference."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str
    qtype: QType | None = None
    rank: int | None = None

    def declaration(self) -> str:
        if self.rank is not None:
            return f"#{self.rank}"
        if self.qtype is not None:
            return self.qtype.render()
        return ""


@dataclass(frozen=True)
class ScalarLit:
    value: Fraction


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class GeoMul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ExtMul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Bracket:
    kind: BracketKind
    operands: tuple["Expr", ...]


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int
    exterior: bool = False


@dataclass(frozen=True)
class Fn:
    name: str
    operand: "Expr"

    @property
    def exterior(self) -> bool:
        return self.name.startswith("w")

    @property
    def series(self) -> str:
        return self.name[1:] if self.exterior else self.name


Expr = Union[Var, ScalarLit, Neg, Add, GeoMul, ExtMul, Bracket, Power, Fn]


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Var, ScalarLit)):
        return ()
    if isinstance(e, (Neg, Fn)):
        return (e.operand,)
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Bracket):
        return e.operands
    return (e.left, e.right)


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for child in _children(e):
        yield from walk(child)


def variables(e: Expr) -> dict[str, Var]:
    """Distinct variables of an expression, keyed by name."""
    out: dict[str, Var] = {}
    for node in walk(e):
        if isinstance(node, Var):
            out.setdefault(node.name, node)
    return out


# ---------------------------------------------------------------------------
# lexer / parser


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # name | int | op | end
        self.text = text
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<int>\d+)
      | (?P<op>\*\*|\^\^|[()\[\]{},:~\#+\-*^/])
    """,
    re.VERBOSE,
)


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


_ATOM_STARTERS = {"(", "[", "{"}

# The binding levels, loosest first; a node not listed is an atom (level 6).
# parse and render both read them: an infix node's operands bind at its level
# on the left and one above on the right, so every chain groups to the left.
_LEVEL = {Add: 1, GeoMul: 2, ExtMul: 3, Neg: 4, Power: 5}
# the infix tokens: a - b is a + (-b), and an operand right after another,
# with no token between, binds as *
_INFIX = {"+": Add, "-": Add, "*": GeoMul, "^": ExtMul}
_SYMBOL = {node: tok for tok, node in _INFIX.items() if tok != "-"}


class _Parser:
    def __init__(self, src: str, require_types: bool):
        self.toks = _tokenize(src)
        self.i = 0
        self.require_types = require_types
        self.decls: dict[str, Var] = {}  # name -> the declared variable, returned at every use
        self._seen_undeclared: set[str] = set()

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}", tok.pos)
        return self.advance()

    # -- grammar -------------------------------------------------------

    def parse(self) -> Expr:
        e = self.binary()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def binary(self, level: int = 1) -> Expr:
        """Unary operands joined by infix operators of ``level`` or above: precedence climbing (Pratt, POPL 1973)."""
        e = self.unary()
        while True:
            tok = self.peek()
            juxtaposed = tok.kind in ("name", "int") or tok.text in _ATOM_STARTERS
            node = GeoMul if juxtaposed else _INFIX.get(tok.text)
            if node is None or _LEVEL[node] < level:
                return e
            if not juxtaposed:
                self.advance()
            rhs = self.binary(_LEVEL[node] + 1)
            e = node(e, Neg(rhs) if tok.text == "-" else rhs)

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        e = self.atom()
        while self.peek().text in ("**", "^^"):
            op = self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("expected a nonnegative integer exponent", tok.pos)
            self.advance()
            e = Power(e, int(tok.text), exterior=op.text == "^^")
        return e

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            e = self.binary()
            self.expect(")")
            return e
        if tok.text in ("[", "{"):
            return self.bracket()
        if tok.kind == "int":
            return self.number()
        if tok.kind == "name":
            if self.toks[self.i + 1].text == "(":
                return self.call()
            return self.variable()
        raise ParseError(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def bracket(self) -> Expr:
        opener = self.advance()
        kind = BracketKind.COMMUTATOR if opener.text == "[" else BracketKind.ANTICOMMUTATOR
        closer = "]" if opener.text == "[" else "}"
        operands = [self.binary()]
        while self.peek().text == ",":
            self.advance()
            operands.append(self.binary())
        self.expect(closer)
        if len(operands) < 2:
            raise ParseError("brackets need at least two comma-separated operands", opener.pos)
        return Bracket(kind, tuple(operands))

    def number(self) -> Expr:
        tok = self.advance()
        num = int(tok.text)
        if self.peek().text == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "int":
                raise ParseError("expected an integer denominator", den_tok.pos)
            self.advance()
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator", den_tok.pos)
            return ScalarLit(Fraction(num, int(den_tok.text)))
        return ScalarLit(Fraction(num))

    def call(self) -> Expr:
        tok = self.advance()
        if tok.text not in FN_NAMES:
            raise ParseError(f"unknown function {tok.text!r}", tok.pos)
        self.expect("(")
        operand = self.binary()
        self.expect(")")
        return Fn(tok.text, operand)

    def variable(self) -> Expr:
        tok = self.advance()
        name = tok.text
        known = self.decls.get(name)
        if self.peek().text == ":":
            self.advance()
            var = self.declaration(name)
            if known is not None and known != var:
                raise ParseError(f"conflicting redeclaration of {name!r}", tok.pos)
            if known is None and name in self._seen_undeclared:
                raise ParseError(f"variable {name!r} must be declared at its first use", tok.pos)
            self.decls[name] = var
            return var
        if known is not None:
            return known
        if self.require_types:
            raise ParseError(f"missing type declaration on first use of {name!r}", tok.pos)
        self._seen_undeclared.add(name)
        return Var(name)

    def declaration(self, name: str) -> Var:
        tok = self.peek()
        if tok.text == "#":
            self.advance()
            rank_tok = self.peek()
            if rank_tok.kind != "int":
                raise ParseError("expected a rank after '#'", rank_tok.pos)
            self.advance()
            return Var(name, rank=int(rank_tok.text))
        if tok.kind != "int":
            raise ParseError("expected a type or rank declaration after ':'", tok.pos)
        members: list[int] = []
        while self.peek().kind == "int":
            tok = self.advance()
            for ch in tok.text:
                if ch not in "0123":
                    raise ParseError(f"type members must be 0..3, got {ch!r}", tok.pos)
                members.append(int(ch))
            if self.peek().text != "~":
                break
            self.advance()
        return Var(name, qtype=QType(members))


def parse(src: str, require_types: bool = True) -> Expr:
    """Parse an expression; with ``require_types`` every variable must be declared."""
    return _Parser(src, require_types).parse()


# ---------------------------------------------------------------------------
# rendering


def render(e: Expr) -> str:
    """Expression back to source text, with the parentheses that the binding levels need.

    Reparsing yields an equal AST for every AST that :func:`parse`
    returns.  A hand-built AST may not round-trip: a negative
    ``ScalarLit(-3)`` renders as ``-3``, which parses as ``Neg``.
    """
    level = _LEVEL.get(type(e))

    def wrap(child: Expr, limit: int) -> str:
        text = render(child)
        return f"({text})" if _LEVEL.get(type(child), 6) < limit else text

    if isinstance(e, Var):
        decl = e.declaration()
        return f"{e.name}:{decl}" if decl else e.name
    if isinstance(e, ScalarLit):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, level)
    if isinstance(e, (Add, GeoMul, ExtMul)):
        symbol, right = _SYMBOL[type(e)], e.right
        if isinstance(e, Add) and isinstance(right, Neg):
            symbol, right = "-", right.operand
        return f"{wrap(e.left, level)} {symbol} {wrap(right, level + 1)}"
    if isinstance(e, Power):
        op = "^^" if e.exterior else "**"
        return f"{wrap(e.base, level + 1)}{op}{e.exponent}"
    if isinstance(e, Bracket):
        left, right = ("[", "]") if e.kind is BracketKind.COMMUTATOR else ("{", "}")
        return left + ", ".join(render(o) for o in e.operands) + right
    if isinstance(e, Fn):
        return f"{e.name}({render(e.operand)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# static type inference


def _var_type(v: Var) -> QType:
    if v.qtype is not None:
        return v.qtype
    if v.rank is not None:
        return QType((v.rank % 4,))
    raise UntypedVariableError(f"variable {v.name!r} has no type or rank declaration")


def _flatten_geo(e: Expr) -> list[Expr]:
    if isinstance(e, GeoMul):
        return _flatten_geo(e.left) + _flatten_geo(e.right)
    return [e]


def infer(e: Expr) -> QType:
    """Quaternion type guaranteed to contain the value of the expression."""
    if isinstance(e, Var):
        return _var_type(e)
    if isinstance(e, ScalarLit):
        return QType((0,))
    if isinstance(e, Neg):
        return infer(e.operand)
    if isinstance(e, Add):
        return infer(e.left) | infer(e.right)
    if isinstance(e, GeoMul):
        factors = _flatten_geo(e)
        types = [infer(f) for f in factors]
        if all(factors[i] == factors[len(factors) - 1 - i] for i in range(len(factors) // 2)):
            # palindromic chain: the commutator half vanishes, so the product
            # is half its own anticommutator and inherits that type alone
            return infer_kfold_set(ANTICOMMUTATOR, types)
        return infer_product_set(types)
    if isinstance(e, ExtMul):
        return infer_ext_product_set([infer(e.left), infer(e.right)])
    if isinstance(e, Bracket):
        types = [infer(o) for o in e.operands]
        if e.kind is COMMUTATOR and e.operands == e.operands[::-1]:
            # palindromic operands: the reversed product is the forward one
            return QType()
        return infer_kfold_set(e.kind, types)
    if isinstance(e, Power):
        return infer_power_set(infer(e.base), e.exponent, e.exterior)
    if isinstance(e, Fn):
        return series_type(e.series, infer(e.operand), e.exterior)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# concrete evaluation


def has_clifford_series(e: Expr) -> bool:
    return any(isinstance(node, Fn) and not node.exterior for node in walk(e))


def _domain(e: Expr) -> type[Multivector] | type[ApproxMultivector]:
    """Where an expression evaluates: in floats when a Clifford series occurs, else exactly."""
    return ApproxMultivector if has_clifford_series(e) else Multivector


def classify(value: Multivector | ApproxMultivector) -> QType:
    """Quaternion type of an evaluated value, exact or float.

    ``check`` classifies every trial here, and ``cli eval`` the value of
    :func:`evaluate`.  ``qtype_of`` and ``qtype_of_approx`` are looked up
    in this module at every call, so wrappers installed on either are seen.
    """
    return qtype_of_approx(value) if isinstance(value, ApproxMultivector) else qtype_of(value)


def _compile(e: Expr, slots: Mapping[str, int], sig: Signature, cls) -> Callable[[list], object]:
    """``e`` as a function of a list of variable values, in ``cls``: variable ``name`` reads ``values[slots[name]]``.

    Each scalar literal becomes its ``cls`` value once.  Brackets, powers
    and series call this module's ``kfold``, ``ext_power``, ``series_fn``
    and ``ext_series_fn``, looked up at every call, and products use the
    multivector operators, so wrappers installed on either are seen.
    """

    def sub(child: Expr):
        return _compile(child, slots, sig, cls)

    if isinstance(e, Var):
        return itemgetter(slots[e.name])
    if isinstance(e, ScalarLit):
        value = cls.scalar(sig, e.value)
        return lambda values: value
    if isinstance(e, Neg):
        f = sub(e.operand)
        return lambda values: -f(values)
    if isinstance(e, (Add, GeoMul, ExtMul)):
        f, g = sub(e.left), sub(e.right)
        if isinstance(e, Add):
            return lambda values: f(values) + g(values)
        if isinstance(e, GeoMul):
            return lambda values: f(values) * g(values)
        return lambda values: f(values) ^ g(values)
    if isinstance(e, Bracket):
        kind, fs = e.kind, [sub(o) for o in e.operands]
        return lambda values: kfold(kind, [f(values) for f in fs])
    if isinstance(e, Power):
        f, m = sub(e.base), e.exponent
        if e.exterior:
            return lambda values: ext_power(f(values), m)
        return lambda values: f(values) ** m
    if isinstance(e, Fn):
        f, name = sub(e.operand), e.series
        if e.exterior:
            return lambda values: ext_series_fn(name, f(values))
        return lambda values: series_fn(name, f(values))
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, bindings: Mapping[str, Multivector], sig: Signature):
    """Evaluate with concrete bindings; float-valued when Clifford series occur.

    The expression runs as the program that ``check`` runs on each trial.
    Every binding must live in ``sig``; a variable without one raises
    ``KeyError``, the first in order of appearance.
    """
    for name, value in bindings.items():
        if value.sig != sig:
            raise ValueError(f"binding for {name!r} lives in {value.sig}, expected {sig}")
    names = list(variables(e))
    for name in names:
        if name not in bindings:
            raise KeyError(f"no binding for variable {name!r}")
    cls = _domain(e)
    program = _compile(e, {name: i for i, name in enumerate(names)}, sig, cls)
    return program([cls.from_exact(bindings[name]) for name in names])


# ---------------------------------------------------------------------------
# randomized verification


@dataclass(frozen=True)
class TrialFailure:
    trial: int
    seed: int
    observed: QType


@dataclass
class CheckReport:
    expr: str
    signature: Signature
    inferred: QType
    trials: int
    failures: list[TrialFailure] = field(default_factory=list)
    observed: QType = QType()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def tight(self) -> bool:
        """Did the trials exhaust the inferred type set?"""
        return self.observed == self.inferred

    def to_obj(self) -> dict:
        return {
            "expr": self.expr,
            "inferred": self.inferred.render(),
            "trials": self.trials,
            "failures": [
                {"trial": f.trial, "seed": f.seed, "observed": f.observed.render()} for f in self.failures
            ],
            "observed": self.observed.render(),
            "tight": self.tight,
        }

    def format_text(self) -> str:
        lines = [
            f"expr: {self.expr}",
            f"sig: {self.signature}",
            f"inferred: {self.inferred.render()}",
            f"trials: {self.trials}",
            f"failures: {len(self.failures)}",
        ]
        for f in self.failures:
            lines.append(f"  trial {f.trial} (seed {f.seed}): observed {f.observed.render()}")
        lines.append(f"observed: {self.observed.render()}")
        lines.append(f"tight: {'yes' if self.tight else 'no'}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def check(e: Expr | str, sig: Signature, trials: int = 100, seed: int = 0) -> CheckReport:
    """Verify the type of the concrete value ⊆ infer(expression) on random trials.

    Trial i draws from a generator in the state of ``Random(seed + i)``,
    and ``seed + i`` is its reproducer seed: trial 0 uses ``Random(seed)``
    and each later trial reseeds that one generator to ``seed + i``.  A
    negative seed raises ``ValueError``, since ``Random(-s)`` seeds like
    ``Random(s)`` and its trials would repeat others.  A trial samples one
    multivector per distinct variable, in name order (aliased occurrences
    share the sample): a rank declaration draws the blades of that grade, a
    type declaration draws its member residues in ascending order, and
    within each the blades go by grade, then by bit order.  Every blade
    draws an integer coefficient in [-9, 9], ``-9 + getrandbits(5)`` with
    ``getrandbits(5)`` drawn again while it is 19 or more (that is
    ``Random.randint(-9, 9)`` on CPython 3.10-3.13); a residue (or rank)
    whose draw comes out all zero is patched at one random blade.  A sample
    of 256 blades or more takes its 32-bit words in chunks, each one
    ``getrandbits`` call for exactly the words still needed, down to the
    last word, with the same values and the same generator state afterwards
    as the per-blade draw.

    The plan is made once per call: every declaration is resolved, the
    expression compiles into the program that :func:`evaluate` runs, and
    the domain is chosen.  A declaration with an empty blade group (a rank
    outside 0..n, a residue above n) raises
    :class:`InfeasibleDeclarationError` naming the first such variable in
    name order, before trial 0.  Each trial then evaluates exactly, or in
    floats when Clifford series are involved, classifies the value by
    :func:`classify`, and records any containment violation.  A trial whose
    evaluation raises ``ValueError`` (an overflow to a non-finite
    coefficient, say) aborts the check with the error prefixed by
    ``trial i (seed s): ``.
    """
    if isinstance(e, str):
        e = parse(e)
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    inferred = infer(e)
    by_name = sorted(variables(e).items())
    draws = []
    for name, var in by_name:
        declaration = var.qtype if var.rank is None else var.rank
        try:
            _declared_blade_groups(sig, declaration)
        except InfeasibleDeclarationError as exc:
            exc.args = (f"{exc} (variable {name!r})", *exc.args[1:])
            raise
        draws.append((random_of_type if var.rank is None else random_of_rank, declaration))
    cls = _domain(e)
    approx = cls is ApproxMultivector
    program = _compile(e, {name: i for i, (name, _) in enumerate(by_name)}, sig, cls)

    rng = Random(seed)
    failures = []
    observed = frozenset()
    for i in range(trials):
        if i:
            _reseed(rng, seed + i)
        values = [draw(sig, rng, declaration) for draw, declaration in draws]
        if approx:
            values = [ApproxMultivector.from_exact(v) for v in values]
        try:
            got = classify(program(values))
        except ValueError as exc:
            exc.args = (f"trial {i} (seed {seed + i}): {exc}", *exc.args[1:])
            raise
        if not got <= inferred:
            failures.append(TrialFailure(trial=i, seed=seed + i, observed=got))
        observed |= got
    return CheckReport(
        expr=render(e), signature=sig, inferred=inferred, trials=trials, failures=failures, observed=QType(observed)
    )


# ---------------------------------------------------------------------------
# expression files


def strip_comment(line: str) -> str:
    """Drop a trailing comment: '#' at line start or after whitespace.

    A '#' glued to the preceding token (as in the rank syntax ``U:#2``) is
    left alone.
    """
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1].isspace()):
            return line[:i]
    return line


def parse_file(text: str) -> list[tuple[int, str, Expr]]:
    """Parse an expression file: one expression per line, '#' comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        src = strip_comment(raw).strip()
        if not src:
            continue
        try:
            out.append((lineno, src, parse(src)))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", exc.position) from exc
    return out
