"""A small expression language over typed multivector variables.

Syntax, loosest binding first::

    U + V, U - V          sum / difference
    U V,  U * V           geometric product (juxtaposition works)
    U ^ V                 exterior product
    -U                    negation
    U**3, U^^2            Clifford / exterior power (nonnegative integers)
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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterator, Mapping, Union

from .algebra import ApproxMultivector, Multivector, Signature
from .brackets import kfold
from .powers import ext_power, ext_series_fn, series_fn
from .qtypes import (
    ANTICOMMUTATOR,
    SERIES_NAMES,
    BracketKind,
    InfeasibleDeclarationError,
    QType,
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


@dataclass(frozen=True)
class _Token:
    kind: str  # name | int | op | end
    text: str
    pos: int


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


class _Parser:
    def __init__(self, src: str, require_types: bool):
        self.src = src
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

    # -- grammar levels ------------------------------------------------

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            e = Add(e, Neg(rhs)) if op == "-" else Add(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.wedge()
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.advance()
                e = GeoMul(e, self.wedge())
            elif tok.kind in ("name", "int") or tok.text in _ATOM_STARTERS:
                e = GeoMul(e, self.wedge())  # juxtaposition
            else:
                return e

    def wedge(self) -> Expr:
        e = self.unary()
        while self.peek().text == "^":
            self.advance()
            e = ExtMul(e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.advance()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self) -> Expr:
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
            e = self.expr()
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
        operands = [self.expr()]
        while self.peek().text == ",":
            self.advance()
            operands.append(self.expr())
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
        operand = self.expr()
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
        while True:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                for ch in tok.text:
                    if ch not in "0123":
                        raise ParseError(f"type members must be 0..3, got {ch!r}", tok.pos)
                    members.append(int(ch))
                if self.peek().text == "~":
                    self.advance()
                    continue
                break
            break
        return Var(name, qtype=QType(members))


def parse(src: str, require_types: bool = True) -> Expr:
    """Parse an expression; with ``require_types`` every variable must be declared."""
    return _Parser(src, require_types).parse()


# ---------------------------------------------------------------------------
# rendering


def _prec(e: Expr) -> int:
    if isinstance(e, Add):
        return 1
    if isinstance(e, GeoMul):
        return 2
    if isinstance(e, ExtMul):
        return 3
    if isinstance(e, Neg):
        return 4
    if isinstance(e, Power):
        return 5
    return 6


def render(e: Expr) -> str:
    """Expression back to source text; reparsing yields an equal AST."""

    def wrap(child: Expr, limit: int) -> str:
        text = render(child)
        return f"({text})" if _prec(child) < limit else text

    if isinstance(e, Var):
        decl = e.declaration()
        return f"{e.name}:{decl}" if decl else e.name
    if isinstance(e, ScalarLit):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, Neg):
        return "-" + wrap(e.operand, 4)
    if isinstance(e, Add):
        left = wrap(e.left, 1)
        if isinstance(e.right, Neg):
            return f"{left} - {wrap(e.right.operand, 2)}"
        return f"{left} + {wrap(e.right, 2)}"
    if isinstance(e, GeoMul):
        return f"{wrap(e.left, 2)} * {wrap(e.right, 3)}"
    if isinstance(e, ExtMul):
        return f"{wrap(e.left, 3)} ^ {wrap(e.right, 4)}"
    if isinstance(e, Power):
        op = "^^" if e.exterior else "**"
        return f"{wrap(e.base, 6)}{op}{e.exponent}"
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
        return infer_kfold_set(e.kind, [infer(o) for o in e.operands])
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
    """Quaternion type of an evaluated value, exact or float."""
    return qtype_of_approx(value) if isinstance(value, ApproxMultivector) else qtype_of(value)


def _evaluate(e: Expr, env: Mapping[str, object], sig: Signature, cls):
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise KeyError(f"no binding for variable {e.name!r}") from None
    if isinstance(e, ScalarLit):
        return cls.scalar(sig, e.value)
    if isinstance(e, Neg):
        return -_evaluate(e.operand, env, sig, cls)
    if isinstance(e, Add):
        return _evaluate(e.left, env, sig, cls) + _evaluate(e.right, env, sig, cls)
    if isinstance(e, GeoMul):
        return _evaluate(e.left, env, sig, cls) * _evaluate(e.right, env, sig, cls)
    if isinstance(e, ExtMul):
        return _evaluate(e.left, env, sig, cls) ^ _evaluate(e.right, env, sig, cls)
    if isinstance(e, Bracket):
        return kfold(e.kind, [_evaluate(o, env, sig, cls) for o in e.operands])
    if isinstance(e, Power):
        base = _evaluate(e.base, env, sig, cls)
        return ext_power(base, e.exponent) if e.exterior else base**e.exponent
    if isinstance(e, Fn):
        operand = _evaluate(e.operand, env, sig, cls)
        if e.exterior:
            return ext_series_fn(e.series, operand)
        return series_fn(e.series, operand)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, bindings: Mapping[str, Multivector], sig: Signature):
    """Evaluate with concrete bindings; float-valued when Clifford series occur."""
    for name, value in bindings.items():
        if value.sig != sig:
            raise ValueError(f"binding for {name!r} lives in {value.sig}, expected {sig}")
    cls = _domain(e)
    return _evaluate(e, {k: cls.from_exact(v) for k, v in bindings.items()}, sig, cls)


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


def _sample_variable(sig: Signature, rng: Random, var: Var) -> Multivector:
    try:
        if var.rank is not None:
            return random_of_rank(sig, rng, var.rank)
        return random_of_type(sig, rng, var.qtype)
    except InfeasibleDeclarationError as exc:
        exc.args = (f"{exc} (variable {var.name!r})", *exc.args[1:])
        raise


def check(e: Expr | str, sig: Signature, trials: int = 100, seed: int = 0) -> CheckReport:
    """Verify the type of the concrete value ⊆ infer(expression) on random trials.

    Trial i draws from ``Random(seed + i)``, its reproducer seed.  It samples
    one multivector per distinct variable, in name order (aliased
    occurrences share the sample): a rank declaration draws the blades of
    that grade, a type declaration draws its member residues in ascending
    order, and within each the blades go by grade, then by bit order.  Every
    blade draws an integer coefficient in [-9, 9], ``-9 + getrandbits(5)``
    with ``getrandbits(5)`` drawn again while it is 19 or more (that is
    ``Random.randint(-9, 9)`` on CPython 3.10-3.13); a residue (or rank)
    whose draw comes out all zero is patched at one random blade.  A
    sample of 256 blades or more takes its 32-bit words in chunks of one
    ``getrandbits`` call, with the same values and the same generator
    state afterwards as the per-blade draw.  The trial
    evaluates exactly, or in floats when Clifford series are involved, and
    records any containment violation.  A declaration with an empty blade
    group (a rank outside 0..n, a residue above n) raises
    :class:`InfeasibleDeclarationError` naming its variable at trial 0's
    draw, before anything is evaluated.  A trial whose evaluation raises
    ``ValueError`` (an overflow to a non-finite coefficient, say) aborts the
    check with the error prefixed by ``trial i (seed s): ``.
    """
    if isinstance(e, str):
        e = parse(e)
    if trials < 1:
        raise ValueError("need at least one trial")
    inferred = infer(e)
    by_name = sorted(variables(e).items())
    cls = _domain(e)
    report = CheckReport(expr=render(e), signature=sig, inferred=inferred, trials=trials)
    for i in range(trials):
        trial_seed = seed + i
        rng = Random(trial_seed)
        env = {name: cls.from_exact(_sample_variable(sig, rng, var)) for name, var in by_name}
        try:
            got = classify(_evaluate(e, env, sig, cls))
        except ValueError as exc:
            exc.args = (f"trial {i} (seed {trial_seed}): {exc}", *exc.args[1:])
            raise
        if not got <= inferred:
            report.failures.append(TrialFailure(trial=i, seed=trial_seed, observed=got))
        report.observed |= got
    return report


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
