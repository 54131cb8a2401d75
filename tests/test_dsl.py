import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from quatype.algebra import ApproxMultivector, Multivector, Signature
from quatype.brackets import kfold
from quatype.dsl import (
    Add,
    Bracket,
    CheckReport,
    ExtMul,
    Fn,
    GeoMul,
    Neg,
    ParseError,
    Power,
    ScalarLit,
    TrialFailure,
    UntypedVariableError,
    Var,
    check,
    classify,
    evaluate,
    has_clifford_series,
    infer,
    parse,
    parse_file,
    render,
    strip_comment,
    variables,
)
from quatype.powers import ext_power, ext_series_fn, series_fn
from quatype.qtypes import (
    BracketKind,
    InfeasibleDeclarationError,
    QType,
    infer_power_set,
    random_of_rank,
    random_of_type,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_bracket_with_declarations():
    e = parse("[U:1, V:2, W:3]")
    assert e == Bracket(
        BracketKind.COMMUTATOR,
        (Var("U", qtype=QType({1})), Var("V", qtype=QType({2})), Var("W", qtype=QType({3}))),
    )


def test_parse_function_and_tilde_declaration():
    assert parse("exp(U:2)") == Fn("exp", Var("U", qtype=QType({2})))
    assert parse("wsinh(U:1~)") == Fn("wsinh", Var("U", qtype=QType({1})))
    assert parse("U:0~2~") == Var("U", qtype=QType({0, 2}))
    assert parse("U:13") == Var("U", qtype=QType({1, 3}))


def test_parse_precedence():
    e = parse("(U:1 * V:1) ^ W:2")
    assert isinstance(e, ExtMul) and isinstance(e.left, GeoMul)
    # without parens the wedge binds tighter than the geometric product
    e = parse("U:1 * V:1 ^ W:2")
    assert isinstance(e, GeoMul) and isinstance(e.right, ExtMul)
    # juxtaposition is the geometric product
    assert parse("U:1 V:2") == GeoMul(Var("U", qtype=QType({1})), Var("V", qtype=QType({2})))
    # unary minus binds tighter than the wedge, looser than postfix powers
    e = parse("-U:1 ^ V:1")
    assert isinstance(e, ExtMul) and isinstance(e.left, Neg)
    e = parse("-U:1**2")
    assert e == Neg(Power(Var("U", qtype=QType({1})), 2))
    # a - b desugars to a + (-b)
    e = parse("U:1 - V:1")
    assert isinstance(e, Add) and isinstance(e.right, Neg)


_A, _B, _C = Var("A"), Var("B"), Var("C")


def _sub(left, right):
    return Add(left, Neg(right))


# every ordered pair of + - * juxtaposition ^ in A op1 B op2 C, then a prefix
# minus and both postfix powers against each of them, each grouping written
# out: + and - bind loosest, then * and juxtaposition, then ^, and each level
# groups to the left
PRECEDENCE_CASES = [
    ("A + B + C", Add(Add(_A, _B), _C)),
    ("A + B - C", _sub(Add(_A, _B), _C)),
    ("A + B * C", Add(_A, GeoMul(_B, _C))),
    ("A + B C", Add(_A, GeoMul(_B, _C))),
    ("A + B ^ C", Add(_A, ExtMul(_B, _C))),
    ("A - B + C", Add(_sub(_A, _B), _C)),
    ("A - B - C", _sub(_sub(_A, _B), _C)),
    ("A - B * C", _sub(_A, GeoMul(_B, _C))),
    ("A - B C", _sub(_A, GeoMul(_B, _C))),
    ("A - B ^ C", _sub(_A, ExtMul(_B, _C))),
    ("A * B + C", Add(GeoMul(_A, _B), _C)),
    ("A * B - C", _sub(GeoMul(_A, _B), _C)),
    ("A * B * C", GeoMul(GeoMul(_A, _B), _C)),
    ("A * B C", GeoMul(GeoMul(_A, _B), _C)),
    ("A * B ^ C", GeoMul(_A, ExtMul(_B, _C))),
    ("A B + C", Add(GeoMul(_A, _B), _C)),
    ("A B - C", _sub(GeoMul(_A, _B), _C)),
    ("A B * C", GeoMul(GeoMul(_A, _B), _C)),
    ("A B C", GeoMul(GeoMul(_A, _B), _C)),
    ("A B ^ C", GeoMul(_A, ExtMul(_B, _C))),
    ("A ^ B + C", Add(ExtMul(_A, _B), _C)),
    ("A ^ B - C", _sub(ExtMul(_A, _B), _C)),
    ("A ^ B * C", GeoMul(ExtMul(_A, _B), _C)),
    ("A ^ B C", GeoMul(ExtMul(_A, _B), _C)),
    ("A ^ B ^ C", ExtMul(ExtMul(_A, _B), _C)),
    ("-A + B", Add(Neg(_A), _B)),
    ("-A - B", _sub(Neg(_A), _B)),
    ("-A * B", GeoMul(Neg(_A), _B)),
    ("-A B", GeoMul(Neg(_A), _B)),
    ("-A ^ B", ExtMul(Neg(_A), _B)),
    ("A + B**2", Add(_A, Power(_B, 2))),
    ("A - B**2", _sub(_A, Power(_B, 2))),
    ("A * B**2", GeoMul(_A, Power(_B, 2))),
    ("A B**2", GeoMul(_A, Power(_B, 2))),
    ("A ^ B**2", ExtMul(_A, Power(_B, 2))),
    ("A + B^^2", Add(_A, Power(_B, 2, exterior=True))),
    ("A - B^^2", _sub(_A, Power(_B, 2, exterior=True))),
    ("A * B^^2", GeoMul(_A, Power(_B, 2, exterior=True))),
    ("A B^^2", GeoMul(_A, Power(_B, 2, exterior=True))),
    ("A ^ B^^2", ExtMul(_A, Power(_B, 2, exterior=True))),
]


@pytest.mark.parametrize("src, expected", PRECEDENCE_CASES, ids=[src for src, _ in PRECEDENCE_CASES])
def test_parse_precedence_pairwise(src, expected):
    e = parse(src, require_types=False)
    assert e == expected
    assert parse(render(e), require_types=False) == e


def test_parse_powers_and_literals():
    assert parse("U:#3 ** 2") == Power(Var("U", rank=3), 2)
    assert parse("U:#2^^3") == Power(Var("U", rank=2), 3, exterior=True)
    assert parse("3/2") == ScalarLit(Fraction(3, 2))
    assert parse("7") == ScalarLit(Fraction(7))
    e = parse("U:1**2**3")
    assert e == Power(Power(Var("U", qtype=QType({1})), 2), 3)


def test_parse_late_use_inherits_declaration():
    e = parse("[U:1, U]")
    assert e.operands[1] == Var("U", qtype=QType({1}))
    # verbatim redeclaration is allowed
    e = parse("U:1 * U:1")
    assert e.left == e.right == Var("U", qtype=QType({1}))


@pytest.mark.parametrize(
    "src",
    [
        "[U, U:1]",  # declared later than first use
        "U",  # missing declaration
        "foo(U:1)",  # unknown function
        "U:5~",  # bad residue
        "U:#",  # missing rank
        "[U:1]",  # bracket arity
        "U:1 +",  # dangling operator
        "3/0",  # zero denominator
        "U:1 * U:#1",  # conflicting redeclaration
        "U:1 * U:2",  # conflicting redeclaration
        "(U:1",  # unbalanced
        "U:1 ** V:1",  # non-integer exponent
        "U:1 @ V:1",  # stray character
        "U:1 / 2",  # '/' only inside literals
    ],
)
def test_parse_errors(src):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "position" in str(err.value)


def test_parse_without_type_requirement():
    e = parse("[U, V]", require_types=False)
    assert e.operands[0] == Var("U")
    # declarations still win when present
    e = parse("U:1 * V", require_types=False)
    assert e.left == Var("U", qtype=QType({1}))
    assert e.right == Var("V")


def test_variables_collection():
    e = parse("[U:1, V:2] * U:1")
    names = variables(e)
    assert set(names) == {"U", "V"}
    assert names["U"].qtype == QType({1})


# ---------------------------------------------------------------------------
# rendering


ROUND_TRIP_CORPUS = [
    "[U:1~, V:2~, W:3~]",
    "{U:1~, V:1~}",
    "exp(U:2~)",
    "wexp(U:#2)",
    "U:1~ * V:2~ * V:2~ * U:1~",
    "(U:1~ + V:2~) ^ W:#3 - 3/2",
    "-U:1~**3 + (U:1~ ^ V:2~)^^2",
    "{[U:0~, V:1~], W:2~, 5}",
    "U:0~2~ * (V:1~ - W:1~)",
    "2 U:1~ 3",
    "wcos(U:#2) ^ V:0~",
    "exp(U:1~) * exp(-U:1~)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
def test_render_round_trip(src):
    e = parse(src)
    assert parse(render(e)) == e


def test_render_forms():
    assert render(parse("[U:1, V:2]")) == "[U:1~, V:2~]"
    assert render(parse("U:#2 ^^ 2")) == "U:#2^^2"
    assert render(parse("U:1 - V:2")) == "U:1~ - V:2~"
    assert render(parse("3/2 * U:1")) == "3/2 * U:1~"
    # a hand-built negative literal renders as a negation, which parse returns as Neg
    assert render(ScalarLit(Fraction(-3))) == "-3"
    assert parse("-3") == Neg(ScalarLit(Fraction(3)))


def test_render_random_expressions_round_trip():
    rng = random.Random(0)
    # one declaration per name, fixed for the whole run, so rendered
    # expressions never redeclare a variable inconsistently
    var_a = Var("A", qtype=QType({0, 3}))
    var_b = Var("B", rank=2)
    leaves = [
        lambda: var_a,
        lambda: var_b,
        lambda: ScalarLit(Fraction(rng.randint(0, 9), rng.randint(1, 9))),
    ]

    def build(depth):
        if depth == 0:
            return rng.choice(leaves)()
        pick = rng.randrange(7)
        if pick == 0:
            return Add(build(depth - 1), build(depth - 1))
        if pick == 1:
            return GeoMul(build(depth - 1), build(depth - 1))
        if pick == 2:
            return ExtMul(build(depth - 1), build(depth - 1))
        if pick == 3:
            return Neg(build(depth - 1))
        if pick == 4:
            return Power(build(depth - 1), rng.randrange(4), exterior=bool(rng.randrange(2)))
        if pick == 5:
            kind = BracketKind.COMMUTATOR if rng.randrange(2) else BracketKind.ANTICOMMUTATOR
            return Bracket(kind, tuple(build(depth - 1) for _ in range(rng.randint(2, 3))))
        return Fn(rng.choice(("exp", "sin", "wcos", "wsinh")), build(depth - 1))

    for _ in range(200):
        e = build(rng.randint(1, 3))
        assert parse(render(e)) == e, render(e)


# ---------------------------------------------------------------------------
# inference


def test_infer_documented_examples():
    assert infer(parse("{U:1, V:2}")) == QType({3})
    assert infer(parse("U:1 * V:2 * V:2 * U:1")) == QType({0})
    assert infer(parse("exp(U:3)")) == QType({0, 3})
    assert infer(parse("3/2")) == QType({0})
    assert infer(parse("{U:0, V:2, W:3}")) == QType({1})
    assert infer(parse("[U:2, V:2, W:2]")) == QType({0})


def test_infer_nodes():
    assert infer(parse("U:1 + V:2")) == QType({1, 2})
    assert infer(parse("-U:0~2~")) == QType({0, 2})
    assert infer(parse("U:1 ^ V:2")) == QType({3})
    assert infer(parse("U:1 ^ V:1")) == QType({2})
    assert infer(parse("U:#3")) == QType({3})
    assert infer(parse("U:#3 ** 2")) == QType({0})
    assert infer(parse("U:#3 ** 3")) == QType({3})
    assert infer(parse("U:1 ** 0")) == QType({0})
    assert infer(parse("U:0~1~ * V:1~")) == QType({0, 1, 2, 3})
    assert infer(parse("U:0~2~ * V:1~")) == QType({1, 3})
    assert infer(parse("U:#2 ^^ 2")) == QType({0})
    assert infer(parse("U:1~ ^^ 3")) == QType({3})
    # series of compound types stay sound
    assert infer(parse("exp(U:0~2~)")) == QType({0, 2})
    assert infer(parse("sin(U:0~2~)")) == QType({0, 2})
    assert infer(parse("cos(U:2~)")) == QType({0})
    assert infer(parse("wexp(U:2~)")) == QType({0, 2})
    assert infer(parse("wsin(U:3~)")) == QType({1, 3})
    assert infer(parse("wcos(U:1~)")) == QType({0, 2})


def test_infer_untyped_variable():
    e = parse("[U, V]", require_types=False)
    with pytest.raises(UntypedVariableError):
        infer(e)


def test_infer_palindrome_aliasing_is_syntactic():
    # same name, same declaration: palindrome applies
    assert infer(parse("U:1 * V:3 * V:3 * U:1")) == QType({0})
    # different outer variables: only the parity envelope is sound
    assert infer(parse("U:1 * V:3 * V:3 * W:1")) == QType({0, 2})
    # a bracket whose operands read the same backwards: its commutator is 0,
    # its anticommutator keeps the k-fold type
    assert infer(parse("[U:1, V:2, U]")) == QType()
    assert infer(parse("[U:0, U]")) == QType()
    assert infer(parse("[U:1 * V:2, W:3, U * V]")) == QType()
    assert infer(parse("{U:1, V:2, U}")) == QType({2})
    assert infer(parse("{U:0, U}")) == QType({0})
    # equal operands that are not the same AST, or another variable, do not count
    assert infer(parse("[U:1, V:2, W:1]")) == QType({0})
    assert infer(parse("[U:1 * V:2, W:3, V * U]")) == QType({1, 3})


# ---------------------------------------------------------------------------
# evaluation and check


def test_evaluate_with_bindings():
    sig = Signature(2, 0)
    e = parse("[U, V]", require_types=False)
    bindings = {"U": Multivector.generator(sig, 1), "V": Multivector.generator(sig, 2)}
    assert evaluate(e, bindings, sig) == Multivector.blade(sig, [1, 2], 2)
    with pytest.raises(KeyError):
        evaluate(e, {"U": bindings["U"]}, sig)
    wrong = {"U": Multivector.generator(Signature(3, 0), 1), "V": bindings["V"]}
    with pytest.raises(ValueError):
        evaluate(e, wrong, sig)


def test_evaluate_series_goes_float():
    sig = Signature(2, 0)
    e = parse("exp(U)", require_types=False)
    value = evaluate(e, {"U": Multivector.blade(sig, [1, 2])}, sig)
    assert isinstance(value, ApproxMultivector)
    assert value.coefficient(0) == pytest.approx(math.cos(1.0))


def test_evaluate_float_literal_without_variables():
    value = evaluate(parse("exp(2)", require_types=False), {}, Signature(2, 0))
    assert isinstance(value, ApproxMultivector)
    assert value.coefficient(0) == pytest.approx(math.e**2, rel=1e-12)
    assert classify(value) == QType({0})


def test_check_aliasing_shares_samples():
    report = check("[U:0, U:0]", Signature(4, 0), trials=25, seed=0)
    assert report.ok
    assert report.observed == QType()  # [U, U] is exactly zero every trial
    assert report.inferred == QType() and report.tight  # a palindromic commutator infers ⊥


def test_check_pair_soundness():
    report = check("{U:1, V:1}", Signature(3, 1), trials=100, seed=0)
    assert report.ok
    assert report.inferred == QType({0})
    assert report.observed <= QType({0})


def test_check_rank_power():
    report = check("U:#2 ** 2", Signature(4, 0), trials=50, seed=0)
    assert report.ok
    assert report.inferred == QType({0})


def test_power_type_costs_the_same_for_every_exponent():
    # the reach sets of m copies cycle, so a huge exponent reduces into the cycle
    for mask in range(16):
        t = QType(r for r in range(4) if mask >> r & 1)
        for exterior in (False, True):
            for j in range(4):
                assert infer_power_set(t, 10**18 + j, exterior) == infer_power_set(t, 64 + j, exterior), (t, j)
    assert infer(parse("U:0~1~**1000000000000000000")) == QType({0, 1})
    # square-and-multiply: the wedge powers die after a few squarings
    assert check("U:2^^1000000000000000000", Signature(3, 0), trials=3).ok


def test_check_series_expression():
    report = check("exp(U:3)", Signature(4, 0), trials=15, seed=0)
    assert report.ok
    assert report.inferred == QType({0, 3})


@pytest.mark.parametrize("expr", ["sin(U:1)", "cos(U:1)", "sinh(U:2)", "cosh(U:2)"])
def test_check_series_has_no_false_failures(expr):
    # large operands: float noise in the series once put residues outside the type
    report = check(expr, Signature(5, 0), trials=200, seed=0)
    assert report.failures == []


ALL_TYPES = [QType(c) for k in range(5) for c in itertools.combinations(range(4), k)]


def test_check_infeasible_declarations():
    with pytest.raises(InfeasibleDeclarationError):
        check("U:#5 ** 2", Signature(3, 0))
    with pytest.raises(InfeasibleDeclarationError):
        check("U:3~", Signature(2, 0))
    # two infeasible variables: the first in name order is named, before any evaluation
    with pytest.raises(InfeasibleDeclarationError, match=r"^type 3~ is infeasible in Cl\(2,0\) \(variable 'V'\)$"):
        check("[W:#3, V:3~] + U:1~", Signature(2, 0))
    # the one rule, exhaustively: a declaration can be drawn exactly when each of
    # its blade groups is nonempty, i.e. every member residue is at most n, or
    # the rank lies in 0..n
    rng = random.Random(0)
    for n in range(1, 13):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            declarations = [(t, t.render(), max(t, default=0) <= n, random_of_type, "type") for t in ALL_TYPES]
            declarations += [(r, f"#{r}", 0 <= r <= n, random_of_rank, "rank") for r in range(-1, n + 2)]
            for decl, text, feasible, draw, kind in declarations:
                if feasible:
                    draw(sig, rng, decl)
                    continue
                with pytest.raises(InfeasibleDeclarationError):
                    draw(sig, rng, decl)
                if decl == -1:
                    continue  # '#-1' does not parse
                with pytest.raises(InfeasibleDeclarationError) as info:
                    check(f"[A:0~, U:{text}]", sig, trials=1)
                what = f"rank {decl}" if kind == "rank" else f"type {text}"
                assert str(info.value) == f"{what} is infeasible in {sig} (variable 'U')"


def test_check_records_failures_and_keeps_sweeping(monkeypatch):
    # containment holds on real expressions, so a classifier that answers 3~
    # on trials 1 and 3 drives check's own failure path
    import quatype.dsl as dsl

    real, calls = dsl.qtype_of, []

    def flaky_qtype_of(value):
        calls.append(value)
        return QType({3}) if len(calls) in (2, 4) else real(value)

    monkeypatch.setattr(dsl, "qtype_of", flaky_qtype_of)
    report = check("[U:1~, V:2~]", Signature(3, 0), trials=6, seed=10)
    assert report.failures == [
        TrialFailure(trial=1, seed=11, observed=QType({3})),
        TrialFailure(trial=3, seed=13, observed=QType({3})),
    ]
    assert len(calls) == 6  # the trials after each failure still ran
    assert report.observed == QType({1, 3})
    assert not report.ok and not report.tight
    text = report.format_text()
    assert "failures: 2" in text and "  trial 3 (seed 13): observed 3~" in text
    assert text.endswith("FAIL")
    assert report.to_obj()["failures"] == [
        {"trial": 1, "seed": 11, "observed": "3~"},
        {"trial": 3, "seed": 13, "observed": "3~"},
    ]


def test_check_is_deterministic():
    a = check("[U:1, V:2]", Signature(3, 0), trials=30, seed=5)
    b = check("[U:1, V:2]", Signature(3, 0), trials=30, seed=5)
    assert a.to_obj() == b.to_obj()


def test_check_accepts_string_or_ast():
    e = parse("[U:1, V:3]")
    assert check(e, Signature(3, 1), trials=10, seed=0).ok


def test_check_rejects_a_negative_seed():
    # Random(-s) seeds like Random(s): seeds -3..3 would run three trials twice
    with pytest.raises(ValueError, match=r"^seed must be nonnegative$"):
        check("[U:1, V:2]", Signature(4, 0), trials=7, seed=-3)
    assert check("[U:1, V:2]", Signature(4, 0), trials=7, seed=0).ok


def test_check_report_shape():
    report = check("{U:1, V:1}", Signature(3, 1), trials=20, seed=1)
    assert type(report.observed) is QType and report.observed.render() == "0~"
    obj = report.to_obj()
    assert set(obj) == {"expr", "inferred", "trials", "failures", "observed", "tight"}
    assert obj["trials"] == 20
    assert obj["failures"] == []
    assert isinstance(obj["tight"], bool)
    json.dumps(obj)  # serializable
    text = report.format_text()
    assert text.endswith("PASS")


def test_check_report_failure_formatting():
    report = CheckReport(
        expr="[U:1~, V:2~]",
        signature=Signature(3, 0),
        inferred=QType({0}),
        trials=2,
        failures=[TrialFailure(trial=1, seed=6, observed=QType({1}))],
        observed=QType({0, 1}),
    )
    assert not report.ok
    text = report.format_text()
    assert "trial 1 (seed 6): observed 1~" in text
    assert text.endswith("FAIL")
    assert report.to_obj()["failures"] == [{"trial": 1, "seed": 6, "observed": "1~"}]


def test_soundness_over_random_expressions():
    # the headline property: check never finds a containment failure on
    # expressions built from the supported constructs
    sources = [
        "[U:1, V:2, W:3]",
        "{U:0~2~, V:1~}",
        "[U:1, V:1, W:1, X:1]",
        "U:1 * V:2 * V:2 * U:1",
        "U:#2 ** 3",
        "U:#3 ^^ 2",
        "wexp(U:#2)",
        "(U:1 + V:3) * (U:1 - V:3)",
        "{[U:0, V:1], W:2, 5}",
        "U:1 ^ V:2 ^ W:0",
        "[U:0~1~2~3~, V:2~]",
    ]
    for src in sources:
        for sig in (Signature(4, 0), Signature(2, 3)):
            report = check(src, sig, trials=20, seed=11)
            assert report.ok, (src, sig, report.format_text())


# ---------------------------------------------------------------------------
# the compiled trial loop against a reference loop


def _reference_evaluate(e, env, sig, cls):
    """A tree-walking evaluator: the reference for the program that check compiles."""
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, ScalarLit):
        return cls.scalar(sig, e.value)
    if isinstance(e, Neg):
        return -_reference_evaluate(e.operand, env, sig, cls)
    if isinstance(e, Add):
        return _reference_evaluate(e.left, env, sig, cls) + _reference_evaluate(e.right, env, sig, cls)
    if isinstance(e, GeoMul):
        return _reference_evaluate(e.left, env, sig, cls) * _reference_evaluate(e.right, env, sig, cls)
    if isinstance(e, ExtMul):
        return _reference_evaluate(e.left, env, sig, cls) ^ _reference_evaluate(e.right, env, sig, cls)
    if isinstance(e, Bracket):
        return kfold(e.kind, [_reference_evaluate(o, env, sig, cls) for o in e.operands])
    if isinstance(e, Power):
        base = _reference_evaluate(e.base, env, sig, cls)
        return ext_power(base, e.exponent) if e.exterior else base**e.exponent
    if isinstance(e, Fn):
        operand = _reference_evaluate(e.operand, env, sig, cls)
        return (ext_series_fn if e.exterior else series_fn)(e.series, operand)
    raise TypeError(f"not an expression node: {e!r}")


def _reference_draw(sig, rng, var):
    return random_of_rank(sig, rng, var.rank) if var.rank is not None else random_of_type(sig, rng, var.qtype)


def _reference_check(src, sig, trials, seed):
    """check's report and the value of each trial, from a new Random(seed + i) per trial and the reference evaluator."""
    e = parse(src)
    inferred = infer(e)
    cls = ApproxMultivector if has_clifford_series(e) else Multivector
    failures, observed, values = [], QType(), []
    for i in range(trials):
        rng = random.Random(seed + i)
        env = {name: cls.from_exact(_reference_draw(sig, rng, var)) for name, var in sorted(variables(e).items())}
        values.append(_reference_evaluate(e, env, sig, cls))
        got = classify(values[-1])
        if not got <= inferred:
            failures.append(TrialFailure(trial=i, seed=seed + i, observed=got))
        observed |= got
    return CheckReport(render(e), sig, inferred, trials, failures, observed), values


ORACLE_CORPUS = [
    # rank and type declarations, an aliased variable, a Fraction literal,
    # both brackets, both powers, an exterior series
    "{[U:1~, V:#2, U], W:0~2~, 3/2} - (U ^ V)**2 + W^^2 * wexp(V)",
    # a Clifford series takes the whole expression to floats
    "exp(1/8 * [U:1~, V:#2]) + {U, V}^^2 - sin(V) ^ U",
]


@pytest.mark.parametrize("src", ORACLE_CORPUS)
@pytest.mark.parametrize("sig", [Signature(4, 0), Signature(2, 3)], ids=str)
def test_check_equals_the_reference_loop(src, sig, monkeypatch):
    # the same report, and the same value classified on every trial
    import quatype.dsl as dsl

    expected, expected_values = _reference_check(src, sig, 20, 3)
    values = []
    for name in ("qtype_of", "qtype_of_approx"):

        def recording(value, _classify=getattr(dsl, name)):
            values.append(value)
            return _classify(value)

        monkeypatch.setattr(dsl, name, recording)
    report = check(src, sig, trials=20, seed=3)
    assert report.to_obj() == expected.to_obj()
    assert [(type(v), v.terms()) for v in values] == [(type(v), v.terms()) for v in expected_values]


def test_check_reseeds_to_the_state_of_a_new_generator(monkeypatch):
    # after each draw, check's one generator is where a new Random(seed + i)
    # is after the same draws
    import quatype.dsl as dsl

    states = []
    for name in ("random_of_type", "random_of_rank"):

        def recording(sig, rng, declaration, _draw=getattr(dsl, name)):
            value = _draw(sig, rng, declaration)
            states.append(rng.getstate())
            return value

        monkeypatch.setattr(dsl, name, recording)
    src, sig, trials, seed = ORACLE_CORPUS[0], Signature(4, 0), 20, 7
    check(src, sig, trials=trials, seed=seed)
    by_name = [var for _, var in sorted(variables(parse(src)).items())]
    expected = []
    for i in range(trials):
        rng = random.Random(seed + i)
        for var in by_name:
            _reference_draw(sig, rng, var)
            expected.append(rng.getstate())
    assert states == expected


# ---------------------------------------------------------------------------
# expression files


def test_strip_comment_rules():
    assert strip_comment("# whole line") == ""
    assert strip_comment("[U:1, V:2]  # trailing") == "[U:1, V:2]  "
    assert strip_comment("U:#2 ** 2") == "U:#2 ** 2"
    assert strip_comment("U:#2 ** 2 # ok") == "U:#2 ** 2 "


def test_parse_file():
    text = "\n".join(
        [
            "# header comment",
            "",
            "[U:1~, V:3~]   # pair",
            "U:#2 ** 2",
        ]
    )
    entries = parse_file(text)
    assert [(lineno, src) for lineno, src, _ in entries] == [(3, "[U:1~, V:3~]"), (4, "U:#2 ** 2")]
    with pytest.raises(ParseError) as err:
        parse_file("[U:1~,\n")
    assert "line 1" in str(err.value)
