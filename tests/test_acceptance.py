"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
All tolerances are fixed here; the exact-arithmetic criteria use equality.
"""

import functools
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quatype.algebra import ApproxMultivector, Multivector, Signature, random_multivector
from quatype.brackets import enumerate_trees, eval_tree, expand_kfold, expand_product, kfold
from quatype.cli import table_musical, table_pair, table_threefold_fixed, table_triple
from quatype.powers import (
    cl_power,
    ext_power,
    ext_series_fn,
    predict_cl_power,
    predict_cl_power_qtype,
    predict_ext_power,
    predict_series_qtype,
    series_fn,
)
from quatype.qtypes import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    MusicalOp,
    QType,
    infer_kfold,
    infer_pair,
    infer_product,
    klein_table,
    musical_apply,
    musical_compose,
    qtype_of,
    qtype_of_approx,
    random_of_type,
    triple_table,
)

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

I, SHARP, FLAT, NATURAL = MusicalOp.IDENTITY, MusicalOp.SHARP, MusicalOp.FLAT, MusicalOp.NATURAL


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL - {desc}", flush=True)
                raise
            print(f"ACCEPTANCE {num:02d} PASS - {desc}", flush=True)
            return result

        return wrapper

    return deco


def signatures_up_to(n_max):
    for n in range(1, n_max + 1):
        for p in range(n + 1):
            yield Signature(p, n - p)


def feasible_types(sig):
    return [t for t in range(4) if any(g % 4 == t for g in range(sig.n + 1))]


# ---------------------------------------------------------------------------


@criterion(1, "exact expansion identities for k in 2..5, all signatures n <= 5")
def test_criterion_01_exact_expansions():
    rng = random.Random(101)
    for sig in signatures_up_to(5):
        for k in (2, 3, 4, 5):
            for _ in range(25):
                us = [random_multivector(sig, rng) for _ in range(k)]
                chain = us[0]
                for u in us[1:]:
                    chain = chain * u
                assert expand_product(us) == chain, (sig, k)
                assert expand_kfold(COMMUTATOR, us) == kfold(COMMUTATOR, us), (sig, k)
                assert expand_kfold(ANTICOMMUTATOR, us) == kfold(ANTICOMMUTATOR, us), (sig, k)


PAIR_COMM_CELLS = {
    (0, 0): 2, (1, 1): 2, (2, 2): 2, (3, 3): 2,
    (0, 2): 0, (1, 2): 1, (2, 2): 2, (3, 2): 3, (2, 0): 0, (2, 1): 1, (2, 3): 3,
    (0, 1): 3, (1, 0): 3, (0, 3): 1, (3, 0): 1, (1, 3): 0, (3, 1): 0,
}
PAIR_ANTI_CELLS = {
    (0, 0): 0, (1, 1): 0, (2, 2): 0, (3, 3): 0,
    (1, 0): 1, (2, 0): 2, (3, 0): 3, (0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 0): 0,
    (1, 2): 3, (2, 1): 3, (1, 3): 2, (3, 1): 2, (2, 3): 1, (3, 2): 1,
}
TRIPLE_TABLE_ROWS = {
    (0, 0, 0): (0, 2), (0, 0, 1): (1, 3), (0, 0, 2): (2, 0), (0, 0, 3): (3, 1),
    (0, 1, 1): (0, 2), (0, 1, 2): (3, 1), (0, 1, 3): (2, 0), (0, 2, 2): (0, 2),
    (0, 2, 3): (1, 3), (0, 3, 3): (0, 2), (1, 1, 1): (1, 3), (1, 1, 2): (2, 0),
    (1, 1, 3): (3, 1), (1, 2, 2): (1, 3), (1, 2, 3): (0, 2), (1, 3, 3): (1, 3),
    (2, 2, 2): (2, 0), (2, 2, 3): (3, 1), (2, 3, 3): (2, 0), (3, 3, 3): (3, 1),
}
THREEFOLD_FIXED_ANTI = {
    (0, 0): I, (1, 1): I, (2, 2): I, (3, 3): I,
    (0, 2): SHARP, (1, 3): SHARP, (0, 1): FLAT, (2, 3): FLAT, (0, 3): NATURAL, (1, 2): NATURAL,
}


@criterion(2, "pair and triple type tables reproduce the known cells, goldens byte-match")
def test_criterion_02_type_tables():
    for (k, l), want in PAIR_COMM_CELLS.items():
        assert infer_pair(COMMUTATOR, k, l) == want
    for (k, l), want in PAIR_ANTI_CELLS.items():
        assert infer_pair(ANTICOMMUTATOR, k, l) == want
    rows = triple_table()
    assert len(rows) == 20
    for types, anti, comm, union in rows:
        assert TRIPLE_TABLE_ROWS[types] == (anti, comm), types
        assert union == QType({anti, comm})
    # threefold brackets with two fixed types: musical rows, exhaustive over k
    for (a, b), op in THREEFOLD_FIXED_ANTI.items():
        for k in range(4):
            assert infer_kfold(ANTICOMMUTATOR, (a, b, k)) == op.apply_residue(k)
            sharped = musical_compose(SHARP, op)
            assert infer_kfold(COMMUTATOR, (a, b, k)) == sharped.apply_residue(k)
    # table emissions byte-match the committed goldens
    emitted = {
        "tables_triple.txt": table_triple("text"),
        "tables_pair.txt": table_pair("text"),
        "tables_musical.txt": table_musical("text"),
        "tables_threefold_fixed.txt": table_threefold_fixed("text"),
        "tables_triple.csv": table_triple("csv"),
    }
    for name, text in emitted.items():
        assert (GOLDEN / name).read_text() == text + "\n", name


@criterion(3, "soundness sweep over all signatures n <= 6: brackets and products")
def test_criterion_03_soundness_sweep():
    rng = random.Random(103)
    for sig in signatures_up_to(6):
        types_avail = feasible_types(sig)
        tuples = [list(t) for t in itertools.product(types_avail, repeat=2)]
        tuples += [list(t) for t in itertools.product(types_avail, repeat=3)]
        tuples += [
            [rng.choice(types_avail) for _ in range(rng.choice((4, 5)))] for _ in range(50)
        ]
        for types in tuples:
            comm_type = QType({infer_kfold(COMMUTATOR, types)})
            anti_type = QType({infer_kfold(ANTICOMMUTATOR, types)})
            prod_type = infer_product(types)
            for _ in range(10):
                us = [random_of_type(sig, rng, QType({t})) for t in types]
                fwd = us[0]
                for u in us[1:]:
                    fwd = fwd * u
                rev = us[-1]
                for u in reversed(us[:-1]):
                    rev = rev * u
                assert qtype_of(fwd - rev) <= comm_type, (sig, types)
                assert qtype_of(fwd + rev) <= anti_type, (sig, types)
                assert qtype_of(fwd) <= prod_type, (sig, types)


@criterion(4, "threefold-bracket class uniformity on 500 random typed inputs")
def test_criterion_04_threefold_uniformity():
    rng = random.Random(104)
    sigs = list(signatures_up_to(6))
    trees = enumerate_trees(3)
    for _ in range(500):
        sig = rng.choice(sigs)
        types = [rng.choice(feasible_types(sig)) for _ in range(3)]
        us = [random_of_type(sig, rng, QType({t})) for t in types]
        comm_type = QType({infer_kfold(COMMUTATOR, types)})
        anti_type = QType({infer_kfold(ANTICOMMUTATOR, types)})
        for tree in trees:
            expected = comm_type if tree.sign_class() is COMMUTATOR else anti_type
            assert qtype_of(eval_tree(tree, us)) <= expected, (sig, types, tree.render())


@criterion(5, "musical composition table and lattice automorphism, exhaustive")
def test_criterion_05_musical_algebra():
    ops = (I, SHARP, FLAT, NATURAL)
    expected = {
        (I, I): I, (SHARP, SHARP): I, (FLAT, FLAT): I, (NATURAL, NATURAL): I,
        (I, SHARP): SHARP, (SHARP, I): SHARP, (FLAT, NATURAL): SHARP, (NATURAL, FLAT): SHARP,
        (I, FLAT): FLAT, (FLAT, I): FLAT, (SHARP, NATURAL): FLAT, (NATURAL, SHARP): FLAT,
        (I, NATURAL): NATURAL, (NATURAL, I): NATURAL, (SHARP, FLAT): NATURAL, (FLAT, SHARP): NATURAL,
    }
    grid = klein_table()
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            assert grid[i][j] == expected[(a, b)]
            assert musical_compose(a, b) == expected[(a, b)]
    # the defining residue actions
    assert [SHARP.apply_residue(k) for k in range(4)] == [2, 3, 0, 1]
    assert [FLAT.apply_residue(k) for k in range(4)] == [1, 0, 3, 2]
    assert [NATURAL.apply_residue(k) for k in range(4)] == [3, 2, 1, 0]
    # automorphism of the 16-element containment lattice, all ops x all types
    subsets = [QType(c) for r in range(5) for c in itertools.combinations(range(4), r)]
    for op in ops:
        images = {musical_apply(op, t) for t in subsets}
        assert len(images) == 16
        for a in subsets:
            assert musical_apply(op, a) == QType(op.apply_residue(x) for x in a)
            for b in subsets:
                assert (a <= b) == (musical_apply(op, a) <= musical_apply(op, b))


def _ext_ordered_oracle(u, m):
    if m == 0:
        return Multivector.scalar(u.sig, 1)
    if u.grades() <= {0}:
        return Multivector.scalar(u.sig, u.coefficient(0) ** m)
    from quatype.algebra import ext_blade_product

    out = {}
    items = u.terms()
    for combo in itertools.permutations(range(len(items)), m):
        sign = 1
        acc = 0
        for i in combo:
            s, acc = ext_blade_product(acc, items[i][0])
            sign *= s
            if not sign:
                break
        if not sign:
            continue
        coeff = sign
        for i in combo:
            coeff *= items[i][1]
        out[acc] = out.get(acc, 0) + coeff
    return Multivector(u.sig, out)


@criterion(6, "exterior powers match the factorial expansion exactly, k <= n <= 6")
def test_criterion_06_exterior_powers():
    rng = random.Random(106)
    for n in range(1, 7):
        sig = Signature(n, 0) if n % 2 else Signature(n - 1, 1)
        for k in range(n + 1):
            for m in (2, 3):
                for _ in range(5):
                    u = random_multivector(sig, rng, grades=(k,))
                    got = ext_power(u, m)
                    assert got == _ext_ordered_oracle(u, m), (sig, k, m)
                    if (k % 2 == 1 and k >= 1) or m * k > n:
                        assert got == Multivector.zero(sig), (sig, k, m)
                    assert got.grades() <= predict_ext_power(k, m, n)


def _four_case_m2(k, n):
    if n >= 2 * k:
        top = 2 * k if k % 2 == 0 else 2 * k - 2
    else:
        top = 2 * n - 2 * k if (n - k) % 2 == 0 else 2 * n - 2 * k - 2
    return frozenset(range(0, top + 1, 4))


@criterion(7, "Clifford power spectra contained in predictions; m=2 matches the four-case table")
def test_criterion_07_power_spectra():
    rng = random.Random(107)
    predictions = 0
    witnessed = 0
    for n in range(1, 7):
        sig = Signature(n, 0)
        for k in range(n + 1):
            assert predict_cl_power(k, 2, n) == _four_case_m2(k, n), (n, k)
            for m in (2, 3, 4):
                pred = predict_cl_power(k, m, n)
                seen = set()
                for _ in range(25):
                    u = random_multivector(sig, rng, grades=(k,))
                    seen |= set(cl_power(u, m).grades())
                assert seen <= pred, (n, k, m)
                if pred:
                    predictions += 1
                    top = max(pred)
                    if top in seen or any(
                        top in cl_power(random_multivector(sig, rng, grades=(k,)), m).grades()
                        for _ in range(200)
                    ):
                        witnessed += 1
    rate = witnessed / predictions
    print(f"  [criterion 7] tightness witnesses: {witnessed}/{predictions} = {rate:.1%}", flush=True)
    assert rate >= 0.0  # informational, not gating


@criterion(8, "power types, 200 checks; series type table, 100 checks")
def test_criterion_08_power_and_series_types():
    rng = random.Random(108)
    sigs = list(signatures_up_to(6))
    done = 0
    while done < 200:
        sig = rng.choice(sigs)
        t = rng.choice(feasible_types(sig))
        m = rng.randint(0, 5)
        u = random_of_type(sig, rng, QType({t}))
        assert qtype_of(cl_power(u, m)) <= QType({predict_cl_power_qtype(t, m)}), (sig, t, m)
        done += 1
    done = 0
    while done < 100:
        sig = rng.choice([s for s in sigs if s.n <= 5])
        t = rng.choice(feasible_types(sig))
        name = rng.choice(("exp", "sin", "cos", "sinh", "cosh"))
        exact = random_of_type(sig, rng, QType({t}))
        u = ApproxMultivector.from_exact(exact) * (1.0 / 9.0)
        got = qtype_of_approx(series_fn(name, u))
        assert got <= predict_series_qtype(name, t), (sig, t, name)
        done += 1


@criterion(9, "series sanity: exp inverse identity under 1e-9; exterior series exact and finite")
def test_criterion_09_series_sanity():
    rng = random.Random(109)
    count = 0
    for n in range(1, 6):
        sig = Signature(n, 0)
        for _ in range(10):
            exact = random_multivector(sig, rng)
            u = ApproxMultivector.from_exact(exact) * (1.0 / 9.0)  # coefficients in [-1, 1]
            residual = series_fn("exp", u) * series_fn("exp", -u) - ApproxMultivector.scalar(sig, 1.0)
            assert residual.max_abs() < 1e-9, (sig, residual.max_abs())
            count += 1
    assert count == 50
    # exterior series: exact rationals in, exact rationals out, <= n+1 terms
    for n in range(2, 7):
        sig = Signature(n, 0)
        u = random_multivector(sig, rng, grades=range(1, n + 1)) * Fraction(1, 3)
        result = ext_series_fn("exp", u)
        acc = Multivector.zero(sig)
        power = Multivector.scalar(sig, 1)
        terms = 0
        while power:
            acc = acc + power * Fraction(1, math.factorial(terms))
            power = power ^ u
            terms += 1
            assert terms <= n + 1
        assert result == acc
        assert all(isinstance(c, (int, Fraction)) for _, c in result.terms())


@criterion(10, "CLI golden files and exit-code contract")
def test_criterion_10_cli_golden():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "quatype.cli", *args], capture_output=True, text=True
        )

    tables = {
        ("triple", "text"): "tables_triple.txt",
        ("pair", "text"): "tables_pair.txt",
        ("musical", "text"): "tables_musical.txt",
        ("threefold-fixed", "text"): "tables_threefold_fixed.txt",
        ("triple", "csv"): "tables_triple.csv",
        ("pair", "csv"): "tables_pair.csv",
        ("musical", "csv"): "tables_musical.csv",
        ("threefold-fixed", "csv"): "tables_threefold_fixed.csv",
    }
    for (which, fmt), name in tables.items():
        proc = run("tables", "--which", which, "--format", fmt)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / name).read_text(), name
    invocations = {
        "eval_bracket.txt": ("eval", "--sig", "2,0", "--bindings", str(DATA / "bindings_uv.json"), "[U,V]"),
        "infer_triple.txt": ("infer", "{U:0, V:2, W:3}"),
        "check_pair.txt": ("check", "--sig", "3,1", "--trials", "200", "--seed", "0", "[U:1,V:3]"),
    }
    for name, args in invocations.items():
        proc = run(*args)
        assert proc.returncode == 0, name
        assert proc.stdout == (GOLDEN / name).read_text(), name
    # exit codes: 0 covered above; 2 for usage/parse/declaration errors
    assert run("infer", "]bad[").returncode == 2
    assert run("check", "--sig", "3,0", "U:#5 ** 2").returncode == 2
    assert run("eval", "--sig", "2,0", "[U,V]").returncode == 2
    # 1 for verification failures (no sound expression fails, so exercise the
    # report-to-exit-code mapping through the module entry point)
    import quatype.cli as cli_module
    from quatype.dsl import CheckReport, TrialFailure

    failing = CheckReport(
        expr="x",
        signature=Signature(2, 0),
        inferred=QType({0}),
        trials=1,
        failures=[TrialFailure(0, 0, QType({1}))],
        observed=QType({1}),
    )
    original = cli_module.check
    cli_module.check = lambda *a, **k: failing
    try:
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli_module.main(["check", "--sig", "2,0", "[U:1, V:1]"])
        assert code == 1
        assert captured.getvalue().rstrip().endswith("FAIL")
    finally:
        cli_module.check = original
