#!/usr/bin/env python3
"""Probe the known library defects that the workloads keep out of their corpora.

    python3 perfbench/defects.py

A benchmark workload must not fail, so calls that abort are left out of the
corpora (see NOTES.md).  This script shows whether each defect is still
there: it prints one line per defect with how many of its probe calls raise
or report trials outside the inferred type.  It exits 0 either way; the
figures at the seed commit are recorded in NOTES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus as C  # noqa: E402
from quatype.algebra import Signature  # noqa: E402
from quatype.dsl import check  # noqa: E402


def raises(expr: str, p: int, q: int, trials: int, seed: int) -> bool:
    try:
        check(expr, Signature(p, q), trials=trials, seed=seed)
    except Exception:
        return True
    return False


def main() -> None:
    # 1. Clifford series of a full-size bracket operand (the corpus scales them)
    calls = [c for c in C.build("series_float", 1).calls if c.slot == "bracket"]
    unscaled = [(C.render(C.Fn(c.tree.name, c.tree.operand.right)), c) for c in calls]
    n_raise = sum(raises(expr, c.p, c.q, c.trials, c.seed) for expr, c in unscaled)
    print(f"bracket-operand series: {n_raise} of {len(unscaled)} unscaled calls of the series_float seed-1 "
          "corpus raise")

    # 2. float noise in qtype_of_approx: false containment failures
    for expr in ("sin(U:1)", "cos(U:1)", "sinh(U:2)", "cosh(U:2)"):
        rep = check(expr, Signature(5, 0), trials=20, seed=0)
        print(f"float containment: {expr} @ Cl(5,0), 20 trials from seed 0: {len(rep.failures)} fail")

    # 3. exterior series over a type containing residue 0
    probes = [(f"w{fn}(U:0~{r}~)", n) for fn in C.SERIES for r in (1, 2, 3) for n in (3, 4, 5)]
    n_raise = sum(raises(expr, n, 0, 3, 1000 * i) for i, (expr, n) in enumerate(probes))
    print(f"exterior series over residue 0: {n_raise} of {len(probes)} calls raise")


if __name__ == "__main__":
    main()
