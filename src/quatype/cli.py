"""Command-line front door: evaluate, infer, check, and emit the type tables.

Exit codes: 0 on success, 1 when a check finds a containment failure,
2 on usage, parse, binding, or declaration errors, on a value too large
for a float, and on an expression nested too deeply for the recursive
evaluator.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

from .algebra import Multivector, Signature, format_multivector, from_obj
from .dsl import CheckReport, check, classify, evaluate, infer, parse, parse_file
from .qtypes import klein_table, pair_musical_table, threefold_fixed_table, triple_table

_USAGE_ERROR = 2
_CHECK_FAILURE = 1


class CliError(Exception):
    pass


def _parse_sig(text: str) -> Signature:
    try:
        p_text, q_text = text.split(",")
        return Signature(int(p_text), int(q_text))
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad signature {text!r}: expected 'p,q' with {exc}") from exc


def _load_bindings(path: str) -> dict[str, Multivector]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read bindings file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError("bindings file must map variable names to multivector objects")
    try:
        return {name: from_obj(obj) for name, obj in raw.items()}
    except ValueError as exc:
        raise CliError(f"bad binding in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# tables


def _render_rows(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    widths = [max(len(str(cell)) for cell in col) for col in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [header, *rows]]
    return "\n".join(lines)


def _main_type(t: int) -> str:
    return f"{t}~"


def table_triple(fmt: str) -> str:
    header = ("k", "l", "m", "anti", "comm", "product")
    rows = [
        (_main_type(k), _main_type(l), _main_type(m), _main_type(anti), _main_type(comm), union.render())
        for (k, l, m), anti, comm, union in triple_table()
    ]
    return _render_rows(header, rows, fmt)


def table_pair(fmt: str) -> str:
    header = ("kind", "partner", "op")
    rows = [(kind.value, _main_type(partner), op.value) for kind, partner, op in pair_musical_table()]
    return _render_rows(header, rows, fmt)


def table_musical(fmt: str) -> str:
    grid = klein_table()
    names = ("I", "#", "b", "n")
    header = ("o",) + names
    rows = [(names[i],) + tuple(op.value for op in row) for i, row in enumerate(grid)]
    return _render_rows(header, rows, fmt)


def table_threefold_fixed(fmt: str) -> str:
    header = ("kind", "pair", "op")
    rows = [
        (kind.value, f"{_main_type(a)} {_main_type(b)}", op.value)
        for kind, (a, b), op in threefold_fixed_table()
    ]
    return _render_rows(header, rows, fmt)


_TABLES = {
    "triple": table_triple,
    "pair": table_pair,
    "musical": table_musical,
    "threefold-fixed": table_threefold_fixed,
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    sig = _parse_sig(args.sig)
    expr = parse(args.expr, require_types=False)
    bindings = _load_bindings(args.bindings) if args.bindings else {}
    value = evaluate(expr, bindings, sig)
    print(format_multivector(value))
    print(f"qtype: {classify(value).render()}")
    return 0


def _cmd_infer(args) -> int:
    print(infer(parse(args.expr)).render())
    return 0


def _cmd_check(args) -> int:
    sig = _parse_sig(args.sig)
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read expression file {args.file}: {exc}") from exc
        exprs = [expr for _, _, expr in parse_file(text)]
        if not exprs:
            # a check that checked nothing must not pass
            raise CliError(f"no expressions in expression file {args.file}")
    elif args.expr is not None:
        exprs = [parse(args.expr)]
    else:
        raise CliError("give an expression or --file")
    reports: list[CheckReport] = []
    for expr in exprs:
        reports.append(check(expr, sig, trials=args.trials, seed=args.seed))
    if args.json:
        payload = [r.to_obj() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(r.format_text() for r in reports))
    return 0 if all(r.ok for r in reports) else _CHECK_FAILURE


def _cmd_tables(args) -> int:
    print(_TABLES[args.which](args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatype",
        description="Quaternion-type calculus for real Clifford algebras Cl(p,q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression with concrete bindings")
    p_eval.add_argument("--sig", required=True, help="algebra signature 'p,q'")
    p_eval.add_argument("--bindings", help="JSON file mapping variable names to multivectors")
    p_eval.add_argument("expr")
    p_eval.set_defaults(func=_cmd_eval)

    p_infer = sub.add_parser("infer", help="print the inferred quaternion type of an expression")
    p_infer.add_argument("expr")
    p_infer.set_defaults(func=_cmd_infer)

    p_check = sub.add_parser("check", help="verify inferred types against random concrete evaluation")
    p_check.add_argument("--sig", required=True, help="algebra signature 'p,q'")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--json", action="store_true", help="machine-readable report")
    p_check.add_argument("--file", help="expression file: one expression per line, '#' comments")
    p_check.add_argument("expr", nargs="?")
    p_check.set_defaults(func=_cmd_check)

    p_tables = sub.add_parser("tables", help="emit the bracket/type tables")
    p_tables.add_argument("--which", required=True, choices=sorted(_TABLES))
    p_tables.add_argument("--format", choices=("text", "csv"), default="text")
    p_tables.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        message = "expression nested too deeply"
    except (CliError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return _USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
