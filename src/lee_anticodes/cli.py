"""Command line front end.

Subcommands: `lattice` explores the dominance lattice, `code` analyzes a
generator matrix file, `invariants` emits B/W tables and R-weight chains,
`verify` runs the oracle-vs-closed-form suites. Output goes to stdout in
JSON by default (`--format text|csv|dot` otherwise); diagnostics go to
stderr. Identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 usage or input error, 2 enumeration cap exceeded,
3 internal cross-check failure (a violated theorem, never user error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import anticodes as ac
from . import dominance as comp
from . import invariants as inv
from . import matrices, verification
from .codes import Code, analysis_record
from .errors import CapExceeded, InternalCheckError, guard_cap
from .ring import METRICS

CAP_ENV_VAR = "LEE_ANTICODES_CAP"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for caps."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text", "csv", "dot"),
        default=None,
        help="output format (default json; hasse defaults to dot)",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"enumeration cap; overrides the {CAP_ENV_VAR} environment variable",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for sampled suites (reserved)"
    )

    parser = _Parser(prog="lee-anticodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    lat = sub.add_parser("lattice", parents=[common], help="dominance lattice tools")
    lat.add_argument("--parts", type=int, required=True, help="number of parts L")
    lat.add_argument("--sum", type=int, required=True, dest="total", help="total n")
    lat.add_argument(
        "action", choices=("enum", "hasse", "mobius", "covers", "chains")
    )

    cod = sub.add_parser("code", parents=[common], help="analyze a generator matrix")
    cod.add_argument("path", help="matrix file: header `p s n`, then rows")
    cod.add_argument("action", choices=("analyze", "dual", "distance", "optimal"))
    cod.add_argument("--metric", choices=METRICS, default=None)

    invp = sub.add_parser(
        "invariants", parents=[common], help="B/W tables and R-weights"
    )
    invp.add_argument("path", help="matrix file: header `p s n`, then rows")
    invp.add_argument("action", choices=("moments", "distribution", "rweights", "ghw"))

    ver = sub.add_parser("verify", parents=[common], help="oracle verification suites")
    ver.add_argument(
        "scope", choices=("lattice", "counting", "anticodes", "invariants", "all")
    )
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--s", type=int, default=2)
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--parts", type=int, default=3)
    ver.add_argument("--sum", type=int, default=3, dest="total")

    return parser


def _resolve_cap(args) -> int | None:
    if args.cap is not None:
        if args.cap <= 0:
            raise ValueError("cap must be positive")
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}")
        if value <= 0:
            raise ValueError(f"{CAP_ENV_VAR} must be positive, got {value}")
        return value
    return None


def _cap_or(cap: int | None, default: int) -> int:
    return default if cap is None else cap


@dataclass(frozen=True)
class _Output:
    """What a command computed, before `_render` puts it in the asked format.

    `record` is the JSON form. `header` and `rows` give the CSV form, and
    `line`, filled with the CSV cells of each row, gives the text form.
    `text` and `dot` are verbatim forms; `status` is the exit code.
    """

    record: dict
    header: str | None = None
    rows: list | tuple = ()
    line: str | None = None
    text: str | None = None
    dot: str | None = None
    status: int = 0


def _cell(value) -> str:
    """A CSV cell: compositions comma-joined, None empty, booleans lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (tuple, list)):
        return ",".join(str(x) for x in value)
    return str(value)


def _flatten(record: dict, prefix: str = ""):
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, name + ".")
        else:
            yield name, value


def _render(fmt: str | None, action: str, out: _Output, flat: bool) -> str:
    """The bytes of `out` in format `fmt`: the one place formats are decided.

    The default is DOT where there is a DOT form, JSON otherwise. With `flat`,
    a missing text or CSV form falls back to the flattened record.
    """
    fmt = fmt or ("json" if out.dot is None else "dot")
    if fmt == "json":
        return json.dumps(out.record, indent=2) + "\n"
    if fmt == "dot" and out.dot is not None:
        return out.dot
    if fmt == "text" and out.text is not None:
        return out.text
    cells = [[_cell(value) for value in row] for row in out.rows]
    if fmt == "text" and out.line is not None:
        return "".join(out.line.format(*row) + "\n" for row in cells)
    if fmt == "csv" and out.header is not None:
        return out.header + "\n" + "".join(";".join(row) + "\n" for row in cells)
    if flat and fmt in ("text", "csv"):
        pairs = [(key, json.dumps(value)) for key, value in _flatten(out.record)]
        if fmt == "text":
            return "".join(f"{key} = {value}\n" for key, value in pairs)
        return "key;value\n" + "".join(f"{key};{value}\n" for key, value in pairs)
    raise ValueError(f"format {fmt!r} is not available for the {action} action")


def cmd_lattice(args, cap: int | None) -> _Output:
    parts, total, action = args.parts, args.total, args.action
    capv = _cap_or(cap, comp.DEFAULT_LATTICE_CAP)
    guard_cap(comp.composition_count(parts, total), capv, "lattice size")
    elems = comp.compositions(parts, total)
    shape = {"parts": parts, "sum": total}

    if action == "enum":
        record = {**shape, "count": len(elems), "elements": [list(a) for a in elems]}
        return _Output(record, header="a", rows=[(a,) for a in elems], line="{0}")

    if action == "hasse":
        dot = comp.hasse_dot(parts, total, capv)
        return _Output({**shape, "dot": dot}, text=dot, dot=dot)

    if action == "mobius":
        entries = [
            (a, b, comp.mobius(a, b))
            for a in elems
            for b in elems
            if comp.dominance_leq(a, b)
        ]
        record = {
            **shape,
            "entries": [{"a": list(a), "b": list(b), "mu": mu} for a, b, mu in entries],
        }
        return _Output(
            record, header="a;b;mu", rows=entries, line="mu(({0}), ({1})) = {2}"
        )

    if action == "covers":
        ups = [(a, comp.covers(a)) for a in elems]
        record = {
            **shape,
            "entries": [
                {"a": list(a), "covers": [list(b) for b in up]} for a, up in ups
            ],
        }
        text = "".join(
            f"({_cell(a)}) -> " + " ".join(f"({_cell(b)})" for b in up) + "\n"
            for a, up in ups
        )
        rows = [(a, b) for a, up in ups for b in up]
        return _Output(record, header="a;b", rows=rows, text=text)

    # chains
    length = comp.maximal_chain_length(parts, total)
    count = comp.maximal_chain_count(parts, total)
    return _Output(
        {**shape, "count": count, "length": length},
        header="count;length",
        rows=[(count, length)],
        text=f"{count} maximal chains, all of length {length}\n",
    )


def _load_code(path: str) -> Code:
    with open(path, encoding="utf-8") as handle:
        return Code(matrices.parse_matrix(handle.read()))


def cmd_code(args, cap: int | None) -> _Output:
    capv = _cap_or(cap, matrices.DEFAULT_ENUM_CAP)
    code = _load_code(args.path)
    params = code.params
    shape = {"p": params.p, "s": params.s, "n": code.n}

    if args.action == "analyze":
        return _Output(analysis_record(code, capv))

    if args.action == "dual":
        dual = code.dual()
        record = {
            **shape,
            "generator_rows": [list(row) for row in dual.gen.rows],
            "subtype": list(dual.subtype),
            "extended_subtype": list(dual.extended_subtype),
        }
        return _Output(record, text=matrices.format_matrix(dual.gen))

    metrics = [args.metric] if args.metric else list(METRICS)

    if args.action == "distance":
        guard_cap(code.size, capv, "codeword enumeration")
        per_metric = {
            metric: {
                "min_distance": None
                if code.rank == 0
                else code.min_distance(metric, capv),
                "max_weight": code.max_weight(metric, capv),
            }
            for metric in metrics
        }
        return _Output(
            {**shape, "metrics": per_metric},
            header="metric;min_distance;max_weight",
            rows=[(m, *v.values()) for m, v in per_metric.items()],
        )

    # optimal
    if args.metric is None and params.p == 2:
        metrics = [m for m in metrics if m != "lee"]
    guard_cap(code.size, capv, "codeword enumeration")
    verdicts = {
        metric: {
            "optimal": ac.is_optimal(code, metric, capv),
            "bound": ac.weight_bound(code, metric),
            "max_weight": code.max_weight(metric, capv),
        }
        for metric in metrics
    }
    return _Output(
        {**shape, "verdicts": verdicts},
        header="metric;optimal;bound;max_weight",
        rows=[(m, *v.values()) for m, v in verdicts.items()],
    )


def cmd_invariants(args, cap: int | None) -> _Output:
    capv = _cap_or(cap, inv.DEFAULT_CENSUS_CAP)
    code = _load_code(args.path)
    params = code.params

    if args.action in ("moments", "distribution"):
        record = inv.table_json_dict(inv.build_invariant_table(code, capv))
        rows = [(e["a"], e["j"], e["B"], e["W"]) for e in record["entries"]]
        return _Output(
            record, header="a;j;B;W", rows=rows, line="a=({0}) j={1} B={2} W={3}"
        )

    ranks = range(1, code.rank + 1)
    shape = {"p": params.p, "s": params.s, "n": code.n, "rank": code.rank}
    # ghw and rweights read one free walk, which meets C with up to 2^n
    # anticodes, one free family (m, 0, ..., 0, n - m) for each m.
    guard_cap(2**code.n, capv, "free anticode count")
    fields = inv.r_weight_fields(code)

    if args.action == "ghw":
        ghw_list = list(fields["ghw"])
        return _Output(
            {**shape, "ghw": ghw_list},
            header="r;ghw",
            rows=list(zip(ranks, ghw_list)),
            text="ghw = " + " ".join(str(g) for g in ghw_list) + "\n",
        )

    return _Output(
        {**shape, "linear_extension": comp.LINEAR_EXTENSION_NAME, **fields},
        header="r;d_r;d_r_free;ghw",
        rows=list(
            zip(ranks, fields["r_weights"], fields["r_weights_free"], fields["ghw"])
        ),
        line="r={0} d=({1}) d_free=({2}) ghw={3}",
    )


# The JSON parameters of each suite, in the order the suite takes them.
_SUITE_PARAMETERS = {
    "lattice": ("parts", "sum"),
    "counting": ("p", "s", "n"),
    "anticodes": ("p", "s", "n"),
    "invariants": ("p", "s", "n"),
    "all": ("p", "s", "n", "parts", "sum"),
}


def cmd_verify(args, cap: int | None) -> _Output:
    parameters = {
        key: getattr(args, "total" if key == "sum" else key)
        for key in _SUITE_PARAMETERS[args.scope]
    }
    # Looked up when called, so that a suite replaced on the module is the one run.
    suite = getattr(verification, f"verify_{args.scope}")
    # With no cap given, each suite keeps its own default.
    results = suite(*parameters.values(), **({} if cap is None else {"cap": cap}))
    failures = [r for r in results if not r.passed]
    for r in failures:
        print(f"counterexample [{r.name}]: {r.detail}", file=sys.stderr)
    lines = [
        f"PASS {r.name}" if r.passed else f"FAIL {r.name}: {r.detail}" for r in results
    ]
    lines.append(f"failures: {len(failures)}" if failures else "ok")
    record = {
        "scope": args.scope,
        "parameters": parameters,
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "ok": not failures,
    }
    return _Output(
        record,
        header="status;name;detail",
        rows=[("pass" if r.passed else "fail", r.name, r.detail) for r in results],
        text="".join(line + "\n" for line in lines),
        status=3 if failures else 0,
    )


_COMMANDS = {
    "lattice": cmd_lattice,
    "code": cmd_code,
    "invariants": cmd_invariants,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cap = _resolve_cap(args)
        out = _COMMANDS[args.command](args, cap)
        # `verify` takes a scope, not an action; its errors name the command.
        action = getattr(args, "action", args.command)
        text = _render(args.format, action, out, flat=args.command == "code")
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return out.status


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
