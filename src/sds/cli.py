"""Command-line front end.

Subcommands: decide, corpus, oracle, subdivision, verify-certificate.
Exit codes for decide/corpus: 0 positive semi-definite, 1 counterexample,
2 inconclusive, 3 any error (usage, parse, budget, internal), never a traceback.
oracle follows the same contract: 1 when it finds a negative value, else 2,
since sampling proves nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import CORPUS_NAMES, CORPUS_VARS, corpus_text
from .engine import (
    Counterexample,
    EngineConfig,
    EngineStats,
    PositiveSemidefinite,
    Verdict,
    verify_certificate,
    yys_decide,
)
from .forms import Form, FormError, parse_form
from .geometry import cell_count, cell_of_chain, squared_diameter
from .matrices import pwn_perms
from .oracle import GridSpec, grid_min, random_negative_search

EXIT_PSD = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

NODE_BUDGET_ENV = "SDS_NODE_BUDGET"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # Inconclusive exit code; route everything to 3
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=30)
    p.add_argument("--negativity-mode", choices=["value", "coeffs"], default="value")
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--no-root-check", action="store_true")
    p.add_argument(
        "--compat",
        action="store_true",
        help="coeffs negativity, no root check, no dedup (reference semantics)",
    )
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--certificate-out", metavar="PATH", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    if args.certificate_out == "":
        raise ValueError("--certificate-out needs a non-empty path")
    budget = args.node_budget
    if budget is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        budget = int(env) if env else 10**6
    cfg = EngineConfig(
        max_depth=args.max_depth,
        negativity_mode=args.negativity_mode,
        dedup=not args.no_dedup,
        root_check=not args.no_root_check,
        node_budget=budget,
        emit_certificate=args.certificate_out is not None,
    )
    if args.compat:
        cfg = cfg.compat()
    return cfg


def _read_source(args: argparse.Namespace) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    if args.polynomial is None:
        raise FormError("no polynomial given (pass it inline or via --file)")
    return args.polynomial


def _print(args: argparse.Namespace, payload: object, text: str) -> None:
    """The one place that picks JSON or text for a subcommand's result."""
    print(json.dumps(payload, indent=2) if args.format == "json" else text)


def _strs(values: Sequence[Fraction]) -> List[str]:
    return [str(x) for x in values]


# verdict kind -> (exit code, text rendered from the verdict dict)
VERDICTS = {
    "positive_semidefinite": (EXIT_PSD, "positive semi-definite (depth {depth})"),
    "counterexample": (EXIT_COUNTEREXAMPLE, "counterexample at depth {depth}: F({point}) = {value}\nchain: {chain}"),
    "inconclusive": (EXIT_INCONCLUSIVE, "inconclusive at depth {depth_reached} ({live_forms} live forms)"),
}


def _verdict_dict(verdict: Verdict) -> Dict[str, object]:
    if isinstance(verdict, PositiveSemidefinite):
        return {"kind": "positive_semidefinite", "depth": verdict.depth}
    if isinstance(verdict, Counterexample):
        return {
            "kind": "counterexample",
            "depth": len(verdict.chain),
            "chain": list(verdict.chain),
            "point": _strs(verdict.point),
            "value": str(verdict.value),
        }
    return {
        "kind": "inconclusive",
        "depth_reached": verdict.depth_reached,
        "live_forms": verdict.live_forms,
    }


def _write_certificate(path: str, verdict: Verdict, vars: Sequence[str]) -> bool:
    if not isinstance(verdict, PositiveSemidefinite) or verdict.certificate is None:
        return False
    payload = [
        {"chain": list(chain), "form": form.to_text(vars)}
        for chain, form in verdict.certificate
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return True


def _read_certificate(path: str, vars: Sequence[str]) -> List[Tuple[Tuple, Form]]:
    """The (chain, form) entries of a file in the format _write_certificate writes."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError("a certificate is a JSON list of {chain, form} objects")
    for k, entry in enumerate(payload, start=1):
        if not (isinstance(entry, dict) and isinstance(entry.get("chain"), list)
                and isinstance(entry.get("form"), str)):
            raise ValueError(f"certificate entry {k} of {len(payload)} is not an object "
                             "with a chain list and a form string")
    return [(tuple(entry["chain"]), parse_form(entry["form"], vars)) for entry in payload]


def _run_decide(args: argparse.Namespace, text: str, vars: Sequence[str]) -> int:
    form = parse_form(text, vars)
    cfg = _engine_config(args)
    stats = EngineStats()
    start = time.perf_counter()
    verdict = yys_decide(form, cfg, stats)
    wall = time.perf_counter() - start
    result = _verdict_dict(verdict)
    if args.certificate_out and _write_certificate(args.certificate_out, verdict, vars):
        result["certificate_path"] = args.certificate_out
    report = {
        "input": {"polynomial": text, "vars": list(vars)},
        "config": {**dataclasses.asdict(cfg), "threads": cfg.threads},
        "verdict": result,
        "stats": {
            "forms_expanded": stats.forms_expanded,
            "forms_pruned": stats.forms_pruned,
            "dedup_collapsed": stats.dedup_collapsed,
            "wall_time": wall,
        },
    }
    code, template = VERDICTS[result["kind"]]
    line = template.format_map({**result, "point": ", ".join(result.get("point", ()))})
    if "certificate_path" in result:
        line += f"\ncertificate written to {result['certificate_path']}"
    if result["kind"] == "counterexample" and stats.dedup_collapsed:
        line += f"  [dedup collapsed {stats.dedup_collapsed} duplicate branches]"
    _print(args, report, line)
    return code


def _split_vars(spec: str) -> List[str]:
    names = [v.strip() for v in spec.split(",") if v.strip()]
    if not names:
        raise FormError("empty variable list")
    if len(set(names)) != len(names):
        raise FormError("duplicate variable names")
    return names


def cmd_decide(args: argparse.Namespace) -> int:
    return _run_decide(args, _read_source(args), _split_vars(args.vars))


def cmd_corpus(args: argparse.Namespace) -> int:
    try:
        text = corpus_text(args.name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return _run_decide(args, text, CORPUS_VARS)


def cmd_oracle(args: argparse.Namespace) -> int:
    form = parse_form(_read_source(args), _split_vars(args.vars))
    if args.grid_denominator is not None:
        value, point = grid_min(form, GridSpec(args.grid_denominator, form.nvars))
        payload: Dict[str, object] = {"min": str(value), "argmin": _strs(point)}
        text = f"grid min {value} at ({', '.join(_strs(point))})"
    else:
        hit = random_negative_search(form, args.random_trials, args.seed)
        value = 0  # a miss; a hit's value is negative
        payload = {"found": hit is not None}
        text = f"no negative value found in {args.random_trials} trials"
        if hit is not None:
            point, value = hit
            payload.update(point=_strs(point), value=str(value))
            text = f"negative value {value} at ({', '.join(_strs(point))})"
    _print(args, payload, text)
    return EXIT_COUNTEREXAMPLE if value < 0 else EXIT_INCONCLUSIVE


def cmd_subdivision(args: argparse.Namespace) -> int:
    n = args.nvars
    cell_count(n, args.depth)  # refuses past the cell budget before any cell is built
    cells = []
    for chain in product(range(1, len(pwn_perms(n)) + 1), repeat=args.depth):
        cell = cell_of_chain(chain, n)
        cells.append(
            {
                "chain": list(chain),
                "vertices": [_strs(v) for v in cell.vertices],
                "squared_diameter": str(squared_diameter(cell)),
            }
        )
    text = "\n".join(f"{c['chain']}: diam^2 = {c['squared_diameter']}" for c in cells)
    _print(args, cells, text)
    return EXIT_PSD


def cmd_verify_certificate(args: argparse.Namespace) -> int:
    vars = _split_vars(args.vars)
    form = parse_form(_read_source(args), vars)
    ok = verify_certificate(form, _read_certificate(args.certificate, vars))
    print("certificate valid" if ok else "certificate INVALID")
    return EXIT_PSD if ok else EXIT_COUNTEREXAMPLE


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("polynomial", nargs="?", default=None)
    p.add_argument("--file", default=None, help="read the polynomial from a file")
    p.add_argument("--vars", required=True, help="comma-separated variable names")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide nonnegativity of a form")
    _add_source_args(p)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("corpus", help="decide a bundled example form")
    p.add_argument("name", help=f"one of: {', '.join(CORPUS_NAMES)}")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("oracle", help="grid / random sampling over the simplex")
    _add_source_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid-denominator", type=int, default=None)
    group.add_argument("--random-trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("subdivision", help="dump depth-m subdivision cells")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_subdivision)

    p = sub.add_parser("verify-certificate", help="recheck an emitted certificate")
    _add_source_args(p)
    p.add_argument("--certificate", required=True, metavar="PATH")
    p.set_defaults(func=cmd_verify_certificate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every sds error class is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # last resort: no input may end in a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
