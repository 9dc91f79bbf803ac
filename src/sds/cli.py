"""Command-line front end.

Subcommands: decide, corpus, oracle, subdivision, verify-certificate.
Exit codes for decide/corpus: 0 positive semi-definite, 1 counterexample,
2 inconclusive, 3 any error (usage, parse, budget, internal), never a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import CORPUS_NAMES, CORPUS_VARS, corpus_text
from .engine import (
    Counterexample,
    EngineConfig,
    EngineError,
    EngineStats,
    Inconclusive,
    PositiveSemidefinite,
    Verdict,
    verify_certificate,
    yys_decide,
)
from .forms import Form, FormError, ParseError, parse_form
from .geometry import cell_count, cell_of_chain, squared_diameter
from .matrices import MatrixError
from .oracle import GridSpec, OracleError, grid_min, random_negative_search

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
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    budget = args.node_budget
    if budget is None:
        env = os.environ.get(NODE_BUDGET_ENV)
        budget = int(env) if env else 10**6
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    cfg = EngineConfig(
        max_depth=args.max_depth,
        negativity_mode=args.negativity_mode,
        dedup=not args.no_dedup,
        root_check=not args.no_root_check,
        node_budget=budget,
        emit_certificate=args.certificate_out is not None,
        threads=threads,
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


def _config_dict(cfg: EngineConfig) -> Dict[str, object]:
    return dataclasses.asdict(cfg)


def _verdict_dict(verdict: Verdict, certificate_path: Optional[str]) -> Dict[str, object]:
    if isinstance(verdict, PositiveSemidefinite):
        out: Dict[str, object] = {"kind": "positive_semidefinite", "depth": verdict.depth}
        if certificate_path:
            out["certificate_path"] = certificate_path
        return out
    if isinstance(verdict, Counterexample):
        return {
            "kind": "counterexample",
            "depth": len(verdict.chain),
            "chain": list(verdict.chain),
            "point": [str(x) for x in verdict.point],
            "value": str(verdict.value),
        }
    return {
        "kind": "inconclusive",
        "depth_reached": verdict.depth_reached,
        "live_forms": verdict.live_forms,
    }


def _emit_report(
    args: argparse.Namespace,
    text: str,
    vars: Sequence[str],
    cfg: EngineConfig,
    verdict: Verdict,
    stats: EngineStats,
    wall_time: float,
    certificate_path: Optional[str],
) -> int:
    report = {
        "input": {"polynomial": text, "vars": list(vars)},
        "config": _config_dict(cfg),
        "verdict": _verdict_dict(verdict, certificate_path),
        "stats": {
            "forms_expanded": stats.forms_expanded,
            "forms_pruned": stats.forms_pruned,
            "dedup_collapsed": stats.dedup_collapsed,
            "wall_time": wall_time,
        },
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        if isinstance(verdict, PositiveSemidefinite):
            print(f"positive semi-definite (depth {verdict.depth})")
            if certificate_path:
                print(f"certificate written to {certificate_path}")
        elif isinstance(verdict, Counterexample):
            point = "(" + ", ".join(str(x) for x in verdict.point) + ")"
            note = ""
            if cfg.dedup and stats.dedup_collapsed:
                note = f"  [dedup collapsed {stats.dedup_collapsed} duplicate branches]"
            print(f"counterexample at depth {len(verdict.chain)}: F{point} = {verdict.value}")
            print(f"chain: {list(verdict.chain)}{note}")
        else:
            print(
                f"inconclusive at depth {verdict.depth_reached} "
                f"({verdict.live_forms} live forms)"
            )
    if isinstance(verdict, PositiveSemidefinite):
        return EXIT_PSD
    if isinstance(verdict, Counterexample):
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE


def _write_certificate(path: str, verdict: Verdict, vars: Sequence[str]) -> Optional[str]:
    if not isinstance(verdict, PositiveSemidefinite) or verdict.certificate is None:
        return None
    payload = [
        {"chain": list(chain), "form": form.to_text(vars)}
        for chain, form in verdict.certificate
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _run_decide(args: argparse.Namespace, text: str, vars: Sequence[str]) -> int:
    form = parse_form(text, vars)
    cfg = _engine_config(args)
    stats = EngineStats()
    start = time.perf_counter()
    verdict = yys_decide(form, cfg, stats)
    wall = time.perf_counter() - start
    cert_path = None
    if args.certificate_out:
        cert_path = _write_certificate(args.certificate_out, verdict, vars)
    return _emit_report(args, text, vars, cfg, verdict, stats, wall, cert_path)


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
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    return _run_decide(args, text, CORPUS_VARS)


def cmd_oracle(args: argparse.Namespace) -> int:
    form = parse_form(_read_source(args), _split_vars(args.vars))
    if args.grid_denominator is not None:
        value, point = grid_min(form, GridSpec(args.grid_denominator, form.nvars))
        out = {"min": str(value), "argmin": [str(x) for x in point]}
        if args.format == "json":
            print(json.dumps(out, indent=2))
        else:
            print(f"grid min {value} at ({', '.join(str(x) for x in point)})")
        return EXIT_PSD
    hit = random_negative_search(form, args.random_trials, args.seed)
    if args.format == "json":
        if hit is None:
            print(json.dumps({"found": False}, indent=2))
        else:
            point, value = hit
            print(
                json.dumps(
                    {
                        "found": True,
                        "point": [str(x) for x in point],
                        "value": str(value),
                    },
                    indent=2,
                )
            )
    else:
        if hit is None:
            print(f"no negative value found in {args.random_trials} trials")
        else:
            point, value = hit
            print(f"negative value {value} at ({', '.join(str(x) for x in point)})")
    return EXIT_PSD


def cmd_subdivision(args: argparse.Namespace) -> int:
    from itertools import product
    import math as _math

    n = args.nvars
    cell_count(n, args.depth)  # refuses past the cell budget before any cell is built
    nfact = _math.factorial(n)
    cells = []
    for chain in product(range(1, nfact + 1), repeat=args.depth):
        cell = cell_of_chain(chain, n)
        cells.append(
            {
                "chain": list(chain),
                "vertices": [[str(x) for x in v] for v in cell.vertices],
                "squared_diameter": str(squared_diameter(cell)),
            }
        )
    if args.format == "json":
        print(json.dumps(cells, indent=2))
    else:
        for c in cells:
            print(f"{c['chain']}: diam^2 = {c['squared_diameter']}")
    return EXIT_PSD


def cmd_verify_certificate(args: argparse.Namespace) -> int:
    vars = _split_vars(args.vars)
    form = parse_form(_read_source(args), vars)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cert = [
        (tuple(entry["chain"]), parse_form(entry["form"], vars)) for entry in payload
    ]
    ok = verify_certificate(form, cert)
    print("certificate valid" if ok else "certificate INVALID")
    return EXIT_PSD if ok else EXIT_COUNTEREXAMPLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide nonnegativity of a form")
    p.add_argument("polynomial", nargs="?", default=None)
    p.add_argument("--file", default=None, help="read the polynomial from a file")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("corpus", help="decide a bundled example form")
    p.add_argument("name", help=f"one of: {', '.join(CORPUS_NAMES)}")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("oracle", help="grid / random sampling over the simplex")
    p.add_argument("polynomial", nargs="?", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--vars", required=True)
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
    p.add_argument("polynomial", nargs="?", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--vars", required=True)
    p.add_argument("--certificate", required=True, metavar="PATH")
    p.set_defaults(func=cmd_verify_certificate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FormError, MatrixError, EngineError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # last resort: no input may end in a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
