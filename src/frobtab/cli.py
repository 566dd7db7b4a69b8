"""Command-line interface.

Subcommands:

* ``enumerate``   list tableaux of a two-row shape, one per line
* ``straighten``  rewrite a semistandard tableau into straight form (JSON)
* ``character``   print a subquotient character (JSON or CSV)
* ``verify-all``  run the character/basis verification over a grid of triples,
  one line per triple as soon as it is verified

Exit codes: 0 success, 1 a verification failed, 2 bad usage or bad input,
3 an internal error: the straight rows of a weight failed to be a basis
while straightening, or ``verify-all`` raised while verifying a triple,
after its grid and ``--out`` were accepted (not a verdict on the input).
Lines already written stay, and a fault while verifying prints its
traceback before the message.
141 (128 + SIGPIPE) means the reader closed stdout early, as ``| head``
does; nothing is printed for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .characters import in_ideal_power, subquotient_character, verify_triple
from .gf2_exterior import MAX_N
from .standard_monomials import DomainError, IndexTriple, standard_monomial
from .straightening import StraighteningInvariantError, two_straighten
from .tableaux import enumerate_tableaux, format_tableau, parse_tableau

__all__ = ["main"]


class _VerificationCrashed(Exception):
    """An exception raised by ``verify_triple`` on a validated triple: a fault
    of the program, not of the input."""


def _shape_arg(text: str) -> tuple[int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must be 'R1,R2', got {text!r}")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"shape must have two parts, got {text!r}")
    return (parts[0], parts[1])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobtab",
        description="Straight tableaux and characters for squarefree 2x2 minors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list tableaux of a two-row shape")
    p_enum.add_argument("--shape", type=_shape_arg, required=True, metavar="R1,R2")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--kind", choices=("ssyt", "2ssyt"), default="ssyt")

    p_str = sub.add_parser("straighten", help="rewrite a tableau into straight form")
    p_str.add_argument("--tableau", required=True, help="wire format, e.g. '1 2 3 / 2 4'")
    p_str.add_argument("--a", type=int, required=True)
    p_str.add_argument("--b", type=int, required=True)
    p_str.add_argument("--d", type=int, required=True)
    p_str.add_argument("--n", type=int, required=True)

    p_char = sub.add_parser("character", help="print a subquotient character")
    p_char.add_argument("--a", type=int, required=True)
    p_char.add_argument("--b", type=int, required=True)
    p_char.add_argument("--d", type=int, required=True)
    p_char.add_argument("--n", type=int, required=True)
    p_char.add_argument("--format", choices=("json", "csv"), default="json")

    p_all = sub.add_parser("verify-all", help="verify a grid of index triples")
    p_all.add_argument("--grid", help="config file with KEY=VALUE lines (# comments)")
    p_all.add_argument("--max-a", type=int, default=None)
    p_all.add_argument("--max-n", type=int, default=None)
    p_all.add_argument("--out", help="write result lines to this file")

    return parser


def _cmd_enumerate(args) -> int:
    for t in enumerate_tableaux(args.shape, args.n, kind=args.kind):
        print(format_tableau(t))
    return 0


def _cmd_straighten(args) -> int:
    idx = IndexTriple(args.a, args.b, args.d, args.n)
    t = parse_tableau(args.tableau, args.n)
    result = two_straighten(t, idx)
    diff = standard_monomial(t, idx.a) + result.element_sum()
    verified = in_ideal_power(diff, idx.d + 1)
    payload = {
        "input": format_tableau(t),
        "a": idx.a,
        "b": idx.b,
        "d": idx.d,
        "n": idx.n,
        "output": [format_tableau(u) for u in result],
        "verified": verified,
    }
    print(json.dumps(payload))
    return 0 if verified else 1


def _cmd_character(args) -> int:
    idx = IndexTriple(args.a, args.b, args.d, args.n)
    char = subquotient_character(idx)
    if args.format == "json":
        print(json.dumps(char.to_json_entries()))
    else:
        print(",".join(f"t{i}" for i in range(1, args.n + 1)) + ",coeff")
        for exps, coeff in char.items():
            print(",".join(str(e) for e in exps) + f",{coeff}")
    return 0


def _read_grid_config(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = int(value.strip())
    return out


def _report_line(report) -> str:
    return json.dumps(
        {
            "a": report.a,
            "b": report.b,
            "d": report.d,
            "n": report.n,
            "case": report.case,
            "match": report.match,
            "independent": report.independent,
            "spanning": report.spanning,
            "basis_count": report.basis_count,
            "quotient_dim": report.quotient_dim,
            "ok": report.ok,
        }
    )


def _verify_lines(triples, out) -> int:
    """Verify each triple and write its report line as soon as it is known;
    return the number of failures."""
    failed = 0
    for idx in triples:
        try:
            report = verify_triple(idx)
        except Exception as exc:
            raise _VerificationCrashed(f"verifying {idx}: {exc}") from exc
        failed += not report.ok
        out.write(_report_line(report) + "\n")
        out.flush()
    return failed


def _cmd_verify_all(args) -> int:
    config: dict[str, int] = {"max_a": 3, "max_n": 4}
    if args.grid:
        file_conf = _read_grid_config(args.grid)
        unknown = set(file_conf) - set(config)
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        config.update(file_conf)
    if args.max_a is not None:
        config["max_a"] = args.max_a
    if args.max_n is not None:
        config["max_n"] = args.max_n
    if config["max_n"] > MAX_N:
        raise ValueError(f"max_n must be at most {MAX_N}, got {config['max_n']}")
    # an empty grid would print nothing and exit 0, which reads as a pass
    for key in ("max_a", "max_n"):
        if config[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {config[key]}")

    triples = [
        IndexTriple(a, b, d, n)
        for n in range(1, config["max_n"] + 1)
        for a in range(1, config["max_a"] + 1)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            failed = _verify_lines(triples, fh)
        print(f"{len(triples)} triples, {failed} failures -> {args.out}")
    else:
        failed = _verify_lines(triples, sys.stdout)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": _cmd_enumerate,
        "straighten": _cmd_straighten,
        "character": _cmd_character,
        "verify-all": _cmd_verify_all,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit does not raise again (the recipe of Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StraighteningInvariantError, _VerificationCrashed) as exc:
        if isinstance(exc, _VerificationCrashed):
            traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
