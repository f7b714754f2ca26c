"""Command line front end.

Subcommands:
  gen        radical frieze of a p-angulation
  cc         integer frieze of a triangulation
  tree       noncrossing tree of a 4-angulation
  associate  associated triangulation of a 4- or 6-angulation
  enumerate  stream (or count) all p-angulations with a given face count
  verify     run the coincidence checks over a whole sweep
  validate   check a frieze grid against the frieze laws

Every streamed output (the `enumerate` listing and the `gen`/`cc` frieze in
each format) leaves through one writer, `_write`, which joins consecutive
pieces into writes of at most _CHUNK characters and holds one chunk at most.

Exit codes: 0 success, 1 input or validation error (or, silently, a closed
output pipe, at any output size: stdout is flushed before `main` returns),
2 a verification sweep found a counterexample, 3 an internal assertion failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from typing import Iterable, Sequence

from .bijection import Triangulation, associated_triangulation, quad_to_tree
from .frieze import (
    Frieze,
    InternalAssertionError,
    _ascii_rows,
    _csv_rows,
    _grid_from_text,
    cc_frieze,
    lambda_frieze,
    validate,
)
from .polygon import Dissection, _listing, _p_angulation_walk
from .verify import sweep

_CHUNK = 64 * 1024  # characters per stdout write of joined pieces


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _read_text(source: str) -> str:
    """The text of a path, of '-' (stdin), or of an inline literal."""
    if source == "-":
        return sys.stdin.read()
    if source.lstrip()[:1] in ("{", "["):  # an object, or an array to refuse
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _loads(text: str) -> dict:
    """`json.loads` of the text, a nesting too deep for it a ValueError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON input nests too deeply") from exc


def _read_payload(source: str) -> dict:
    """Load JSON from a path, from '-' (stdin), or from an inline literal."""
    return _loads(_read_text(source))


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout, consecutive pieces joined into one `write`
    of at most _CHUNK characters; a longer piece goes out alone, as it comes.

    Only one chunk is held at a time, so a stream of pieces stays a stream.
    """
    write = sys.stdout.write
    held: list[str] = []
    size = 0
    for piece in pieces:
        size += len(piece)
        if size > _CHUNK:  # the piece does not fit: write what came before it
            if held:
                write("".join(held))
                held = []
            size = len(piece)
            if size > _CHUNK:  # longer than a chunk: it goes out alone
                write(piece)
                size = 0
                continue
        held.append(piece)
    if held:
        write("".join(held))


def _emit_frieze(frieze: Frieze, fmt: str) -> None:
    if fmt == "json":  # the bytes of json.dumps(frieze.to_json())
        _write(chain(frieze._json_pieces(), ("\n",)))
    else:  # the lines of render_ascii(frieze) or render_csv(frieze)
        rows = _ascii_rows if fmt == "ascii" else _csv_rows
        _write(line + "\n" for line in rows(frieze))


def _cmd_gen(args: argparse.Namespace) -> int:
    dissection = Dissection.from_json(_read_payload(args.input))
    _emit_frieze(lambda_frieze(dissection, args.p), args.format)
    return 0


def _cmd_cc(args: argparse.Namespace) -> int:
    triangulation = Triangulation.from_json(_read_payload(args.input))
    _emit_frieze(cc_frieze(triangulation), args.format)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    dissection = Dissection.from_json(_read_payload(args.input))
    print(json.dumps(quad_to_tree(dissection).to_json()))
    return 0


def _cmd_associate(args: argparse.Namespace) -> int:
    dissection = Dissection.from_json(_read_payload(args.input))
    print(json.dumps(associated_triangulation(dissection, args.p).to_json()))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        _, walk = _p_angulation_walk(args.s, args.p)
        print(sum(1 for _ in walk))
    else:
        _write(_listing(args.s, args.p))  # sorted, streamed
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = sweep(args.p, args.max_s, deep=args.deep_uniqueness, orbits=args.orbits)
    print(json.dumps(summary.to_json()))
    return 0 if summary.all_ok else 2


def _cmd_validate(args: argparse.Namespace) -> int:
    """Check a grid against the frieze laws: exit 0 with its report when it
    holds them all, else 1.  The text `gen` and `cc` write is read directly,
    by `frieze._grid_from_text`; any other JSON goes through `json.loads` and
    `Frieze.from_json`, whose errors are the only ones reported."""
    text = _read_text(args.input)
    report = validate(_grid_from_text(text) or Frieze.from_json(_loads(text)))
    print(json.dumps(report.to_json()))
    return 0 if report.ok else 1


@functools.cache  # built once per process: parse_args never mutates it
def _build_parser() -> _Parser:
    parser = _Parser(prog="friezes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    gen = add("gen", _cmd_gen, "radical frieze of a p-angulation")
    gen.add_argument("--p", type=int, choices=(4, 6), required=True)
    gen.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")
    gen.add_argument("--format", choices=("ascii", "json", "csv"), default="ascii")

    cc = add("cc", _cmd_cc, "integer frieze of a triangulation")
    cc.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")
    cc.add_argument("--format", choices=("ascii", "json", "csv"), default="ascii")

    tree = add("tree", _cmd_tree, "noncrossing tree of a 4-angulation")
    tree.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")

    associate = add("associate", _cmd_associate, "associated triangulation")
    associate.add_argument("--p", type=int, choices=(4, 6), required=True)
    associate.add_argument(
        "--input", required=True, help="path, '-' for stdin, or inline JSON"
    )

    enum = add("enumerate", _cmd_enumerate, "list all p-angulations with s faces")
    enum.add_argument("--p", type=int, choices=(4, 6), required=True)
    enum.add_argument("--s", type=_positive, required=True, help="face count")
    enum.add_argument("--count-only", action="store_true")

    verify = add("verify", _cmd_verify, "sweep the coincidence checks")
    verify.add_argument("--p", type=int, choices=(4, 6), required=True)
    verify.add_argument("--max-s", type=_positive, required=True, help="face count bound")
    verify.add_argument(
        "--deep-uniqueness",
        action="store_true",
        help="also scan every triangulation of each polygon for odd-row matches",
    )
    verify.add_argument(
        "--orbits",
        action="store_true",
        help="check the levels below --max-s in full and, on the top level, one dissection"
        " per even-rotation orbit (orbit representatives reported as orbits_checked)",
    )

    val = add("validate", _cmd_validate, "check a frieze grid")
    val.add_argument("--input", required=True, help="path, '-' for stdin, or inline JSON")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help printed: argparse's status
            code = exc.code
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, where the handler below sees it
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # stdout now writes to nowhere, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, OverflowError) as exc:  # JSON, domain errors, huge sizes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
