"""Command line interface.

A thin shell over the core modules: every numerical fact in a report comes
from a core operation.  Exit codes: 0 ok, 1 parse error or an open book the
input does not carry (no twin for a real book), 2 invalid configuration (weak
hyperbolicity fails), 3 size-cap refusal, 4 internal oracle mismatch, failed
cross-validation or a cross-validation worker that died.  An oracle mismatch
on an input also writes that input's document to stderr as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .configuration import (
    MEMO_SIZE,
    InvalidConfigurationError,
    OracleMismatchError,
    ParseError,
    QuadbookError,
    SizeCapError,
    require_valid,
)
from .reporting import (
    WorkerDiedError,
    check_report,
    classify_report,
    config_document,
    cross_validate,
    dual_complex_report,
    homology_report,
    load_document,
    open_book_report,
    render_text,
)
from .splitting import DEFAULT_SUBSET_CAP

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


def _positive_int(text: str) -> int:
    """An argparse type for counts: an int of at least 1, with int's message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# the flags each command takes, by argparse dest, with their defaults: one
# parser declares every flag once, and main refuses a flag its command lacks
_INPUT = {"partition": None, "config": None, "distinguished": None, "format": "text"}
COMMAND_FLAGS = {
    "check": _INPUT,
    "dual-complex": _INPUT,
    "homology": {**_INPUT, "space": ("Z", "ZC", "Zplus"), "max_n": DEFAULT_SUBSET_CAP},
    "classify": _INPUT,
    "open-book": {**_INPUT, "variant": "complex"},
    "cross-validate": {"family": ["partitions:n<=6"], "jobs": 1, "format": "text"},
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser; built once, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quadbook", argument_default=argparse.SUPPRESS,  # only the flags given reach the namespace
        description="homology and open book structures of generic intersections of quadrics",
    )
    parser.add_argument("command", choices=COMMAND_FLAGS,
                        help="all but cross-validate read one input, from --partition or --config")
    parser.add_argument("--partition", help="comma separated odd cyclic partition, e.g. 1,1,1,1,1")
    parser.add_argument("--config", help="path to a schema-1 JSON configuration document")
    parser.add_argument("--distinguished", type=int, help="override the distinguished coordinate (1-based)")
    parser.add_argument("--format", choices=("text", "structured"), help="any command (default text)")
    parser.add_argument("--space", action="append", choices=("Z", "ZC", "Zplus"),
                        help="homology: which spaces to compute (repeatable; default all)")
    parser.add_argument("--max-n", type=_positive_int,
                        help=f"homology: subset enumeration cap (default {DEFAULT_SUBSET_CAP})")
    parser.add_argument("--variant", choices=("real", "complex"), help="open-book (default complex)")
    parser.add_argument("--family", action="append",
                        help="cross-validate: family spec (repeatable; default 'partitions:n<=6')")
    parser.add_argument("--jobs", type=_positive_int, help="cross-validate: parallelism degree (default 1)")
    return parser


def _load_input(args) -> "Configuration":
    sources = [s for s in (args.partition, args.config) if s]
    if len(sources) != 1:
        raise ParseError("exactly one of --partition or --config is required")
    if args.partition:
        return _parse_input(args.partition, True, args.distinguished)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
        return _parse_input(text, False, args.distinguished)
    except OSError as exc:
        raise ParseError(f"cannot read {args.config}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an integer, too deep
        raise ParseError(f"invalid JSON in {args.config}: {exc}") from exc


@lru_cache(maxsize=MEMO_SIZE)
def _parse_input(text: str, partition: bool, distinguished: int | None) -> "Configuration":
    """The configuration of a --partition value or a --config document's text.

    A --distinguished value is written into the document before it is
    loaded, so the configuration is built once.  Memoised on the text and
    that value, so the commands of one session parse it once; a rewritten
    file is parsed again, and a failure raises and is not kept.
    """
    if partition:
        try:
            if "_" in text:  # int() reads "1_0" as 10
                raise ValueError(text)
            parts = [int(p) for p in text.split(",")]  # an empty piece fails here
        except ValueError as exc:
            raise ParseError(f"bad partition {text!r}") from exc
        doc = {"schema": 1, "partition": parts}
    else:
        doc = json.loads(text)
    if distinguished is not None and isinstance(doc, dict):
        doc["distinguished"] = distinguished
    return load_document(doc)


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "structured":
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        stream.write(render_text(report))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        flags = COMMAND_FLAGS[args.command]
        foreign = vars(args).keys() - flags.keys() - {"command"}
        if foreign:
            parser.error(f"{args.command} does not take --{min(foreign).replace('_', '-')}")
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    args = argparse.Namespace(**{**flags, **vars(args)})  # the defaults, in one place
    out = sys.stdout
    cfg = None
    try:
        if args.command == "cross-validate":
            report = cross_validate(args.family, jobs=args.jobs)
            _emit(report, args.format, out)
            return EXIT_OK if report["ok"] else EXIT_MISMATCH

        cfg = _load_input(args)
        if args.command != "check":
            require_valid(cfg)
        if args.command == "check":
            report = check_report(cfg)
        elif args.command == "dual-complex":
            report = dual_complex_report(cfg)
        elif args.command == "homology":
            report = homology_report(cfg, tuple(args.space), cap=args.max_n)
        elif args.command == "classify":
            report = classify_report(cfg)
        else:  # open-book, at the distinguished coordinate
            report = open_book_report(cfg, cfg.distinguished, variant=args.variant)
        if args.format == "structured":  # only this format prints the input, as a --config document
            report["input"] = config_document(cfg)
        _emit(report, args.format, out)
        return EXIT_INVALID if args.command == "check" and not report["ok"] else EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidConfigurationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SizeCapError as exc:
        # only the commands that take the flag offer it
        hint = "; raise it with --max-n to proceed" if "max_n" in flags else ""
        print(f"size cap: {exc}{hint}", file=sys.stderr)
        return EXIT_CAP
    except OracleMismatchError as exc:
        print(f"internal oracle mismatch (this is a bug): {exc}", file=sys.stderr)
        if cfg is not None:  # the input, as a document that --config replays
            print(json.dumps(config_document(cfg)), file=sys.stderr)
        return EXIT_MISMATCH
    except WorkerDiedError as exc:
        print(f"cross-validate: a worker process died: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except QuadbookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
