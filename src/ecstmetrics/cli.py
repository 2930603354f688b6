"""Command-line pipeline: parse sources, persist trees, compute metrics.

Exit codes: 0 success, 2 unknown extension or unsupported language,
3 lex/parse error, 4 I/O or registry error, 5 malformed tree XML.
For multi-file runs the highest per-file code wins.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import stat
import sys

from .errors import FrontendError, RegistryError, SourceIoError, TreeXmlError
from .frontends import parse_file
from .frontends.registry import BUILTIN, detect, load_registry
from .metrics import _fold, _report, measure_tree, render_table
from .tree import _checked
from .xmlio import _read, load_tree_file, parse_tree_xml, serialize_metrics, serialize_tree

TREE_SUFFIX = ".ecst.xml"
METRICS_SUFFIX = ".metrics.xml"

# Every handled error class carries its exit code in exit_code.
_HANDLED = (FrontendError, RegistryError, TreeXmlError)


def _report_error(path, exc: Exception) -> None:
    """One line naming path, and the position when the error has one."""
    span = getattr(exc, "span", None)
    if span is not None:
        path = f"{path}:{span.start_line}:{span.start_col}"
    sys.stderr.write(f"{path}: error: {exc}\n")


def _load_registry(registry_path):
    if registry_path is not None:
        return load_registry(registry_path)
    if os.path.exists("languages.xml"):
        return load_registry("languages.xml")
    return BUILTIN


def _write_text(path, write, src) -> None:
    """Replace path by a file holding the text write(handle) writes into
    the open text file it is given, so that a large document can go out
    in pieces, or leave it as it was.  An existing path must be a regular
    file other than src, the input file: compared by device and inode,
    so any other name or link of src matches.  The text goes to a
    temporary file next to path, which then replaces path in one rename,
    so a failed write, even one part-way through, never leaves a torn
    output.
    """
    try:
        target = os.stat(path)
        is_input = os.path.samestat(target, os.stat(src))
    except OSError:
        pass  # nothing at path to keep; the write reports any fault
    else:
        if is_input:
            raise SourceIoError(f"cannot write {path}: it is the input file")
        if not stat.S_ISREG(target.st_mode):
            raise SourceIoError(f"cannot write {path}: not a regular file")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException as e:
        # A failed write or rename must not leave the temporary file.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise SourceIoError(f"cannot write {path}: {e.strerror or e}") from e
        raise


def _out_path(directory, source_path: str, suffix: str) -> str:
    """directory/<source file name><suffix>, creating directory if needed."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as e:
        raise SourceIoError(
            f"cannot create directory {directory}: {e.strerror or e}"
        ) from e
    return os.path.join(directory, os.path.basename(source_path) + suffix)


def _write_new(path, write, src, written: dict[str, str]) -> None:
    """_write_text, unless this run already wrote path: written maps the
    absolute path of each output written so far to its source."""
    key = os.path.abspath(path)
    if key in written:
        raise SourceIoError(f"cannot write {path}: already written for {written[key]}")
    _write_text(path, write, src)
    written[key] = src


def _metrics_out_path(source_path: str) -> str:
    if source_path.endswith(TREE_SUFFIX):
        return source_path[: -len(TREE_SUFFIX)] + METRICS_SUFFIX
    return source_path + METRICS_SUFFIX


def _cmd_parse(args) -> int:
    registry = _load_registry(args.registry)
    src = args.file
    out = args.out if args.out else src + TREE_SUFFIX
    try:
        tree = parse_file(src, detect(registry, src))
        _write_text(out, lambda handle: serialize_tree(tree, handle), src)
    except _HANDLED as e:
        _report_error(src, e)
        return e.exit_code
    print(f"{src} -> {out}")
    return 0


def _measure_tree_file(src, extended: bool):
    """The report of the tree file src, folded as it is read: no tree."""
    try:
        with open(src, "rb") as f:
            return _read(f, lambda head, events: _report(
                *head, _fold(_checked(events, head[2]), extended)
            ))
    except OSError as e:
        raise SourceIoError(f"cannot read {src}: {e.strerror or e}") from e


def _cmd_measure(args) -> int:
    src = args.file
    # A tree names its own language: only a source input reads the registry.
    is_tree = src.endswith(TREE_SUFFIX)
    registry = None if is_tree else _load_registry(args.registry)
    out = args.out if args.out else _metrics_out_path(src)
    try:
        if is_tree:
            report = _measure_tree_file(src, args.extended_cc)
        else:
            tree = parse_file(src, detect(registry, src))
            report = measure_tree(tree, extended=args.extended_cc)
            del tree  # the report is written with no tree held
        _write_text(out, lambda handle: serialize_metrics(report, handle), src)
    except _HANDLED as e:
        _report_error(src, e)
        return e.exit_code
    if args.table:
        sys.stdout.write(render_table(report))
    print(f"{src} -> {out}")
    return 0


def _run_one(src, registry, args, written: dict[str, str]) -> int:
    try:
        tree = parse_file(src, detect(registry, src))
        # The reload step is part of the pipeline, not an option: the
        # tree is always streamed to a file and read back from it.  The
        # parsed tree is freed first, so only one tree is held at a time.
        if args.tree_dir is not None:
            path = _out_path(args.tree_dir, src, TREE_SUFFIX)
            _write_new(path, lambda handle: serialize_tree(tree, handle), src, written)
            del tree
            reloaded = load_tree_file(path)  # the bytes that were persisted
        else:
            import tempfile  # only this path needs it; keeps start-up lean

            try:
                with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
                    serialize_tree(tree, spool)
                    del tree
                    spool.seek(0)
                    # parse_tree_xml takes a binary file, not the text wrapper
                    reloaded = parse_tree_xml(spool.buffer)
            except OSError as e:
                raise SourceIoError(
                    f"cannot use a temporary file: {e.strerror or e}"
                ) from e
        report = measure_tree(reloaded, extended=args.extended_cc)
        del reloaded  # the report is written with no tree held
        out = _out_path(args.metrics_dir, src, METRICS_SUFFIX)
        _write_new(out, lambda handle: serialize_metrics(report, handle), src, written)
    except _HANDLED as e:
        _report_error(src, e)
        return e.exit_code
    if args.table:
        sys.stdout.write(render_table(report))
    print(f"{src} -> {out}")
    return 0


def _cmd_run(args) -> int:
    registry = _load_registry(args.registry)
    worst = 0
    written: dict[str, str] = {}  # absolute output path -> its source
    for src in args.files:
        worst = max(worst, _run_one(src, registry, args, written))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecstmetrics",
        description="Language-independent source code metrics over eCSTs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse one source file to eCST XML")
    p_parse.add_argument("file")
    p_parse.add_argument("--registry", default=None)
    p_parse.add_argument("--out", default=None)

    p_measure = sub.add_parser(
        "measure", help="compute metrics for a source file or eCST XML file"
    )
    p_measure.add_argument("file")
    p_measure.add_argument("--registry", default=None)
    p_measure.add_argument("--out", default=None)
    p_measure.add_argument("--extended-cc", action="store_true")
    p_measure.add_argument("--table", action="store_true")

    p_run = sub.add_parser(
        "run", help="full pipeline: parse, persist, reload, measure"
    )
    p_run.add_argument("files", nargs="+")
    p_run.add_argument("--registry", default=None)
    p_run.add_argument("--tree-dir", default=None)
    p_run.add_argument("--metrics-dir", default=".")
    p_run.add_argument("--extended-cc", action="store_true")
    p_run.add_argument("--table", action="store_true")

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    # No command builds a reference cycle, so a cyclic collection during
    # one could free nothing: the collector stays off until main returns
    # or raises, and is then left as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "parse":
            return _cmd_parse(args)
        if args.command == "measure":
            return _cmd_measure(args)
        return _cmd_run(args)
    except _HANDLED as e:
        # Registry problems surface before any per-file processing.
        _report_error(getattr(args, "registry", None) or "languages.xml", e)
        return e.exit_code
    finally:
        if collecting:
            gc.enable()
