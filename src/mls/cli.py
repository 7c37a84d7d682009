"""Command-line entry point: run scripts, an interactive REPL, and the
purity analyzer.

Exit codes: 0 success/clean, 1 runtime error or a stdout closed by its
reader (`mls run x.mls | head -1`, silently), 2 input error, 3 nonfunctional
findings, 4 uncertifiable findings, 5 internal error (a host exception the
interpreter did not turn into an MLS error, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import printer, purity, reader
from .environment import entry_value
from .interpreter import Interpreter
from .reader import MlsSyntaxError
from .values import MlsError


def _fail(message: str) -> None:
    sys.stderr.write(f"error: {message}\n")


def _read_source(path):
    """The UTF-8 text of `path`, or None after reporting why not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read '{path}': {getattr(exc, 'strerror', None) or exc}")
        return None


def cmd_run(path: str, seed=None) -> int:
    source = _read_source(path)
    if source is None:
        return 2
    try:
        exprs = reader.parse_program(source)
    except MlsSyntaxError as exc:
        _fail(str(exc))
        return 2
    interp = Interpreter()
    if seed is not None:
        interp.rng_set_seed(seed)
    try:
        interp.run_top_level(exprs)
    except MlsError as exc:
        _fail(str(exc))
        return 1
    return 0


def cmd_repl(stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    interp = Interpreter(stdout=stdout)

    def emit(text):
        stdout.write(text)
        stdout.flush()

    buffer = ""
    emit("MLS repl; :env lists bindings, :quit exits\n")
    while True:
        emit("+ " if buffer else "> ")
        line = stdin.readline()
        if line == "":
            break
        stripped = line.strip()
        if not buffer and stripped == ":quit":
            break
        if not buffer and stripped == ":env":
            for name in sorted(interp.global_env.frame):
                try:
                    with reader.deep_host_stack():
                        v = entry_value(interp.global_env.frame[name], interp)
                        preview = printer.format_value(v, interp).split("\n")[0]
                except MlsError as exc:
                    preview = f"<error: {exc.message}>"
                except RecursionError:
                    preview = "<error: evaluation nested too deeply>"
                emit(f"{name}: {preview}\n")
            continue
        buffer = buffer + "\n" + line if buffer else line
        try:
            exprs = reader.parse_program(buffer)
        except MlsSyntaxError as exc:
            if exc.incomplete:
                continue
            emit(f"error: {exc}\n")
            buffer = ""
            continue
        buffer = ""
        try:
            interp.run_top_level(exprs)
        except MlsError as exc:
            emit(f"error: {exc}\n")
    return 0


def _collect_module_files(paths) -> list:
    files = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.mls")))
        elif p.is_file():
            files.append(p)
        else:
            raise MlsError(f"cannot read '{raw}': no such file or directory")
    return files


def cmd_analyze(paths, report_format: str = "text") -> int:
    try:
        files = _collect_module_files(paths)
    except MlsError as exc:
        _fail(str(exc))
        return 2
    if not files:
        _fail("no .mls modules found")
        return 2
    modules = []
    for f in files:
        source = _read_source(f)
        if source is None:
            return 2
        try:
            modules.append(purity.parse_module(f.stem, source, str(f)))
        except MlsSyntaxError as exc:
            _fail(f"{f}: {exc}")
            return 2
    try:
        report = purity.analyze_modules(modules)
    except MlsError as exc:
        _fail(str(exc))
        return 2
    if report_format == "json":
        sys.stdout.write(purity.render_json(report))
    else:
        sys.stdout.write(purity.render_text(report))
    if report.summary[purity.UNCERTIFIABLE] > 0:
        return 4
    if report.summary[purity.NONFUNCTIONAL] > 0:
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mls", description="MLS interpreter and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate an .mls script")
    run_p.add_argument("path")
    run_p.add_argument("--seed", type=int, default=None, help="initialize the RNG first")

    sub.add_parser("repl", help="interactive session")

    an_p = sub.add_parser("analyze", help="certify or refute functional validity")
    an_p.add_argument("paths", nargs="+", help=".mls files or directories of modules")
    an_p.add_argument("--format", choices=("text", "json"), default="text")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = cmd_run(args.path, args.seed)
        elif args.command == "repl":
            code = cmd_repl()
        else:
            code = cmd_analyze(args.paths, args.format)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull (Python's "Note on SIGPIPE")
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
