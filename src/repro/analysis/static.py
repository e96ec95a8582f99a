"""The static analyzer: one parse, one index, every rule, one command.

:func:`analyze` parses each file once (:func:`~repro.analysis.program.
load_modules`), builds one :class:`~repro.analysis.program.ProgramIndex`,
solves the FLOW fixpoint once, runs the SIM visitor, the FLOW report and
the KERN passes over that index, applies inline suppressions once and
returns one list of :class:`~repro.analysis.rules.Finding`.

Command line (also what ``repro check`` and CI run)::

    python -m repro.analysis [paths...] [--select IDS] [--format text|json]
    python -m repro.analysis rules

With no paths it analyzes the installed ``repro`` package.  The exit
status is 0 when nothing is found, 1 on any finding (or a file that
does not parse) and 2 on a usage error: a missing path or an unknown
rule id in ``--select``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

import repro
from repro.analysis.flow import FlowAnalysis
from repro.analysis.kernel import KernelAnalysis
from repro.analysis.lint import lint_module
from repro.analysis.program import ProgramIndex, load_modules
from repro.analysis.rules import PARSE_ERROR, RULES, Finding, is_suppressed

__all__ = ["analyze", "main"]


def analyze(paths: Iterable[str | Path]) -> list[Finding]:
    """Every unsuppressed finding for the ``*.py`` files under ``paths``."""
    modules = load_modules(paths)
    program = ProgramIndex(modules)
    flow = FlowAnalysis(program)
    flow.solve()
    found = list(modules.errors)
    for module in modules:
        found.extend(lint_module(module))
    found.extend(flow.report())
    found.extend(KernelAnalysis(program, flow).run())
    by_path = {str(m.path): m for m in modules}
    kept = [
        f for f in found if f.path not in by_path or not is_suppressed(f, by_path[f.path])
    ]
    return sorted(kept, key=lambda f: (f.path, f.line, f.col, f.rule))


def _print_rules() -> None:
    from repro.analysis.invariants import INVARIANTS
    from repro.analysis.sanitizer import SAN_RULES

    print("Static rules (python -m repro.analysis):")
    for rid, summary in RULES.items():
        print(f"  {rid:<8} {summary}")
    print("Runtime invariants (repro check --invariants):")
    for rid, summary in INVARIANTS.items():
        print(f"  {rid:<8} {summary}")
    print("Schedule sanitizer rules (repro sanitize):")
    for rid, summary in SAN_RULES.items():
        print(f"  {rid:<8} {summary}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis``; returns the exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv == ["rules"]:
        _print_rules()
        return 0
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of the repro sources: the SIM, FLOW and "
        "KERN rules over one parsed program ('rules' lists them).",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories (default: the repro package)"
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="IDS",
        help="report only these comma-separated rule ids (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="one line per finding (default) or a JSON array",
    )
    args = parser.parse_args(argv)

    paths = args.paths or [str(Path(repro.__file__).resolve().parent)]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"repro.analysis: error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    selected = {r.strip() for s in args.select or () for r in s.split(",") if r.strip()}
    unknown = sorted(selected - set(RULES))
    if unknown:
        print(f"repro.analysis: error: unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    findings = analyze(paths)
    if selected:
        findings = [f for f in findings if f.rule in selected or f.rule == PARSE_ERROR]
    if args.format == "json":
        print(json.dumps([dataclasses.asdict(f) for f in findings], indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"repro.analysis: {n} finding{'s' if n != 1 else ''} ({', '.join(paths)})")
    return 1 if findings else 0
