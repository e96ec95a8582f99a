"""The parsed source tree every static rule runs over.

:func:`load_modules` parses every ``*.py`` under the given paths exactly
once and names each module by walking up its ``__init__.py`` chain (so
``src/repro/balance/linux.py`` is ``repro.balance.linux`` wherever the
tree sits on disk); discovery order is sorted, since the analyzer must
itself satisfy SIM006.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.rules import PARSE_ERROR, Finding

__all__ = [
    "SourceModule",
    "ModuleIndex",
    "module_name_for",
    "parse_module",
    "syntax_error",
    "load_modules",
]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
@dataclass
class SourceModule:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.balance.linux"
    path: Path
    source: str
    tree: ast.Module
    lines: tuple[str, ...] = field(default_factory=tuple)

    def in_dirs(self, names: frozenset[str]) -> bool:
        """Is the module inside any directory named in ``names``?"""
        return bool(names.intersection(self.path.parts[:-1]))


def module_name_for(path: Path) -> str:
    """Dotted module name from the ``__init__.py`` chain above ``path``.

    A file outside any package keeps its bare stem, so single-file
    fixtures still analyze.
    """
    path = path.resolve()
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    d = path.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:  # filesystem root; defensive
            break
        d = parent
    return ".".join(parts) or path.stem


def parse_module(source: str, path: Path) -> SourceModule:
    """Parse one module's source; raises :class:`SyntaxError`."""
    return SourceModule(
        name=module_name_for(path),
        path=path,
        source=source,
        tree=ast.parse(source, filename=str(path)),
        lines=tuple(source.splitlines()),
    )


def syntax_error(path: Path, exc: SyntaxError) -> Finding:
    """The one finding a file that does not parse gets."""
    return Finding(
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        rule=PARSE_ERROR,
        message=f"syntax error: {exc.msg}",
        function=module_name_for(path),
    )


def _iter_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


class ModuleIndex:
    """Every parsed file, plus the files that did not parse."""

    def __init__(self) -> None:
        self.files: list[SourceModule] = []
        self.errors: list[Finding] = []

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.files)


def load_modules(paths: Iterable[str | Path]) -> ModuleIndex:
    """Parse every ``*.py`` under ``paths`` into a :class:`ModuleIndex`."""
    index = ModuleIndex()
    for f in _iter_files(paths):
        try:
            index.files.append(parse_module(f.read_text(), f))
        except SyntaxError as exc:
            index.errors.append(syntax_error(f, exc))
    return index
