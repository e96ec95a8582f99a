"""The static analyzer's rule registry, finding type and suppressions.

One registry covers three rule families, all run by
:func:`repro.analysis.static.analyze` over one parsed program:

* ``SIM001``..``SIM007`` (:mod:`repro.analysis.lint`) -- per-file
  determinism patterns;
* ``FLOW001``..``FLOW005`` (:mod:`repro.analysis.flow`) -- determinism
  taint followed across calls and modules, plus fork-safety and
  store-key rules;
* ``KERN002``/``KERN005``/``KERN006`` (:mod:`repro.analysis.kernel`) --
  the object-layout assumptions the native engine core
  (``repro/sim/backends/_native/engine_core.c``) makes about the
  dispatch-hot classes.

The only escape hatch is a trailing comment on the offending line::

    for cid in candidate_set:  # sim-lint: ignore[SIM001]
    t = helper(now)            # sim-lint: ignore[FLOW001, SIM004]

The bracket list takes comma-separated ids from any family.  A bare
``# sim-lint: ignore`` suppresses every rule on the line and
``# sim-lint: skip-file`` anywhere in a file skips the whole file;
neither is allowed under ``src/repro`` (a tree test enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.analysis.program import SourceModule

__all__ = [
    "RULES",
    "PARSE_ERROR",
    "DECISION_DIRS",
    "Finding",
    "MARKER",
    "suppressed_rules",
    "is_suppressed",
]

RULES: dict[str, str] = {
    "SIM001": "unordered set/dict-view iteration in a decision module",
    "SIM002": "global `random` module used instead of repro.sim.rng",
    "SIM003": "wall-clock read in simulation code",
    "SIM004": "float arithmetic on an engine timestamp",
    "SIM005": "mutable default argument",
    "SIM006": "unordered filesystem iteration in a harness/analysis module",
    "SIM007": "O(n) aggregate recomputation in a hot scheduling module",
    "FLOW001": "float arithmetic reaching an engine timestamp across call boundaries",
    "FLOW002": "global/unseeded randomness flowing into a scheduling decision",
    "FLOW003": "unordered set escaping into iteration in a decision module",
    "FLOW004": "module-level mutable state written on a hot or worker path",
    "FLOW005": "lambda/closure flowing into store spec-key construction",
    "KERN002": "kernel attribute assigned incompatible types",
    "KERN005": "closure/lambda/nested def created on a dispatch-reachable path",
    "KERN006": "eval/exec/frame introspection, metaclass or attribute hook in a kernel module",
}

#: the rule id a file that does not parse is reported under; it is not
#: a rule, so it can be neither selected nor suppressed
PARSE_ERROR = "SIM000"

#: directories whose modules make scheduling decisions (the scope of
#: SIM001, FLOW002 and FLOW003)
DECISION_DIRS = frozenset({"balance", "sched", "core"})


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    function: str  # qualified name of the enclosing function, class or module

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: the comment marker every suppression starts with
MARKER = "sim-lint:"


def suppressed_rules(line: str) -> Optional[frozenset[str]]:
    """Rules suppressed by a ``# sim-lint: ignore[...]`` trailing comment.

    Returns ``None`` when the line carries no suppression; an empty set
    means "suppress everything" (bare ``ignore``).
    """
    idx = line.find(MARKER)
    if idx < 0 or "#" not in line[:idx]:
        return None
    rest = line[idx + len(MARKER) :].strip()
    if not rest.startswith("ignore"):
        return None
    rest = rest[len("ignore") :].strip()
    if rest.startswith("["):
        end = rest.find("]")
        if end < 0:
            return None
        return frozenset(r.strip() for r in rest[1:end].split(",") if r.strip())
    return frozenset()  # bare ignore: all rules


def is_suppressed(finding: Finding, module: SourceModule) -> bool:
    """Does an inline comment in ``module`` silence ``finding``?"""
    if f"{MARKER} skip-file" in module.source:
        return True
    if not 1 <= finding.line <= len(module.lines):
        return False
    rules = suppressed_rules(module.lines[finding.line - 1])
    return rules is not None and (not rules or finding.rule in rules)
