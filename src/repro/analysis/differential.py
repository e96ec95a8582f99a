"""Differential determinism checking: perturb a run, compare digests.

The simulator's headline guarantee is bit-reproducibility: the same
scenario and seed produce the same schedule, always.  The test suite
asserts this for re-runs inside one process, but the strongest bugs
hide in what a single process cannot vary -- hash randomization
(``PYTHONHASHSEED`` changes dict/set iteration order wherever a set
sneaks into a decision path), observer instrumentation (a checker that
perturbs what it observes), and process fan-out (parallel workers
re-deriving state from pickled specs).

This module re-runs a scenario smoke under controlled perturbations and
compares :func:`~repro.analysis.sanitizer.run_digest` values.  Any
divergence is a SAN008 finding with both digests cited.

Perturbation legs
-----------------
``hashseed``
    Two fresh subprocesses run ``python -m repro sanitize --digest`` on
    the same scenario under *different* ``PYTHONHASHSEED`` values.
    Full digest (results + trace + engine fingerprint).
``observers``
    The same scenario in-process with and without a
    :class:`~repro.analysis.invariants.InvariantChecker` installed.
    Observers must be pure observation; a digest shift means the
    instrumentation perturbed the schedule.  Full digest.
``workers``
    :func:`~repro.harness.experiment.repeat_run` serially and with two
    worker processes.  Results-only digest (traces do not cross the
    process boundary), over every seed's canonical JSON.  Skipped for
    smokes whose co-runner factories close over system state that does
    not pickle.
``engines``
    The same scenario in-process under the ``heap`` backend and every
    other *available* event-dispatch backend (:mod:`repro.sim.backends`)
    -- ``native`` when a C toolchain exists.  The backends are
    digest-equivalent by contract -- same events, same order, same
    floats -- so any divergence means the compiled fast path changed
    simulated behaviour.  Full digest.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.sanitizer import SanFinding, run_digest
from repro.harness.scenarios import ScenarioSmoke, scenario_smokes

__all__ = [
    "DIFFERENTIAL_LEGS",
    "scenario_digest",
    "subprocess_digest",
    "compare_digests",
    "differential_check",
]

DIFFERENTIAL_LEGS = ("hashseed", "observers", "workers", "engines")


def scenario_digest(
    name: str, seed: int = 0, observers: bool = False, engine: str = "heap"
) -> str:
    """Run one scenario smoke in-process and return its canonical digest.

    ``observers=True`` installs the runtime invariant checker before the
    run (the perturbation the ``observers`` leg compares against);
    ``engine`` selects the event-dispatch backend (the ``engines`` leg
    compares a ``heap`` digest against every other available backend's).
    """
    smoke = scenario_smokes()[name]
    instrument = None
    if observers:
        from repro.analysis.invariants import install_invariant_checker

        instrument = lambda system: install_invariant_checker(system)  # noqa: E731
    result, system = smoke.run(seed=seed, instrument=instrument, engine=engine)
    return run_digest(result, system.trace, system.engine)


def subprocess_digest(
    name: str, seed: int = 0, hashseed: Optional[int] = None,
    timeout: int = 300, engine: str = "heap"
) -> str:
    """Digest of a scenario computed by a fresh interpreter.

    Runs ``python -m repro sanitize --digest`` in a child process, with
    ``PYTHONHASHSEED`` pinned when given, so the child's dict/set hash
    order differs from the parent's.  The child prints nothing but the
    hex digest.
    """
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--digest", name,
         "--seed", str(seed), "--engine", engine],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"digest subprocess for {name!r} failed "
            f"(exit {proc.returncode}): {proc.stderr.strip()}"
        )
    return proc.stdout.strip()


def compare_digests(
    leg: str, a: str, b: str, context: str = ""
) -> list[SanFinding]:
    """SAN008 iff two perturbed digests of one scenario differ.

    Pure comparison, split out so fault-injection tests can feed it
    divergent digests without arranging a real nondeterminism bug.
    """
    if a == b:
        return []
    return [
        SanFinding(
            code="SAN008",
            severity="error",
            message=(
                f"differential determinism divergence on the {leg!r} leg: "
                "perturbed re-runs produced different canonical digests"
            ),
            context=context,
            citations=(f"digest A: {a}", f"digest B: {b}"),
        )
    ]


def _workers_digest(
    smoke: ScenarioSmoke, workers: int, seeds, engine: str = "heap"
) -> str:
    """Results-only digest of a repeat_run fan-out, in seed order."""
    import hashlib

    from repro.harness.experiment import repeat_run
    from repro.harness.parallel import resolve_machine

    rep = repeat_run(
        resolve_machine(smoke.machine),
        smoke.app,
        balancer=smoke.balancer,
        cores=smoke.cores,
        seeds=seeds,
        workers=workers,
        speed_config=smoke.speed_config,
        engine=engine,
    )
    h = hashlib.sha256()
    for r in rep.runs:
        h.update(r.canonical_json().encode())
        h.update(b"\n")
    return h.hexdigest()


def differential_check(
    name: str,
    seed: int = 0,
    legs: Sequence[str] = DIFFERENTIAL_LEGS,
    hashseeds: tuple[int, int] = (1, 2),
    engine: str = "heap",
) -> list[SanFinding]:
    """Run the differential determinism legs for one scenario smoke.

    Returns SAN008 findings (empty when every perturbation reproduced
    the run bit-identically).  Unknown leg names raise; the ``workers``
    leg silently narrows to smokes without co-runners (co-runner
    factories are module-level and pickle fine, but the leg's value is
    in re-deriving the *app* path across processes, and keeping it
    uniform keeps digests comparable).  ``engine`` is the backend the
    hashseed/observers/workers perturbations run under; the ``engines``
    leg always compares heap against every other available backend
    regardless (``native`` when a toolchain exists).
    """
    unknown = [leg for leg in legs if leg not in DIFFERENTIAL_LEGS]
    if unknown:
        raise ValueError(
            f"unknown differential legs {unknown}; expected from {DIFFERENTIAL_LEGS}"
        )
    smoke = scenario_smokes()[name]
    findings: list[SanFinding] = []
    if "hashseed" in legs:
        a = subprocess_digest(name, seed=seed, hashseed=hashseeds[0], engine=engine)
        b = subprocess_digest(name, seed=seed, hashseed=hashseeds[1], engine=engine)
        findings += compare_digests("hashseed", a, b, context=name)
    if "observers" in legs:
        a = scenario_digest(name, seed=seed, observers=False, engine=engine)
        b = scenario_digest(name, seed=seed, observers=True, engine=engine)
        findings += compare_digests("observers", a, b, context=name)
    if "workers" in legs and not smoke.corunners:
        a = _workers_digest(smoke, workers=1, seeds=range(seed, seed + 2),
                            engine=engine)
        b = _workers_digest(smoke, workers=2, seeds=range(seed, seed + 2),
                            engine=engine)
        findings += compare_digests("workers", a, b, context=name)
    if "engines" in legs:
        from repro.sim.backends import backend_available, backend_names

        a = scenario_digest(name, seed=seed, engine="heap")
        for other in backend_names():
            if other == "heap" or not backend_available(other):
                continue
            b = scenario_digest(name, seed=seed, engine=other)
            findings += compare_digests(
                "engines", a, b, context=f"{name}[heap-vs-{other}]"
            )
    return findings
