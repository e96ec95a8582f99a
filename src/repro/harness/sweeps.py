"""Generic parameter sweeps over the experiment harness.

``sweep`` runs a cartesian grid of named parameters through a runner
and returns a :class:`SweepResult` that can slice series out of the
grid -- the shape every figure in the paper has (one varying x, one
line per configuration).  The paper's own grids are the figure
functions of :mod:`repro.harness.scenarios`, which the benchmarks
call; this module is the general-purpose version for users designing
new studies, e.g.::

    result = sweep(
        dict(cores=[4, 8, 12, 16], balancer=["speed", "load"]),
        lambda cores, balancer: run_app(
            presets.tigerton, my_app, balancer=balancer, cores=cores
        ).speedup,
    )
    xs, ys = result.series("cores", balancer="speed")
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

__all__ = ["SweepResult", "sweep"]


@dataclass
class SweepResult:
    """Grid of outcomes keyed by parameter assignments."""

    param_names: tuple[str, ...]
    points: dict[tuple, Any]

    def get(self, **params) -> Any:
        """The outcome at one full parameter assignment."""
        key = tuple(params[name] for name in self.param_names)
        return self.points[key]

    def series(self, x_name: str, **fixed) -> tuple[list, list]:
        """Extract (xs, ys) varying ``x_name`` with the rest fixed.

        ``fixed`` must pin every other parameter, exactly: raises
        KeyError when a named parameter does not exist (including
        unrecognized ``fixed`` keys, which would otherwise be silently
        ignored -- a typo would select nothing or everything) and
        ValueError when the fixing is incomplete or pins ``x_name``
        itself.
        """
        if x_name not in self.param_names:
            raise KeyError(f"unknown parameter {x_name!r}")
        unknown = sorted(n for n in fixed if n not in self.param_names)
        if unknown:
            raise KeyError(
                f"unknown fixed parameter(s) {unknown}; this sweep has "
                f"{list(self.param_names)}"
            )
        if x_name in fixed:
            raise ValueError(
                f"cannot fix the varying parameter {x_name!r}; pass it as "
                "x_name or fix it, not both"
            )
        others = [n for n in self.param_names if n != x_name]
        missing = [n for n in others if n not in fixed]
        if missing:
            raise ValueError(f"series() needs values for {missing}")
        xs, ys = [], []
        for key, value in self.points.items():
            assign = dict(zip(self.param_names, key))
            if all(assign[n] == fixed[n] for n in others):
                xs.append(assign[x_name])
                ys.append(value)
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        return [xs[i] for i in order], [ys[i] for i in order]

    def values(self) -> list:
        return list(self.points.values())

    def __len__(self) -> int:
        return len(self.points)


def sweep(
    grid: Mapping[str, Sequence],
    runner: Callable[..., Any],
    progress: Callable[[dict, Any], None] | None = None,
    workers: int | None = 1,
    store=None,
) -> SweepResult:
    """Run ``runner(**assignment)`` over the cartesian grid.

    ``progress`` (optional) is called after each point with the
    assignment dict and the outcome -- handy for long sweeps.

    ``workers`` fans the grid points out over worker processes via
    :mod:`repro.harness.parallel` (``None`` = one per CPU).  The grid
    is reassembled -- and ``progress`` invoked -- in deterministic
    cartesian-product order regardless of completion order, so
    ``SweepResult`` is identical to a serial sweep.  The runner, every
    assignment and every outcome must pickle with ``workers > 1``
    (module-level runner functions do; lambdas and closures do not).

    ``store`` (a directory path or :class:`~repro.store.ResultStore`)
    makes the sweep *incremental*: each cell is keyed by the runner's
    code identity plus its full assignment
    (:func:`repro.store.sweep_cell_key`), cells already in the store
    are served from it without running anything, and fresh outcomes
    are filed back.  Re-running an identical sweep therefore executes
    zero cells; changing one grid value executes exactly the new
    cells.  The runner must be a module-level function and every
    outcome either a result object or a plain JSON-able value.
    """
    if not grid:
        raise ValueError("empty parameter grid")
    names = tuple(grid.keys())
    combos = list(itertools.product(*(grid[n] for n in names)))
    assignments = [dict(zip(names, combo)) for combo in combos]
    points: dict[tuple, Any] = {}
    if store is not None:
        outcomes = _cached_outcomes(runner, assignments, store, workers)
        for combo, assignment, outcome in zip(combos, assignments, outcomes):
            points[combo] = outcome
            if progress is not None:
                progress(assignment, outcome)
    elif workers == 1:
        for combo, assignment in zip(combos, assignments):
            outcome = runner(**assignment)
            points[combo] = outcome
            if progress is not None:
                progress(assignment, outcome)
    else:
        # imported here: parallel builds on the harness, not vice versa
        from repro.harness.parallel import starmap_kwargs

        outcomes = starmap_kwargs(runner, assignments, workers=workers)
        for combo, assignment, outcome in zip(combos, assignments, outcomes):
            points[combo] = outcome
            if progress is not None:
                progress(assignment, outcome)
    return SweepResult(param_names=names, points=points)


def _cached_outcomes(
    runner: Callable[..., Any],
    assignments: list[dict],
    store,
    workers: int | None,
) -> list:
    """Serve each assignment from the store; run and file the misses."""
    # imported here: the store builds on the harness, not vice versa
    from repro.store import ResultStore, digest_of, sweep_cell_key

    if isinstance(store, str):
        store = ResultStore(store)
    keys = [sweep_cell_key(runner, a) for a in assignments]
    digests = [digest_of(k) for k in keys]
    outcomes: list[Any] = [None] * len(assignments)
    miss: list[int] = []
    for i, digest in enumerate(digests):
        entry = store.lookup(digest)
        if entry is None:
            miss.append(i)
        else:
            outcomes[i] = entry.payload
    if miss:
        from repro.harness.parallel import starmap_kwargs

        fresh = starmap_kwargs(
            runner, [assignments[i] for i in miss], workers=workers
        )
        for i, outcome in zip(miss, fresh):
            store.put(keys[i], outcome)
            outcomes[i] = outcome
    return outcomes
