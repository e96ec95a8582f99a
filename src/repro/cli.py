"""Command-line interface: quick experiments without writing code.

Examples
--------
Describe the modeled machines::

    python -m repro machines

Run EP (16 threads) under each balancer on 12 Tigerton cores::

    python -m repro run --bench ep.C --cores 12 --balancer speed load pinned

The 3-threads-on-2-cores motivating example::

    python -m repro run --bench ep.C --threads 3 --cores 2 --seconds 2

Print the Section 4 analytical model for a configuration::

    python -m repro model --threads 16 --cores 12
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.apps.barriers import WaitPolicy
from repro.apps.workloads import FULL_CATALOG, WAIT_MODES, AppSpec, make_nas_app
from repro.core import analytical
from repro.harness import report
from repro.harness.experiment import BALANCER_MODES, repeat_run, run_app
from repro.harness.parallel import MACHINE_PRESETS
from repro.sim.backends import backend_names
from repro.topology import presets

#: the named machines (shared with repro.harness.parallel run specs)
MACHINES = MACHINE_PRESETS

WAITS = WAIT_MODES


def _cmd_machines(args: argparse.Namespace) -> int:
    for name, factory in MACHINES.items():
        print(factory().describe())
        print()
    return 0


def _cmd_benches(args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            entry.rss_per_core_gb,
            entry.mem_intensity,
            (entry.inter_barrier_upc_us or 0) / 1000,
            (entry.inter_barrier_omp_us or 0) / 1000,
        ]
        for name, entry in FULL_CATALOG.items()
    ]
    print(report.table(
        ["bench", "RSS GB/core", "mem intensity", "barrier UPC ms",
         "barrier OMP ms"],
        rows,
        title="NAS-like workload catalog (Table 2 of the paper; mg.B and "
              "lu.A are extrapolated extensions)",
    ))
    return 0


def _app_spec(args: argparse.Namespace) -> AppSpec:
    """The workload the spec flags describe: an AppSpec rather than a
    factory closure, so it pickles to worker processes."""
    return AppSpec(
        bench=args.bench, n_threads=args.threads, wait=args.wait,
        total_compute_us=int(args.seconds * 1_000_000),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    machine = MACHINES[args.machine]
    spec = _app_spec(args)

    rows = []
    for mode in args.balancer:
        rr = repeat_run(
            machine, spec, balancer=mode, cores=args.cores,
            seeds=range(args.repeats), workers=args.workers,
            engine=args.engine,
        )
        rows.append([
            mode.upper(),
            rr.mean_speedup,
            rr.mean_time_us / 1e6,
            rr.variation_pct,
            rr.mean_migrations,
        ])
    print(report.table(
        ["balancer", "speedup", "time (s)", "variation %", "migrations"],
        rows,
        title=(
            f"{args.bench}, {args.threads} threads on {args.cores} "
            f"{args.machine} cores, {args.wait} barriers, "
            f"{args.repeats} seeds (ideal speedup {args.cores})"
        ),
    ))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    n, m = args.threads, args.cores
    shape = analytical.queue_shape(n, m)
    pairs = {
        "threads (N)": n,
        "cores (M)": m,
        "threads per fast core (T)": shape.t,
        "fast cores (FQ)": shape.fq,
        "slow cores (SQ)": shape.sq,
        "Lemma 1 step bound": analytical.lemma1_steps_bound(n, m),
        "min profitable S (x balance interval B)": analytical.min_profitable_s(n, m),
        "speed under queue-length balancing": analytical.average_speed_linux(n, m),
        "speed under ideal speed balancing": analytical.average_speed_ideal(n, m),
        "potential speedup": analytical.potential_speedup(n, m),
    }
    print(report.kv_block("Section 4 analytical model", pairs, float_fmt="{:.3f}"))
    return 0


def _invariant_runs(args: argparse.Namespace):
    """Yield one result dict per invariant smoke run.

    The matrix behind ``repro check``'s invariant pass: balancer modes
    on a UMA and a NUMA machine with an
    :class:`~repro.analysis.invariants.InvariantChecker` installed at
    full scan resolution.  Stops at the first violation.
    """
    from repro.analysis.invariants import (
        InvariantConfig,
        InvariantViolation,
        install_invariant_checker,
    )

    total_us = int(args.seconds * 1_000_000)
    wait = WaitPolicy(mode=WAITS[args.wait])
    machines = [("uniform4", lambda: presets.uniform(4)), ("barcelona", presets.barcelona)]
    checkers = []

    def instrument(system) -> None:
        checkers.append(
            install_invariant_checker(system, InvariantConfig(scan_stride=1))
        )

    for mname, machine in machines:
        for mode in ("speed", "load", "dwrr", "ule"):
            for seed in range(args.repeats):
                run = f"{mname}/{mode}/seed{seed}"
                try:
                    run_app(
                        machine,
                        lambda system: make_nas_app(
                            system,
                            args.bench,
                            n_threads=6,
                            wait_policy=wait,
                            total_compute_us=total_us,
                        ),
                        balancer=mode,
                        cores=4,
                        seed=seed,
                        instrument=instrument,
                    )
                except InvariantViolation as exc:
                    yield {"run": run, "ok": False, "error": str(exc)}
                    return
                chk = checkers[-1]
                yield {
                    "run": run,
                    "ok": True,
                    "events": chk.stats["events"],
                    "charges": chk.stats["charges"],
                    "migrations": chk.stats["migrations"],
                }


def _cmd_check(args: argparse.Namespace) -> int:
    """Correctness tooling: static analysis + runtime invariants.

    ``repro check`` runs the static analyzer (every SIM, FLOW and KERN
    rule, exactly as ``python -m repro.analysis`` and CI run it) and
    the invariant smoke; ``--invariants`` runs only the latter.  The
    invariant pass runs a smoke matrix of balancer modes on a UMA and a
    NUMA machine with an
    :class:`~repro.analysis.invariants.InvariantChecker` installed at
    full scan resolution, so every mechanism invariant (INV001..INV004)
    and the speed balancer's policy invariants (INV005/INV006) are
    exercised end to end.
    """
    status = 0
    if not args.invariants:
        from repro.analysis.static import main as analysis_main

        status = analysis_main(["--", *(args.paths or [])])
        if status == 2:
            return status

    for result in _invariant_runs(args):
        if not result["ok"]:
            print(f"FAIL {result['run']}: {result['error']}")
            return 1
        print(
            f"ok   {result['run']}: "
            f"{result['events']} events, "
            f"{result['charges']} charges, "
            f"{result['migrations']} migrations checked"
        )
    print("invariants: ok (INV001..INV006 held on the whole smoke matrix)")
    return status


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Schedule sanitizer: trace-level race/conservation analysis.

    Runs each scenario smoke with full tracing, feeds the recorded
    history through :func:`repro.analysis.sanitizer.sanitize_system`
    and reports findings (SAN001..SAN007).  ``--differential`` adds the
    determinism legs (SAN008): hash-seed subprocess pairs, observers
    on/off and serial-vs-parallel workers.  ``--digest`` is the
    internal child mode those subprocess pairs invoke -- it prints the
    canonical run digest and nothing else.
    """
    from repro.analysis.sanitizer import run_digest, sanitize_system
    from repro.harness.scenarios import scenario_smokes

    if args.stored is not None:
        return _sanitize_stored(args)

    smokes = scenario_smokes()
    if args.digest is not None:
        smoke = smokes.get(args.digest)
        if smoke is None:
            print(f"repro: error: unknown scenario {args.digest!r}; "
                  f"expected one of {sorted(smokes)}", file=sys.stderr)
            return 2
        result, system = smoke.run(seed=args.seed, engine=args.engine)
        print(run_digest(result, system.trace, system.engine))
        return 0

    names = args.scenario or sorted(smokes)
    unknown = [n for n in names if n not in smokes]
    if unknown:
        print(f"repro: error: unknown scenario(s) {unknown}; "
              f"expected from {sorted(smokes)}", file=sys.stderr)
        return 2

    findings = []
    for name in names:
        result, system = smokes[name].run(seed=args.seed, engine=args.engine)
        found = sanitize_system(system, result=result, context=name)
        findings.extend(found)
        if not args.json:
            trace = system.trace
            print(f"{name}: {len(found)} finding(s), "
                  f"{len(trace.segments)} segments, "
                  f"{len(trace.migrations)} migration events")

    if args.differential:
        from repro.analysis.differential import differential_check

        for name in names:
            diff = differential_check(name, seed=args.seed, engine=args.engine)
            findings.extend(diff)
            if not args.json:
                print(f"{name}: differential {'ok' if not diff else 'DIVERGED'}")

    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"sanitize: {'ok' if not n else f'{n} finding(s)'} "
              f"({len(names)} scenario(s), seed {args.seed}"
              f"{', differential' if args.differential else ''})")
    return 1 if findings else 0


def _sanitize_stored(args: argparse.Namespace) -> int:
    """``repro sanitize --store DIR --stored [DIGEST...]``.

    Analyzes traces archived by ``repro submit --trace`` instead of
    re-running scenarios; an empty digest list means every traced
    entry in the store.  An entry that fails the store's integrity
    checks gets one line on stderr and the rest are still analyzed;
    either a damaged entry or a finding exits 1.
    """
    from repro.analysis.sanitizer import sanitize_stored
    from repro.store import ResultStore, StoreError

    store = ResultStore(args.store)
    if args.stored:
        digests = _resolve_digests(store.digests(), args.stored)
    else:
        digests = [e["digest"] for e in store.entries() if e.get("has_trace")]
        if not digests:
            print(f"repro: error: no traced entries in {args.store}; "
                  "archive some with repro submit --trace", file=sys.stderr)
            return 2

    findings = []
    damaged = 0
    for digest in digests:
        try:
            found = sanitize_stored(store, digest)
        except StoreError as exc:
            damaged += 1
            print(f"{digest[:12]}: {exc}", file=sys.stderr)
            continue
        findings.extend(found)
        if not args.json:
            print(f"{digest[:12]}: {len(found)} finding(s)")
    if args.json:
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        print(f"sanitize: {'ok' if not (n or damaged) else f'{n} finding(s)'} "
              f"({len(digests)} stored trace(s) in {args.store}"
              f"{f', {damaged} damaged' if damaged else ''})")
    return 1 if findings or damaged else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Perf trajectory: run the bench suite, write/compare BENCH_*.json.

    A comparison has a reference and a candidate payload: ``--baseline``
    and a fresh run (or the one ``--compare`` payload), or the two
    ``--compare`` payloads in order.  See :func:`_bench_compare`,
    :mod:`repro.harness.bench` and docs/performance.md.
    """
    from repro.harness import bench

    if args.profile is not None:
        print(bench.profile_benches(quick=args.quick, top_n=args.profile,
                                    engine=args.engine),
              end="")
        return 0

    compare = args.compare or []
    if len(compare) > 2:
        print("repro bench: --compare takes one payload (against "
              "--baseline) or exactly two", file=sys.stderr)
        return 2
    if len(compare) == 2:
        if args.baseline is not None:
            print("repro bench: --baseline does not combine with the "
                  "two-payload --compare form", file=sys.stderr)
            return 2
        return _bench_compare(args, bench, *compare)
    if compare and args.baseline is None:
        print("repro bench: --compare with one payload requires "
              "--baseline (or give two payloads: --compare A B)",
              file=sys.stderr)
        return 2

    if compare:
        candidate = compare[0]
    else:
        results = bench.run_benches(
            quick=args.quick,
            rounds=args.rounds,
            engine=args.engine,
            progress=lambda r: print(
                f"  {r.name}: {r.wall_s:.3f}s, {r.events} events "
                f"({r.events_per_sec / 1e3:.0f}k ev/s, "
                f"{r.ns_per_event:.0f} ns/event, best of {r.rounds})"
            ),
        )
        payload = bench.to_payload(results, label=args.label, quick=args.quick,
                                   engine=args.engine)
        candidate = str(bench.write_payload(payload, out_dir=args.out))
        print(f"wrote {candidate}")
    if args.baseline is None:
        return 0
    if not Path(args.baseline).exists():
        print(f"baseline {args.baseline} not found; skipping comparison "
              "(commit this run's output to establish one)")
        return 0
    return _bench_compare(args, bench, args.baseline, candidate)


def _bench_compare(args: argparse.Namespace, bench, ref_path: str,
                   cand_path: str) -> int:
    """Compare a candidate payload against a reference payload.

    Exit codes: 0 ok, 1 a bench more than ``--threshold`` percent
    slower, 2 no bench case in common or an events mismatch (a
    determinism regression -- simulated behaviour drifted, which no
    threshold excuses).  The events check runs, and fails, before the
    wall-time one; ``--events-only`` and ``--wall-only`` run just one.
    Cross-engine pairs compare fine: matching counts are the engine
    parity tripwire, and the speedup column (reference wall over
    candidate wall, >1.0 = candidate faster) the backend speedup.
    """
    ref, cand = bench.load_payload(ref_path), bench.load_payload(cand_path)
    comparisons = bench.compare_payloads(ref, cand,
                                         threshold_pct=args.threshold)
    if not comparisons:
        print(f"repro bench: {ref_path} and {cand_path} share no bench "
              "cases", file=sys.stderr)
        return 2

    if not args.wall_only:
        mismatched = [c for c in comparisons if c.events_mismatch]
        for c in mismatched:
            print(f"repro bench: events mismatch in {c.name}: {ref_path} "
                  f"has {c.baseline_events}, {cand_path} has {c.events} "
                  "(determinism regression)", file=sys.stderr)
        if mismatched:
            return 2
        print(f"events: {len(comparisons)} bench(es) match between "
              f"{ref_path} and {cand_path}")
    if args.events_only:
        return 0

    rows = [
        [c.name, c.baseline_wall_s, c.wall_s, c.delta_pct,
         c.baseline_wall_s / c.wall_s if c.wall_s > 0 else 0.0,
         "REGRESSED" if c.regressed else "ok"]
        for c in comparisons
    ]
    print(report.table(
        ["bench", "reference s", "candidate s", "delta %", "speedup", "status"],
        rows,
        title=(f"{ref_path} ({ref['label']}, {ref.get('engine', '?')}) vs "
               f"{cand_path} ({cand['label']}, {cand.get('engine', '?')}); "
               f"threshold {args.threshold:g}%"),
        float_fmt="{:.4g}",
    ))
    regressed = [c for c in comparisons if c.regressed]
    if regressed:
        names = ", ".join(c.name for c in regressed)
        print(f"repro bench: {len(regressed)} regression(s) beyond "
              f"{args.threshold:g}%: {names}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# job verbs: submit / status / fetch on a store (--store) or a daemon (--url)
# ----------------------------------------------------------------------
def _check_prefix(prefix: str) -> str:
    if not prefix or any(c not in "0123456789abcdef" for c in prefix):
        raise ValueError(f"invalid digest prefix {prefix!r} (lowercase hex)")
    return prefix


def _resolve_digests(
    known: Sequence[str], prefixes: Sequence[str], noun: str = "store entry"
) -> list[str]:
    """Full digests from (possibly abbreviated) hex prefixes over ``known``."""
    out = []
    for prefix in map(_check_prefix, prefixes):
        matches = [d for d in known if d.startswith(prefix)]
        if not matches:
            raise ValueError(f"no {noun} matches digest prefix {prefix!r}")
        if len(matches) > 1:
            raise ValueError(
                f"digest prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches); give more characters"
            )
        out.append(matches[0])
    return out


def _submit_specs(args: argparse.Namespace) -> list:
    """The RunSpec batch behind one ``repro submit`` invocation."""
    from repro.harness.parallel import RunSpec

    app = _app_spec(args)
    return [
        RunSpec.make(args.machine, app, balancer=mode, cores=args.cores,
                     seed=seed, engine=args.engine)
        for mode in args.balancer
        for seed in range(args.repeats)
    ]


def _follow(client, digest: str, deadline: Optional[float], echo: bool = False) -> str:
    """Follow one job's SSE stream to its ``end``; the final state.

    Each event is awaited for at most what is left of ``deadline``
    (forever without one); ``echo`` prints events as JSON lines.
    """
    from repro.serve import clock as _clock

    timeout = None if deadline is None else max(deadline - _clock.monotonic(), 1e-3)
    state = ""
    for event, data in client.events(digest, timeout_s=timeout):
        if echo:
            print(json.dumps({"event": event, **data}, sort_keys=True), flush=True)
        state = data.get("state", state)
    return state


def _submit_to_store(args: argparse.Namespace, specs: list):
    """``submit --store``: (result dicts, state per digest, executed)."""
    from repro.metrics import export
    from repro.service import JobService
    from repro.store import ResultStore

    service = JobService(ResultStore(args.store))
    results = service.submit(
        specs, workers=1 if args.workers is None else args.workers,
        trace=bool(args.trace), timeout_s=args.job_timeout,
    )
    states = {d: st.state for d, st in service.statuses().items()}
    return [export.result_to_dict(r) for r in results], states, service.executed


def _submit_to_daemon(args: argparse.Namespace, specs: list):
    """``submit --url``: the same triple; a job that was not terminal in
    the 202 response counts as executed and is followed to its end."""
    from repro.serve import ServeClient
    from repro.service import JobFailedError

    client = ServeClient(args.url)
    jobs = client.submit(specs, tenant=args.tenant or "default")["jobs"]
    views = {j["digest"]: j for j in jobs}
    ran = [d for d, v in views.items() if v["state"] not in ("done", "cached", "failed")]
    for d in ran:
        _follow(client, d, deadline=None)
        views[d] = client.status(d)
    failed = [v for v in views.values() if v["state"] not in ("done", "cached")]
    if failed:
        raise JobFailedError("; ".join(
            f"job {v['digest'][:12]}... {v['state']}: {v['error']}" for v in failed
        ))
    results = [client.result(j["digest"])["result"] for j in jobs]
    return results, {d: v["state"] for d, v in views.items()}, len(ran)


def _cmd_submit(args: argparse.Namespace) -> int:
    """Run a batch on a store or a daemon until every job is terminal.

    Only cache misses simulate; the output is the same on both targets.
    ``--expect-cached`` exits 1 if any job had to run (the CI smokes).
    """
    from repro.store import spec_digest

    wrong = ("workers", "trace", "job_timeout") if args.url else ("tenant",)
    given = [f"--{f.replace('_', '-')}" for f in wrong if getattr(args, f) is not None]
    if given:
        raise ValueError(f"{', '.join(given)} not accepted with "
                         f"{'--url' if args.url else '--store'}")
    specs = _submit_specs(args)
    digests = [spec_digest(s) for s in specs]
    submit = _submit_to_daemon if args.url else _submit_to_store
    results, states, executed = submit(args, specs)
    if args.json:
        jobs = [{"digest": d, "result": r} for d, r in zip(digests, results)]
        print(json.dumps(jobs, indent=2, sort_keys=True))
    else:
        rows = [
            [d[:12], s.balancer, s.seed, states[d], r["speedup"],
             r["elapsed_us"] / 1e6]
            for d, s, r in zip(digests, specs, results)
        ]
        print(report.table(
            ["digest", "balancer", "seed", "state", "speedup", "time (s)"],
            rows,
            title=f"{args.bench}, {args.threads} threads on {args.cores} "
                  f"{args.machine} cores -> {args.url or args.store}",
        ))
        print(
            f"{len(specs)} job(s): {len(states)} unique, "
            f"{len(states) - executed} cached, {executed} executed"
            f"{', traces archived' if args.trace else ''}"
        )
    if args.expect_cached and executed:
        print(f"repro submit: expected a fully cached batch but {executed} "
              "job(s) had to run", file=sys.stderr)
        return 1
    return 0


def _still_waiting(digests: Sequence[str], timeout: float) -> TimeoutError:
    return TimeoutError(
        f"still waiting on {len(digests)} digest(s) after {timeout:g}s: "
        + ", ".join(d[:12] for d in digests)
    )


def _cmd_status(args: argparse.Namespace) -> int:
    """A store's entry table or a daemon's metrics; with digests, those
    entries or job views.

    ``--watch`` waits until every named job is terminal, one
    ``--timeout`` for the whole set: a store is polled every
    ``--interval`` seconds; on a daemon each job's SSE stream is
    followed, one JSON line per transition.  Exit 1 on timeout or on a
    failed job.
    """
    import time as _time

    from repro.serve import clock as _clock

    if args.watch and not args.digest:
        raise ValueError("status --watch needs at least one digest")
    deadline = None if args.timeout is None else _clock.monotonic() + args.timeout
    if args.url is not None:
        return _status_daemon(args, deadline)

    from repro.store import ResultStore

    store = ResultStore(args.store)
    while args.watch:
        known = store.digests()
        # a digest not stored yet is waited on; a malformed one exits 2
        missing = [p for p in map(_check_prefix, args.digest)
                   if not any(d.startswith(p) for d in known)]
        if not missing:
            break
        if deadline is not None and _clock.monotonic() > deadline:
            raise _still_waiting(missing, args.timeout)
        _time.sleep(args.interval)

    entries = store.entries()
    if args.digest:
        wanted = set(_resolve_digests(store.digests(), args.digest))
        entries = [e for e in entries if e["digest"] in wanted]
    rows = [
        [e["digest"][:12], e["seq"], e["kind"], e.get("app") or "-",
         e.get("balancer") or "-", "-" if e.get("seed") is None else e["seed"],
         "yes" if e.get("has_trace") else "no"]
        for e in entries
    ]
    print(report.table(
        ["digest", "seq", "kind", "app", "balancer", "seed", "trace"],
        rows,
        title=f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {args.store}",
    ))
    return 0


def _status_daemon(args: argparse.Namespace, deadline: Optional[float]) -> int:
    from repro.serve import ServeClient
    from repro.service import JobFailedError

    client = ServeClient(args.url)
    if not args.digest:
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    known = [j["digest"] for j in client.jobs()]
    digests = _resolve_digests(known, args.digest, noun="job")
    if not args.watch:
        print(json.dumps([client.status(d) for d in digests], indent=2, sort_keys=True))
        return 0
    for i, d in enumerate(digests):
        try:
            state = _follow(client, d, deadline, echo=True)
        except TimeoutError:
            if deadline is None:
                raise
            raise _still_waiting(digests[i:], args.timeout) from None
        if state not in ("done", "cached"):
            raise JobFailedError(f"job {d[:12]}... ended in state {state!r}")
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    """Print the result behind one digest, from a store or a daemon."""
    if args.url is not None:
        from repro.serve import ServeClient

        client = ServeClient(args.url)
        known = [j["digest"] for j in client.jobs()]
        (digest,) = _resolve_digests(known, [args.digest], noun="job")
        result = client.result(digest)["result"]
    else:
        from repro.metrics import export
        from repro.store import ResultStore

        store = ResultStore(args.store)
        (digest,) = _resolve_digests(store.digests(), [args.digest])
        entry = store.get(digest)
        assert entry is not None  # _resolve_digests only returns real entries
        result = (entry.value if entry.kind != "run"
                  else export.result_to_dict(entry.result))
    if args.json or not isinstance(result, dict):
        print(json.dumps({"digest": digest, "result": result}, indent=2, sort_keys=True))
        return 0
    pairs = {k: v for k, v in result.items() if k != "type"}
    print(report.kv_block(f"{digest[:12]} ({digest})", pairs))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Store maintenance: ``repro store gc | verify | stats``."""
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.store_command == "stats":
        s = store.stats()
        print(report.kv_block(f"store {s.root}", {
            "entries": s.entries,
            "traced": s.traced,
            "total bytes": s.total_bytes,
            "next seq": s.next_seq,
        }))
        return 0
    if args.store_command == "verify":
        findings = store.verify()
        for f in findings:
            print(f)
        print(f"verify: {'clean' if not findings else f'{len(findings)} finding(s)'} "
              f"({store.root})")
        return 1 if findings else 0
    # gc
    rep = store.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
    for f in rep.findings:
        print(f)
    print(
        f"gc: kept {rep.kept}, removed {rep.removed_corrupt} corrupt, "
        f"evicted {rep.removed_evicted}, adopted {rep.adopted}, "
        f"freed {rep.bytes_freed} bytes"
    )
    return 0


# ----------------------------------------------------------------------
# serving daemon (repro.serve)
# ----------------------------------------------------------------------
def _parse_tenant(text: str):
    """``name[:weight[:rate[:burst[:queue_limit]]]]`` -> TenantConfig.

    Omitted fields take :class:`~repro.serve.TenantConfig`'s defaults.
    """
    from repro.serve import TenantConfig

    name, *fields = text.split(":")
    if not name:
        raise ValueError(f"tenant spec {text!r} has an empty name")
    if len(fields) > 4:
        raise ValueError(
            f"tenant spec {text!r} has too many fields; expected "
            "name[:weight[:rate[:burst[:queue_limit]]]]"
        )
    knobs = zip(("weight", "rate", "burst", "queue_limit"),
                (float, float, float, int), fields)
    try:
        return TenantConfig(name=name, **{k: cast(v) for k, cast, v in knobs})
    except ValueError as exc:
        raise ValueError(f"tenant spec {text!r}: {exc}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig(
        store_root=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        tenants=tuple(_parse_tenant(t) for t in args.tenant),
        window_s=args.window,
        job_timeout_s=args.job_timeout,
        max_attempts=args.max_attempts,
    )
    asyncio.run(run_server(config))
    return 0


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", default="heap", choices=backend_names(),
        help="event-dispatch backend (default: heap; backends are "
             "digest-equivalent, see repro.sim.backends)",
    )


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    """The nine flags that define a batch of runs (``run``, ``submit``)."""
    parser.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    parser.add_argument("--machine", default="tigerton", choices=sorted(MACHINES))
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--cores", type=int, default=12)
    parser.add_argument("--wait", default="yield", choices=sorted(WAITS))
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="per-thread compute demand in simulated seconds")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--balancer", nargs="+", default=["speed", "load"],
        choices=BALANCER_MODES,
    )
    _add_engine_arg(parser)


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    """Where a job verb's jobs live: ``--store DIR`` or ``--url URL``."""
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--store", default=".repro-store",
                        help="store directory (default: .repro-store)")
    target.add_argument("--url", help="a repro serve daemon instead of a "
                        "store, e.g. http://127.0.0.1:8421")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Load Balancing on Speed' (PPoPP 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="describe the modeled machines")
    sub.add_parser("benches", help="list the NAS-like workload catalog")

    run = sub.add_parser("run", help="run a workload under one or more balancers")
    _add_spec_args(run)
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the seed repeats (results are "
             "bit-identical to --workers 1; see docs/performance.md)",
    )

    model = sub.add_parser("model", help="print the Section 4 analytical model")
    model.add_argument("--threads", type=int, required=True)
    model.add_argument("--cores", type=int, required=True)

    check = sub.add_parser(
        "check",
        help="correctness tooling: static analysis (SIM/FLOW/KERN rules) + "
             "runtime invariant smoke",
    )
    check.add_argument(
        "--invariants", action="store_true",
        help="run only the runtime invariant smoke matrix",
    )
    check.add_argument(
        "--paths", nargs="+", default=None,
        help="analyze these paths (default: the installed repro package)",
    )
    check.add_argument("--bench", default="ep.C", choices=sorted(FULL_CATALOG))
    check.add_argument("--wait", default="yield", choices=sorted(WAITS))
    check.add_argument(
        "--seconds", type=float, default=0.3,
        help="per-thread compute demand of each smoke run (simulated seconds)",
    )
    check.add_argument("--repeats", type=int, default=2)

    sanitize = sub.add_parser(
        "sanitize",
        help="schedule sanitizer: trace-level race/conservation analysis "
             "over the scenario suite (+ differential determinism)",
    )
    sanitize.add_argument(
        "--scenario", nargs="+", default=None, metavar="NAME",
        help="scenario smoke(s) to analyze (default: all; see "
             "repro.harness.scenarios.scenario_smokes)",
    )
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--json", action="store_true",
        help="emit findings as a JSON array instead of text",
    )
    sanitize.add_argument(
        "--differential", action="store_true",
        help="also run the differential determinism legs (hash-seed "
             "subprocess pair, observers on/off, serial vs parallel)",
    )
    sanitize.add_argument(
        "--digest", default=None, metavar="NAME",
        help="internal: print the canonical run digest of one scenario "
             "and exit (used by the hash-seed subprocess leg)",
    )
    sanitize.add_argument(
        "--stored", nargs="*", default=None, metavar="DIGEST",
        help="analyze traces archived in the content-addressed store "
             "instead of re-running scenarios (no digests = every traced "
             "entry; see repro submit --trace)",
    )
    sanitize.add_argument(
        "--store", default=".repro-store",
        help="store directory for --stored (default: .repro-store)",
    )
    _add_engine_arg(sanitize)

    bench = sub.add_parser(
        "bench",
        help="perf trajectory: run the simulator bench suite, write "
             "BENCH_<label>.json, compare against a baseline",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced workloads (the CI perf-smoke flavour; only "
             "comparable against a --quick baseline)",
    )
    bench.add_argument("--label", default="baseline",
                       help="writes BENCH_<label>.json (default: baseline)")
    bench.add_argument("--out", default=".",
                       help="directory for the output file (default: .)")
    bench.add_argument(
        "--baseline", default=None,
        help="previous BENCH_*.json to compare against (exit 1 on "
             "regression beyond the threshold)",
    )
    bench.add_argument(
        "--threshold", type=float, default=25.0,
        help="wall-time regression threshold in percent (default: 25)",
    )
    bench.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per bench, best-of (default: 3)",
    )
    bench.add_argument(
        "--profile", type=int, nargs="?", const=15, default=None, metavar="N",
        help="instead of timing, run each case once under cProfile and "
             "print the top N functions by cumulative time (default N: 15); "
             "writes no payload",
    )
    bench.add_argument(
        "--compare", default=None, nargs="+", metavar="BENCH_JSON",
        help="skip running: compare one payload against --baseline, or "
             "the second of two payloads against the first; the same "
             "events and wall-time checks as a run with --baseline",
    )
    only = bench.add_mutually_exclusive_group()
    only.add_argument(
        "--events-only", action="store_true",
        help="only run the deterministic events check against the "
             "baseline; skip the wall-time threshold",
    )
    only.add_argument(
        "--wall-only", action="store_true",
        help="only run the wall-time threshold check against the "
             "baseline; skip the events check",
    )
    _add_engine_arg(bench)

    submit = sub.add_parser(
        "submit",
        help="run a batch on a store or a daemon: cache misses simulate "
             "once, everything else is served from the store",
    )
    _add_target_args(submit)
    _add_spec_args(submit)
    # target-specific flags default to None so a wrong-target use shows
    submit.add_argument("--tenant", help="--url only: submit as this tenant "
                                         "(default: default)")
    submit.add_argument("--workers", type=int, help="--store only: worker "
                        "processes for the cache misses (default: 1)")
    submit.add_argument("--trace", action="store_true", default=None,
                        help="--store only: also archive each fresh run's "
                             "full trace (feeds repro sanitize --stored)")
    submit.add_argument(
        "--job-timeout", type=float,
        help="--store only: per-job wall-clock budget in seconds; a job "
             "past it fails and re-enters the retry loop (not with --trace)",
    )
    submit.add_argument("--expect-cached", action="store_true",
                        help="exit 1 if any job had to run (the CI smokes)")
    submit.add_argument("--json", action="store_true",
                        help="emit [{digest, result}] as JSON, not a table")

    status = sub.add_parser(
        "status",
        help="a store's entries or a daemon's metrics; with digests, "
             "those entries or job views",
    )
    status.add_argument("digest", nargs="*", default=[],
                        help="only these digests (prefixes allowed)")
    _add_target_args(status)
    status.add_argument("--watch", action="store_true",
                        help="wait until every given job is terminal; exit 1 "
                             "if one failed or --timeout elapses first")
    status.add_argument("--interval", type=float, default=0.5, help="--watch "
                        "poll interval on a store, seconds (default: 0.5)")
    status.add_argument("--timeout", type=float, help="one --watch deadline "
                        "for all the digests, seconds (default: none)")

    fetch = sub.add_parser("fetch", help="print the result behind one digest")
    fetch.add_argument("digest", help="job digest (prefix allowed)")
    _add_target_args(fetch)
    fetch.add_argument("--json", action="store_true",
                       help="emit {digest, result} as JSON")

    serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service daemon (HTTP/JSON + SSE "
             "over a content-addressed store)",
    )
    serve.add_argument("--store", default=".repro-serve",
                       help="store root (default: .repro-serve)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8421,
                       help="listen port; 0 picks a free one (default: 8421)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes; each digest runs on one (default: 2)",
    )
    serve.add_argument(
        "--tenant", action="append", default=[], metavar="SPEC",
        help="declare a tenant as name[:weight[:rate[:burst[:queue_limit]]]] "
             "(repeatable); undeclared tenants get the defaults",
    )
    serve.add_argument(
        "--window", type=float, default=30.0,
        help="service-speed measurement window in seconds (default: 30)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds; a worker past it is "
             "killed and respawned (default: none)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=2,
        help="dispatch attempts per job before it is failed (default: 2)",
    )

    store_p = sub.add_parser(
        "store", help="store maintenance: gc, verify, stats",
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_gc = store_sub.add_parser(
        "gc",
        help="drop corrupt objects, rebuild the index, evict oldest-first "
             "down to the caps",
    )
    store_gc.add_argument("--max-entries", type=int, default=None,
                          help="keep at most this many entries")
    store_gc.add_argument("--max-bytes", type=int, default=None,
                          help="keep at most this many object bytes")
    store_verify = store_sub.add_parser(
        "verify",
        help="full read-only integrity pass over every object (exit 1 on "
             "findings)",
    )
    store_stats = store_sub.add_parser("stats", help="entry/trace/byte counts")
    for p in (store_gc, store_verify, store_stats):
        p.add_argument("--store", default=".repro-store",
                       help="store directory (default: .repro-store)")

    return parser


def _job_failures() -> tuple[type[Exception], ...]:
    """A job verb's exit-1 failures: a failed job, an HTTP error, a
    deadline.  ``main`` calls this only once an exception propagates,
    so a command that succeeds never imports the serving layer."""
    from repro.serve import ServeError
    from repro.service import JobFailedError

    return (JobFailedError, ServeError, TimeoutError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "machines": _cmd_machines,
        "benches": _cmd_benches,
        "run": _cmd_run,
        "model": _cmd_model,
        "check": _cmd_check,
        "sanitize": _cmd_sanitize,
        "bench": _cmd_bench,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "store": _cmd_store,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except _job_failures() as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if getattr(args, "url", None) is None:
            raise
        print(f"repro {args.command}: cannot reach {args.url}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
