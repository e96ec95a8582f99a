"""Canonical content-addressed keys for experiment configurations.

The store (:mod:`repro.store.store`) files every artifact under the
SHA-256 digest of the *configuration that produced it*, so two
invocations asking for the same simulation resolve to the same entry
without comparing anything but a hex string.  That only works if equal
configurations serialize to equal bytes; this module defines that
canonical form.

A configuration -- a :class:`~repro.harness.parallel.RunSpec` -- is
reduced to a *canonical value*: a JSON tree built from ``None``/``bool``/``int``/``float``/
``str``, lists, and string-keyed objects, with the non-JSON leaves the
harness actually uses encoded explicitly:

* dataclass instances (:class:`~repro.apps.workloads.AppSpec`,
  :class:`~repro.core.speed_balancer.SpeedBalancerConfig`, ...) become
  ``{"__dataclass__": "module:QualName", "fields": {...}}``;
* enum members (:class:`~repro.topology.machine.DomainLevel`,
  :class:`~repro.sched.task.WaitMode`) become
  ``{"__enum__": "module:QualName.NAME"}``;
* module-level functions (machine preset factories, co-runner
  factories) become ``{"__function__": "module:qualname"}`` -- the
  *identity* of deterministic code, resolvable on load;
* dicts with non-string keys become an explicitly ordered pair list
  ``{"__dict__": [[k, v], ...]}``.

Anything else -- lambdas, closures, live :class:`Machine` or
:class:`System` objects -- has no stable byte form and raises
:class:`UnstorableSpecError` *before* any simulation runs, naming the
offending value and the picklable/storable alternative.

The digest is then ``sha256(canonical_json(value))`` where
``canonical_json`` is the same sorted-keys/no-whitespace form
:meth:`~repro.metrics.results.AppRunResult.canonical_json` uses, so
the whole chain (spec digest, result digest, trace digest) speaks one
serialization dialect.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import json
import math
from typing import Any

from repro.harness.parallel import RunSpec

__all__ = [
    "UnstorableSpecError",
    "canonical_json",
    "canonical_value",
    "digest_of",
    "function_ref",
    "resolve_ref",
    "spec_digest",
    "spec_key",
]


class UnstorableSpecError(ValueError):
    """A configuration has no canonical byte form.

    Raised before any simulation runs when a spec contains a value the store cannot key stably -- a lambda, a
    closure, an interactively created object.  The fix is always the
    same one :mod:`repro.harness.parallel` already asks for: machine
    preset *names*, :class:`~repro.apps.workloads.AppSpec` instances,
    plain dataclasses and module-level functions.
    """


def resolve_ref(ref: str) -> Any:
    """The module-level class or function ``"module:qualname"`` names.

    The object found must carry that name itself (its own
    ``__module__`` and ``__qualname__``), which is the form
    :func:`function_ref` and type references write.  So a path through
    another module's attribute (``repro.store.store:os.getpid``) or to
    a plain value names nothing.  Raises ``LookupError`` when ``ref``
    does not name such an object.
    """
    mod, sep, qual = ref.partition(":")
    if not (mod and sep and qual):
        raise LookupError(f"malformed reference {ref!r}")
    try:
        obj: Any = importlib.import_module(mod)
        for part in qual.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError, ValueError, TypeError) as exc:
        # TypeError: a relative module name such as ".x"
        raise LookupError(f"cannot resolve {ref!r} ({exc})") from None
    own = f"{getattr(obj, '__module__', None)}:{getattr(obj, '__qualname__', None)}"
    if own != ref:
        raise LookupError(
            f"{ref!r} reaches {own!r}, not an object defined under that name"
        )
    return obj


def function_ref(fn: Any) -> str:
    """``"module:qualname"`` for a module-level callable.

    Verifies the reference resolves back to the same object, so a
    digest never names code that cannot be found again.
    """
    mod = getattr(fn, "__module__", None)
    qual = getattr(fn, "__qualname__", None)
    if not mod or not qual or "<locals>" in qual or "<lambda>" in qual:
        raise UnstorableSpecError(
            f"{fn!r} is not a module-level function; lambdas and closures "
            "have no stable identity to key a store entry by -- use a "
            "module-level function, an AppSpec or a plain dataclass"
        )
    ref = f"{mod}:{qual}"
    try:
        obj = resolve_ref(ref)
    except LookupError as exc:
        raise UnstorableSpecError(
            f"{exc}; store keys must reference importable code"
        ) from None
    if obj is not fn:
        raise UnstorableSpecError(
            f"{ref} resolves to a different object than {fn!r}; "
            "store keys must reference importable module-level code"
        )
    return ref


def _type_ref(tp: type) -> str:
    """``"module:QualName"`` for a module-level type; reject local ones.

    A type defined inside a function has ``<locals>`` in its qualname:
    two *different* local types can share the ref across runs, so a
    digest built from one would not name a unique configuration.
    """
    ref = f"{tp.__module__}:{tp.__qualname__}"
    if "<locals>" in tp.__qualname__:
        raise UnstorableSpecError(
            f"{ref} is defined inside a function; store keys must "
            "reference importable module-level types"
        )
    return ref


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to the canonical JSON tree (see module docs)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UnstorableSpecError(
                f"non-finite float {value!r} has no canonical JSON form"
            )
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{_type_ref(type(value))}.{value.name}"}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: canonical_value(value[k]) for k in sorted(value)}
        pairs = [
            [canonical_value(k), canonical_value(v)] for k, v in value.items()
        ]
        pairs.sort(key=lambda kv: canonical_json(kv[0]))
        return {"__dict__": pairs}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _type_ref(type(value)),
            "fields": {
                f.name: canonical_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if callable(value):
        return {"__function__": function_ref(value)}
    raise UnstorableSpecError(
        f"{value!r} (type {type(value).__qualname__}) has no canonical "
        "byte form; store keys are built from plain values, dataclasses, "
        "enums and module-level functions"
    )


def canonical_json(value: Any) -> str:
    """Sorted-keys, no-whitespace JSON -- the store's byte dialect."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest_of(key: Any) -> str:
    """SHA-256 hex digest of a key's canonical byte form."""
    payload = canonical_json(canonical_value(key))
    return hashlib.sha256(payload.encode()).hexdigest()


def spec_key(spec: RunSpec) -> dict:
    """The canonical key object of one :class:`RunSpec`.

    Every field goes through :func:`canonical_value`, so the key is
    already a canonical tree (``canonical_value`` leaves one as it is):
    a field with no canonical form raises :class:`UnstorableSpecError`
    here, and :func:`spec_digest` hashes the key without a second walk.
    """
    return {
        "kind": "run",
        "machine": canonical_value(spec.machine),
        "app": canonical_value(spec.app),
        "balancer": canonical_value(spec.balancer),
        "cores": canonical_value(spec.cores),
        "seed": canonical_value(spec.seed),
        # backends are digest-equivalent but not wall-clock-equivalent;
        # keying the engine keeps cached timings honest and lets the two
        # backends' artifacts coexist in one store
        "engine": canonical_value(spec.engine),
        "params": canonical_value(dict(spec.params)),
    }


def spec_digest(spec: RunSpec) -> str:
    """Content digest of one :class:`RunSpec` (the store's entry key);
    equal to ``digest_of(spec_key(spec))``."""
    return hashlib.sha256(canonical_json(spec_key(spec)).encode()).hexdigest()

