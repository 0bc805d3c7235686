"""Content-derived plan identity.

A plan artifact's identity answers one question: *would compiling this
query, against this configuration, in this mode, produce this plan?*  It
is a hash over exactly the **inputs** of the compile —

* the client query's structural fingerprint (variable-name independent),
* the configuration fingerprint: its declaration version plus the full
  compiled dependency set (views, XICs, TIX, keys/foreign keys) and the
  target-relation set — the things that shape every reformulation,
* the engine configuration (minimize mode and the C&B knobs),
* the artifact format version,

and over nothing else.  Derived artifacts — cost annotations, statistics,
timings, rendered SQL — are deliberately outside the identity: attaching
fresh statistics re-ranks a loaded plan, it does not orphan it.  Editing
a view or constraint, on the other hand, changes the configuration
fingerprint, so every artifact compiled under the old correspondence
simply stops being addressable: a stale plan can be *pruned*, but it can
never be *served*.

Because the identity depends only on inputs, a store lookup happens
before any compilation work — the whole point of the plan store.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Iterable

from ..logical.dependencies import DED
from .canonical import ARTIFACT_FORMAT, canonical_ded
from .stable_json import stable_dumps

__all__ = [
    "configuration_fingerprint",
    "fingerprint_digest",
    "plan_identity",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def fingerprint_digest(fingerprint: Any) -> str:
    """A stable hex digest of a structural query fingerprint.

    The fingerprint tuples of :meth:`~repro.xbind.query.XBindQuery
    .fingerprint` encode through stable JSON (tuples as arrays), so the
    digest survives pickling and ``repr`` changes — safe for artifact
    filenames and audit labels.
    """
    return _digest(stable_dumps(fingerprint))


def _encode_config(value: Any) -> Any:
    """Dataclass config objects (CBConfig and friends) as plain JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _encode_config(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return value


def configuration_fingerprint(
    version: int,
    dependencies: Iterable[DED],
    target_relations: Iterable[str],
    cb_config: Any = None,
) -> str:
    """The content fingerprint of one compiled configuration.

    Dependencies are canonicalized and sorted, target relations sorted —
    declaration iteration order never reaches the hash.  The declaration
    *version* is included alongside the content: two configurations with
    identical content but different edit histories are still the same
    deployment state, but a version bump whose content digest did not
    move (an edit and its exact revert) is treated conservatively as a
    new state.
    """
    encoded_dependencies = sorted(
        stable_dumps(canonical_ded(dependency)) for dependency in dependencies
    )
    payload = stable_dumps(
        {
            "version": version,
            "dependencies": encoded_dependencies,
            "target_relations": sorted(target_relations),
            "cb_config": _encode_config(cb_config),
        }
    )
    return _digest(payload)


def plan_identity(
    query_digest: str,
    configuration_digest: str,
    minimize: bool,
) -> str:
    """The content-derived identity of one plan artifact.

    Two compiles share an identity exactly when they were given the same
    query fingerprint, the same compiled configuration and the same
    minimize mode under the same artifact format — which is when the
    determinism suite guarantees they produce byte-identical canonical
    artifacts.
    """
    payload = stable_dumps(
        {
            "format": ARTIFACT_FORMAT,
            "query": query_digest,
            "configuration": configuration_digest,
            "minimize": bool(minimize),
        }
    )
    return _digest(payload)
