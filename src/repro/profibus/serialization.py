"""JSON (de)serialisation of network scenarios.

Lets users keep network descriptions in version-controlled files and
feed them to the CLI (``profibus-rt analyse --file plant.json``).  The
format mirrors the object model one-to-one::

    {
      "phy": {"baud_rate": 500000, "tsdr_max": 60, ...},
      "ttr": 3000,
      "masters": [
        {"address": 1, "name": "cell",
         "streams": [
            {"name": "axis", "T": 75000, "D": 22500, "J": 0,
             "high_priority": true,
             "cycle": {"req_payload": 8, "resp_payload": 0,
                        "short_ack": true}},
            {"name": "raw", "T": 10000, "C_bits": 777}
         ]}
      ],
      "slaves": [{"address": 10}]
    }

Unknown keys raise immediately (typo protection — a silently-ignored
``"dealine"`` would make an unschedulable plant look fine).  Values are
typed like the ``trace/v1`` contract: bit times, counts and addresses
are integers (never ``true``/``false``), flags are booleans, names are
strings — each as the model dataclass declares it.  Models built in
Python are not checked, so the generic path keeps accepting any
``Number``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import numbers
from pathlib import Path
from typing import Any, Dict, Union

from .cycle import MessageCycleSpec
from .network import Master, Network, Slave
from .phy import PhyParameters
from .stream import MessageStream


class ScenarioFormatError(ValueError):
    """Raised for malformed scenario documents."""


def is_int(value) -> bool:
    """An integer that is not a ``bool`` (``True`` is an ``int`` in
    Python, but never a bit time in a document)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: Document check per scalar field annotation of the model dataclasses.
_SCALAR_CHECKS = {
    "int": (is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@functools.lru_cache(maxsize=None)
def _scalar_fields(cls) -> Dict[str, tuple]:
    """Field name → ``(check, what, nullable)`` for every field of the
    model ``cls`` declared ``int``/``bool``/``str`` (or ``Optional`` of
    one); nested models and tuples are checked by their own parsers."""
    out = {}
    for f in dataclasses.fields(cls):
        kind = f.type
        nullable = kind.startswith("Optional[")
        if nullable:
            kind = kind[len("Optional["):-1]
        if kind in _SCALAR_CHECKS:
            out[f.name] = (*_SCALAR_CHECKS[kind], nullable)
    return out


def _check(obj: Dict[str, Any], cls, where: str, nested=()) -> None:
    """``obj`` is a JSON object holding only the scalar fields of the
    model ``cls``, each of its declared type, and the ``nested``
    sub-document keys."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(
            f"{where} must be a JSON object, got {type(obj).__name__}")
    scalars = _scalar_fields(cls)
    allowed = {*scalars, *nested}
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioFormatError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )
    for key, (check, what, nullable) in scalars.items():
        if key in obj:
            value = obj[key]
            if not (check(value) or (nullable and value is None)):
                raise ScenarioFormatError(
                    f"{where}: {key!r} must be {what}, got {value!r}")


def _list(obj: Dict[str, Any], key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{where}: {key!r} must be a JSON list")
    return value


def _phy_from(obj: Dict[str, Any]) -> PhyParameters:
    _check(obj, PhyParameters, "phy")
    return PhyParameters(**obj)


def _cycle_from(obj: Dict[str, Any]) -> MessageCycleSpec:
    _check(obj, MessageCycleSpec, "cycle")
    return MessageCycleSpec(**obj)


def _stream_from(obj: Dict[str, Any]) -> MessageStream:
    name = obj.get("name", "?") if isinstance(obj, dict) else "?"
    _check(obj, MessageStream, f"stream {name!r}", nested=("cycle",))
    kwargs = {k: obj[k] for k in _scalar_fields(MessageStream) if k in obj}
    if "cycle" in obj:
        kwargs["spec"] = _cycle_from(obj["cycle"])
    try:
        return MessageStream(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad stream {obj!r}: {exc}") from exc


def _master_from(obj: Dict[str, Any]) -> Master:
    _check(obj, Master, "master", nested=("streams",))
    return Master(
        address=obj["address"],
        name=obj.get("name", ""),
        streams=tuple(_stream_from(s)
                      for s in _list(obj, "streams", "master")),
    )


def _slave_from(obj: Dict[str, Any]) -> Slave:
    _check(obj, Slave, "slave")
    return Slave(address=obj["address"], name=obj.get("name", ""))


def network_from_dict(doc: Dict[str, Any]) -> Network:
    """Build a :class:`Network` from a parsed scenario document.

    Every malformed document — wrong shapes, missing or mistyped
    fields, values the model constructors reject — raises
    :class:`ScenarioFormatError`."""
    _check(doc, Network, "scenario document",
           nested=("phy", "masters", "slaves"))
    if "masters" not in doc:
        raise ScenarioFormatError("scenario needs a 'masters' list")
    try:
        return Network(
            masters=tuple(_master_from(m)
                          for m in _list(doc, "masters", "scenario")),
            slaves=tuple(_slave_from(s)
                         for s in _list(doc, "slaves", "scenario")),
            phy=_phy_from(doc.get("phy", {})),
            ttr=doc.get("ttr"),
        )
    except ScenarioFormatError:
        raise
    except KeyError as exc:
        raise ScenarioFormatError(f"scenario: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad scenario: {exc}") from exc


def _field_defaults(cls) -> Dict[str, Any]:
    """Field name → declared default (``MISSING`` for required fields)."""
    return {
        f.name: (f.default_factory() if f.default_factory
                 is not dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }


_CYCLE_DEFAULTS = _field_defaults(MessageCycleSpec)
_STREAM_DEFAULTS = _field_defaults(MessageStream)


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Inverse of :func:`network_from_dict` (round-trip safe).

    Optional fields are omitted exactly when they equal the dataclass
    *defaults* (not when they are merely falsy): a ``max_retry`` of 0
    overrides the PHY retry limit and must survive the round trip, and
    any non-falsy default added to :class:`MessageCycleSpec` later stays
    round-trip exact without touching this function.
    """
    def stream_doc(s: MessageStream) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": s.name, "T": s.T, "D": s.D}
        if s.J != _STREAM_DEFAULTS["J"]:
            out["J"] = s.J
        if s.high_priority != _STREAM_DEFAULTS["high_priority"]:
            out["high_priority"] = s.high_priority
        if s.C_bits is not None:
            out["C_bits"] = s.C_bits
        else:
            out["cycle"] = {
                k: v
                for k, v in dataclasses.asdict(s.spec).items()
                if v != _CYCLE_DEFAULTS[k]
            }
        return out

    doc: Dict[str, Any] = {
        "phy": dataclasses.asdict(network.phy),
        "masters": [
            {
                "address": m.address,
                "name": m.name,
                "streams": [stream_doc(s) for s in m.streams],
            }
            for m in network.masters
        ],
    }
    if network.ttr is not None:
        doc["ttr"] = network.ttr
    if network.slaves:
        doc["slaves"] = [
            {"address": s.address, "name": s.name} for s in network.slaves
        ]
    return doc


#: Version tag mixed into every fingerprint.  Bump it (in
#: :mod:`repro.schemas`) whenever the canonical scenario-document form
#: changes meaning (a new semantic field, a changed default) so stale
#: value-keyed cache entries and checkpoint rows from older code can
#: never collide with new ones.
from ..schemas import FINGERPRINT_SCHEMA


def network_fingerprint(network: Network) -> str:
    """Canonical content hash of a network — the value-identity key.

    Two networks get the same fingerprint exactly when their canonical
    scenario documents are identical: the hash runs over the
    :func:`network_to_dict` form serialised with sorted keys, so field
    order in a source file, formatting, and default-valued optional
    fields all normalise away, while any semantic change (a period, a
    deadline, jitter, PHY parameters, ring order, TTR) changes the
    digest.  This is the shared-cache key for the analysis service and
    the identity key for corpus entries and fuzz checkpoints — contexts
    where *fresh value-equal instances* must collide, which is exactly
    what the instance-keyed analysis memos intentionally never do.
    """
    return network_doc_fingerprint(network_to_dict(network))


def network_doc_fingerprint(doc: Dict[str, Any]) -> str:
    """:func:`network_fingerprint` of an already-canonical scenario
    document (one produced by :func:`network_to_dict`).  Pure hashing,
    no (de)serialisation — corpus-entry validation uses this so a stored
    fingerprint can be audited without flowing through the late-bound
    serialisation seam the mutation harness patches."""
    payload = json.dumps(
        {"schema": FINGERPRINT_SCHEMA, "network": doc},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_network(path: Union[str, Path]) -> Network:
    """Read a scenario file (JSON) into a :class:`Network`."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON: {exc}") from exc
    return network_from_dict(doc)


def save_network(network: Network, path: Union[str, Path]) -> None:
    """Write a :class:`Network` as a scenario file (JSON, stable order)."""
    Path(path).write_text(
        json.dumps(network_to_dict(network), indent=2, sort_keys=True) + "\n"
    )
