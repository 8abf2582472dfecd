"""JSON encodings of the package's value types.

Configurations are tagged objects whose legs are arrays of ints and whose
support is a row-major sorted list of [row, col, value] triples.
"""

from __future__ import annotations

from .configurations import (HookTableau, OneLegRPP, OneLegSPP, PlanePartition,
                             TwoLegRPP, TwoLegSPP)
from .errors import DomainError
from .partitions import as_partition

_LEG_COUNT = {"one-leg-spp": 1, "one-leg-rpp": 1,
              "two-leg-spp": 2, "two-leg-rpp": 2}


def _triples(entries: dict) -> list[list[int]]:
    return [[i, j, v] for (i, j), v in sorted(entries.items())]


def _ints(seq, what: str) -> list[int]:
    if not isinstance(seq, list) or any(type(x) is not int for x in seq):
        raise DomainError(f"{what} must be an array of integers: {seq!r}")
    return seq


def _from_triples(rows) -> dict:
    if not isinstance(rows, list):
        raise DomainError(f"support must be an array of triples: {rows!r}")
    entries = {}
    for row in rows:
        if len(_ints(row, "a support triple")) != 3:
            raise DomainError(f"support triples are [row, col, value]: {row!r}")
        i, j, v = row
        if (i, j) in entries:
            raise DomainError(f"two support triples on cell ({i}, {j}): {row!r}")
        entries[(i, j)] = v
    return entries


def config_to_json(cfg) -> dict:
    if isinstance(cfg, PlanePartition):
        return {"type": "plane-partition", "legs": [],
                "entries": _triples(cfg.entries)}
    if isinstance(cfg, OneLegSPP):
        return {"type": "one-leg-spp", "legs": [list(cfg.shape)],
                "entries": _triples(cfg.entries)}
    if isinstance(cfg, OneLegRPP):
        return {"type": "one-leg-rpp", "legs": [list(cfg.shape)],
                "entries": _triples(cfg.entries)}
    if isinstance(cfg, TwoLegSPP):
        return {"type": "two-leg-spp",
                "legs": [list(cfg.legs[0]), list(cfg.legs[1])],
                "excess": _triples(cfg.excess)}
    if isinstance(cfg, TwoLegRPP):
        return {"type": "two-leg-rpp",
                "legs": [list(cfg.legs[0]), list(cfg.legs[1])],
                "deficit": _triples(cfg.deficit)}
    if isinstance(cfg, HookTableau):
        return {"type": "hook-tableau", "region": cfg.region,
                "legs": [list(cfg.shape)], "values": _triples(cfg.values)}
    raise DomainError(f"cannot serialise {type(cfg).__name__}")


def legs_from_json(obj: dict, kind) -> list:
    """The partitions in obj's "legs" array, at least as many as kind needs;
    malformed legs raise DomainError."""
    legs = obj.get("legs", [])
    if not isinstance(legs, list):
        raise DomainError(f"legs must be an array: {legs!r}")
    legs = [as_partition(_ints(p, "a leg")) for p in legs]
    need = _LEG_COUNT.get(kind, 0) if isinstance(kind, str) else 0
    if len(legs) < need:
        raise DomainError(f"{kind} needs {_LEG_COUNT[kind]} legs: {legs!r}")
    return legs


def config_from_json(obj):
    """Decode a tagged configuration; malformed input raises DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"a configuration must be a JSON object: {obj!r}")
    kind = obj.get("type")
    legs = legs_from_json(obj, kind)
    if kind == "plane-partition":
        return PlanePartition(_from_triples(obj.get("entries", [])))
    if kind == "one-leg-spp":
        return OneLegSPP(legs[0], _from_triples(obj.get("entries", [])))
    if kind == "one-leg-rpp":
        return OneLegRPP(legs[0], _from_triples(obj.get("entries", [])))
    if kind == "two-leg-spp":
        return TwoLegSPP((legs[0], legs[1]), _from_triples(obj.get("excess", [])))
    if kind == "two-leg-rpp":
        return TwoLegRPP((legs[0], legs[1]), _from_triples(obj.get("deficit", [])))
    if kind == "hook-tableau":
        return HookTableau(obj["region"], legs[0] if legs else (),
                           _from_triples(obj.get("values", [])))
    raise DomainError(f"unknown configuration type {kind!r}")
