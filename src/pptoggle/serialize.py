"""JSON encodings of the package's value types.

A configuration is a tagged object: "type" holds its tag, "legs" its shape
or legs as arrays of ints, and its support key a row-major sorted list of
[row, col, value] triples. FORMATS gives each tag's type, leg count and
support key; the encoder and the strict decoder both read it. A census file
is JSON lines: a header, then one configuration per member.
"""

from __future__ import annotations

from .configurations import (HookTableau, OneLegRPP, OneLegSPP, PlanePartition,
                             TwoLegRPP, TwoLegSPP)
from .errors import DomainError
from .halfint import HalfInt
from .partitions import as_partition

# tag -> (type, leg count, support key). A type with one leg holds it as its
# shape (empty on a plane tableau), one with two as its legs (lam, mu); a
# hook tableau also carries its "region".
FORMATS = {
    "plane-partition": (PlanePartition, 0, "entries"),
    "one-leg-spp": (OneLegSPP, 1, "entries"),
    "one-leg-rpp": (OneLegRPP, 1, "entries"),
    "two-leg-spp": (TwoLegSPP, 2, "excess"),
    "two-leg-rpp": (TwoLegRPP, 2, "deficit"),
    "hook-tableau": (HookTableau, 1, "values"),
}
_TAGS = {cls: tag for tag, (cls, _, _) in FORMATS.items()}

# census family -> the tag of its members
CENSUS_FAMILIES = {"plane": "plane-partition", "one-leg-spp": "one-leg-spp",
                   "one-leg-rpp": "one-leg-rpp", "two-leg-spp": "two-leg-spp",
                   "two-leg-rpp": "two-leg-rpp"}


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


def required(obj: dict, key: str, what: str):
    """obj[key]; a missing key raises DomainError naming `what`."""
    if key not in obj:
        raise DomainError(f"{what} has no {key!r}")
    return obj[key]


def _legs_to_json(legs, count: int) -> list:
    """A shape (count 1) or legs (count 2) as a "legs" array; [] for none."""
    return [list(p) for p in ((legs,) if count == 1 else legs or ())]


def _legs_from_json(obj: dict, count: int, what: str):
    """Inverse of _legs_to_json, reading obj's "legs": it must hold exactly
    count partitions, and may be left out only where count is 0."""
    legs = obj.get("legs", []) if count == 0 else required(obj, "legs", what)
    if not isinstance(legs, list) or len(legs) != count:
        raise DomainError(f"{what} needs {count} legs: {legs!r}")
    legs = tuple(as_partition(_ints(p, "a leg")) for p in legs)
    return () if count == 0 else legs[0] if count == 1 else legs


def _legs_of(cfg, count: int):
    return () if count == 0 else cfg.shape if count == 1 else cfg.legs


def config_to_json(cfg) -> dict:
    tag = _TAGS.get(type(cfg))
    if tag is None:
        raise DomainError(f"cannot serialise {type(cfg).__name__}")
    _, count, support = FORMATS[tag]
    region = {"region": cfg.region} if tag == "hook-tableau" else {}
    return {"type": tag, **region,
            "legs": _legs_to_json(_legs_of(cfg, count), count),
            support: _triples(getattr(cfg, support))}


def config_from_json(obj):
    """Decode a tagged configuration; malformed input, a missing key or a
    leg count other than the table's raises DomainError."""
    if not isinstance(obj, dict):
        raise DomainError(f"a configuration must be a JSON object: {obj!r}")
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in FORMATS:
        raise DomainError(f"unknown configuration type {tag!r}")
    cls, count, support = FORMATS[tag]
    head = (required(obj, "region", tag),) if tag == "hook-tableau" else ()
    legs = _legs_from_json(obj, count, tag)
    entries = _from_triples(required(obj, support, tag))
    return cls(*head, entries) if count == 0 else cls(*head, legs, entries)


def census_header_to_json(family: str, legs, bound, count: int) -> dict:
    return {"family": family,
            "legs": _legs_to_json(legs, FORMATS[CENSUS_FAMILIES[family]][1]),
            "bound": {"doubled": HalfInt.of(bound).doubled}, "count": count}


def census_from_json(lines: list) -> tuple:
    """(family, legs, bound, count, members) of a census file's decoded
    lines: a header naming the family, its legs, the bound as {"doubled": n}
    and the count, then the members. A malformed header, or a member of
    another type or with other legs than the header's, raises DomainError."""
    head = lines[0] if lines else None
    if not isinstance(head, dict):
        raise DomainError("a census file starts with a header object")
    bound, family, count = map(head.get, ("bound", "family", "count"))
    if not (isinstance(bound, dict) and type(bound.get("doubled")) is int):
        raise DomainError(
            f'census bound must look like {{"doubled": 9}}: {bound!r}')
    if not isinstance(family, str) or family not in CENSUS_FAMILIES:
        raise DomainError(f"unknown census family {family!r}")
    if type(count) is not int:
        raise DomainError(f"census count must be an integer: {count!r}")
    tag = CENSUS_FAMILIES[family]
    cls, leg_count, _ = FORMATS[tag]
    legs = _legs_from_json(head, leg_count, f"a {family} census")
    members = []
    for k, obj in enumerate(lines[1:], start=1):
        cfg = config_from_json(obj)
        if type(cfg) is not cls or _legs_of(cfg, leg_count) != legs:
            raise DomainError(f"census member {k} is a {obj['type']} with "
                              f"legs {obj.get('legs', [])}, not a {tag} with "
                              f"the header's legs")
        members.append(cfg)
    return family, legs, HalfInt(bound["doubled"]), count, members
