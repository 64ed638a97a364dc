"""JSON file formats and DOT emission.

Algebras are stored with full tables; posets are stored as cover lists
(small and human-editable) and closed transitively on load.  Loading
validates, so a file that deserializes is a genuine p-algebra / poset.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    MAX_ALGEBRA_SIZE,
    FiniteAlgebra,
    ResourceLimitError,
    StructureError,
    validate_palgebra,
)
from .duality import FinitePoset, validate_poset


def algebra_to_dict(a: FiniteAlgebra) -> dict:
    return {
        "size": a.size,
        "meet": [list(row) for row in a.meet],
        "join": [list(row) for row in a.join],
        "star": list(a.star),
        "zero": a.zero,
        "one": a.one,
    }


def declared_size(data: dict) -> int:
    """The file's ``size``, refused before anything is built for it when it
    exceeds the table budget."""
    size = int(data["size"])
    if size > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(f"size {size} exceeds the table budget {MAX_ALGEBRA_SIZE}")
    return size


def algebra_from_dict(data: dict) -> FiniteAlgebra:
    try:
        a = FiniteAlgebra(declared_size(data), data["meet"], data["join"],
                          data["star"], int(data["zero"]), int(data["one"]))
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed algebra file: {exc}") from exc
    report = validate_palgebra(a)
    if not report:
        laws = ", ".join(v.law for v in report.violations)
        raise StructureError(f"algebra file violates: {laws}")
    return a


def poset_to_dict(p: FinitePoset) -> dict:
    return {"size": p.size, "covers": [list(c) for c in p.covers()]}


def poset_from_dict(data: dict) -> FinitePoset:
    try:
        p = FinitePoset.from_covers(declared_size(data),
                                    [tuple(c) for c in data["covers"]])
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed poset file: {exc}") from exc
    report = validate_poset(p)
    if not report:
        laws = ", ".join(v.law for v in report.violations)
        raise StructureError(f"poset file violates: {laws}")
    return p


def map_to_dict(table) -> dict:
    return {"table": list(table)}


def map_from_dict(data: dict) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in data["table"])
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed map file: {exc}") from exc


def save_json(path: str | Path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_object(path: str | Path) -> FiniteAlgebra | FinitePoset:
    """Dispatch on the file's keys: tables give an algebra, covers a poset."""
    data = load_json(path)
    if "covers" in data:
        return poset_from_dict(data)
    return algebra_from_dict(data)


def poset_to_dot(p: FinitePoset, name: str = "poset") -> str:
    """Hasse diagram, bottom-up; nodes and edges sorted for stable output."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in range(p.size):
        lines.append(f"  n{x} [label=\"{x}\"];")
    for lo, hi in p.covers():
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def algebra_to_dot(a: FiniteAlgebra, name: str = "algebra") -> str:
    """Hasse diagram of the lattice order with star annotations."""
    covers = []
    for x in range(a.size):
        above = [y for y in range(a.size) if y != x and a.leq(x, y)]
        for y in above:
            if not any(z != y and a.leq(z, y) for z in above):
                covers.append((x, y))
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in range(a.size):
        lines.append(f"  n{x} [label=\"{x} (*{a.star[x]})\"];")
    for lo, hi in sorted(covers):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
