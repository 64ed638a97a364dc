"""JSON file formats and DOT emission.

Algebras are stored with full tables; posets are stored as cover lists
(small and human-editable).  A file that deserializes is a genuine
p-algebra / poset, decided once per kind: an algebra's tables are checked
by ``validate_palgebra``, and a poset's cover list is closed by
``FinitePoset.from_covers``, which refuses a cycle and otherwise returns
an order, so the poset is not scanned again.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from pathlib import Path

from .core import (
    MAX_ALGEBRA_SIZE,
    FiniteAlgebra,
    ResourceLimitError,
    StructureError,
    covers,
    validate_palgebra,
)


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
    size = operator.index(data["size"])
    if size > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(f"size {size} exceeds the table budget {MAX_ALGEBRA_SIZE}")
    return size


@contextmanager
def _malformed(kind: str):
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed {kind} file: {exc}") from exc


def parse_algebra(data: dict) -> FiniteAlgebra:
    """The file's tables as a :class:`FiniteAlgebra`, shape-checked only."""
    with _malformed("algebra"):
        return FiniteAlgebra(declared_size(data), data["meet"], data["join"], data["star"],
                             operator.index(data["zero"]), operator.index(data["one"]))


def algebra_from_dict(data: dict) -> FiniteAlgebra:
    a = parse_algebra(data)
    report = validate_palgebra(a)
    if not report:
        (v,) = report.violations
        raise StructureError(f"algebra file violates {v.law!r} witness {v.witness}")
    return a


def poset_to_dict(p: FinitePoset) -> dict:
    return {"size": p.size, "covers": [list(c) for c in p.covers()]}


def poset_from_dict(data: dict) -> FinitePoset:
    """The file's cover list, closed by ``from_covers``: a cyclic list is
    refused there, and anything it returns is already an order."""
    from .duality import FinitePoset  # only posets need the duality module

    with _malformed("poset"):
        return FinitePoset.from_covers(declared_size(data),
                                       [tuple(map(operator.index, c)) for c in data["covers"]])


def map_to_dict(table) -> dict:
    return {"table": list(table)}


def map_from_dict(data: dict) -> tuple[int, ...]:
    """The file's image table, refused before any entry is read when it is
    longer than the table budget."""
    with _malformed("map"):
        table = data["table"]
        if len(table) > MAX_ALGEBRA_SIZE:
            raise ResourceLimitError(f"map of {len(table)} entries exceeds the table budget "
                                     f"{MAX_ALGEBRA_SIZE}")
        return tuple(map(operator.index, table))


def save_json(path: str | Path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def load_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_object(path: str | Path) -> FiniteAlgebra | FinitePoset:
    """Dispatch on the file's keys: tables give an algebra, covers a poset."""
    data = load_json(path)
    if not isinstance(data, dict):
        raise StructureError(f"{path} does not hold a JSON object")
    if "covers" in data:
        return poset_from_dict(data)
    return algebra_from_dict(data)


def _hasse_dot(graph: str, labels, edges) -> str:
    """A Hasse diagram, bottom-up, one node per label in index order."""
    lines = [f"digraph {graph} {{", "  rankdir=BT;"]
    lines += [f"  n{x} [label=\"{label}\"];" for x, label in enumerate(labels)]
    lines += [f"  n{lo} -> n{hi};" for lo, hi in edges]
    return "\n".join(lines) + "\n}\n"


def poset_to_dot(p: FinitePoset) -> str:
    """Hasse diagram, bottom-up; nodes and edges sorted for stable output."""
    return _hasse_dot("poset", range(p.size), p.covers())


def algebra_to_dot(a: FiniteAlgebra) -> str:
    """Hasse diagram of the lattice order with star annotations."""
    return _hasse_dot("algebra", (f"{x} (*{s})" for x, s in enumerate(a.star)),
                      covers(a.up_masks, a.down_masks))
