"""Reading the .grp generator file format.

A .grp file is plain text: a degree line, a name line, then one generator
per line in 0-based disjoint cycle notation, with ``()`` for the identity.
``#`` starts a comment; blank lines are ignored.

    degree 4
    name example
    (0 1 2 3)
    (0 1)
"""

from __future__ import annotations

import os

from . import group
from .errors import CapExceeded, GrpFormatError, InvalidPermutation
from .group import Group, group_from_generators
from .perm import Perm


def parse_grp(text: str) -> tuple[int, str, list[Perm]]:
    """Parse .grp text into (degree, name, generators)."""
    lines: list[str] = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if len(lines) < 2:
        raise GrpFormatError("file needs a degree line and a name line")
    head = lines[0].split(None, 1)
    if len(head) != 2 or head[0] != "degree":
        raise GrpFormatError(f"expected 'degree <n>', got {lines[0]!r}")
    try:
        degree = int(head[1])
    except ValueError:
        raise GrpFormatError(f"degree is not an integer: {head[1]!r}") from None
    if degree < 1:
        raise GrpFormatError(f"degree must be positive, got {degree}")
    # a table row holds degree cells: refused before a generator is parsed
    if degree > group._CELL_LIMIT:
        raise CapExceeded(f"degree {degree} passes the cell limit of {group._CELL_LIMIT}")
    name_line = lines[1].split(None, 1)
    if name_line[0] != "name":
        raise GrpFormatError(f"expected 'name <string>', got {lines[1]!r}")
    name = name_line[1].strip() if len(name_line) == 2 else ""
    if not name:
        raise GrpFormatError("name line is empty")
    gens = []
    for body in lines[2:]:
        try:
            gens.append(Perm.from_cycle_string(body, degree))
        except InvalidPermutation as exc:
            raise GrpFormatError(f"bad generator line {body!r}: {exc}") from None
    return degree, name, gens


def load_grp(path: str | os.PathLike, cap: int | None = None) -> Group:
    """Load a .grp file and enumerate the group it generates."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GrpFormatError(f"{os.fspath(path)}: not UTF-8 text: {exc}") from None
    degree, name, gens = parse_grp(text)
    return group_from_generators(degree, gens, cap=cap, name=name)
