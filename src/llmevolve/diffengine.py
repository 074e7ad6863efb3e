"""Parse model responses into SEARCH/REPLACE edit blocks and apply them.

The block grammar is part of the prompt contract (see templates): a block is

    <<<<<<< SEARCH
    ...text to locate...
    =======
    ...replacement text...
    >>>>>>> REPLACE

Matching is exact, byte for byte; the first occurrence of the search text is
replaced.

A reply is an edit or an error: ``parse_response`` returns its blocks; else,
if it holds no block, the program in its one fenced code block, which
replaces the whole file; else it raises an ``EditError``. A block whose search
text is not found is an ``EditError`` too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

SEARCH_MARKER = "<<<<<<< SEARCH"
DIVIDER_MARKER = "======="
REPLACE_MARKER = ">>>>>>> REPLACE"

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


class EditError(ValueError):
    """A reply makes no edit: it holds no well-formed block and not exactly one
    fenced code block, or a block's search text is not in the working source."""


@dataclass
class EditBlock:
    search: str
    replace: str

    def __post_init__(self) -> None:
        if not self.search:
            raise ValueError("search text must be non-empty")


def parse_response(text: str) -> list[EditBlock] | str:
    """Return the reply's edit blocks, or else the program in its one fenced code block."""
    blocks = _parse_blocks(text)
    if blocks:
        return blocks
    fences = _FENCE_RE.findall(text)
    if len(fences) != 1:
        raise EditError("response contains no edit blocks or code block")
    return fences[0].rstrip("\n")


def _parse_blocks(text: str) -> list[EditBlock]:
    lines = text.split("\n")
    blocks: list[EditBlock] = []
    i = 0
    while i < len(lines):
        if lines[i] != SEARCH_MARKER:
            i += 1
            continue
        start = i
        search, i = _read_half(lines, i + 1, DIVIDER_MARKER, start)
        replace, i = _read_half(lines, i, REPLACE_MARKER, start)
        if not search:
            raise EditError(f"block starting at line {start + 1} has empty search text")
        blocks.append(EditBlock(search=search, replace=replace))
    return blocks


def _read_half(lines: list[str], i: int, end: str, start: int) -> tuple[str, int]:
    """Read one half of the block at line ``start`` from line ``i`` to its ``end`` marker.

    Returns the half's text and the index past the marker. A new SEARCH
    marker before ``end``, or no ``end`` at all, is an ``EditError``.
    """
    j = i
    while j < len(lines) and lines[j] not in (end, SEARCH_MARKER):
        j += 1
    if j == len(lines) or lines[j] != end:
        raise EditError(f"block starting at line {start + 1} has no '{end}'")
    return "\n".join(lines[i:j]), j + 1


def apply_blocks(source: str, blocks: list[EditBlock]) -> str:
    """Apply blocks in order; each sees the effects of the previous ones."""
    text = source
    for idx, block in enumerate(blocks):
        pos = text.find(block.search)
        if pos < 0:
            raise EditError(f"search text of block {idx} not found")
        text = text[:pos] + block.replace + text[pos + len(block.search):]
    return text

