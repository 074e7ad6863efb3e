"""Parse model responses into SEARCH/REPLACE edit blocks and apply them.

The block grammar is part of the prompt contract (see templates): a block is

    <<<<<<< SEARCH
    ...text to locate...
    =======
    ...replacement text...
    >>>>>>> REPLACE

Matching is exact, byte for byte; the first occurrence of the search text is
replaced. Responses with no blocks but exactly one fenced code block fall
back to full-file replacement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

SEARCH_MARKER = "<<<<<<< SEARCH"
DIVIDER_MARKER = "======="
REPLACE_MARKER = ">>>>>>> REPLACE"

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


class DiffParseError(ValueError):
    """A SEARCH/REPLACE block was started but not well terminated."""


class DiffApplyError(ValueError):
    """A block's search text was not found in the working source."""


@dataclass
class EditBlock:
    search: str
    replace: str

    def __post_init__(self) -> None:
        if not self.search:
            raise ValueError("search text must be non-empty")


@dataclass
class ParsedResponse:
    """Outcome of parsing a raw model response."""

    kind: str  # "blocks" | "full" | "empty"
    blocks: list[EditBlock]
    full_replacement: Optional[str] = None


def parse_response(text: str) -> ParsedResponse:
    """Extract edit blocks, or fall back to a single fenced code block."""
    blocks = _parse_blocks(text)
    if blocks:
        return ParsedResponse(kind="blocks", blocks=blocks)
    fences = _FENCE_RE.findall(text)
    if len(fences) == 1:
        return ParsedResponse(kind="full", blocks=[], full_replacement=fences[0].rstrip("\n"))
    return ParsedResponse(kind="empty", blocks=[])


def _parse_blocks(text: str) -> list[EditBlock]:
    lines = text.split("\n")
    blocks: list[EditBlock] = []
    i = 0
    while i < len(lines):
        if lines[i] != SEARCH_MARKER:
            i += 1
            continue
        start = i
        i += 1
        search_lines: list[str] = []
        while i < len(lines) and lines[i] != DIVIDER_MARKER:
            if lines[i] == SEARCH_MARKER:
                raise DiffParseError(
                    f"block starting at line {start + 1} has no '{DIVIDER_MARKER}'"
                )
            search_lines.append(lines[i])
            i += 1
        if i >= len(lines):
            raise DiffParseError(
                f"block starting at line {start + 1} has no '{DIVIDER_MARKER}'"
            )
        i += 1
        replace_lines: list[str] = []
        while i < len(lines) and lines[i] != REPLACE_MARKER:
            if lines[i] == SEARCH_MARKER:
                raise DiffParseError(
                    f"block starting at line {start + 1} has no '{REPLACE_MARKER}'"
                )
            replace_lines.append(lines[i])
            i += 1
        if i >= len(lines):
            raise DiffParseError(
                f"block starting at line {start + 1} has no '{REPLACE_MARKER}'"
            )
        i += 1
        search = "\n".join(search_lines)
        if not search:
            raise DiffParseError(
                f"block starting at line {start + 1} has empty search text"
            )
        blocks.append(EditBlock(search=search, replace="\n".join(replace_lines)))
    return blocks


def apply_blocks(source: str, blocks: list[EditBlock]) -> str:
    """Apply blocks in order; each sees the effects of the previous ones."""
    text = source
    for idx, block in enumerate(blocks):
        pos = text.find(block.search)
        if pos < 0:
            raise DiffApplyError(f"search text of block {idx} not found")
        text = text[:pos] + block.replace + text[pos + len(block.search):]
    return text

