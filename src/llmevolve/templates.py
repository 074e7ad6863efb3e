"""Instruction templates for code generation and prompt rewriting.

These are the audit surface for every model call: the engine never sends
text that was not assembled here. The SEARCH/REPLACE grammar quoted below
must stay bit-identical to the markers in diffengine.
"""

from __future__ import annotations

from typing import Sequence

from . import diffengine

EDIT_FORMAT_INSTRUCTIONS = f"""\
Modify the target program with one or more edit blocks in this exact format:

{diffengine.SEARCH_MARKER}
<exact text copied from the target program>
{diffengine.DIVIDER_MARKER}
<replacement text>
{diffengine.REPLACE_MARKER}

The search text must match the target program exactly. If a rewrite from
scratch is clearer, reply instead with a single fenced code block containing
the complete new program."""


def build_generation_messages(
    problem_brief: str,
    prompt_text: str,
    parent_code: str,
    ancestor_codes: Sequence[str] = (),
    inspiration_codes: Sequence[str] = (),
    execution_feedback: str | None = None,
) -> list[dict[str, str]]:
    """Assemble the chat messages for one solution-generation call.

    ``ancestor_codes`` is nearest-first and is emitted in that order, so the
    oldest ancestor sits last, right before the edit target.
    """
    system = (
        "You are improving a candidate program for the following task.\n\n"
        f"Task: {problem_brief}\n\n" + EDIT_FORMAT_INSTRUCTIONS
    )
    parts = [prompt_text]
    for depth, code in enumerate(ancestor_codes, start=1):
        parts.append(
            f"Ancestor {depth} (older version of the target, nearest first):"
            f"\n```\n{code}\n```"
        )
    parts.append(f"Target program to edit:\n```\n{parent_code}\n```")
    for n, code in enumerate(inspiration_codes, start=1):
        parts.append(
            f"Inspiration {n} (for inspiration only, do not edit):\n```\n{code}\n```"
        )
    if execution_feedback:
        parts.append(f"Execution feedback from the target's last run:\n{execution_feedback}")
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": "\n\n".join(parts)},
    ]


def build_meta_messages(
    problem_brief: str, parent_prompt_text: str, parent_code: str
) -> list[dict[str, str]]:
    """Assemble the chat messages for one prompt-rewriting call."""
    system = (
        "You improve instructions for a code-writing model.\n\n"
        f"Task: {problem_brief}"
    )
    user = (
        "Analyze the instruction below together with the program it produced, "
        "then rewrite the instruction with richer, more specific guidance. "
        "Reply with the new instruction only.\n\n"
        f"Current instruction:\n{parent_prompt_text}\n\n"
        f"Program it produced:\n```\n{parent_code}\n```"
    )
    return [
        {"role": "system", "content": system},
        {"role": "user", "content": user},
    ]
