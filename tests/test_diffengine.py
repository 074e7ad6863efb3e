"""SEARCH/REPLACE parsing, application, and round-tripping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import render_blocks
from llmevolve.diffengine import (
    EditBlock,
    EditError,
    apply_blocks,
    parse_response,
)


def block_text(search, replace):
    return f"<<<<<<< SEARCH\n{search}\n=======\n{replace}\n>>>>>>> REPLACE"


class TestParseResponse:
    def test_single_block(self):
        assert parse_response(block_text("return 0", "return 1")) == [EditBlock("return 0", "return 1")]

    def test_block_with_surrounding_prose(self):
        text = "I will change this:\n" + block_text("a", "b") + "\nDone."
        assert parse_response(text) == [EditBlock("a", "b")]

    def test_multiple_blocks_in_order(self):
        text = block_text("one", "ONE") + "\n\n" + block_text("two", "TWO")
        assert [b.search for b in parse_response(text)] == ["one", "two"]

    def test_multiline_block(self):
        assert parse_response(block_text("a\nb", "x\ny\nz")) == [EditBlock("a\nb", "x\ny\nz")]

    def test_empty_replace_is_deletion(self):
        assert parse_response(block_text("gone", "")) == [EditBlock("gone", "")]

    def test_full_replacement_fallback(self):
        assert parse_response("Here you go:\n```python\nprint('hi')\n```\n") == "print('hi')"

    def test_blocks_win_over_fenced_code(self):
        text = "```python\nfull file\n```\n" + block_text("x", "y")
        assert parse_response(text) == [EditBlock("x", "y")]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<<<<<<< SEARCH\nreturn 0\n", "block starting at line 1 has no '======='"),
            ("prose\n<<<<<<< SEARCH\nmissing\n", "block starting at line 2 has no '======='"),
            (
                "<<<<<<< SEARCH\na\n<<<<<<< SEARCH\nb\n=======\nc\n>>>>>>> REPLACE",
                "block starting at line 1 has no '======='",
            ),
            ("x\ny\n<<<<<<< SEARCH\na\n=======\nb\n", "block starting at line 3 has no '>>>>>>> REPLACE'"),
            (
                "<<<<<<< SEARCH\na\n=======\nb\n<<<<<<< SEARCH\nc\n=======\nd\n>>>>>>> REPLACE",
                "block starting at line 1 has no '>>>>>>> REPLACE'",
            ),
            (
                block_text("a", "b") + "\n<<<<<<< SEARCH\n=======\nx\n>>>>>>> REPLACE",
                "block starting at line 6 has empty search text",
            ),
            ("I cannot help with that.", "response contains no edit blocks or code block"),
            ("```\na\n```\nand\n```\nb\n```", "response contains no edit blocks or code block"),
        ],
        ids=[
            "no_divider", "no_divider_after_prose", "search_before_divider", "no_replace", "search_before_replace",
            "empty_search", "no_fence", "two_fences",
        ],
    )
    def test_each_parse_error_names_its_cause_and_line(self, text, message):
        with pytest.raises(EditError) as exc:
            parse_response(text)
        assert str(exc.value) == message


class TestApplyBlocks:
    def test_simple_replacement(self):
        assert apply_blocks("a\nb\nc", [EditBlock("b", "B")]) == "a\nB\nc"

    def test_first_occurrence_only(self):
        assert apply_blocks("x x", [EditBlock("x", "y")]) == "y x"

    def test_whole_file_edit_equals_full_replacement(self):
        source = "def f():\n    return 0\n"
        assert apply_blocks(source, [EditBlock(source, "new")]) == "new"

    def test_later_blocks_see_earlier_effects(self):
        blocks = [EditBlock("a", "b"), EditBlock("bb", "c")]
        assert apply_blocks("ab", blocks) == "c"

    def test_empty_block_list_is_identity(self):
        assert apply_blocks("unchanged", []) == "unchanged"

    def test_missing_search_raises_with_index(self):
        with pytest.raises(EditError) as exc:
            apply_blocks("abc", [EditBlock("a", "A"), EditBlock("zzz", "B")])
        assert "block 1 " in str(exc.value)

    def test_deletion(self):
        assert apply_blocks("keep drop keep", [EditBlock(" drop", "")]) == "keep keep"


class TestRoundTrip:
    CASES = [
        [EditBlock("a", "b")],
        [EditBlock("a\nb\nc", "")],
        [EditBlock("one", "ONE"), EditBlock("two", "TWO"), EditBlock("x\ny", "z")],
        [EditBlock("    indented", "\ttabbed")],
    ]

    @pytest.mark.parametrize("blocks", CASES)
    def test_render_then_parse_is_identity(self, blocks):
        assert parse_response(render_blocks(blocks)) == blocks

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(blacklist_characters="<>=", blacklist_categories=("Cs",)),
                    min_size=1,
                ).filter(lambda s: s.strip() and "\n" not in s),
                st.text(
                    alphabet=st.characters(blacklist_characters="<>=", blacklist_categories=("Cs",)),
                ).filter(lambda s: "\n" not in s),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_round_trip_property(self, pairs):
        blocks = [EditBlock(s, r) for s, r in pairs]
        assert parse_response(render_blocks(blocks)) == blocks

    def test_apply_never_leaks_markers(self):
        blocks = [EditBlock("a", "b")]
        out = apply_blocks("a", blocks)
        assert "<<<<<<<" not in out and ">>>>>>>" not in out


CORPUS = [
    # (response, source, expected output or exception)
    (block_text("return 0", "return 1"), "def f():\n    return 0", "def f():\n    return 1"),
    (block_text("x = 1", "x = 2") + "\n" + block_text("y = 1", "y = 2"), "x = 1\ny = 1", "x = 2\ny = 2"),
    ("```\nwhole new file\n```", "old", "whole new file"),
    ("```python\nimport os\nprint(os.name)\n```", "old", "import os\nprint(os.name)"),
    (block_text("b", ""), "abc", "ac"),
    (block_text("a", "aa"), "a a", "aa a"),
    ("no edits here", "src", EditError),
    ("<<<<<<< SEARCH\nbroken", "src", EditError),
    (block_text("absent", "x"), "src", EditError),
    (block_text("multi\nline", "joined"), "pre\nmulti\nline\npost", "pre\njoined\npost"),
]


@pytest.mark.parametrize("response,source,expected", CORPUS)
def test_corpus(response, source, expected):
    """End-to-end parse + apply over a small fixture corpus."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            blocks = parse_response(response)
            assert isinstance(blocks, list)  # only the blocks' application may fail after parsing
            apply_blocks(source, blocks)
    else:
        edit = parse_response(response)
        if isinstance(edit, str):
            assert edit == expected
        else:
            assert apply_blocks(source, edit) == expected
