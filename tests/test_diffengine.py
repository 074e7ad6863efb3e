"""SEARCH/REPLACE parsing, application, and round-tripping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from llmevolve.diffengine import (
    DiffApplyError,
    DiffParseError,
    EditBlock,
    apply_blocks,
    parse_response,
    render_blocks,
)


def block_text(search, replace):
    return f"<<<<<<< SEARCH\n{search}\n=======\n{replace}\n>>>>>>> REPLACE"


class TestParseResponse:
    def test_single_block(self):
        parsed = parse_response(block_text("return 0", "return 1"))
        assert parsed.kind == "blocks"
        assert parsed.blocks == [EditBlock("return 0", "return 1")]

    def test_block_with_surrounding_prose(self):
        text = "I will change this:\n" + block_text("a", "b") + "\nDone."
        parsed = parse_response(text)
        assert parsed.blocks == [EditBlock("a", "b")]

    def test_multiple_blocks_in_order(self):
        text = block_text("one", "ONE") + "\n\n" + block_text("two", "TWO")
        parsed = parse_response(text)
        assert [b.search for b in parsed.blocks] == ["one", "two"]

    def test_multiline_block(self):
        parsed = parse_response(block_text("a\nb", "x\ny\nz"))
        assert parsed.blocks == [EditBlock("a\nb", "x\ny\nz")]

    def test_empty_replace_is_deletion(self):
        parsed = parse_response(block_text("gone", ""))
        assert parsed.blocks == [EditBlock("gone", "")]

    def test_full_replacement_fallback(self):
        parsed = parse_response("Here you go:\n```python\nprint('hi')\n```\n")
        assert parsed.kind == "full"
        assert parsed.full_replacement == "print('hi')"

    def test_two_code_blocks_is_empty(self):
        parsed = parse_response("```\na\n```\nand\n```\nb\n```")
        assert parsed.kind == "empty"

    def test_no_content_is_empty(self):
        assert parse_response("I cannot help with that.").kind == "empty"

    def test_blocks_win_over_fenced_code(self):
        text = "```python\nfull file\n```\n" + block_text("x", "y")
        parsed = parse_response(text)
        assert parsed.kind == "blocks"

    def test_unterminated_search_raises(self):
        with pytest.raises(DiffParseError):
            parse_response("<<<<<<< SEARCH\nreturn 0\n")

    def test_missing_replace_marker_raises(self):
        with pytest.raises(DiffParseError):
            parse_response("<<<<<<< SEARCH\na\n=======\nb\n")

    def test_error_names_offending_region(self):
        with pytest.raises(DiffParseError, match="line 2"):
            parse_response("prose\n<<<<<<< SEARCH\nmissing\n")


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
        with pytest.raises(DiffApplyError) as exc:
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
        assert parse_response(render_blocks(blocks)).blocks == blocks

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
        assert parse_response(render_blocks(blocks)).blocks == blocks

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
    ("no edits here", "src", DiffParseError),
    ("<<<<<<< SEARCH\nbroken", "src", DiffParseError),
    (block_text("absent", "x"), "src", DiffApplyError),
    (block_text("multi\nline", "joined"), "pre\nmulti\nline\npost", "pre\njoined\npost"),
]


@pytest.mark.parametrize("response,source,expected", CORPUS)
def test_corpus(response, source, expected):
    """End-to-end parse + apply over a small fixture corpus."""
    if isinstance(expected, type):
        with pytest.raises(expected):
            parsed = parse_response(response)
            if parsed.kind == "empty":
                raise DiffParseError("nothing to apply")
            apply_blocks(source, parsed.blocks)
    else:
        parsed = parse_response(response)
        if parsed.kind == "full":
            assert parsed.full_replacement == expected
        else:
            assert apply_blocks(source, parsed.blocks) == expected
