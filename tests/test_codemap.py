"""Outline extraction, span accounting, and region views."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import oracles
from repeton import codemap
from repeton.codemap import (
    outline_file,
    parse_outline,
    render_outline,
    view_region,
)
from repeton.errors import (
    FileNotFound,
    NotText,
    PathEscape,
    RangeOutOfBounds,
    SymbolNotFound,
)


def spans(text: str) -> list[tuple[str, str, int, int]]:
    outline = parse_outline(textwrap.dedent(text))
    return [(s.kind, s.qualified_name, s.start_line, s.end_line) for s in outline.symbols]


def test_small_module_outline():
    text = (
        "class A:\n"
        "    def f(self):\n"
        "        return 0\n"
        "\n"
        "def g():\n"
        "    return 1\n"
    )
    assert spans(text) == [
        ("class", "A", 1, 3),
        ("method", "A.f", 2, 3),
        ("function", "g", 5, 6),
    ]


def test_render_outline_lines():
    text = "class A:\n    def f(self):\n        return 0\n\ndef g():\n    return 1\n"
    rendered = render_outline(parse_outline(text))
    assert rendered == "class A [1-3]\nmethod A.f [2-3]\nfunction g [5-6]"


def test_trailing_blank_and_comment_lines_stay_outside_spans():
    text = """\
    def f():
        return 1
        # a stray remark

    def g():
        return 2
    """
    assert spans(text) == [
        ("function", "f", 1, 2),
        ("function", "g", 5, 6),
    ]


def test_decorators_open_the_span():
    text = """\
    @role("admin")
    @cached
    def act():
        return 1
    """
    assert spans(text) == [("function", "act", 1, 4)]


def test_multi_line_decorator_argument_list():
    text = """\
    @configure(
        retries=3,
        timeout=10,
    )
    def fetch():
        return 1
    """
    assert spans(text) == [("function", "fetch", 1, 6)]


def test_async_def_is_a_definition():
    text = """\
    class Client:
        async def get(self):
            return 1

    async def main():
        return 2
    """
    assert spans(text) == [
        ("class", "Client", 1, 3),
        ("method", "Client.get", 2, 3),
        ("function", "main", 5, 6),
    ]


def test_nested_defs_qualify_through_parents():
    text = """\
    class Outer:
        class Inner:
            def m(self):
                def helper():
                    return 1
                return helper
    """
    assert spans(text) == [
        ("class", "Outer", 1, 6),
        ("class", "Outer.Inner", 2, 6),
        ("method", "Outer.Inner.m", 3, 6),
        ("function", "Outer.Inner.m.helper", 4, 5),
    ]


def test_duplicate_names_get_numbered_in_document_order():
    text = """\
    def setup():
        return 1

    def setup():
        return 2

    class Box:
        def setup(self):
            return 3
    """
    assert [q for _, q, _, _ in spans(text)] == [
        "setup",
        "setup#2",
        "Box",
        "Box.setup",
    ]


def test_duplicate_class_children_use_disambiguated_parent():
    text = """\
    class A:
        def m(self):
            return 1

    class A:
        def m(self):
            return 2
    """
    assert [q for _, q, _, _ in spans(text)] == ["A", "A.m", "A#2", "A#2.m"]


def test_def_keyword_inside_strings_is_ignored():
    text = '''\
    BANNER = """
    def not_real():
        pass
    """

    def real():
        return "class AlsoNotReal:"
    '''
    assert [q for _, q, _, _ in spans(text)] == ["real"]


def test_method_inside_conditional_block_still_binds_to_class():
    text = """\
    class Shape:
        if True:
            def area(self):
                return 0
    """
    assert spans(text) == [
        ("class", "Shape", 1, 4),
        ("method", "Shape.area", 3, 4),
    ]


def test_tab_indentation_counts_eight_columns():
    text = "class T:\n\tdef m(self):\n\t\treturn 1\n"
    assert spans(text) == [
        ("class", "T", 1, 3),
        ("method", "T.m", 2, 3),
    ]


def test_multi_line_signature_extends_through_body():
    text = """\
    def wide(
        first,
        second,
    ):
        return first + second
    """
    assert spans(text) == [("function", "wide", 1, 5)]


CRAFTED_SAMPLES = [
    "class A:\n    def f(self):\n        return 0\n\ndef g():\n    return 1\n",
    "@dec\nclass C:\n    '''doc.'''\n\n    @prop\n    def p(self):\n        return 1\n",
    "def one():\n    return 1\ndef one():\n    return 2\n",
    "try:\n    def fallback():\n        return 0\nexcept Exception:\n    pass\n",
    "async def top():\n    async def inner():\n        return 1\n    return inner\n",
]


@pytest.mark.parametrize("sample", CRAFTED_SAMPLES)
def test_crafted_samples_match_ast_oracle(sample):
    got = [
        (s.kind, s.qualified_name, s.start_line, s.end_line)
        for s in parse_outline(sample).symbols
    ]
    assert got == oracles.ast_outline(sample)


# What moves the scanner's state: quotes with and without string
# prefixes (the letters before a quote count only up to three),
# brackets, backslashes and comments, with plain code between them.
SCANNER_FRAGMENTS = [
    '"', "'", '"""', "'''", 'r"', "R'", 'rb"""', "Br'''", 'xyr"', 'rxyz"',
    "(", ")", "[", "]", "{", "}", "\\", '\\"', "\\'", "#", " ", "x",
]


def _scanner_state(scanner, line: str) -> tuple:
    starts_inside = scanner.feed(line)
    return (
        starts_inside,
        scanner.string_delim,
        scanner.bracket_depth,
        scanner.continuation,
    )


@seed(16)
@settings(max_examples=500, deadline=None)
@example(lines=['r"""', '\\"""(']).via("raw lasts only for its own line")
@example(lines=[")(", "x"]).via("the depth is clamped at 0 on each closer")
@example(lines=["a \\ b", '"\\']).via("only a last backslash continues")
@example(lines=['"abc', "("]).via("a one-line string closes at line end")
@example(lines=['rxyz"\\"(']).via("a prefix is at most three letters")
@given(
    lines=st.lists(
        st.lists(st.sampled_from(SCANNER_FRAGMENTS), max_size=12).map("".join),
        min_size=1,
        max_size=8,
    )
)
def test_scanner_agrees_with_character_reference(lines):
    fast = codemap._LineScanner()
    reference = oracles.CharLineScanner()
    for line in lines:
        assert _scanner_state(fast, line) == _scanner_state(reference, line), line


def test_outlines_of_package_sources_match_character_reference(monkeypatch):
    sources = sorted(Path(codemap.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    texts = [path.read_text(encoding="utf-8") for path in sources]
    fast = [parse_outline(text) for text in texts]
    monkeypatch.setattr(codemap, "_LineScanner", oracles.CharLineScanner)
    assert [parse_outline(text) for text in texts] == fast


def test_outline_file_reads_from_workspace(calc_ws):
    outline = outline_file(calc_ws, "calc.py")
    assert [(s.kind, s.qualified_name) for s in outline.symbols] == [
        ("function", "add"),
        ("function", "mul"),
    ]
    assert outline.total_lines == 9


def test_outline_file_missing_path(calc_ws):
    with pytest.raises(FileNotFound):
        outline_file(calc_ws, "ghost.py")


def test_outline_file_rejects_binary_content(calc_ws):
    (calc_ws.root / "blob.py").write_bytes(b"\x00\x01\x02")
    with pytest.raises(NotText):
        outline_file(calc_ws, "blob.py")


def test_view_region_by_symbol_name(calc_ws):
    region = view_region(calc_ws, "calc.py", "add")
    assert region.text == "4: def add(a, b):\n5:     return a + b + 1"
    assert region.start_line == 4
    assert region.end_line == 5
    assert region.enclosing_symbol == "add"


def test_view_region_by_line_range(calc_ws):
    region = view_region(calc_ws, "calc.py", (5, 5))
    assert region.text == "5:     return a + b + 1"
    assert region.enclosing_symbol == "add"


def test_view_region_outside_any_symbol(calc_ws):
    region = view_region(calc_ws, "calc.py", (1, 1))
    assert region.enclosing_symbol is None


def test_view_region_unknown_symbol(calc_ws):
    with pytest.raises(SymbolNotFound):
        view_region(calc_ws, "calc.py", "subtract")


def test_view_region_range_beyond_file(calc_ws):
    with pytest.raises(RangeOutOfBounds):
        view_region(calc_ws, "calc.py", (8, 99))
    with pytest.raises(RangeOutOfBounds):
        view_region(calc_ws, "calc.py", (0, 3))


def test_outline_and_view_stay_in_the_workspace(calc_ws, escaping_path):
    path, _ = escaping_path
    with pytest.raises(PathEscape):
        outline_file(calc_ws, path)
    with pytest.raises(PathEscape):
        view_region(calc_ws, path, "victim")
