"""Extra front-end coverage: symbol-table details, overload ambiguity,
multi-dimensional arrays, the prelude, integer literals, and the plots
helper."""

import pytest

from repro.compiler import compile as compile_module
from repro.compiler.compile import compile_prelude, compile_source
from repro.harness.plots import ascii_chart
from repro.lang.errors import CompileError, LexError, TypeError_
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.prelude import PRELUDE_CLASS_NAMES, PRELUDE_SOURCE, parse_prelude
from repro.lang.symbols import ProgramSymbols
from repro.lang.typechecker import typecheck
from repro.lang.types import INT, STRING, class_type

from tests.conftest import run_main


class TestSymbols:
    def _symbols(self, source):
        return ProgramSymbols.build(parse(source))

    def test_field_lookup_walks_hierarchy(self):
        symbols = self._symbols(
            "class A { int x; } class B extends A { int y; }"
        )
        assert symbols.lookup_field("B", "x").owner == "A"
        assert symbols.lookup_field("B", "y").owner == "B"
        assert symbols.lookup_field("B", "z") is None

    def test_override_shadows_in_methods_named(self):
        symbols = self._symbols(
            "class A { int f() { return 1; } }"
            "class B extends A { int f() { return 2; } }"
        )
        methods = symbols.methods_named("B", "f")
        assert len(methods) == 1
        assert methods[0].owner == "B"

    def test_overloads_all_visible(self):
        symbols = self._symbols(
            "class A { void f(int x) { } void f(string s) { } }"
        )
        assert len(symbols.methods_named("A", "f")) == 2

    def test_ambiguous_overload_returns_none(self):
        symbols = self._symbols(
            "class P {} class Q extends P {}"
            "class A { void f(P p, Q q) { } void f(Q q, P p) { } }"
        )
        q = class_type("Q")
        # Q,Q is applicable to both overloads and exact to neither.
        assert symbols.resolve_overload("A", "f", [q, q]) is None

    def test_ambiguous_call_rejected_by_checker(self):
        source = (
            "class P {} class Q extends P {}"
            "class A { void f(P p, Q q) { } void f(Q q, P p) { } "
            "void go(Q q) { f(q, q); } }"
        )
        with pytest.raises(TypeError_, match="no method"):
            typecheck(parse(source))

    def test_instance_field_layout_order(self):
        symbols = self._symbols(
            "class A { int a1; static int s; int a2; } "
            "class B extends A { int b1; }"
        )
        layout = symbols.instance_field_layout("B")
        assert [f.name for f in layout] == ["a1", "a2", "b1"]  # statics excluded


class TestPrelude:
    def test_prelude_parses_and_builds(self):
        program = parse_prelude()
        names = {c.name for c in program.classes}
        assert set(PRELUDE_CLASS_NAMES) == names

    def test_prelude_methods_are_native(self):
        program = parse_prelude()
        sys_class = program.find_class("Sys")
        assert all(m.is_native for m in sys_class.methods)

    def test_prelude_is_parsed_once_and_never_written(self, monkeypatch):
        program = parse_prelude()
        assert parse_prelude() is program
        before = repr(program)
        assert before == repr(parse(PRELUDE_SOURCE, "<prelude>"))
        for _ in range(2):
            compile_source(
                "class A { int x = 1; A next; "
                "int f(Object o) { if (o instanceof A) { return x; } return -x; } }"
            )
            monkeypatch.setattr(compile_module, "_PRELUDE_CACHE", None)
            compile_prelude()
        assert repr(program) == before


class TestIntegerLiterals:
    """Integer literals are ASCII digit runs, as in Java."""

    @pytest.mark.parametrize("source", ["1\u00b2", "12\u0663", "1\u216b"])
    def test_digit_run_followed_by_identifier_character(self, source):
        with pytest.raises(LexError) as error:
            tokenize(source)
        assert error.value.message == "identifier may not start with a digit"
        assert error.value.location.column == 1

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2", "\uff11"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        with pytest.raises(LexError) as error:
            tokenize(f"x = {digit};")
        assert error.value.message == f"unexpected character {digit!r}"
        assert error.value.location.column == 5

    def test_superscript_digit_is_a_compile_error(self):
        with pytest.raises(CompileError):
            compile_source("class A { static int f() { return 1\u00b2; } }")


class TestMultiDimensionalArrays:
    def test_matrix_roundtrip(self):
        vm = run_main(
            """
            class Main {
                static void main() {
                    int[][] m = new int[3][];
                    for (int i = 0; i < 3; i = i + 1) {
                        m[i] = new int[3];
                        for (int j = 0; j < 3; j = j + 1) { m[i][j] = i * 3 + j; }
                    }
                    int total = 0;
                    for (int i = 0; i < 3; i = i + 1) {
                        for (int j = 0; j < 3; j = j + 1) { total = total + m[i][j]; }
                    }
                    Sys.print("" + total);
                }
            }
            """
        )
        assert vm.console == ["36"]

    def test_array_of_string_arrays(self):
        vm = run_main(
            """
            class Main {
                static void main() {
                    string[][] rows = new string[2][];
                    rows[0] = "a,b".split(",");
                    rows[1] = "c,d,e".split(",");
                    Sys.print(rows[1][2] + rows[0][0]);
                }
            }
            """
        )
        assert vm.console == ["ea"]


class TestAsciiChart:
    def test_chart_contains_markers_and_legend(self):
        chart = ascii_chart(
            {"up": [0, 5, 10], "flat": [3, 3, 3]},
            ["0", "1", "2"],
            height=6,
            title="demo",
        )
        assert "demo" in chart
        assert "* up" in chart and "o flat" in chart
        assert "*" in chart.splitlines()[2]  # peak of 'up' near the top

    def test_empty_series(self):
        assert ascii_chart({}, [], title="t") == "t"
