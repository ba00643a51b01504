"""Tests for the specification and transformer checks of the update
analysis: the error- and warning-severity messages of one
``analyze_update`` report."""

import pytest

from repro.analysis import SEVERITY_INFO, analyze_update
from repro.compiler.compile import compile_source
from repro.dsu.upt import ActiveMethodMapping, prepare_update

V1 = """
class User {
    string name;
    string[] tags;
    static int count;
}
class Main { static void main() { } }
"""

V2 = """
class User {
    string name;
    Tag[] tags;
    int age;
    static int count;
}
class Tag { string text; }
class Main { static void main() { } }
"""


def validate_update(old, prepared):
    """The error and warning messages, in report order (empty = clean)."""
    return [
        diagnostic.message
        for diagnostic in analyze_update(old, prepared).diagnostics
        if diagnostic.severity != SEVERITY_INFO
    ]


def prepare(overrides=None, **kwargs):
    old = compile_source(V1, version="1.0")
    new = compile_source(V2, version="2.0")
    return old, prepare_update(old, new, "1.0", "2.0",
                               transformer_overrides=overrides, **kwargs)


class TestValidation:
    def test_default_transformers_warn_about_unassigned_fields(self):
        old, prepared = prepare()
        warnings = validate_update(old, prepared)
        joined = "\n".join(warnings)
        assert "User.age is new" in joined
        assert "User.tags is retyped" in joined

    def test_complete_custom_transformer_is_clean(self):
        override = {
            "User": """
    static void jvolveClass(User unused) {
        User.count = v10_User.count;
    }
    static void jvolveObject(User to, v10_User from) {
        to.name = from.name;
        to.age = 0 - 1;
        if (from.tags == null) {
            to.tags = null;
        } else {
            to.tags = new Tag[from.tags.length];
            for (int i = 0; i < from.tags.length; i = i + 1) {
                Tag t = new Tag();
                t.text = from.tags[i];
                to.tags[i] = t;
            }
        }
    }
"""
        }
        old, prepared = prepare(overrides=override)
        assert validate_update(old, prepared) == []

    def test_bogus_blacklist_warns(self):
        old, prepared = prepare(blacklist=[("Ghost", "spook", "()V")])
        warnings = validate_update(old, prepared)
        assert any("Ghost.spook" in w for w in warnings)

    def test_mapping_for_unchanged_method_warns(self):
        old, prepared = prepare()
        prepared.active_method_mappings[("Main", "main", "()V")] = (
            ActiveMethodMapping({0: 0})
        )
        warnings = validate_update(old, prepared)
        assert any("useless" in w for w in warnings)

    def test_mapping_with_out_of_range_pc_warns(self):
        v1 = 'class A { static void f() { Sys.print("a"); } } class Main { static void main() { } }'
        v2 = 'class A { static void f() { Sys.print("b"); } } class Main { static void main() { } }'
        old = compile_source(v1, version="1.0")
        new = compile_source(v2, version="2.0")
        prepared = prepare_update(old, new, "1.0", "2.0")
        prepared.active_method_mappings[("A", "f", "()V")] = (
            ActiveMethodMapping({0: 999})
        )
        warnings = validate_update(old, prepared)
        assert any("out-of-range" in w for w in warnings)

    def test_same_named_field_on_another_class_does_not_mask(self):
        # Regression: the coverage check used to collect bare PUTFIELD
        # field names, so assigning Badge.age hid that User.age was never
        # initialized. It is keyed by (owner, field) now.
        v1 = """
class User { string name; }
class Badge { int age; static Badge pin; }
class Main { static void main() { } }
"""
        v2 = """
class User { string name; int age; }
class Badge { int age; static Badge pin; }
class Main { static void main() { } }
"""
        override = {
            "User": """
    static void jvolveClass(User unused) { }
    static void jvolveObject(User to, v10_User from) {
        to.name = from.name;
        Badge.pin.age = 7;
    }
"""
        }
        old = compile_source(v1, version="1.0")
        new = compile_source(v2, version="2.0")
        prepared = prepare_update(old, new, "1.0", "2.0",
                                  transformer_overrides=override)
        warnings = validate_update(old, prepared)
        assert any("User.age is new" in w for w in warnings)

    def test_empty_update_warns(self):
        old = compile_source(V1, version="1.0")
        prepared = prepare_update(old, old, "1.0", "2.0")
        warnings = validate_update(old, prepared)
        assert any("changes nothing" in w for w in warnings)
