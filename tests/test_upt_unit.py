"""Unit tests for the Update Preparation Tool: diff classification, the
old-class stubs, default-transformer generation and the transformer
compile."""

import pytest

from repro.analysis.transformers import build_transform_table
from repro.bytecode.classfile import FieldInfo
from repro.compiler.compile import compile_source
from repro.dsu import upt
from repro.dsu.upt import (
    diff_programs,
    flattened_instance_fields,
    generate_default_transformers,
    old_class_stub,
    prepare_update,
    version_prefix,
)
from repro.lang.errors import TypeError_
from tests.dsu_helpers import UpdateFixture

V1 = """
class User {
    private string name;
    int age;
    static int count;
    User(string n) { this.name = n; }
    string describe() { return name + ":" + age; }
    void birthday() { age = age + 1; }
}
class Util {
    static int double2(int x) { return x + x; }
    static string label(User u) { return u.describe(); }
}
class Main { static void main() { } }
"""

# age -> years (rename = delete+add), new email field, describe body change,
# birthday deleted, a new class added, Util.label indirect (touches User).
V2 = """
class User {
    private string name;
    int years;
    string email;
    static int count;
    User(string n) { this.name = n; }
    string describe() { return name + "/" + years + "/" + email; }
}
class Util {
    static int double2(int x) { return x + x; }
    static string label(User u) { return u.describe(); }
}
class Audit { static int events; }
class Main { static void main() { } }
"""


@pytest.fixture(scope="module")
def spec():
    old = compile_source(V1, version="1.0")
    new = compile_source(V2, version="2.0")
    return diff_programs(old, new, "1.0", "2.0")


class TestDiffClassification:
    def test_class_update_detected(self, spec):
        assert spec.class_updates == {"User"}

    def test_added_class(self, spec):
        assert spec.added_classes == {"Audit"}

    def test_deleted_method_is_category1(self, spec):
        assert ("User", "birthday", "()V") in spec.deleted_methods
        assert ("User", "birthday", "()V") in spec.category1()

    def test_changed_method_in_updated_class_is_category1(self, spec):
        assert ("User", "describe", "()S") in spec.category1()

    def test_indirect_method_detected(self, spec):
        # Util.label's bytecode is unchanged but calls a User method
        # virtually: its compiled code bakes User's TIB layout. The raw
        # diff restricts it as category 2; the semantic-diff minimizer
        # proves describe()'s TIB slot survives this update (describe is
        # introduced first in both versions), so the minimized spec lets
        # the method escape restriction.
        key = ("Util", "label", "(LUser;)S")
        raw = diff_programs(
            compile_source(V1, version="1.0"),
            compile_source(V2, version="2.0"),
            "1.0", "2.0", minimize=False,
        )
        assert key in raw.indirect_methods
        assert key in raw.category2()
        assert key in spec.escaped_indirect
        assert key not in spec.category2()
        assert "TIB slot" in spec.minimization_reasons[key]

    def test_pure_methods_unrestricted(self, spec):
        assert ("Util", "double2", "(I)I") not in spec.category1()
        assert ("Util", "double2", "(I)I") not in spec.category2()

    def test_summary_counts(self, spec):
        summary = spec.summaries["User"]
        assert summary.fields_added == 2  # years, email
        assert summary.fields_deleted == 1  # age
        assert summary.methods_deleted == 1  # birthday
        assert summary.methods_body_changed == 1  # describe
        assert not spec.method_body_only()

    def test_blacklist_is_category3(self):
        old = compile_source(V1, version="1.0")
        new = compile_source(V2, version="2.0")
        spec = diff_programs(old, new, "1.0", "2.0",
                             blacklist=[("Main", "main", "()V")])
        assert ("Main", "main", "()V") in spec.category3()


class TestVersionPrefix:
    def test_examples(self):
        assert version_prefix("1.3.1") == "v131_"
        assert version_prefix("5.1.10") == "v5110_"
        assert version_prefix("2.0-rc1") == "v20rc1_"


GONE_V1 = """
class Gone { static int total; }
class Keep { Gone g; Gone[] gs; int k; }
class Sub extends Keep { int s; }
class Main { static void main() { while (true) { Sys.sleep(10); } } }
"""

GONE_V2 = """
class Keep { int k; int k2; }
class Sub extends Keep { int s; }
class Main { static void main() { while (true) { Sys.sleep(10); } } }
"""


class TestStubGeneration:
    def test_old_stub_has_fields_only(self, spec):
        old = compile_source(V1, version="1.0")
        stub = old_class_stub(old["User"], spec)
        assert stub.name == "v10_User"
        assert stub.superclass == "Object"
        assert stub.fields == old["User"].fields  # name, age, count
        assert [f.name for f in stub.fields] == ["name", "age", "count"]
        assert stub.fields[2].is_static
        assert not stub.methods  # methods removed (paper §2.3)
        assert stub.source_version == "1.0"

    def test_transformers_compile_against_new_class_files(self):
        # The compile context is the new program's class files: methods,
        # constructors (with their super chains) and statics all resolve
        # from descriptors, with no source of the new program involved.
        v1 = ("class Base { int b; Base(int x) { this.b = x; } } "
              "class Item extends Base { Item() { super(1); } } "
              "class Main { static void main() { } }")
        v2 = ("class Base { int b; Base(int x) { this.b = x; } "
              "int twice() { return b + b; } } "
              "class Item extends Base { int extra; Item() { super(1); } "
              "static Item make(int n) { return new Item(); } } "
              "class Main { static void main() { } }")
        old = compile_source(v1, version="1.0")
        new = compile_source(v2, version="2.0")
        override = """
    static void jvolveClass(Item unused) { }
    static void jvolveObject(Item to, v10_Item from) {
        Base fresh = new Base(from.b);
        to.extra = fresh.twice() + Item.make(0).b;
    }
"""
        prepared = prepare_update(old, new, "1.0", "2.0",
                                  transformer_overrides={"Item": override})
        assert set(prepared.transformer_classfiles) == {"JvolveTransformers"}
        transformers = prepared.transformer_classfiles["JvolveTransformers"]
        calls = {
            (i.op, i.a, i.b) for i in
            transformers.get_method("jvolveObject",
                                    "(LItem;,Lv10_Item;)V").instructions
            if i.op.startswith("INVOKE")
        }
        assert ("INVOKESPECIAL", "Base", ("<init>", "(I)V")) in calls
        assert ("INVOKEVIRTUAL", "Base", ("twice", "()I")) in calls
        assert ("INVOKESTATIC", "Item", ("make", "(I)LItem;")) in calls

    def test_old_stub_field_types_point_at_new_classes(self):
        # A field whose type is an updated class keeps the NEW name: by
        # transformer time, old objects' fields reference transformed
        # objects (paper §2.3).
        v1 = "class A { B partner; } class B { int x; } " \
             "class Main { static void main() { } }"
        v2 = "class A { B partner; int extra; } class B { int x; int y; } " \
             "class Main { static void main() { } }"
        old = compile_source(v1, version="1.0")
        new = compile_source(v2, version="2.0")
        spec = diff_programs(old, new, "1.0", "2.0")
        stub = old_class_stub(old["A"], spec)
        assert [(f.name, f.descriptor) for f in stub.fields] == [
            ("partner", "LB;")  # not Lv10_B;
        ]
        assert old_class_stub(old["B"], spec).name == "v10_B"

    def test_deleted_class_stub_generated_with_object_typed_fields(self):
        old = compile_source(GONE_V1, version="1.0")
        new = compile_source(GONE_V2, version="2.0")
        spec = diff_programs(old, new, "1.0", "2.0")
        assert spec.deleted_classes == {"Gone"}
        gone = old_class_stub(old["Gone"], spec)
        assert gone.name == "v10_Gone"
        assert gone.fields == [FieldInfo("total", "I", True, False, "public")]
        keep = old_class_stub(old["Keep"], spec)
        # deleted type exposed as Object, arrays of it too
        assert [(f.name, f.descriptor) for f in keep.fields] == [
            ("g", "LObject;"), ("gs", "[LObject;"), ("k", "I"),
        ]

    def test_stub_superclass_follows_the_renamed_old_class(self):
        old = compile_source(GONE_V1, version="1.0")
        new = compile_source(GONE_V2, version="2.0")
        spec = diff_programs(old, new, "1.0", "2.0")
        assert {"Keep", "Sub"} <= spec.class_updates
        assert old_class_stub(old["Sub"], spec).superclass == "v10_Keep"
        assert old_class_stub(old["Keep"], spec).superclass == "Object"


class TestOneTransformTable:
    """The compiler, dsu-lint and the installer see the same stubs."""

    def test_compiler_lint_and_installer_stubs_are_equal(self, monkeypatch):
        seen = {}
        compile_real = upt.compile_transformers

        def recording(source, filename, context):
            seen.update(context)
            return compile_real(source, filename, context)

        monkeypatch.setattr(upt, "compile_transformers", recording)
        fixture = UpdateFixture(GONE_V1).start()
        holder = fixture.update_at(50, GONE_V2)
        fixture.run(until_ms=200)
        assert holder["result"].succeeded
        old, new = fixture.classfiles["1.0"], fixture.classfiles["2.0"]
        table = build_transform_table(
            old, prepare_update(old, new, "1.0", "2.0")
        )
        names = {"v10_Gone", "v10_Keep", "v10_Sub"}
        for name in names:
            assert fixture.vm.classfiles[name] == table[name] == seen[name]
        keep = fixture.vm.classfiles["v10_Keep"]
        assert ("g", "LObject;") in [(f.name, f.descriptor) for f in keep.fields]
        assert names | set(new) == set(seen)

    def test_override_type_error_points_into_the_transformer_source(self):
        old = compile_source(V1, version="1.0")
        new = compile_source(V2, version="2.0")
        override = """
    static void jvolveClass(User unused) { }
    static void jvolveObject(User to, v10_User from) {
        to.name = from.name;
        to.years = from.nosuch;
    }
"""
        spec = diff_programs(old, new, "1.0", "2.0")
        source = generate_default_transformers(
            old, new, spec, overrides={"User": override}
        )
        with pytest.raises(TypeError_) as excinfo:
            prepare_update(old, new, "1.0", "2.0",
                           transformer_overrides={"User": override})
        location = excinfo.value.location
        assert location.filename == "<transformers 2.0>"
        lines = source.splitlines()
        assert 1 <= location.line <= len(lines)
        assert "from.nosuch" in lines[location.line - 1]


class TestDefaultTransformers:
    def test_matching_fields_copied(self, spec):
        old = compile_source(V1, version="1.0")
        new = compile_source(V2, version="2.0")
        source = generate_default_transformers(old, new, spec)
        assert "to.name = from.name;" in source
        assert "User.count = v10_User.count;" in source
        # renamed/new fields left at defaults
        assert "to.years" not in source
        assert "to.email" not in source
        assert "to.age" not in source

    def test_overrides_replace_defaults(self, spec):
        old = compile_source(V1, version="1.0")
        new = compile_source(V2, version="2.0")
        override = """
    static void jvolveClass(User unused) { }
    static void jvolveObject(User to, v10_User from) {
        to.name = from.name;
        to.years = from.age;
    }
"""
        source = generate_default_transformers(
            old, new, spec, overrides={"User": override}
        )
        assert "to.years = from.age;" in source

    def test_prepared_update_compiles_transformers(self):
        old = compile_source(V1, version="1.0")
        new = compile_source(V2, version="2.0")
        prepared = prepare_update(old, new, "1.0", "2.0")
        assert "JvolveTransformers" in prepared.transformer_classfiles
        transformers = prepared.transformer_classfiles["JvolveTransformers"]
        assert transformers.get_method("jvolveObject", "(LUser;,Lv10_User;)V")
        assert transformers.get_method("jvolveClass", "(LUser;)V")
        assert prepared.prefix == "v10_"


class TestFlattenedLayout:
    def test_superclass_fields_first(self):
        source = ("class A { int a1; int a2; } class B extends A { int b1; } "
                  "class Main { static void main() { } }")
        classfiles = compile_source(source)
        layout = flattened_instance_fields(classfiles, "B")
        assert [name for name, _ in layout] == ["a1", "a2", "b1"]

    def test_layout_change_propagates_to_subclass(self):
        v1 = ("class A { int a1; } class B extends A { int b1; } "
              "class Main { static void main() { } }")
        v2 = ("class A { int a1; int a2; } class B extends A { int b1; } "
              "class Main { static void main() { } }")
        spec = diff_programs(
            compile_source(v1, version="1"), compile_source(v2, version="2"),
            "1", "2",
        )
        assert {"A", "B"} <= spec.class_updates


class TestSpecSerialization:
    def test_json_roundtrip(self, spec):
        from repro.dsu.specification import UpdateSpecification

        restored = UpdateSpecification.from_json(spec.to_json())
        assert restored.class_updates == spec.class_updates
        assert restored.added_classes == spec.added_classes
        assert restored.deleted_classes == spec.deleted_classes
        assert restored.method_body_updates == spec.method_body_updates
        assert restored.indirect_methods == spec.indirect_methods
        assert restored.deleted_methods == spec.deleted_methods
        assert restored.category1() == spec.category1()
        assert restored.category2() == spec.category2()

    def test_spec_file_is_human_readable(self, spec):
        text = spec.to_json()
        assert '"class_updates"' in text
        assert '"User"' in text
