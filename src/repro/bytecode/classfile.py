"""jmini class files.

A :class:`ClassFile` is the unit the VM classloader consumes and the unit
the Update Preparation Tool diffs. It deliberately mirrors the information
a JVM class file carries: constant pool (strings), field and method tables
with access flags, and per-method bytecode.

Class files are pure data — no VM state. They can be serialized to JSON
(used by tests and by the UPT golden files) and hashed per-method for
change detection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .instructions import Instr, referenced_classes

#: Synthetic member names (JVM-style).
CTOR_NAME = "<init>"
CLINIT_NAME = "<clinit>"


@dataclass
class FieldInfo:
    name: str
    descriptor: str
    is_static: bool
    is_final: bool
    access: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "descriptor": self.descriptor,
            "static": self.is_static,
            "final": self.is_final,
            "access": self.access,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FieldInfo":
        return cls(data["name"], data["descriptor"], data["static"], data["final"], data["access"])


@dataclass
class MethodInfo:
    name: str
    descriptor: str
    is_static: bool
    is_native: bool
    access: str
    max_locals: int
    instructions: List[Instr] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.name, self.descriptor)

    def bytecode_hash(self) -> str:
        """Stable digest of the method body, used by the UPT to detect
        method-body changes."""
        payload = json.dumps(
            [[i.op, _jsonable(i.a), _jsonable(i.b)] for i in self.instructions],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def referenced_classes(self):
        return referenced_classes(self.instructions)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "descriptor": self.descriptor,
            "static": self.is_static,
            "native": self.is_native,
            "access": self.access,
            "max_locals": self.max_locals,
            "code": [[i.op, _jsonable(i.a), _jsonable(i.b)] for i in self.instructions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MethodInfo":
        method = cls(
            data["name"],
            data["descriptor"],
            data["static"],
            data["native"],
            data["access"],
            data["max_locals"],
        )
        method.instructions = [
            Instr(op, _unjsonable(a), _unjsonable(b)) for op, a, b in data["code"]
        ]
        return method


def _jsonable(value):
    if isinstance(value, tuple):
        return {"__tuple__": list(value)}
    return value


def _unjsonable(value):
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(value["__tuple__"])
    return value


@dataclass
class ClassFile:
    """One compiled jmini class."""

    name: str
    superclass: Optional[str]  # None only for Object
    fields: List[FieldInfo] = field(default_factory=list)
    methods: Dict[Tuple[str, str], MethodInfo] = field(default_factory=dict)
    constant_pool: List[str] = field(default_factory=list)
    #: free-form provenance tag (e.g. the application release that produced
    #: this class file); surfaced in UPT reports
    source_version: str = ""

    def add_method(self, method: MethodInfo) -> None:
        if method.key in self.methods:
            raise ValueError(f"duplicate method {self.name}.{method.name}{method.descriptor}")
        self.methods[method.key] = method

    def get_method(self, name: str, descriptor: str) -> Optional[MethodInfo]:
        return self.methods.get((name, descriptor))

    def methods_named(self, name: str) -> List[MethodInfo]:
        return [m for m in self.methods.values() if m.name == name]

    def instance_fields(self) -> List[FieldInfo]:
        return [f for f in self.fields if not f.is_static]

    def static_fields(self) -> List[FieldInfo]:
        return [f for f in self.fields if f.is_static]

    def intern_string(self, value: str) -> int:
        """Add ``value`` to the constant pool (deduplicated), return index."""
        try:
            return self.constant_pool.index(value)
        except ValueError:
            self.constant_pool.append(value)
            return len(self.constant_pool) - 1

    # ------------------------------------------------------------------
    # diffing support

    def field_signature(self) -> List[Tuple[str, str, bool, bool, str]]:
        """Layout-relevant field tuple list, in declaration order."""
        return [(f.name, f.descriptor, f.is_static, f.is_final, f.access) for f in self.fields]

    def method_signatures(self) -> Dict[Tuple[str, str], str]:
        """Map method key -> bytecode hash (empty string for natives)."""
        return {
            key: ("" if m.is_native else m.bytecode_hash())
            for key, m in self.methods.items()
        }

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "superclass": self.superclass,
            "source_version": self.source_version,
            "constant_pool": list(self.constant_pool),
            "fields": [f.to_dict() for f in self.fields],
            "methods": [m.to_dict() for m in self.methods.values()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "ClassFile":
        classfile = cls(
            data["name"],
            data["superclass"],
            constant_pool=list(data["constant_pool"]),
            source_version=data.get("source_version", ""),
        )
        classfile.fields = [FieldInfo.from_dict(f) for f in data["fields"]]
        for method_data in data["methods"]:
            classfile.add_method(MethodInfo.from_dict(method_data))
        return classfile

    @classmethod
    def from_json(cls, text: str) -> "ClassFile":
        return cls.from_dict(json.loads(text))
