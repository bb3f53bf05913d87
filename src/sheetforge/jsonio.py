"""JSON form of the package's dataclasses, taken from their fields.

A class that mixes in JsonObject writes each dataclass field under its own
name, plus its KIND tag, its SCHEMA string and the DERIVED properties it
reports. decode_kind reads a tagged object back through a {KIND: class}
registry, so a dataclass's fields are the only statement of its schema.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError

__all__ = ["JsonObject", "decode", "decode_kind", "field_names"]


class JsonObject:
    """Mixin for dataclasses: to_json_obj() writes every field by name.

    KIND, when set, is written as "kind" and names the class in its
    registry; SCHEMA, when set, is written as "schema"; DERIVED names the
    properties written next to the fields."""

    KIND = None
    SCHEMA = None
    DERIVED = ()

    def to_json_obj(self) -> dict:
        obj = {name: _encode(getattr(self, name))
               for name in (*field_names(self), *self.DERIVED)}
        if self.KIND is not None:
            obj["kind"] = self.KIND
        if self.SCHEMA is not None:
            obj["schema"] = self.SCHEMA
        return obj


def _encode(value):
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def field_names(cls) -> tuple:
    """Names of a dataclass's fields, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def decode_kind(obj, registry: dict, what: str):
    """The registry class named by obj["kind"], built from obj's other keys.

    A field annotated float goes through float(); a field whose metadata
    holds a "registry" is itself decoded through that registry when it is
    not null. An unknown kind, an unknown field or a missing field without
    a default is a ConfigError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{what} must be an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    return decode(registry[kind], {k: v for k, v in obj.items() if k != "kind"},
                  f"{what} {kind!r}")


def decode(cls, obj, what: str):
    """cls built from the JSON object obj, under the rules of decode_kind."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    extra = set(obj) - set(fields)
    if extra:
        raise ConfigError(f"unknown {what} fields: {sorted(extra)}")
    missing = [name for name, f in fields.items() if name not in obj
               and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{what} missing fields: {missing}")
    return cls(**{name: _decode_field(fields[name], value) for name, value in obj.items()})


def _decode_field(field: dataclasses.Field, value):
    if "registry" in field.metadata:
        return None if value is None else decode_kind(
            value, field.metadata["registry"], field.name)
    if field.type in ("float", float):
        return float(value)
    return value
