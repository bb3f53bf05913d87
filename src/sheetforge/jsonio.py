"""JSON form of the package's dataclasses, taken from their fields.

A class that mixes in JsonObject writes each dataclass field under its own
name, plus its KIND tag, its SCHEMA string and the DERIVED properties it
reports. decode reads an object back, checking each field's value against
the field's annotation, so a dataclass's fields are the only statement of
its schema.
"""
from __future__ import annotations

import dataclasses
import math
import types
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, SheetForgeError

__all__ = ["JsonObject", "decode", "decode_kind", "field_names"]

_NONE = type(None)
_JSON_NAMES = {int: "integer", bool: "true or false", str: "string"}


class JsonObject:
    """Mixin for dataclasses: to_json_obj() writes every field by name.

    KIND, when set, is written as "kind" and names the class among the
    members of a Union; SCHEMA, when set, is written as "schema"; DERIVED
    names the properties written next to the fields."""

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


@lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return get_type_hints(cls)


def decode_kind(union, obj, where: str):
    """The member of union, a Union of classes with a KIND, that obj["kind"]
    names, decoded from obj's other keys."""
    registry = {cls.KIND: cls for cls in get_args(union) if cls is not _NONE}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where} must be an object with a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in registry:
        raise ConfigError(f"{where}: unknown kind {kind!r}; choices: {sorted(registry)}")
    return decode(registry[kind], {k: v for k, v in obj.items() if k != "kind"}, where)


def decode(cls, obj, where: str):
    """The dataclass cls built from the JSON object obj; where is obj's path.

    Each value must match its field's annotation (see _typed). An unknown
    field, a missing field without a default, a value of the wrong type and
    a SheetForgeError from cls's own checks are each a ConfigError that
    names the path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    fields = dataclasses.fields(cls)
    extra = set(obj).difference(f.name for f in fields)
    if extra:
        raise ConfigError(f"{where} has unknown fields: {sorted(extra)}")
    missing = [f.name for f in fields if f.name not in obj and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where} is missing fields: {missing}")
    hints = _hints(cls)
    kwargs = {name: _typed(hints[name], value, f"{where}.{name}") for name, value in obj.items()}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except SheetForgeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _typed(tp, value, where: str):
    """value, checked against the annotation tp.

    float takes a finite number that is not a bool; int, bool and str take
    exactly that JSON type; Optional[X] takes null or X; a tuple annotation
    takes a list of its length; a dataclass takes an object; a Union of
    KIND classes takes a tagged object. Any other annotation is a
    programming error."""
    if tp is float:
        if type(value) in (int, float):
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if tp in _JSON_NAMES:
        if type(value) is tp:
            return value
        raise ConfigError(f"{where} must be a JSON {_JSON_NAMES[tp]}, got {value!r}")
    if dataclasses.is_dataclass(tp):
        return decode(tp, value, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        if value is None and _NONE in args:
            return None
        members = [a for a in args if a is not _NONE]
        if len(members) == 1:
            return _typed(members[0], value, where)
        return decode_kind(tp, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} items, got {value!r}")
        return tuple(_typed(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"{where}: no JSON rule for the annotation {tp!r}")
