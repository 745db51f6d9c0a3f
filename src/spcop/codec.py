"""Field-driven JSON codec shared by the copula and distribution specs.

A spec class is a frozen dataclass with a class-level tag (``node`` for
copulas, ``kind`` for marginals). Its JSON object is the tag plus one entry
per dataclass field, and each field is read back by its annotation: a JSON
number, a JSON boolean, a tuple (an array), or else a nested spec. Range and
finiteness checks belong to the constructors, not to the codec.
"""

from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .errors import SpecError

__all__ = ["encode", "decode", "number", "sole_float_field"]


@cache
def _hints(cls):
    return get_type_hints(cls)


def encode(spec, key: str) -> dict:
    """{key: tag, field: value, ...}; tuples become arrays, specs objects."""
    out = {key: getattr(spec, key)}
    for f in fields(spec):
        out[f.name] = _plain(getattr(spec, f.name), key)
    return out


def _plain(x, key):
    if isinstance(x, tuple):
        return [_plain(v, key) for v in x]
    if is_dataclass(x):
        return encode(x, key)
    return x


def number(x) -> float:
    """A JSON number as a float. Strings, booleans and null raise TypeError;
    an integer too large for a float raises OverflowError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def _read(tp, x, nested):
    if tp is float:
        return number(x)
    if tp is bool:
        if not isinstance(x, bool):
            raise TypeError(f"expected true or false, got {x!r}")
        return x
    if get_origin(tp) is tuple:
        if not isinstance(x, list):
            raise TypeError(f"expected an array, got {x!r}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            return tuple(_read(args[0], v, nested) for v in x)
        if len(x) != len(args):
            raise ValueError(f"expected {len(args)} entries, got {x!r}")
        return tuple(_read(a, v, nested) for a, v in zip(args, x))
    return nested(x)


def decode(registry: dict, key: str, doc, what: str, nested=None):
    """Build registry[doc[key]] from doc; nested(value) reads spec fields.

    Every malformed document raises SpecError, and so does one nested
    deeper than the interpreter's recursion limit allows. A field with a
    default may be omitted; unknown entries are ignored.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise SpecError(f"{what} document must be an object with a {key!r}: {doc!r}")
    tag = doc[key]
    cls = registry.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise SpecError(f"unknown {what} {key} {tag!r}")
    hints = _hints(cls)
    try:
        return cls(**{f.name: _read(hints[f.name], doc[f.name], nested)
                      for f in fields(cls) if f.name in doc or f.default is MISSING})
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SpecError(f"bad {tag!r} {what} document: {exc}") from exc


def sole_float_field(cls):
    """The name of cls's only field when that field is a float, else None."""
    names = [f.name for f in fields(cls)]
    return names[0] if len(names) == 1 and _hints(cls)[names[0]] is float else None
