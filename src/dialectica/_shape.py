"""One shape check for the JSON input files.  Each format keeps its spec
next to its loader, which turns a `ShapeError` into its own exception.

A spec is `str`, `int` (not a bool), `SCALAR` (neither object nor array),
``[spec]`` (an array) or ``{key: spec}`` (an object, where a ``"?key"``
may be left out, ``"*"`` is the spec of every value of a name-keyed map,
and any other key is an error).
"""
from __future__ import annotations

import json

SCALAR = "a scalar"
_WHAT = {dict: "an object", list: "an array", str: "a string", int: "an integer"}
_MISSING = object()


class ShapeError(ValueError):
    pass


def check(value, spec, path: str) -> None:
    """Raise ShapeError at the first part of value, in document order, that
    spec rejects: ``<path>: expected <what>, got <value>`` (a missing key's
    value is ``nothing``) or ``<path>: unknown key``.  A string or integer
    array item of the right type is passed over without a call."""
    if type(spec) is dict:
        if type(value) is not dict:
            _fail(path, spec, value)
        for key, item in value.items():
            sub = (spec.get(key) or spec.get("?" + key)) if key[:1] not in "?*" else None
            sub, where = sub or spec.get("*"), f"{path}.{key}" if path else key
            if sub is None:
                raise ShapeError(f"{where}: unknown key")
            check(item, sub, where)
        for key, sub in spec.items():
            if key[:1] not in "?*" and key not in value:
                _fail(f"{path}.{key}" if path else key, sub, _MISSING)
    elif type(spec) is list:
        if type(value) is not list:
            _fail(path, spec, value)
        for i, item in enumerate(value):
            if type(spec[0]) is not type or type(item) is not spec[0]:
                check(item, spec[0], f"{path}[{i}]")
    elif spec is SCALAR:
        if type(value) in (dict, list):
            _fail(path, spec, value)
    elif type(value) is not spec:
        _fail(path, spec, value)


def _fail(path: str, spec, value):
    what = SCALAR if spec is SCALAR else _WHAT[spec if type(spec) is type else type(spec)]
    got = "nothing" if value is _MISSING else json.dumps(value, default=repr)
    got = got if len(got) <= 60 else got[:57] + "..."
    raise ShapeError(f"{path or 'top level'}: expected {what}, got {got}")
