"""Deterministic JSON encoding for reports and configs.

Reals print with 12 significant digits, complex values as [re, im],
integers unquoted; key order is preserved (or sorted for hashing), so a
given record always serializes to the same bytes.  JSON has no nan or
infinity, so a non-finite real or complex part raises NonFiniteError,
naming the field it sits in.
"""

from __future__ import annotations

import json

import numpy as np

# The interpreter's own SHA-256 (_sha2 from Python 3.12, _sha256 before):
# hashlib would load OpenSSL for this one digest, several ms of each run.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


class NonFiniteError(ArithmeticError):
    """A record holds nan or +-inf, which has no JSON encoding."""


def _non_finite(key, text: str) -> NonFiniteError:
    return NonFiniteError(f"field {key!r} is {text}, which JSON cannot encode")


def _fmt(value, sort_keys: bool, key=None) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        text = "[%s, %s]" % (format(float(value.real), ".12g"),
                             format(float(value.imag), ".12g"))
        if "n" in text:  # a part printed as nan, inf or -inf
            raise _non_finite(key, text)
        return text
    if isinstance(value, (float, np.floating)):
        text = format(float(value), ".12g")
        if "n" in text:
            raise _non_finite(key, text)
        return text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        keys = sorted(value) if sort_keys else list(value)
        inner = ", ".join("%s: %s" % (json.dumps(str(k)), _fmt(value[k], sort_keys, k))
                          for k in keys)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_fmt(v, sort_keys, key) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def dumps(record: dict, sort_keys: bool = False) -> str:
    """One JSON object, deterministic bytes for identical content."""
    return _fmt(record, sort_keys)


def config_hash(config: dict) -> str:
    """Short stable digest of a config mapping (sorted-key canonical form)."""
    return _sha256(dumps(config, sort_keys=True).encode()).hexdigest()[:16]
