"""The one merge rule for per-rank counters.

A ``*Stats`` dataclass says in its field metadata how each field
combines across ranks: a counter sums (the default) and a peak, one
rank's high-water mark, takes the max (``metadata=MAX``).  A dict field
folds key by key under its field's rule.
"""

from __future__ import annotations

import copy
from dataclasses import fields
from typing import Any, Optional

#: field metadata: this field folds by max, not by sum
MAX = {"fold": "max"}


def fold(into: Any, other: Any) -> None:
    """Fold dataclass ``other`` into ``into``, field by field."""
    for f in fields(into):
        a, b = getattr(into, f.name), getattr(other, f.name)
        setattr(into, f.name, _combine(f.metadata.get("fold") == "max", a, b))


def folded(objs: list) -> Optional[Any]:
    """The fold of ``objs``: None when there are none, a lone object as
    it is, else a new object (the inputs are left as they were)."""
    if len(objs) < 2:
        return objs[0] if objs else None
    acc = copy.copy(objs[0])  # _combine builds new dicts, never edits them
    for obj in objs[1:]:
        fold(acc, obj)
    return acc


def _combine(peak: bool, a: Any, b: Any) -> Any:
    if isinstance(a, dict):
        out = dict(a)
        for key, value in b.items():
            out[key] = _combine(peak, out[key], value) if key in out else value
        return out
    return max(a, b) if peak else a + b
