"""Global knobs: the enumeration cap."""

from __future__ import annotations

DEFAULT_ENUM_CAP = 50_000_000
