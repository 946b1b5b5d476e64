"""State channels and reducers.

A graph's state is a flat dict of named channels.  Each node returns a
*partial* state; the engine folds it into the current state with the
channel's reducer.  Default is replacement; lists can accumulate
(message histories, provenance events), dicts merge (named tables),
numbers add (token counters).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Any, Callable

Reducer = Callable[[Any, Any], Any]


def replace_reducer(old: Any, new: Any) -> Any:
    return new


def append_reducer(old: Any, new: Any) -> Any:
    base = list(old) if old is not None else []
    if isinstance(new, list):
        base.extend(new)
    else:
        base.append(new)
    return base


def merge_reducer(old: Any, new: Any) -> Any:
    base = dict(old) if old is not None else {}
    base.update(new or {})
    return base


def add_reducer(old: Any, new: Any) -> Any:
    return (old or 0) + (new or 0)


@dataclass(frozen=True)
class Channel:
    """Declaration of one state key."""

    name: str
    reducer: Reducer = replace_reducer
    default: Any = None

    def fold(self, old: Any, new: Any) -> Any:
        return self.reducer(old, new)


def apply_update(
    channels: dict[str, Channel], state: dict[str, Any], update: dict[str, Any]
) -> dict[str, Any]:
    """Fold a node's partial update into the state (returns a new dict)."""
    merged = dict(state)
    for key, value in update.items():
        channel = channels.get(key)
        if channel is None:
            merged[key] = value
        else:
            merged[key] = channel.fold(merged.get(key, channel.default), value)
    return merged


def initial_state(channels: dict[str, Channel], overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    # a default is a template: each run owns its containers, so channel
    # tables can be module-level constants shared by every graph built
    state = {name: copy(ch.default) for name, ch in channels.items()}
    state.update(overrides or {})
    return state
