"""One instance per worker process for stateful `map_batches` stages.

Every stateful stage runs as a callable instance on Ray Data's task pool,
which unpickles the stage once per task. A stage whose construction is
expensive (lexicon tables, a `ray.get` of a broadcast object) or whose memo
is worth keeping across tasks derives from `ProcessLocal`:

  * an instance pickles to (class, token, constructor args), not its state;
  * it unpickles to its process's single instance for that token, built on
    first use, so a worker's tasks share one instance;
  * a new token (the next build, another stage of the same class) replaces
    the old instance, so a worker holds at most one per class.

Cheap stages stay plain instances and pickle their state.
"""

from __future__ import annotations

import uuid

_INSTANCES: dict[type, tuple[str, object]] = {}  # class → (token, instance)


class ProcessLocal:
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        self._token = uuid.uuid4().hex
        self._ctor = (args, kwargs)
        return self

    def __reduce__(self):
        return _instance_for, (type(self), self._token, self._ctor)


def _instance_for(cls: type, token: str, ctor: tuple) -> ProcessLocal:
    """Unpickle hook: this process's `cls` instance for `token`."""
    held = _INSTANCES.get(cls)
    if held is None or held[0] != token:
        args, kwargs = ctor
        obj = cls(*args, **kwargs)
        obj._token = token
        held = _INSTANCES[cls] = (token, obj)
    return held[1]
