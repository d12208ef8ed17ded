"""Read-only array fields that stay read-only through pickle."""

from __future__ import annotations

import numpy as np


class ReadOnlyArrays:
    """Mixin of a frozen dataclass that holds its arrays read-only.

    Unpickling, and so a fork pool's results and ``deepcopy``, rebuilds
    every array writeable.  ``__setstate__`` marks each array of the
    restored state read-only again, a field's or a cached property's,
    alone or in a tuple."""

    def __setstate__(self, state):
        for value in state.values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
        self.__dict__.update(state)
