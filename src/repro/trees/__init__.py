"""Tree substrates. Every bulk-load runs under ``gc_paused``."""
import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Pause the cyclic collector, then restore its prior state, also on error: a
    bulk-load allocates many objects and no cycles. Use as ``@gc_paused()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def values_for(keys, values):
    """A bulk-load's values: ``0..n-1`` when None, else ``values``, which must be as long as ``keys``."""
    if values is None:
        return range(len(keys))
    if len(values) != len(keys):
        raise ValueError(f"{len(values)} values for {len(keys)} keys")
    return values
