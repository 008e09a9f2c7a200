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
