"""The memory one call allocates, as tracemalloc counts it."""

import tracemalloc


def traced_memory(call):
    """``call()``'s result, the bytes it allocated that are still held when
    it returns, and the peak of the bytes it held at once.  Memory allocated
    before the call counts in neither."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak
