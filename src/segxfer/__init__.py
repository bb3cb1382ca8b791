"""Region-level transferability estimation and transferability-guided masked
attention for cross-domain segmentation, with a synthetic two-domain
experiment harness.

Importing the package sets two glibc allocator thresholds for the process,
where the C library has ``mallopt`` (elsewhere it sets nothing):

* ``M_MMAP_THRESHOLD`` = 32 MiB: blocks below it come from the heap, not
  from a fresh ``mmap`` per array;
* ``M_TRIM_THRESHOLD`` = 64 MiB: free memory at the top of the heap is kept
  up to this size, not handed back to the kernel.

A 96x96 decoder step frees several MB of (B, N, H*W) temporaries.  glibc's
dynamic thresholds settle near the largest block freed so far, so without
these settings each step trims the top of the heap and the next step
page-faults it back in (about 97,000 minor faults per ``hires96`` benchmark
seed, fewer than 1,000 with them).  No arithmetic changes, so every output
is the same bit for bit.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 64 << 20)
