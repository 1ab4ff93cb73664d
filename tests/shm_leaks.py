"""The suite's one view of leaked shared-memory segments.

A segment belongs to the process whose pid its name carries.  A test can
only have leaked the segments this test process owns, or those of a
process that has since exited (a worker, a fresh interpreter, a killed
coordinator).  Segments of other live processes — a ``python -m repro
fuzz`` run beside the suite — are neither counted nor removed.
"""

import os

from repro.cluster.shm import list_orphans, live_owner


def leaked_segments():
    """``dons-shm-*`` names owned by this process or by an exited one."""
    me = os.getpid()
    return [name for name in list_orphans()
            if live_owner(name) in (None, me)]
