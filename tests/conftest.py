"""Imports the package before any test module imports numpy.

`import strongdamp` sets the BLAS libraries to one thread unless the
environment already chooses a count, and that acts only while numpy is
not imported yet.  Pytest loads this file before collecting any test
module, so a run of a single module gets the same single BLAS thread as
the whole suite.  It also holds helpers that several test modules share.
"""

import strongdamp  # noqa: F401
from strongdamp.sde import NoisePath


def noise_row(seed, stream_id, steps, r, dt):
    """One (steps, r) noise path: row 0 of a one-stream generate_batch."""
    batch = NoisePath.generate_batch(seed, [stream_id], steps, r, dt)
    return NoisePath(dt=dt, increments=batch.increments[0])
