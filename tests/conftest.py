"""Imports the package before any test module imports numpy.

`import strongdamp` sets the BLAS libraries to one thread unless the
environment already chooses a count, and that acts only while numpy is
not imported yet.  Pytest loads this file before collecting any test
module, so a run of a single module gets the same single BLAS thread as
the whole suite.
"""

import strongdamp  # noqa: F401
