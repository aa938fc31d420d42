"""Suite-wide fixtures."""

import pytest

from repro.backends import shutdown_pooled_backends


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools_after_module():
    """``jobs > 1`` engines share persistent pools process-wide (that
    is the point of the pool); reap them when each test module ends so
    no module inherits another's worker processes."""
    yield
    shutdown_pooled_backends()
