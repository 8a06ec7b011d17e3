"""Fixtures shared across the test suites."""

import pytest

from repro.kernel import resolve_backend


@pytest.fixture(params=["reference"])
def kernel(request):
    """Name of the simulation kernel a test runs on.

    The reference engine is the only kernel.  Suites that pin kernel-level
    behaviour (engine and channel semantics, golden digests, bit-exactness)
    request this fixture so each test id names the engine it checked, and
    the fixture confirms that engine is the one ``repro.kernel`` reports.
    """
    assert resolve_backend() == request.param
    return request.param
