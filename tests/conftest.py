"""Shared fixtures."""
import pytest

from gsrel import run_theorem_suite


@pytest.fixture(scope="session")
def catalog_suite():
    """The default catalog suite, computed once; tests only read its entries."""
    return run_theorem_suite()
