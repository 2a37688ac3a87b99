"""Fixtures shared by the test modules."""

import pytest

from families import series_moment_numerator


@pytest.fixture
def series_moments():
    """The series-route reference for the run moment numerators; it reads
    a `families.RunFamily`."""
    return series_moment_numerator
