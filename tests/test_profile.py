"""The suite's hypothesis profile (tests/conftest.py) is the one loaded."""

from hypothesis import settings


def test_property_tests_are_derandomized():
    assert settings.default.derandomize
