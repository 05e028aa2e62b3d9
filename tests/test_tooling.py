"""The test session's own settings: a failing test is reported, not lost."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_end_the_session(pytester):
    """Under the project's warning filters, a failing hypothesis test
    reports its falsifying example and the session goes on to report
    every other test."""
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {f}\n" for f in options["filterwarnings"]))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers(0, 10))
        def test_property_fails(x):
            assert x < 5

        def test_plain_fails():
            assert 1 == 2

        def test_passes():
            assert True
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*", "*x=5*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
