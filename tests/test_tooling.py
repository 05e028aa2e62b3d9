"""The test session's own settings: a failing test is reported, not lost;
and src holds no name that only tests read."""

import ast
import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


#: the functions, classes and methods that src defines but never reads,
#: each with why it stays: an acceptance test calls it, the benchmark
#: patches or counts it by name, or it is a public reader
_UNREAD_IN_SRC = {
    "data.parse_log": "public: the reader of the log that `generate --log` writes",
    "detect.compute_threshold": "acceptance",
    "detect.reconstruct_subgraph": "acceptance",
    "harness.fidelity_summary": "acceptance",
    "harness.measure_runtime": "acceptance",
    "model.TgnModel.masked_forward": "acceptance",
    "model.TgnModel.score_event": "acceptance",
    "model.TgnModel.mask_gradient": "acceptance",
    "vatg.sample_mask": "acceptance",
    "vatg.kl_term": "acceptance",
    "vatg.vatg_loss": "acceptance",
    "vatg.vatg_gradients": "acceptance",
    "graph.extract_context": "perfbench",
    "model.TgnModel.replay_update": "perfbench",
}
#: where each non-public reason's reader names the function
_READERS = {"acceptance": ROOT / "tests" / "test_acceptance.py",
            "perfbench": ROOT / "perfbench" / "spans.py"}


def _src_names() -> tuple[set[str], set[str]]:
    """(module.name and module.Class.method of every module-level function
    and class and every method but a dunder that src defines, every name
    and attribute that src reads). An import is not a read, so a name
    that ``provlens/__init__.py`` only re-exports is unread."""
    defined, read = set(), set()
    for path in sorted((ROOT / "src" / "provlens").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined.update(f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                               if isinstance(sub, ast.FunctionDef)
                               and not sub.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_src_defines_no_name_only_tests_read():
    """Every function, class and method that src defines is read in src,
    or is listed above with its reason; a listed name must still be
    unread and its reader must still name it."""
    defined, read = _src_names()
    unread = {name for name in defined if name.rsplit(".", 1)[1] not in read}
    listed = set(_UNREAD_IN_SRC)
    assert sorted(unread - listed) == [], "unread in src: move into the tests or list"
    assert sorted(listed - unread) == [], "listed, but read in src or gone"
    for name, reason in _UNREAD_IN_SRC.items():
        if reason in _READERS:
            assert name.rsplit(".", 1)[1] in _READERS[reason].read_text(), name
