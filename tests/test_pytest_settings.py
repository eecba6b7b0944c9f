"""The repository's pytest settings keep a failing property readable."""

from conftest import PKG_ROOT


def test_failing_property_reports_its_example(pytester):
    # Hypothesis's failure report imports a module that warns on import; under
    # filterwarnings = ["error"] that warning used to end the whole session in
    # INTERNALERROR, with no example shown and no other test run
    pytester.makepyfile(test_prop="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(n):
            assert n is None
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PKG_ROOT / "pyproject.toml"), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", "test_prop.py",
    )
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert result.ret == 1
