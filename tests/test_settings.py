"""The test session's own warning settings, run in inner sessions.

`pyproject.toml` turns every warning into an error but one: the
`DeprecationWarning` that `libcst.metadata.type_inference_provider` raises
when the hypothesis plugin imports it to print a failing example.  Without
that exception, one failing `@given` test stops the whole session with an
internal error, and no later test runs.  Each inner session gets this
session's `filterwarnings` and runs in a fresh interpreter, since the
warning fires only on the first import of `libcst`.
"""

MESSAGE = "mypy_extensions.TypedDict is deprecated"


def _run(pytester, request, source):
    filters = request.config.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(source)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    return result


def test_a_failing_hypothesis_test_fails_alone(pytester, request):
    result = _run(pytester, request, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])


def test_only_that_module_may_raise_that_warning(pytester, request):
    result = _run(pytester, request, f"""
        import warnings

        def warn(module):
            warnings.warn_explicit("{MESSAGE}", DeprecationWarning, "m.py", 1, module=module)

        def test_from_libcst():
            warn("libcst.metadata.type_inference_provider")

        def test_from_maslov():
            warn("maslov.core")

        def test_from_a_test():
            warn(__name__)
    """)
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines(["*FAILED*test_from_maslov*", "*FAILED*test_from_a_test*"])
