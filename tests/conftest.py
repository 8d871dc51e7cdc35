import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Let a failing Hypothesis test report as a failure.

    On a failure, Hypothesis's own report hook imports libcst, which
    subclasses the deprecated mypy_extensions.TypedDict. Where
    DeprecationWarning is an error, as in this suite's filters, that
    import would stop the whole session with INTERNALERROR.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        return (yield)
