import pytest


def test_typeddict_deprecation_is_not_an_error():
    # Reporting a failing @given test imports libcst, which builds a
    # mypy_extensions.TypedDict and so warns.  Under filterwarnings = "error"
    # that warning became an INTERNALERROR that hid the failure and stopped the
    # run; pyproject.toml ignores exactly this message.
    mypy_extensions = pytest.importorskip("mypy_extensions")
    mypy_extensions.TypedDict("Probe", {"x": int})
