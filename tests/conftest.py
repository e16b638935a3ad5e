import pytest

from permfact import correspondence, cyclofield, mfcore, polyring

CACHED_MODULES = (cyclofield, polyring, mfcore, correspondence)


def clear_constructor_caches():
    """Empty the memo of every cached constructor in CACHED_MODULES."""
    for module in CACHED_MODULES:
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if clear is not None:
                clear()


@pytest.fixture(autouse=True)
def fresh_constructor_caches(request):
    """A test that patches a function sees fresh constructors, and what it
    builds under the patch is not handed to later tests."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    clear_constructor_caches()
    yield
    clear_constructor_caches()
