"""The package's public names: every name in ``inforate.__all__``
resolves, and none is listed twice."""

import inforate


def test_every_public_name_resolves():
    missing = [n for n in inforate.__all__ if not hasattr(inforate, n)]
    assert missing == []


def test_no_public_name_is_listed_twice():
    assert len(inforate.__all__) == len(set(inforate.__all__))
