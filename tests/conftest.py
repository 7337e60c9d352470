import pytest

from chainqed.hamiltonian import OperatorCache


@pytest.fixture
def cache_builds(monkeypatch):
    """The spaces of every ``OperatorCache`` built during the test, in order.

    ``OperatorCache.for_space`` is emptied before and after the test, so that a
    cache left by an earlier test neither hides a build nor outlives this one.
    """
    builds = []
    init = OperatorCache.__init__

    def counted(self, space):
        builds.append(space)
        init(self, space)

    monkeypatch.setattr(OperatorCache, "__init__", counted)
    OperatorCache.for_space.cache_clear()
    yield builds
    OperatorCache.for_space.cache_clear()
