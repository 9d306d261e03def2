import pytest

from z2top.dynamics import TopSystem


@pytest.fixture(scope="session")
def systems() -> dict[int, TopSystem]:
    return {n: TopSystem.create(n) for n in range(2, 11)}
