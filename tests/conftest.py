import pytest

from sobnat import linalg


@pytest.fixture
def factor_orders(monkeypatch):
    """Orders of the matrices passed to linalg.cholesky_factor during the test."""
    orders, factor = [], linalg.cholesky_factor

    def recording(a, shift=0.0, overwrite_a=False):
        orders.append(len(a))
        return factor(a, shift, overwrite_a)

    monkeypatch.setattr(linalg, "cholesky_factor", recording)
    return orders
