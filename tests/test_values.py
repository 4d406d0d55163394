"""The six value types are immutable, and a copy or a pickle of a value is
an equal value.

`Scalar`, `PolyRing`, `Poly`, `LieAlgebra`, `DarbouxOperator` and
`PolyOperator` derive from `scalars.Frozen`: setting an attribute raises
AttributeError, and `copy.copy`, `copy.deepcopy` and pickle rebuild a value
from its slots (a ring through its constructor).
"""

import copy
import pickle

import pytest

from darbouxops import lie
from darbouxops.catalog import catalog_get, verify_entry
from darbouxops.poly import PolyRing, dot
from darbouxops.scalars import Scalar

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def _ring():
    return PolyRing(["u1", "u2"], ["alpha", "f12"], d=3)


def _cached_poly():
    """A polynomial whose integer form a `dot` has cached."""
    ring = _ring()
    p = ring.parse("u1^2-1/2*sqrt(3)*alpha*u2+f12+2/3")
    dot(ring, [(p, p)])
    assert p._ints is not None
    return p


VALUES = {
    "Scalar(1)": lambda: Scalar(1),
    "Scalar(1, 2, 2)": lambda: Scalar(1, 2, 2),
    "PolyRing": _ring,
    "Poly": _cached_poly,
    "so3": lie.so3,
    "g2": lambda: catalog_get("g2").algebra,
    "DarbouxOperator": lambda: catalog_get("A_{6,13}").operator(),
    "PolyOperator": lambda: catalog_get("A_{6,13}").operator().to_poly_operator(),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_round_trip_gives_an_equal_value(name, trip):
    x = VALUES[name]()
    y = ROUND_TRIPS[trip](x)
    assert type(y) is type(x)
    assert y == x
    assert hash(y) == hash(x)


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_round_tripped_poly_multiplies_with_the_originals(trip):
    p = _cached_poly()
    q = ROUND_TRIPS[trip](p)
    ring = p.ring
    assert q * p == p * q == p * p
    assert dot(ring, [(q, p), (p, ring.var("u1"))]) == dot(ring, [(p, p), (p, ring.var("u1"))])
    assert q.ring.parse("u1*u2") * p.ring.var("alpha") == ring.parse("alpha*u1*u2")


@pytest.mark.parametrize("trip", ["deepcopy", "pickle"])
def test_catalog_entry_and_report_round_trip(trip):
    entry = catalog_get("A_{6,13}")
    report = verify_entry("A_{6,13}")
    assert ROUND_TRIPS[trip](entry) == entry
    assert ROUND_TRIPS[trip](report) == report
    assert report.passed


@pytest.mark.parametrize("name", VALUES)
def test_setting_an_attribute_raises(name):
    x = VALUES[name]()
    message = f"^{type(x).__name__} is immutable$"
    with pytest.raises(AttributeError, match=message):
        setattr(x, type(x).__slots__[0], None)
    with pytest.raises(AttributeError, match=message):
        x.extra = None


def test_operators_compare_by_type_ring_and_entries():
    op = catalog_get("A_{6,13}").operator()
    other = catalog_get("A_{6,13}").operator()
    assert op is not other and op == other and hash(op) == hash(other)
    assert op.to_poly_operator() == other.to_poly_operator()
    assert op.to_poly_operator() != op
    assert catalog_get("A_{6,11}").operator() != op
