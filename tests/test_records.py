"""The value types that were dataclasses keep their value semantics.

``GaussianRational``, ``Signature``, ``Token``, ``BlockPartition`` and
``HypothesisFailure`` are :class:`cxkit._record.Record` subclasses and
``SpecDocument`` a plain mutable class, so that the CLI imports no
``dataclasses``.  Each keeps its constructor and defaults, ``==`` and
``hash`` on its field values, read-only fields where it was frozen, the
dataclass ``repr`` text (captured from the dataclass versions; ``Signature``'s
reaches the "cannot lift" error message) and pickling and deep copying.
"""

import pickle
from copy import deepcopy
from fractions import Fraction

import pytest

from cxkit.blockops import BlockPartition
from cxkit.diffop import OperatorMatrix, Signature
from cxkit.dsl import SpecDocument, Token, parse
from cxkit.poly import GaussianRational
from cxkit.symbols import HypothesisFailure

# (class, field values by keyword, the defaults of the dataclass version, its repr)
CASES = [
    (GaussianRational, {"re": Fraction(1), "im": Fraction(2)},
     {"re": Fraction(0), "im": Fraction(0)},
     "GaussianRational(re=Fraction(1, 1), im=Fraction(2, 1))"),
    (Signature, {"spatial": ("d1",), "time": None, "params": ()},
     {"time": None, "params": ()},
     "Signature(spatial=('d1',), time=None, params=())"),
    (Signature, {"spatial": ("d1", "d2"), "time": "dt", "params": ("mu",)},
     {"time": None, "params": ()},
     "Signature(spatial=('d1', 'd2'), time='dt', params=('mu',))"),
    (SpecDocument, {"spatial": (), "time": None, "params": (), "operators": {},
                    "complexes": {}, "mu_specs": {}, "builders": {}},
     {"spatial": (), "time": None, "params": (), "operators": {}, "complexes": {},
      "mu_specs": {}, "builders": {}},
     "SpecDocument(spatial=(), time=None, params=(), operators={}, complexes={},"
     " mu_specs={}, builders={})"),
    (Token, {"kind": "name", "text": "mu", "line": 1, "column": 3}, {},
     "Token(kind='name', text='mu', line=1, column=3)"),
    (BlockPartition, {"ranks": (1, 2)}, {}, "BlockPartition(ranks=(1, 2))"),
    (HypothesisFailure, {"condition": "degree-range", "detail": "need 1 <= q <= N-1"}, {},
     "HypothesisFailure(condition='degree-range', detail='need 1 <= q <= N-1')"),
]
FROZEN = {GaussianRational, Signature, Token, BlockPartition, HypothesisFailure}


@pytest.mark.parametrize("cls, fields, defaults, text", CASES,
                         ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(CASES)])
def test_value_semantics(cls, fields, defaults, text):
    obj = cls(*fields.values())
    assert obj == cls(**fields) and not obj != cls(**fields)
    assert {name: getattr(obj, name) for name in fields} == fields
    bare = cls(**{k: v for k, v in fields.items() if k not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    assert repr(obj) == text
    for other_cls, other_fields, *_ in CASES:
        if other_cls is not cls:
            assert obj != other_cls(*other_fields.values())

    name, value = next(iter(fields.items()))
    if cls in FROZEN:
        assert hash(obj) == hash(cls(**fields)) == hash(tuple(fields.values()))
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    else:  # a document is filled in as it is parsed
        with pytest.raises(TypeError):
            hash(obj)
        assert cls().operators is not cls().operators
        setattr(obj, name, value)

    for copy in (pickle.loads(pickle.dumps(obj)), deepcopy(obj)):
        assert type(copy) is cls and copy == obj and repr(copy) == text


def test_containers_round_trip():
    """An operator holds its ``Signature``; a parsed document holds
    operators, complexes and weights."""
    doc = parse("vars: d1 d2 d3\nparams: mu\noperator G = [[d1], [d2], [d3]]\n"
                "complex C = de_rham(3)\nmu C 1 scalar mu\n")
    op = doc.operators["G"]
    assert isinstance(op, OperatorMatrix)
    for copy in (pickle.loads(pickle.dumps(op)), deepcopy(op)):
        assert copy == op and copy.signature == op.signature == doc.signature
    for copy in (pickle.loads(pickle.dumps(doc)), deepcopy(doc)):
        assert copy == doc and copy.builders == doc.builders
        assert copy.mu_set("C").cplx.ops == doc.mu_set("C").cplx.ops
