"""Record classes: construction, defaults, repr, equality, hash, immutability.

The reprs are pinned text, so a change in how a record class is defined
cannot change what it prints.
"""

from fractions import Fraction

import pytest

from lefalg.buildfile import (AlgebraNode, BlowupNode, BundleNode, CatalogNode,
                              GrNode, PNode, ProductNode)
from lefalg.catalog import CatalogEntry
from lefalg.constructors import BlowupInput, projective_space
from lefalg.lefschetz import (DegreeVerdict, LefschetzData, PredicateVerdict,
                              PrimitiveDims)
from lefalg.linalg import Matrix, RrefResult
from lefalg.ring import CheckReport
from lefalg.schubert import Box

P1 = projective_space(1)
ONE, HALF = Fraction(1), Fraction(1, 2)
ALG = "GradedAlgebra('P1', dims=(1, 1))"

# (class, fields in order, fields left to their defaults, pinned repr)
CASES = [
    (PNode, {"path": "$", "n": 2}, {}, "PNode(path='$', n=2)"),
    (GrNode, {"path": "$.product[0]", "k": 2, "n": 4}, {},
     "GrNode(path='$.product[0]', k=2, n=4)"),
    (ProductNode,
     {"path": "$", "factors": (PNode("$.product[0]", 1),
                               PNode("$.product[1]", 1))}, {},
     "ProductNode(path='$', factors=(PNode(path='$.product[0]', n=1), "
     "PNode(path='$.product[1]', n=1)))"),
    (BundleNode,
     {"path": "$", "base": PNode("$.proj_bundle.Y", 1),
      "chern": ((ONE,), (HALF, ONE))}, {},
     "BundleNode(path='$', base=PNode(path='$.proj_bundle.Y', n=1), "
     "chern=((Fraction(1, 1),), (Fraction(1, 2), Fraction(1, 1))))"),
    (BlowupNode,
     {"path": "$", "y": PNode("$.blowup.Y", 2), "z": PNode("$.blowup.Z", 0),
      "pullback": (((ONE,),),), "chern": ((), (ONE,))}, {},
     "BlowupNode(path='$', y=PNode(path='$.blowup.Y', n=2), "
     "z=PNode(path='$.blowup.Z', n=0), pullback=(((Fraction(1, 1),),),), "
     "chern=((), (Fraction(1, 1),)))"),
    (AlgebraNode, {"path": "$", "payload": {"format": "graded-algebra"}}, {},
     "AlgebraNode(path='$', payload={'format': 'graded-algebra'})"),
    (CatalogNode, {"path": "$", "name": "P-1"}, {},
     "CatalogNode(path='$', name='P-1')"),
    (LefschetzData,
     {"ambient": P1, "generators": ((ONE,),), "rows": ((((0, 1),),), (((0, 1),),))},
     {},
     f"LefschetzData(ambient={ALG}, generators=((Fraction(1, 1),),), "
     f"rows=((((0, 1),),), (((0, 1),),)))"),
    (DegreeVerdict, {"k": 1, "passed": False, "witness": "rank 0 of 1"}, {},
     "DegreeVerdict(k=1, passed=False, witness='rank 0 of 1')"),
    (DegreeVerdict, {"k": 0, "passed": True}, {"witness": ""},
     "DegreeVerdict(k=0, passed=True, witness='')"),
    (PredicateVerdict,
     {"predicate": "symmetry", "degrees": (DegreeVerdict(0, True),)}, {},
     "PredicateVerdict(predicate='symmetry', "
     "degrees=(DegreeVerdict(k=0, passed=True, witness=''),))"),
    (PrimitiveDims, {"dims": (1, 0), "valid": True}, {},
     "PrimitiveDims(dims=(1, 0), valid=True)"),
    (CheckReport, {"violations": ("integration functional is identically "
                                  "zero",)}, {},
     "CheckReport(violations=('integration functional is identically "
     "zero',))"),
    (BlowupInput,
     {"y": P1, "z": P1, "pullback": "pullback", "codim": 1,
      "chern_n": (P1.zero(1),)}, {},
     f"BlowupInput(y={ALG}, z={ALG}, pullback='pullback', codim=1, "
     f"chern_n=(<deg 1: 0>,))"),
    (CatalogEntry,
     {"name": "P-1", "algebra": P1, "omega": P1.by_label("h"),
      "description": "projective space of dimension 1"}, {},
     f"CatalogEntry(name='P-1', algebra={ALG}, omega=<deg 1: h>, "
     f"description='projective space of dimension 1')"),
    (RrefResult,
     {"reduced": Matrix(1, 2, [[1, HALF]]), "pivot_columns": (0,), "rank": 1},
     {}, "RrefResult(reduced=Matrix(1x2: 1 1/2), pivot_columns=(0,), rank=1)"),
    (Box, {"rows": 2, "cols": 3}, {}, "Box(rows=2, cols=3)"),
]


@pytest.mark.parametrize("cls,given,defaults,text", CASES,
                         ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(CASES)])
def test_record_class_contract(cls, given, defaults, text):
    by_position = cls(*given.values())
    by_keyword = cls(**given)
    for name, value in {**given, **defaults}.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert repr(by_position) == repr(by_keyword) == text
    assert by_position == by_keyword
    assert not by_position != by_keyword
    try:
        hashes = {hash(by_position), hash(by_keyword)}
    except TypeError:  # a field holds a dict
        assert isinstance(given.get("payload"), dict)
    else:
        assert len(hashes) == 1
    first = next(iter(given))
    with pytest.raises(AttributeError):
        setattr(by_position, first, given[first])
    with pytest.raises(AttributeError):
        by_position.extra = 1


def test_blowup_input_stores_its_chern_classes_as_a_tuple():
    chern = [P1.zero(1)]
    data = BlowupInput(P1, P1, "pullback", 1, chern)
    assert data.chern_n == (P1.zero(1),)
    assert isinstance(data.chern_n, tuple)
    assert BlowupInput(y=P1, z=P1, pullback="pullback", codim=1,
                       chern_n=chern) == data
