"""The package's record types: immutable, built by keyword with their
defaults, equal by class and fields, and never equal to a tuple of their
fields or to a record of another class; `dataclasses.replace`, `fields` and
`asdict` still work on them."""

import copy
import dataclasses
import pickle
import pprint
import re

import pytest

from sgcorona import ClosedFormEntry, ClosedFormSpectrum, Polynomial, SignedGraph, SpectrumMultiset
from sgcorona import experiments
from sgcorona.experiments import (
    CospectralCertificate,
    DistinctReport,
    PaperExampleReport,
    PrintedValueCheck,
    Theorem,
    TrialFailure,
    VerifyResult,
)
from sgcorona.graphs import DegreeProfile, GraphError
from sgcorona.spectra import MatrixKind


def _cases(rng, trials, max_n):
    return ()


def _check(case, tol):
    return None


def _graphs(case):
    return {}


# Each class with a function that builds its fields afresh, in field order, so
# two calls give equal but distinct values.
RECORDS = {
    DegreeProfile: lambda: dict(degree=(1, 2, 1), pos_degree=(1, 1, 0), neg_degree=(0, 1, 1), net_degree=(1, 0, -1)),
    SignedGraph: lambda: dict(n=3, edges=((0, 1, 1), (1, 2, -1))),
    SpectrumMultiset: lambda: dict(pairs=((-1.0, 1), (1.0, 2))),
    ClosedFormEntry: lambda: dict(multiplicity=2, value=None, coeffs=(-1.0, 0.0, 1.0)),
    ClosedFormSpectrum: lambda: dict(
        theorem="2.3", order=5, entries=(ClosedFormEntry(1, 0.5), ClosedFormEntry(2, coeffs=(-1.0, 0.0, 1.0)))
    ),
    DistinctReport: lambda: dict(
        kind=MatrixKind.ADJACENCY,
        tol=1e-6,
        construction="C4- corona K1",
        spectrum=SpectrumMultiset(((-1.0, 1), (1.0, 2))),
        expected_distinct=4,
    ),
    CospectralCertificate: lambda: dict(
        kind=MatrixKind.LAPLACIAN,
        factor_a=SignedGraph(2, ((0, 1, 1),)),
        factor_b=SignedGraph(2, ((0, 1, -1),)),
        companion=SignedGraph(1),
        corona_a=SignedGraph(4, ((0, 1, 1), (0, 3, 1), (1, 2, 1))),
        corona_b=SignedGraph(4, ((0, 1, -1), (0, 3, -1), (1, 2, -1))),
        factor_char_poly=Polynomial([0, -2, 1]),
        corona_char_poly=Polynomial([1, 0, -3, 0, 1]),
        isomorphic=False,
        switching_isomorphic=True,
    ),
    PrintedValueCheck: lambda: dict(value=-1.0, multiplicity=4, nearest=-1.0, nearest_multiplicity=4, matched=True),
    PaperExampleReport: lambda: dict(
        corona=SignedGraph(2, ((0, 1, -1),)),
        char_poly=Polynomial([-1, 0, 1]),
        numeric=SpectrumMultiset(((-1.0, 1), (1.0, 1))),
        closed_form=ClosedFormSpectrum("2.3", 4, (ClosedFormEntry(2, coeffs=(-1.0, 0.0, 1.0)),)),
        closed_form_agrees_numeric=True,
        minus_one_exact_multiplicity=1,
        printed_checks=(PrintedValueCheck(-1.0, 1, -1.0, 1, True),),
    ),
    TrialFailure: lambda: dict(trial=3, detail="boom", graphs={"s1": "2\n0 1 +\n"}),
    VerifyResult: lambda: dict(
        theorem="2.3",
        trials=10,
        passed=9,
        failures=(TrialFailure(3, "boom", {"s1": "2\n0 1 +\n"}),),
        seed=0,
        max_n=5,
        tol=1e-6,
        notes=("a note",),
    ),
    Theorem: lambda: dict(cases=_cases, check=_check, graphs=_graphs, notes=("a note",)),
}
VALUE_TYPES = (SignedGraph, DegreeProfile, SpectrumMultiset, ClosedFormEntry, ClosedFormSpectrum)


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_every_field_refuses_assignment(cls):
    fields = RECORDS[cls]()
    record = cls(**fields)
    for name, value in RECORDS[cls]().items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == fields[name]


def test_fields_are_positional_in_order(cls):
    fields = RECORDS[cls]()
    assert cls(*fields.values()) == cls(**fields)


@pytest.mark.parametrize(
    "cls, given, defaults",
    [
        (SignedGraph, dict(n=2), dict(edges=())),
        (ClosedFormEntry, dict(multiplicity=1, value=0.5), dict(coeffs=None)),
        (ClosedFormEntry, dict(multiplicity=1, coeffs=(-1.0, 0.0, 1.0)), dict(value=None)),
        (
            DistinctReport,
            dict(kind=MatrixKind.ADJACENCY, tol=1e-6, construction="x", spectrum=SpectrumMultiset(())),
            dict(expected_distinct=None),
        ),
        (TrialFailure, dict(trial=0, detail="boom"), dict(graphs={})),
        (
            VerifyResult,
            dict(theorem="2.3", trials=1, passed=1, failures=(), seed=0, max_n=5, tol=1e-6),
            dict(notes=()),
        ),
        (Theorem, dict(cases=_cases, check=_check), dict(graphs=experiments._factor_pair, notes=())),
    ],
    ids=lambda x: x.__name__ if isinstance(x, type) else "",
)
def test_keyword_construction_takes_the_defaults(cls, given, defaults):
    record = cls(**given)
    for name, value in {**given, **defaults}.items():
        assert getattr(record, name) == value, name


def test_a_default_dict_is_not_shared():
    assert TrialFailure(0, "a").graphs is not TrialFailure(1, "b").graphs


def test_equal_fields_give_equal_records(cls):
    a, b = cls(**RECORDS[cls]()), cls(**RECORDS[cls]())
    assert a == b and not a != b
    if cls in VALUE_TYPES:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_copies_are_equal(cls):
    record = cls(**RECORDS[cls]())
    for dup in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(dup) is cls and dup == record


def test_records_with_a_different_field_differ():
    assert SignedGraph(3) != SignedGraph(3, ((0, 1, 1),))
    assert SignedGraph(3) != SignedGraph(4)
    assert SpectrumMultiset(((1.0, 1),)) != SpectrumMultiset(((1.0, 2),))
    assert ClosedFormEntry(1, 0.5) != ClosedFormEntry(2, 0.5)
    assert TrialFailure(0, "a") != TrialFailure(0, "a", {"s1": ""})


def test_a_record_is_no_tuple_and_no_record_of_another_class(cls):
    fields = RECORDS[cls]()
    record = cls(**fields)
    assert record != tuple(fields.values()) and tuple(fields.values()) != record
    if len(fields) == 1:
        assert record != next(iter(fields.values()))
    for other in RECORDS:
        if other is not cls:
            assert record != other(**RECORDS[other]())
    subclass = type(f"Sub{cls.__name__}", (cls,), {})
    assert record != subclass(**fields) and subclass(**fields) != record


def test_closed_form_entry_checks_in_order():
    with pytest.raises(ValueError, match="entry needs exactly one of value or coeffs"):
        ClosedFormEntry(multiplicity=0, value=1.0, coeffs=(1.0,))
    with pytest.raises(ValueError, match="only quadratic and cubic root entries are supported"):
        ClosedFormEntry(multiplicity=0, coeffs=(1.0,))
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        ClosedFormEntry(multiplicity=0, coeffs=(1.0, 0.0, 1.0))
    entry = ClosedFormEntry(1, coeffs=[-0.0, -0.0, 1])
    assert entry.coeffs == (0.0, 0.0, 1.0) and type(entry.coeffs) is tuple
    assert [str(c) for c in entry.coeffs] == ["0.0", "0.0", "1.0"]
    assert str(ClosedFormEntry(1, value=-0.0).value) == "-0.0"


def test_closed_form_spectrum_checks_its_order():
    with pytest.raises(
        ArithmeticError, match=re.escape("closed form covers 3 eigenvalues, expected 4")
    ):
        ClosedFormSpectrum("2.3", 4, (ClosedFormEntry(multiplicity=3, value=1.5),))


def test_signed_graph_keeps_its_edges_sorted_as_a_tuple():
    g = SignedGraph(3, iter([(1, 2, -1), (0, 1, 1)]))
    assert g.edges == ((0, 1, 1), (1, 2, -1)) and type(g.edges) is tuple


def test_the_generic_constructor_refuses_wrong_fields():
    fields = RECORDS[VerifyResult]()
    for args, kwargs in [
        ((*fields.values(), "extra"), {}),
        ((), {**fields, "extra": 1}),
        ((), {k: v for k, v in fields.items() if k != "seed"}),
        (tuple(fields.values())[:1], fields),
    ]:
        with pytest.raises(TypeError, match="VerifyResult takes the fields theorem, trials"):
            VerifyResult(*args, **kwargs)


def test_dataclasses_functions_see_the_fields(cls):
    # records were dataclasses, and callers outside the package (the
    # benchmark's self-test among them) still call dataclasses.replace on them
    record = cls(**RECORDS[cls]())
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == cls.__slots__
    dup = dataclasses.replace(record)
    assert type(dup) is cls and dup == record


def test_dataclasses_replace_goes_through_the_constructor():
    result = VerifyResult(**RECORDS[VerifyResult]())
    moved = dataclasses.replace(result, seed=result.seed + 1)
    assert moved == VerifyResult(**{**RECORDS[VerifyResult](), "seed": 1})
    assert moved.render() != result.render()
    with pytest.raises(GraphError, match="duplicate edge"):
        dataclasses.replace(SignedGraph(3, ((0, 1, 1),)), edges=((0, 1, 1), (0, 1, -1)))
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        dataclasses.replace(ClosedFormEntry(1, 0.5), multiplicity=0)


def test_asdict_gives_the_json_failures():
    result = VerifyResult(**RECORDS[VerifyResult]())
    assert list(dataclasses.asdict(result)["failures"]) == result.to_json()["failures"]
    assert list(dataclasses.asdict(result)) == list(VerifyResult.__slots__)


def test_pprint_of_a_long_record_uses_its_repr():
    record = CospectralCertificate(**RECORDS[CospectralCertificate]())
    assert pprint.pformat(record, width=20) == repr(record)
