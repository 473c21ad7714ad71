"""The record classes are NamedTuples, with the fields, repr, equality, hash,
ordering and constructor checks of the dataclasses they replaced.

The expected reprs and messages are pinned literally from the dataclass
versions, except that the Lie records store integral values as ints, and
that a field another field determines is a property, not a field: a
certificate's expected term count and square count, a cap's ambient
dimension and an algebra's dimension; a growth report keeps no family or
quadrature order, which nothing read.  Unlike three of those dataclasses,
every record is immutable, and a report's samples default to ().
"""

from fractions import Fraction

import pytest

from sphere_sos.certificates import CertificateReport, SamplePoint, verify_certificate
from sphere_sos.cli import NON_HARMONIC_CONTROL, resolve_family
from sphere_sos.growth import GrowthReport
from sphere_sos.harmonics import (
    CapDomain,
    HarmonicFunction,
    stereographic_harmonic,
)
from sphere_sos.lie import (
    BilinearForm,
    CasimirElement,
    LieAlgebraData,
    ReductiveDecomposition,
    so_algebra,
    su2_algebra,
)
from sphere_sos.quotients import SphereFunction
from sphere_sos.realization import ProjectedCasimir, RealizedField, su2_fields
from sphere_sos.sphere_ops import RotationField, rotation_fields

F0, F1 = Fraction(0), Fraction(1)
POLE = "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))"
CAP = f"CapDomain(pole={POLE}, radius=3.0)"
SAMPLE = "SamplePoint(point=(Fraction(1, 2), Fraction(0, 1), Fraction(-1, 1)), value=Fraction(-3, 4))"
ALGEBRA = (
    "LieAlgebraData(labels=('e1', 'e2'), "
    "structure=(((), ((1, 1),)), (((1, -1),), ())))"
)
FORM = "BilinearForm(matrix=((1, 0), (0, 2)))"
VI = (
    "RealizedField(m=4, weights=((RotationField(i=1, j=2), 1), (RotationField(i=3, j=4), 1)))"
)


def sample():
    return SamplePoint(point=(Fraction(1, 2), F0, Fraction(-1)), value=Fraction(-3, 4))


def algebra():
    return LieAlgebraData.from_brackets(["e1", "e2"], {(0, 1): {1: 1}, (1, 0): {1: -1}})


def form():
    return BilinearForm.from_rows([[1, 0], [0, 2]])


RECORDS = [
    (lambda: RotationField(1, 3), "RotationField(i=1, j=3)"),
    (lambda: CapDomain(), CAP),
    (
        lambda: stereographic_harmonic(1, "re"),
        "HarmonicFunction(value=SphereFunction(m=3, (-1 * x1) / (1 * x3 + -1)^1), "
        f"domain={CAP}, provenance='stereo:k=1:re', chart=((1, 're', 1),))",
    ),
    (sample, SAMPLE),
    (
        lambda: CertificateReport("f", 1, 3, True, True, [sample()], 5, 0.5, 2),
        "CertificateReport(family='f', k=1, term_count=3, "
        f"equality_verified=True, terms_harmonic=True, samples=[{SAMPLE}], seed=5, "
        "wall_time=0.5, span_dimension=2)",
    ),
    (
        lambda: GrowthReport((0.0, 0.0, -1.0), [0.1], [1.5], True, None, 0.25, 0.25, True),
        "GrowthReport(center=(0.0, 0.0, -1.0), radii=[0.1], means=[1.5], "
        "monotone=True, first_violation=None, second_derivative_fd=0.25, "
        "second_derivative_exact=0.25, second_derivative_ok=True)",
    ),
    (algebra, ALGEBRA),
    (form, FORM),
    (
        lambda: ReductiveDecomposition(algebra(), form(), ((F0, F1),), ((F1, F0),)),
        f"ReductiveDecomposition(algebra={ALGEBRA}, form={FORM}, "
        "subalgebra_basis=((Fraction(0, 1), Fraction(1, 1)),), "
        "complement_basis=((Fraction(1, 1), Fraction(0, 1)),))",
    ),
    (
        lambda: CasimirElement(pairs=(((F1,), (F1,)),)),
        "CasimirElement(pairs=(((Fraction(1, 1),), (Fraction(1, 1),)),))",
    ),
    (lambda: su2_fields()[0], VI),
    (lambda: ProjectedCasimir.of_squares(su2_fields()[:1]), f"ProjectedCasimir(pairs=(({VI}, {VI}),))"),
]

# Each record's test id is its class name, so a changed repr keeps the ids.
RECORD_IDS = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
def test_repr_equality_and_hash_match_the_dataclasses(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b
    fields = tuple(getattr(a, name) for name in a._fields)
    try:
        expected = hash(fields)
    except TypeError:
        # A field is unhashable (a list, or a SphereFunction): so is the record.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable(make, text):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_records_differ_field_by_field():
    assert RotationField(1, 3) != RotationField(1, 4)
    assert CapDomain(radius=1.0) != CapDomain()
    assert sample()._replace(value=Fraction(3, 4)) != sample()
    assert form() != BilinearForm.from_rows([[1, 0], [0, 3]])


def test_rotation_fields_sort_by_index_pair():
    fields = rotation_fields(4)
    assert sorted(fields, reverse=True) == [
        RotationField(3, 4), RotationField(2, 4), RotationField(2, 3),
        RotationField(1, 4), RotationField(1, 3), RotationField(1, 2),
    ]
    assert sorted(reversed(fields)) == fields
    assert RotationField(1, 4) < RotationField(2, 3)
    assert max(fields) == RotationField(3, 4)


def test_defaults_and_keywords():
    assert CapDomain() == CapDomain((F0, F0, F1), 3.0)
    assert CapDomain(radius=1.5).radius == 1.5
    assert RotationField(j=2, i=1) == RotationField(1, 2)
    assert CertificateReport("f", 1, 3, True, True).samples == ()


@pytest.mark.parametrize(
    "make, span",
    [
        (lambda: HarmonicFunction(SphereFunction.zero(3), CapDomain(), "zero"), 0),
        (lambda: resolve_family(NON_HARMONIC_CONTROL, NON_HARMONIC_CONTROL), 1),
    ],
    ids=["zero", NON_HARMONIC_CONTROL],
)
def test_certificate_counts_are_read_off_their_sources(make, span):
    # At k = 0 there is one word, the empty one, and one square per element
    # of the span of the start term: none for 0, one for x3.
    report = verify_certificate(make(), 0, sample_count=1)
    assert report.expected_term_count == report.term_count == 1
    assert report.square_count == report.span_dimension == span


def test_dimensions_are_read_off_their_sources():
    assert CapDomain().ambient_dim == len(CapDomain().pole) == 3
    assert CapDomain((F0, F0, F0, F1)).ambient_dim == 4
    for m in (3, 4, 5, 6):
        assert so_algebra(m).dim == len(so_algebra(m).labels) == m * (m - 1) // 2
    assert su2_algebra().dim == len(su2_algebra().labels) == 3


S1 = ((Fraction(3), F1),)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RotationField(2, 1), r"need 1 <= i < j, got \(2, 1\)"),
        (lambda: RotationField(0, 1), r"need 1 <= i < j, got \(0, 1\)"),
        (lambda: CapDomain(radius=4.0), r"cap radius must lie in \(0, pi\), got 4.0"),
        (lambda: CapDomain(radius=0.0), r"cap radius must lie in \(0, pi\), got 0.0"),
        (lambda: CapDomain(pole=(1, 1, 0)), r"point \('1', '1', '0'\) is not on the unit sphere"),
        (
            lambda: LieAlgebraData(labels=("a",), structure=((((0, F0),),),)),
            r"structure constants must be dim x dim sorted nonzero \(k, c\) lists",
        ),
        (
            lambda: LieAlgebraData(labels=("a",), structure=((S1,),)),
            "structure constant index out of range",
        ),
        (lambda: BilinearForm(((F1,), (F1, F1))), "form matrix must be square"),
        (
            lambda: BilinearForm(((F1, Fraction(2)), (Fraction(3), F1))),
            "form matrix must be symmetric",
        ),
    ],
)
def test_constructor_checks_are_kept(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_replace_keeps_the_record_type():
    cas = CasimirElement(pairs=(((F1,), (F1,)), ((F0,), (F0,))))
    dropped = cas._replace(pairs=cas.pairs[1:])
    assert type(dropped) is CasimirElement
    assert dropped == CasimirElement(pairs=cas.pairs[1:])
    field = RealizedField.from_weights(3, {RotationField(1, 2): F1})
    assert field._replace(m=4).m == 4 and isinstance(field._replace(m=4), RealizedField)


def test_harmonic_function_keyword_construction():
    h = stereographic_harmonic(2, "im")
    copy = HarmonicFunction(value=h.value, domain=h.domain, provenance=h.provenance, chart=h.chart)
    assert copy == h and copy.m == 3
    assert HarmonicFunction(value=h.value, domain=h.domain, provenance=h.provenance).chart == ()
