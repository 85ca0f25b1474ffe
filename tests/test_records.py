"""The result records: immutable, and the two that check their fields keep
their checks, equality and hash."""

from __future__ import annotations

import copy
import enum
import math
import pickle
from fractions import Fraction

import pytest

from tmqc import diffract, quadfield, rareclass, spectrum, tmcore
from tmqc.rareclass import RarefiedVector
from tmqc.tmcore import QuasicrystalParams

_TUPLE_RECORDS = [
    diffract.FourierCoefficients,
    diffract.AlphaFit,
    rareclass.TransferMatrix,
    rareclass.ScalingExponents,
    rareclass.FractalProfile,
    rareclass.NewmanReport,
    rareclass.PositivityReport,
    rareclass.GrabnerReport,
    quadfield.FundamentalUnit,
    quadfield.PrimeClassRecord,
    rareclass.SizeIncreasingScan,
    spectrum.NormalizedWaveVector,
    spectrum.SpectralVerdict,
    spectrum.RarefactionDomain,
    spectrum.HalvingReduction,
    spectrum.MarcinkiewiczEstimate,
    spectrum.InvarianceReport,
]


def _instances():
    for cls in _TUPLE_RECORDS:
        yield cls.__name__, cls(*range(len(cls._fields)))
    yield "QuasicrystalParams", QuasicrystalParams(Fraction(3, 2), 1)
    yield "RarefiedVector", rareclass.rarefied_vector(5, 16)


def _field_names(rec) -> tuple:
    return getattr(rec, "_fields", None) or type(rec).__slots__


def test_every_public_record_is_covered():
    # every exported class but the enums and the exceptions is a record
    # (`FundamentalUnit` is public through `fundamental_unit` alone)
    exported = {
        name
        for mod in (tmcore, diffract, rareclass, quadfield, spectrum)
        for name in mod.__all__
        if isinstance(getattr(mod, name), type)
        and not issubclass(getattr(mod, name), (enum.Enum, Exception))
    }
    assert exported | {"FundamentalUnit"} == {name for name, _ in _instances()}


@pytest.mark.parametrize("rec", [pytest.param(rec, id=name) for name, rec in _instances()])
def test_fields_cannot_be_assigned(rec):
    for field in _field_names(rec):
        before = getattr(rec, field)
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field) is before
    # no instance dictionary either: a new attribute cannot be attached
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "__dict__")


class TestQuasicrystalParams:
    def test_equal_and_hashed_by_value(self):
        p, q = QuasicrystalParams(2, 1), QuasicrystalParams(Fraction(2), 1)
        assert p == q and hash(p) == hash(q)
        assert isinstance(p.a, Fraction) and isinstance(p.b, Fraction)
        assert p != QuasicrystalParams(3, 1)
        assert len({p, q, QuasicrystalParams(Fraction(4, 2), Fraction(1))}) == 1

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (2, 0), (2, -1)])
    def test_refuses_b_not_below_a(self, a, b):
        with pytest.raises(ValueError, match="0 < b < a"):
            QuasicrystalParams(a, b)

    @pytest.mark.parametrize("a, b", [(Fraction(10**400), 1), (2**1022, 1),
                                      (Fraction(2, 10**400), Fraction(1, 10**400))])
    def test_refuses_tiles_beyond_the_float_range(self, a, b):
        with pytest.raises(ValueError, match="a \\+ b in the float range"):
            QuasicrystalParams(a, b)

    def test_refuses_wave_vectors_beyond_the_float_range(self):
        p = QuasicrystalParams(2, 1)
        assert p.wave_vector(Fraction(10**300)) == 4.0 * math.pi / 3.0 * 1e300
        for q in (Fraction(10**400), Fraction(-(10**308)), 1e308, math.inf):
            with pytest.raises(ValueError, match="beyond the float range"):
                p.wave_vector(q)

    def test_pickles_and_copies(self):
        p = QuasicrystalParams(Fraction(3, 2), Fraction(1, 3))
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p and (clone.a, clone.b) == (p.a, p.b)
            assert clone.wave_vector(Fraction(1, 3)) == p.wave_vector(Fraction(1, 3))


class TestRarefiedVector:
    def test_bad_column_sum_is_arithmetic_error(self):
        with pytest.raises(ArithmeticError, match="prefix-sum identity"):
            RarefiedVector(5, 16, (4, -1, -1, -1, 0))

    def test_equal_hashed_and_indexed(self):
        v = rareclass.rarefied_vector(5, 16)
        w = RarefiedVector(5, 16, (4, -1, -1, -1, -1))
        assert v == w and hash(v) == hash(w)
        assert v != rareclass.rarefied_vector(5, 15)
        assert [v[i] for i in range(5)] == list(v.entries) == list(v)
        assert pickle.loads(pickle.dumps(v)) == v
