import random

import pytest

from majorityrank import IndicatorRecord, InputError, cip_index, cip_ranking


def record(country="x", **overrides):
    values = dict(MVApc=1.0, MXpc=1.0, MHVAsh=1.0, MVAsh=1.0, MHXsh=1.0, MXsh=1.0, ImWMVA=1.0, ImWMT=1.0)
    values.update(overrides)
    return IndicatorRecord(country=country, **values)


def test_all_ones_gives_one():
    assert cip_index(record()) == 1.0


def test_zero_factor_annihilates():
    assert cip_index(record(ImWMT=0.0)) == 0.0


def test_direct_evaluation():
    rec = IndicatorRecord("x", 2, 3, 0.4, 0.2, 0.5, 0.7, 0.01, 0.02)
    assert cip_index(rec) == pytest.approx(0.000216, rel=1e-12)


def test_share_out_of_range_warns_but_passes():
    with pytest.warns(UserWarning, match="MXsh"):
        rec = record(MXsh=1.7)
    assert cip_index(rec) > 0


def test_invalid_values_rejected():
    with pytest.raises(InputError):
        record(MVApc=float("inf"))
    with pytest.raises(InputError):
        record(MVAsh=-0.1)
    with pytest.raises(InputError):
        IndicatorRecord("", 1, 1, 1, 1, 1, 1, 1, 1)


def test_dominating_record_ranks_first():
    strong = record("strong", MVApc=5.0, MXpc=4.0)
    weak = record("weak", MVApc=2.0, MXpc=1.0)
    ranking = cip_ranking([weak, strong])
    assert ranking.ranks == {"strong": 1, "weak": 2}


def test_equal_products_tie():
    ranking = cip_ranking([record("one"), record("two", MVApc=2.0, MXpc=0.5)])
    assert ranking.ranks == {"one": 1, "two": 1}


def test_duplicate_country_rejected():
    with pytest.raises(InputError, match="duplicate alternative 'same'"):
        cip_ranking([record("same"), record("same")])
    with pytest.raises(InputError, match="must not be empty"):
        cip_ranking([])


def test_monotonicity_in_each_factor():
    base = record("b", MVApc=2.0, MXpc=3.0, MHVAsh=0.4, MVAsh=0.2, MHXsh=0.5, MXsh=0.7, ImWMVA=0.01, ImWMT=0.02)
    for name in ("MVApc", "MXpc", "MHVAsh", "MVAsh", "MHXsh", "MXsh", "ImWMVA", "ImWMT"):
        bumped = record("b", **{**{f: getattr(base, f) for f in base.__dataclass_fields__ if f != "country"},
                                name: getattr(base, name) * 1.2})
        assert cip_index(bumped) > cip_index(base)


def test_common_rescaling_preserves_order():
    rng = random.Random(81)
    records = [
        record(f"c{i}", MVApc=rng.uniform(0.5, 5), MXpc=rng.uniform(0.5, 5),
               MHVAsh=rng.uniform(0.05, 0.9), MVAsh=rng.uniform(0.05, 0.9),
               MHXsh=rng.uniform(0.05, 0.9), MXsh=rng.uniform(0.05, 0.9),
               ImWMVA=rng.uniform(0.001, 0.2), ImWMT=rng.uniform(0.001, 0.2))
        for i in range(12)
    ]
    base = cip_ranking(records)
    doubled = [
        IndicatorRecord(r.country, r.MVApc * 2, r.MXpc, r.MHVAsh, r.MVAsh, r.MHXsh, r.MXsh, r.ImWMVA, r.ImWMT)
        for r in records
    ]
    assert cip_ranking(doubled).ranks == base.ranks
