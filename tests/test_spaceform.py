import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from radcomp import SpaceForm
from radcomp.errors import DomainError, SingularityError
from radcomp.spaceform import _SERIES_CUT


def test_branch_values():
    assert SpaceForm(2, 0.0).sk(2.0) == pytest.approx(2.0, abs=1e-15)
    assert SpaceForm(3, 1.0).sk(math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert SpaceForm(2, -1.0).sk(1.0) == pytest.approx(math.sinh(1.0), abs=1e-14)


def test_cot_tan_values():
    assert SpaceForm(2, 0.0).cotk(0.5) == pytest.approx(2.0, abs=1e-14)
    assert SpaceForm(2, 0.0).tank(3.0) == pytest.approx(3.0, abs=1e-14)
    assert SpaceForm(2, 1.0).cotk(math.pi / 4) == pytest.approx(1.0, abs=1e-14)
    assert SpaceForm(2, 1.0).tank(0.0) == 0.0


def test_r_bar():
    assert SpaceForm(3, 4.0).r_bar == pytest.approx(math.pi / 2)
    assert math.isinf(SpaceForm(3, 0.0).r_bar)
    assert math.isinf(SpaceForm(3, -2.0).r_bar)


def test_domain_errors():
    sf = SpaceForm(3, 1.0)
    with pytest.raises(DomainError):
        sf.sk(-0.1)
    with pytest.raises(DomainError):
        sf.sk(math.pi + 0.1)
    with pytest.raises(SingularityError):
        sf.cotk(0.0)
    with pytest.raises(SingularityError):
        sf.tank(math.pi / 2)
    with pytest.raises(DomainError):
        SpaceForm(1, 0.0)
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            SpaceForm(3, k)
    # the endpoint itself is allowed for k > 0 and returns 0
    assert sf.sk(math.pi) == pytest.approx(0.0, abs=1e-12)


@given(k=st.floats(-5.0, 5.0), t=st.floats(1e-3, 0.999))
@settings(max_examples=300)
def test_derivative_identity(k, t):
    """(s_k')^2 + k s_k^2 = 1 pointwise (argument kept in the range where the
    hyperbolic terms stay below ~1e3, so the identity is testable absolutely)."""
    sf = SpaceForm(3, k)
    cap = 4.0 / math.sqrt(-k) if k < -1e-6 else min(sf.r_bar, 10.0)
    r = t * cap
    val = sf.dsk(r) ** 2 + k * sf.sk(r) ** 2
    assert abs(val - 1.0) < 1e-12


@given(k=st.floats(-5.0, -0.01), t=st.floats(1.0, 3.0))
@settings(max_examples=100)
def test_derivative_identity_large_argument_relative(k, t):
    """For large hyperbolic arguments the identity holds relative to the
    magnitude of the cancelling terms."""
    sf = SpaceForm(3, k)
    r = t * 4.0 / math.sqrt(-k)
    mag = sf.dsk(r) ** 2
    val = sf.dsk(r) ** 2 + k * sf.sk(r) ** 2
    assert abs(val - 1.0) < 1e-12 * max(1.0, mag)


@given(k=st.floats(-4.0, 4.0), a=st.floats(0.1, 3.0), t=st.floats(1e-3, 0.99))
@settings(max_examples=300)
def test_rescaling_consistency(k, a, t):
    """s_{k/a^2}(a r) = a s_k(r)."""
    sf1 = SpaceForm(2, k)
    sf2 = SpaceForm(2, k / (a * a))
    r = t * min(sf1.r_bar, 5.0)
    assert abs(sf2.sk(a * r) - a * sf1.sk(r)) < 1e-12 * max(1.0, a * r)


@given(k=st.floats(-1e-4, 1e-4), r=st.floats(1e-6, 2.0))
@settings(max_examples=300)
def test_series_branch_continuity(k, r):
    """Near k = 0 the series branch agrees with the direct formulas."""
    sf = SpaceForm(2, k)
    if k == 0:
        assert sf.sk(r) == r
        return
    s = math.sqrt(abs(k))
    direct = math.sin(s * r) / s if k > 0 else math.sinh(s * r) / s
    assert sf.sk(r) == pytest.approx(direct, rel=1e-13, abs=1e-15)


def test_sk_at_zero_and_slope():
    for k in (-2.0, 0.0, 3.0):
        sf = SpaceForm(2, k)
        assert sf.sk(0.0) == 0.0
        assert sf.dsk(0.0) == 1.0
        assert sf.sk(1e-9) == pytest.approx(1e-9, rel=1e-12)


def _radius(sf, where, t):
    """A radius in (0, r_bar) next to 0, next to r_bar (large r when r_bar is
    infinite), on either side of the series cutover |k| r^2 = _SERIES_CUT, or
    in between."""
    k, s = sf.k, math.sqrt(abs(sf.k))
    if where == "pole":
        return 10.0 ** (-300.0 + 299.0 * t)
    if where == "far":
        if k > 0:
            return sf.r_bar * (1.0 - 10.0 ** (-15.0 + 14.0 * t))
        return (1.0 + 700.0 * t) / s if k < 0 else 10.0 ** (6.0 * t)
    if where == "cut":
        return math.sqrt(_SERIES_CUT / abs(k)) * (1.0 + 1e-3 * (t - 0.5)) if k else t
    return t * min(sf.r_bar, 10.0)


@given(k=st.one_of(st.floats(-5.0, -1e-12), st.just(0.0), st.floats(1e-12, 5.0)),
       n=st.integers(2, 6), where=st.sampled_from(["pole", "far", "cut", "middle"]),
       t=st.floats(0.0, 1.0))
# t = 0 lands on the series side of the cutover and t = 1 on the closed-form side
@example(k=1.0, n=3, where="cut", t=0.0)
@example(k=1.0, n=3, where="cut", t=1.0)
@example(k=-1.0, n=3, where="cut", t=0.0)
@example(k=-1.0, n=3, where="cut", t=1.0)
@settings(max_examples=400)
def test_cotk_is_dsk_over_sk_bitwise(k, n, where, t):
    """cot_k evaluates s_k'/s_k on its own; it must agree with the quotient
    of the two kernels to the last bit, on every branch."""
    sf = SpaceForm(n, k)
    r = _radius(sf, where, t)
    assume(0.0 < r < sf.r_bar)
    assert sf.cotk(r) == sf.dsk(r) / sf.sk(r)
    assert sf.coefficient(r) == (sf.n - 1) * sf.cotk(r)


@given(k=st.one_of(st.floats(-5.0, -1e-12), st.just(0.0), st.floats(1e-12, 5.0)),
       t=st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_cotk_range_errors(k, t):
    """SingularityError at r <= 0 and DomainError (not its pole subclass) at
    r >= r_bar, from cot_k and from the radial coefficient alike."""
    sf = SpaceForm(3, k)
    for fn in (sf.cotk, sf.coefficient):
        for r in (0.0, -0.0, -t, -5e-324):
            with pytest.raises(SingularityError):
                fn(r)
        far = [math.inf]
        if k > 0:
            far += [sf.r_bar, sf.r_bar * (1.0 + t), math.nextafter(sf.r_bar, math.inf)]
        for r in far:
            with pytest.raises(DomainError) as exc:
                fn(r)
            assert type(exc.value) is DomainError


def test_space_form_is_a_plain_value():
    """The kernels built at construction leave SpaceForm a value: equality,
    hash and repr come from (n, k) alone, copies and replacements rebuild
    their own kernels, and forms with another k never share one."""
    a, b, c = SpaceForm(3, 1.0), SpaceForm(3, 1), SpaceForm(3, 4.0)
    assert a == b and hash(a) == hash(b) and a != c
    assert len({a, b, c}) == 2
    assert repr(a) == f"SpaceForm(n=3, k=1.0, r_bar={math.pi!r})"
    assert repr(SpaceForm(2, -1.0)) == "SpaceForm(n=2, k=-1.0, r_bar=inf)"
    assert a.cotk is not c.cotk and a.coefficient is not c.coefficient
    assert a.cotk(0.5) != c.cotk(0.5)
    r = 0.7
    for other in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert other == c and repr(other) == repr(c)
        assert other.cotk(r) == c.cotk(r)
        assert other.coefficient(r) == c.coefficient(r)
    moved = dataclasses.replace(a, k=4.0)
    assert moved == c and moved.r_bar == c.r_bar
    assert moved.cotk(r) == c.cotk(r) and moved.cotk is not a.cotk
    assert dataclasses.replace(a, n=5).coefficient(r) == 4 * a.cotk(r)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.k = 4.0
