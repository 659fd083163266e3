import math

import numpy as np
import pytest

from radcomp import SpaceForm
from radcomp.errors import DomainError
from radcomp.nonlinearity import (ConditionResult, Nonlinearity, affine, allen_cahn, bratu,
                                  check_derivative_bound,
                                  check_standard_conditions,
                                  check_tau_monotonicity_condition, condition_grid,
                                  constant, from_cli_spec, from_descriptor,
                                  lane_emden, polynomial, serrin_fk)


def test_builtin_values():
    f = serrin_fk(3, -1.0)
    assert f(0.1) == pytest.approx(-0.3 + 1.0)
    assert f.d(5.0) == -3.0
    assert f.sup_if == pytest.approx(1.0 / 3.0)
    assert affine(2.0, 0.5)(1.0) == 2.5
    assert lane_emden(2.0)(-2.0) == pytest.approx(-8.0)
    assert allen_cahn(3.0)(0.5) == pytest.approx(0.5 - 0.125)
    assert allen_cahn(3.0).sup_if == 1.0
    assert bratu(2.0)(0.0) == 2.0
    assert polynomial([1.0, 0.0, 2.0])(3.0) == pytest.approx(1 + 18.0)


def test_family_derivatives_match_central_differences():
    """Every built-in family's f' agrees with central differences of f to
    1e-6 max(1, |f'|) across its condition grid."""
    for f in (serrin_fk(3, 1.0), affine(-0.25, 2.5), lane_emden(2.0),
              allen_cahn(3.0), bratu(0.5), constant(2.0), polynomial([1, 1, 1])):
        for x in condition_grid(f, npoints=257)[1:-1:16]:
            h = 1e-6 * max(1.0, abs(x))
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            assert abs(fd - f.d(x)) <= 1e-6 * max(1.0, abs(f.d(x))), (f.name, x)


def test_standard_conditions_serrin_always():
    for n in (2, 3, 5):
        for k in (-2.0, -1.0, 0.0, 1.0, 3.0):
            sf = SpaceForm(n, k)
            res = check_standard_conditions(serrin_fk(n, k), sf)
            assert res.ok, (n, k, res.message)


def test_standard_conditions_zero_function_fails():
    sf = SpaceForm(3, 0.0)
    res = check_standard_conditions(constant(0.0), sf)
    assert not res.ok
    assert res.witness is not None


def test_standard_conditions_nkx_fails_for_negative_k():
    # f(x) = n k x with k < 0: f(0) = 0 violates the positivity requirement
    n, k = 3, -1.0
    f = polynomial([0.0, n * k])
    res = check_standard_conditions(f, SpaceForm(n, k))
    assert not res.ok


def test_affine_derivative_bound_iff_lam_ge_nk():
    sf = SpaceForm(3, 1.0)
    assert check_derivative_bound(affine(3.0, 1.0), sf).ok
    assert check_derivative_bound(affine(3.5, 1.0), sf).ok
    res = check_derivative_bound(affine(2.5, 1.0), sf)
    assert not res.ok and res.witness is not None


def test_bratu_derivative_bound():
    # f' = 2 kappa e^{2x} >= n k near 0 iff 2 kappa >= n k
    sf = SpaceForm(3, 1.0)
    grid = np.linspace(0.01, 0.5, 101)
    assert check_derivative_bound(bratu(1.6), sf, grid).ok        # 3.2 e^{2x} >= 3
    assert not check_derivative_bound(bratu(1.0), sf, grid).ok    # 2 e^{0.02} < 3


def test_serrin_derivative_bound_equality():
    sf = SpaceForm(4, -2.0)
    assert check_derivative_bound(serrin_fk(4, -2.0), sf).ok


def test_tau_monotonicity_condition():
    assert check_tau_monotonicity_condition(serrin_fk(3, 1.0)).ok   # f - x f' = 1
    assert check_tau_monotonicity_condition(constant(1.0)).ok
    res = check_tau_monotonicity_condition(lane_emden(2.0),
                                           np.linspace(0.01, 1.0, 64))
    assert not res.ok


def test_condition_ok_is_read_from_its_witness():
    res = check_derivative_bound(affine(2.5, 1.0), SpaceForm(3, 1.0))
    assert res.witness is not None and not res.ok and not res
    with pytest.raises(AttributeError):
        res.ok = True
    assert ConditionResult(None, "holds").ok


def test_nan_slack_is_a_violation():
    """A sample where f or f' is NaN satisfies no inequality, so it is the
    witness of every check."""
    f = Nonlinearity("nanf", lambda x: math.nan, lambda x: math.nan)
    sf = SpaceForm(3, 1.0)
    grid = condition_grid(f)
    for res in (check_standard_conditions(f, sf), check_derivative_bound(f, sf),
                check_tau_monotonicity_condition(f)):
        assert not res.ok and res.witness == grid[0]


def test_violation_persists_under_refinement():
    sf = SpaceForm(3, 1.0)
    coarse = np.linspace(0.05, 2.0, 9)
    fine = np.unique(np.concatenate([coarse, np.linspace(0.05, 2.0, 257)]))
    f = affine(2.0, 1.0)  # fails f' >= nk = 3
    r1 = check_derivative_bound(f, sf, coarse)
    r2 = check_derivative_bound(f, sf, fine)
    assert not r1.ok and not r2.ok
    assert r1.witness in fine


def test_condition_grid_is_interior():
    f = allen_cahn(3.0)
    g = condition_grid(f)
    assert len(g) == 2049
    assert g.min() > 0.0 and g.max() < f.sup_if


def test_empty_grid_rejected():
    with pytest.raises(DomainError):
        check_standard_conditions(constant(1.0), SpaceForm(2, 0.0), np.array([]))


def test_descriptor_roundtrip():
    f = from_descriptor({"family": "affine", "params": {"lam": -0.25, "beta": 2.5}})
    assert f(1.0) == pytest.approx(2.25)
    f2 = from_descriptor({"family": "allen_cahn", "params": {"p": 3.0},
                          "I_f": [0, 0.75]})
    assert f2.sup_if == 0.75
    with pytest.raises(DomainError):
        from_descriptor({"family": "nope"})
    with pytest.raises(DomainError):
        from_descriptor({"family": "affine", "params": {"lam": 1.0}, "bogus": 1})
    with pytest.raises(DomainError):
        from_descriptor({"family": "affine", "params": {"lam": 1.0, "zeta": 2.0}})
    with pytest.raises(DomainError):
        from_descriptor({"family": "affine", "params": {"lam": 1.0, "beta": 2.0},
                         "I_f": [0.5, 2.0]})


def test_cli_spec_parsing():
    assert from_cli_spec("constant:1")(123.0) == 1.0
    assert from_cli_spec("affine:-0.25,2.5")(0.0) == 2.5
    sf = SpaceForm(3, -1.0)
    f = from_cli_spec("serrin", sf)
    assert f(0.0) == 1.0 and f.d(0.0) == -3.0
    assert from_cli_spec("polynomial:1,0,2")(2.0) == pytest.approx(9.0)
    with pytest.raises(DomainError):
        from_cli_spec("mystery:1")
    with pytest.raises(DomainError):
        from_cli_spec("serrin")  # needs the ambient data
