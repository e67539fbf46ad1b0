from dataclasses import replace
from unittest import mock

import pytest

from oracles import full_subspace_s
from ranksat import (BudgetExceeded, bounds_table, brute_force_s,
                     exact_values, gaussian_binomial, lower_bound,
                     saturation_radius, saturation_radius_geometric,
                     upper_bound, verify_published_rows)
from ranksat.bounds import brute_force_witness, upper_bound_table
from ranksat.cli import main as cli_main


def test_gaussian_binomial_basics():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3         # lines of F_2^2
    assert gaussian_binomial(4, 2, 2) == 35        # oracle in test_fqlinalg
    assert gaussian_binomial(2, 3, 2) == 0
    assert gaussian_binomial(5, 5, 3) == 1


def test_lower_bound_cases():
    assert lower_bound(3, 4, 3, 2).value == 4      # ceil(12/2) - 4 + 2
    assert lower_bound(2, 3, 4, 1).value == 3 * 3 + 1
    assert lower_bound(2, 2, 5, 1).value == 2 * 4 + 1
    assert lower_bound(2, 2, 2, 2).value == 2      # rho = k collapses
    assert lower_bound(5, 3, 3, 3).value == 3


def test_lower_bound_gaussian_part_can_bind():
    # at q=2, rho=2 the subspace count can exceed the closed form
    lb = lower_bound(2, 4, 4, 2)
    assert lb.value == max(
        -(-(4 * 4 - 1) // 2) - 4 + 2,
        min(n for n in range(2, 32)
            if gaussian_binomial(n, 2, 2) >= 2 ** (4 * 2)))


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        lower_bound(2, 2, 2, 3)


def test_upper_bound_rho1_tight():
    up = upper_bound(2, 4, 3, 1)
    assert up.value == 4 * 2 + 1 == lower_bound(2, 4, 3, 1).value


def test_upper_bound_subgeometry_beats_identity_block():
    for r in (2, 3):
        up = upper_bound(2, 2 * r, 2 * r, 2 * r - 1)
        assert up.value == 2 * r + 1 < 2 * r + 2 * r - 1


def test_upper_bound_cutting_chain():
    up = upper_bound(2, 6, 4, 3)                   # m = 2(k-1)
    assert up.value == 2 * 4 + 2 - 2 == 8
    assert "cutting-chain" in up.provenance


def test_upper_bound_published_8_dim_rows():
    assert upper_bound(2, 9, 4, 3).value == 8
    assert upper_bound(3, 9, 4, 3).value == 8
    assert upper_bound(2, 12, 4, 3).value == 8     # q = 2^1, odd exponent
    assert upper_bound(4, 12, 4, 3).value > 8      # q = 2^2 not covered


def test_upper_bound_rho_equals_k():
    assert upper_bound(3, 4, 3, 3).value == 3


def test_exact_values_rows():
    assert exact_values(5, 7, 4, 1).value == 7 * 3 + 1
    assert exact_values(3, 5, 4, 4).value == 4
    assert exact_values(2, 8, 3, 2).value == 6     # r = 4
    assert exact_values(2, 12, 3, 2).value == 8    # r = 6
    assert exact_values(2, 6, 3, 2) is None        # r = 3 fails every clause
    assert exact_values(3, 10, 3, 2).value == 7    # q odd, 3 mod 5
    assert exact_values(2, 10, 3, 2).value == 7    # q = 2^1, gcd(1,15) = 1
    assert exact_values(5, 10, 3, 2).value == 7    # q = 5^1
    assert exact_values(2, 4, 4, 3).value == 5     # s(2r, 2r-1), r = 2
    assert exact_values(3, 6, 6, 5).value == 7
    assert exact_values(2, 4, 3, 2) is None        # r = 2 matches nothing


def test_exact_values_rho_equals_m_row():
    """Every rank weight is at most m, so every spanning system is
    m-saturating and s(k, m) = k; the exhaustive search agrees."""
    assert exact_values(2, 2, 3, 2).value == brute_force_s(2, 2, 3, 2) == 3
    assert exact_values(2, 3, 4, 3).value == 4
    assert upper_bound(2, 2, 3, 2).value == 3


def test_closure_is_idempotent():
    t1 = upper_bound_table(2, 4, 8)
    t2 = upper_bound_table(2, 4, 8)
    assert {c: v.value for c, v in t1.items()} == \
        {c: v.value for c, v in t2.items()}


def test_closure_never_undercuts_lower_bound():
    for q, m in ((2, 3), (3, 4), (2, 6)):
        table = upper_bound_table(q, m, 8)
        for (k, rho), up in table.items():
            assert lower_bound(q, m, k, rho).value <= up.value, (q, m, k, rho)


def test_sum_rule_consistency():
    # s(t*s*h, t*s) <= t * s(s*h, s) wherever the grid carries both sides
    for q, m in ((2, 6), (3, 8)):
        table = upper_bound_table(q, m, 12)
        for t in (2, 3):
            for s in range(1, m + 1):
                for h in (1, 2):
                    big = (t * s * h, t * s)
                    small = (s * h, s)
                    if big in table and small in table:
                        assert table[big].value <= t * table[small].value


def test_bounds_table_entries_validate():
    entries = bounds_table(3, 4, 6)
    assert all(e.lower <= e.upper for e in entries)
    assert any(e.exact is not None for e in entries)


@pytest.mark.parametrize("q, m, match", [(6, 4, "not a prime power"),
                                          (1, 4, "must be >= 2"),
                                          (2, 0, "m >= 1")])
def test_bounds_table_rejects_invalid_field(q, m, match):
    # m = 0 builds no cell, so the table itself must validate
    with pytest.raises(ValueError, match=match):
        bounds_table(q, m, 3)
    with pytest.raises(ValueError, match=match):
        lower_bound(q, m, 2, 1)


def test_verify_published_rows_clean_grid():
    assert verify_published_rows() == []


def test_verify_published_rows_reports_a_broken_sandwich(capsys):
    """A lower bound above the upper bound at one cell is one diff naming
    that cell, and `bounds --verify-paper` prints it and fails."""
    def raised(q, m, k, rho):
        lo = lower_bound(q, m, k, rho)
        return (replace(lo, value=lo.value + 100)
                if (q, m, k, rho) == (2, 4, 3, 2) else lo)

    with mock.patch("ranksat.bounds.lower_bound", raised):
        diffs = verify_published_rows()
        assert cli_main(["bounds", "--verify-paper"]) == 1
    cell = "bound sandwich violated at (q=2,m=4,k=3,rho=2): 104 > 6"
    assert diffs == [cell]
    out = capsys.readouterr().out
    assert f"DIFF {cell}" in out and "FAIL (1 diffs)" in out


def test_brute_force_s_small():
    assert brute_force_s(2, 2, 2, 1) == 3
    assert brute_force_s(2, 2, 2, 2) == 2


def test_brute_force_monotone_in_rho():
    assert brute_force_s(2, 2, 2, 2) <= brute_force_s(2, 2, 2, 1)


def test_brute_force_matches_sandwich():
    n = brute_force_s(2, 2, 2, 1)
    assert lower_bound(2, 2, 2, 1).value <= n <= upper_bound(2, 2, 2, 1).value
    assert n == lower_bound(2, 2, 2, 1).value == 3


def test_brute_force_budget_refusal():
    with pytest.raises(BudgetExceeded, match="subspaces"):
        brute_force_s(2, 3, 3, 1, budget=50)


@pytest.mark.parametrize("q,m,k,rho", [
    (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 3, 1), (2, 2, 3, 2), (3, 2, 2, 1),
    (3, 2, 2, 2), (2, 3, 2, 1), (2, 3, 2, 2), (4, 2, 2, 1)])
def test_brute_force_matches_full_subspace_oracle(q, m, k, rho):
    """The search over F_q^k + W finds the s of the search over every
    subspace of F_q^{mk}."""
    assert brute_force_s(q, m, k, rho) == full_subspace_s(q, m, k, rho)


@pytest.mark.parametrize("q,m,k,rho,s", [
    (2, 3, 3, 2, 4), (2, 3, 4, 2, 5), (2, 4, 3, 2, 5), (2, 4, 2, 1, 5),
    (3, 3, 2, 1, 4)])
def test_brute_force_settles_open_cells(q, m, k, rho, s):
    """Cells the bound table leaves open (or beyond the full-subspace
    search): the least witness lies in the sandwich and both radius
    routes measure it at <= rho."""
    witness = brute_force_witness(q, m, k, rho)
    assert witness.n == s
    assert lower_bound(q, m, k, rho).value <= s <= upper_bound(q, m, k,
                                                               rho).value
    radius = saturation_radius(witness)[0]
    assert radius <= rho
    assert saturation_radius_geometric(witness) == radius


def test_brute_force_refusal_reads_in_dimensions():
    """n = 5 at (2, 3, 3, 1) needs [6 2]_2 = 651 subspaces; the syndrome
    space 8^3 = 512 fits."""
    with pytest.raises(BudgetExceeded, match="651 subspaces") as exc:
        brute_force_s(2, 3, 3, 1, budget=600)
    assert "512" in str(exc.value) and exc.value.completed_level == 4
    # at n = 4 a candidate's sweep charges 1 + [4 1]_2 8 + [4 2]_2 64
    with pytest.raises(BudgetExceeded, match="n=4: a candidate") as exc:
        brute_force_s(2, 3, 3, 2, budget=2000)
    assert "2361" in str(exc.value) and exc.value.completed_level == 3


def test_measured_radii_consistent_with_table():
    from ranksat import (construct_identity_block, construct_subgeometry,
                         make_tower, saturation_radius_geometric)
    cases = [(construct_identity_block(make_tower(2, 2), 3, 2), 2, 2),
             (construct_subgeometry(make_tower(2, 4), 2, 2, 1), 2, 4)]
    for sysm, q, m in cases:
        rho = saturation_radius_geometric(sysm)
        assert sysm.n >= lower_bound(q, m, sysm.k, rho).value
