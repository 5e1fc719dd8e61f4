"""Clock, coin oracle and parameter validation."""

import pytest

from corsim.env import (
    CoinOracle,
    Params,
    clock_read,
    derive_kappa,
    make_params,
    params_validate,
    rcc_draw,
)


def test_clock_identity_case():
    assert clock_read(0, 5) == 0


def test_clock_modular():
    assert clock_read(9, 5) == 4


def test_clock_full_cycle_wraps():
    assert clock_read(7, 7) == 0


def test_clock_rejects_zero_kappa():
    with pytest.raises(ValueError):
        clock_read(3, 0)


def test_clock_same_for_all_nodes():
    # pure function of (round, kappa): any two observers agree by construction
    for r in range(40):
        assert clock_read(r, 6) == clock_read(r, 6)


def test_coin_deterministic():
    assert rcc_draw(12, seed=99) == rcc_draw(12, seed=99)


def test_coin_sequence_replayable():
    seq1 = [rcc_draw(r, seed=5) for r in range(200)]
    seq2 = [CoinOracle(5).draw(r) for r in range(200)]
    assert seq1 == seq2


def test_coin_unbiased_frequency():
    draws = [rcc_draw(r, seed=1) for r in range(10_000)]
    frac = sum(draws) / len(draws)
    assert 0.45 <= frac <= 0.55


def test_coin_varies_across_rounds():
    bits = {rcc_draw(r, seed=3) for r in range(64)}
    assert bits == {0, 1}


def test_coin_oracle_draws_the_round_bit():
    oracle = CoinOracle(7)
    assert [oracle.draw(r) for r in range(32)] == [rcc_draw(r, seed=7) for r in range(32)]


def test_derive_kappa_floor():
    assert derive_kappa(1, 3) == 5
    assert derive_kappa(4, 2) == 5
    assert derive_kappa(1, 7) == 7


class TestParamsValidate:
    def test_reference_params_ok(self):
        p = Params(n=4, t=1, kappa=5, index_num=8, log_size=3, seed=0)
        assert params_validate(p).violations == []

    def test_n_below_3t_plus_1(self):
        p = Params(n=3, t=1, kappa=5, index_num=8, log_size=3)
        report = params_validate(p)
        assert any("3t+1" in v for v in report.violations)

    def test_log_size_exceeds_index_num(self):
        p = Params(n=4, t=1, kappa=5, index_num=4, log_size=3)
        report = params_validate(p)
        assert any("log_size" in v for v in report.violations)

    def test_kappa_floor(self):
        p = Params(n=4, t=1, kappa=4, index_num=8, log_size=3)
        assert any("kappa >= 5" in v for v in params_validate(p).violations)

    def test_kappa_must_fit_processing_window(self):
        p = Params(n=16, t=5, kappa=6, index_num=8, log_size=3)
        assert any("t+2" in v for v in params_validate(p).violations)

    def test_phase_overlap_is_warning_not_violation(self):
        p = make_params(4, 1, 3, 8)
        report = params_validate(p)
        assert report.violations == []
        assert any("t+5" in w for w in report.warnings)

    def test_violations_accumulate(self):
        p = Params(n=2, t=1, kappa=3, index_num=4, log_size=3)
        report = params_validate(p)
        assert len(report.violations) >= 3
