"""End-to-end acceptance checks.

Each test prints one "criterion NN PASS/FAIL" line (visible with pytest -s)
and then asserts the same flag, so the printed verdict always matches the
test outcome. Everything here runs on small dimensions (<= 8) with bounded
trial counts so the whole file stays fast.
"""

import numpy as np
import pytest

import qmeasure as qm
from helpers import KET_PLUS, SZ, dilated_luders, independent_meter_process

from test_gaussian import random_admissible_state


def _verdict(num: int, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def universality_census():
    census, _ = qm.run_sweep(dims=(2, 4), trials=1000, seed=904)
    return census


def test_criterion_01_kennard_saturation():
    rng = qm.rng_from(901)
    ok = True
    for _ in range(100):
        q1 = float(np.exp(rng.uniform(-1.5, 1.5)))
        st = qm.min_uncertainty_packet(float(rng.normal()), float(rng.normal()), q1)
        ok = ok and abs(st.sigma_q * st.sigma_p - 0.5) <= 1e-12
    _verdict(1, ok)


def test_criterion_02_von_neumann_position_edr():
    model = qm.build_model(qm.VON_NEUMANN)
    rng = qm.rng_from(902)
    ok = True
    for _ in range(100):
        obj = random_admissible_state(rng)
        probe = random_admissible_state(rng)
        r = qm.model_edr(model, obj, probe)
        ok = ok and r.product >= 0.5 - 1e-12
    # minimum-uncertainty zero-mean probe saturates the bound
    probe0 = qm.min_uncertainty_packet(0.0, 0.0, 1.3)
    r0 = qm.model_edr(model, random_admissible_state(rng), probe0)
    ok = ok and abs(r0.product - 0.5) <= 1e-10
    _verdict(2, ok)


def test_criterion_03_zero_error_model_breaks_product_bound():
    model = qm.build_model(qm.OZAWA_1988)
    rng = qm.rng_from(903)
    ok = True
    for _ in range(100):
        obj = random_admissible_state(rng)
        probe = random_admissible_state(rng)
        r = qm.model_edr(model, obj, probe)
        ok = ok and r.epsilon == 0.0 and r.product == 0.0 and r.product < 0.5
        ok = ok and r.heisenberg_violated
        # the disturbance-only bound still holds
        ok = ok and obj.sigma_q * r.eta >= 0.5 - 1e-10
    _verdict(3, ok)


def test_criterion_04_universal_relations_sweep(universality_census):
    census = universality_census
    ok = census.trials >= 1000
    ok = ok and census.uedr_failures == 0
    ok = ok and census.oedr_failures == 0
    # uncoupled interactions must expose the naive product bound as breakable
    idc, _ = qm.run_sweep(dims=(2, 3), trials=60, seed=941, interaction="identity")
    ok = ok and idc.heisenberg_violations >= 1
    _verdict(4, ok)


def test_criterion_05_precision_flag_equivalence():
    rng = qm.rng_from(905)
    ok = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 4))
        mp = qm.random_measuring_process(d, dk, rng)
        a = qm.random_hermitian(d, rng)
        rho = qm.random_density_operator(d, rng)
        ok = ok and qm.theorem2_check(mp, a, rho).consistent
    plus = qm.DensityOperator.pure(KET_PLUS)
    pos = qm.theorem2_check(dilated_luders(SZ), SZ, plus)
    ok = ok and pos.consistent and all(pos.flags())
    neg = qm.theorem2_check(independent_meter_process(SZ, plus), SZ, plus)
    ok = ok and neg.consistent and not any(neg.flags())
    _verdict(5, ok)


def test_criterion_06_reproducible_but_imprecise_counterexample():
    rho = qm.DensityOperator.pure(KET_PLUS)
    mp = independent_meter_process(SZ, rho)
    ok = bool(qm.probability_reproducible(mp, SZ, rho))
    ok = ok and not qm.is_precise(mp, SZ, rho)
    ok = ok and not qm.theorem2_check(mp, SZ, rho).weak_precise
    a0 = qm.tensor(SZ, np.eye(mp.probe_dim))
    jd = qm.joint_distribution(a0, mp.evolved_meter(), mp.composite_state(rho))
    target = np.sqrt(2.0) * qm.std_dev(SZ, rho)
    ok = ok and abs(qm.gauss_rms(jd) - target) <= 1e-8
    _verdict(6, ok)


def test_criterion_07_commuting_case_agreement():
    ok = True
    checked = 0
    for trial in range(120):
        rng = qm.rng_from(907, trial)
        d = int(rng.integers(2, 5))
        dk = int(rng.integers(2, 4))
        mp = qm.random_measuring_process(d, dk, rng, interaction="identity")
        a = qm.random_hermitian(d, rng)
        rho = qm.random_density_operator(d, rng)
        a0 = qm.tensor(a, np.eye(dk))
        comp = mp.composite_state(rho)
        if not qm.commute_in_state(a0, mp.evolved_meter(), comp):
            continue
        checked += 1
        jd = qm.joint_distribution(a0, mp.evolved_meter(), comp)
        ok = ok and abs(qm.gauss_rms(jd) - qm.rms_error(mp, a, rho)) <= 1e-8
    ok = ok and checked >= 100
    _verdict(7, ok)


def test_criterion_08_dilation_round_trip():
    rng = qm.rng_from(908)
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 4))
        inst = qm.random_cp_instrument(d, n_out, rng)
        back = qm.instrument_from_process(qm.dilate(inst))
        ok = ok and qm.instrument_choi_distance(inst, back) <= 1e-8
    _verdict(8, ok)


def test_criterion_09_locally_uniform_relation(universality_census):
    ok = universality_census.lu_oedr_failures == 0
    # the zero-error linear model keeps epsilon (hence its sup over vector
    # states) identically zero while the product bound fails
    model = qm.build_model(qm.OZAWA_1988)
    rng = qm.rng_from(909)
    for _ in range(50):
        r = qm.model_edr(model, random_admissible_state(rng),
                         random_admissible_state(rng))
        ok = ok and r.epsilon == 0.0 and r.product == 0.0 and r.product < 0.5
    _verdict(9, ok)


def test_criterion_10_narrow_probe_born_limit():
    model = qm.build_model(qm.VON_NEUMANN)
    obj = qm.min_uncertainty_packet(0.3, 0.0, 1.2)
    grid = np.linspace(-5.0, 6.0, 2001)
    born = qm.position_density(obj, grid)
    gaps = []
    for var in (1.0, 0.1, 0.01, 0.001):
        probe = qm.min_uncertainty_packet(0.0, 0.0, float(np.sqrt(2.0 * var)))
        dens = qm.output_distribution(model, obj, probe, grid)
        gaps.append(float(np.abs(dens - born).max()))
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = ok and gaps[-1] <= 1e-2 * float(born.max())
    _verdict(10, ok)
