"""Every public figure function reads a CPInstrument straight from its
Kraus operators, and agrees with the same function on dilate(inst), the
measuring process that realizes it: flags equal, floats within 1e-12 of
the operator scale. Only the strong precision face needs a unitary, so
only it dilates an instrument, once, and only when the weak face holds.
The figures and flags do not change with the representation: a Kraus
gauge or a system unitary leaves them equal within the same bound, and an
affine relabelling of the outcomes and A scales those with the units of A."""

import dataclasses

import numpy as np
import pytest

import qmeasure as qm
from qmeasure import jpd
from helpers import P0, P1

TOL = 1e-12
GAP = 1e-10  # below the slack 1e-9 of max|outcome| = 1, so the two outcomes cluster


def random_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for d in (2, 3, 4, 5):
        a, b = qm.random_hermitian(d, rng), qm.random_hermitian(d, rng)
        rho = qm.random_density_operator(d, rng)
        cases.append((f"random-{d}", qm.random_cp_instrument(d, 3, rng, max_kraus_per_outcome=3),
                      a, b, rho))
        many = qm.random_cp_instrument(d, 2, rng, max_kraus_per_outcome=d * d)
        cases.append((f"many-kraus-{d}", many, a, b, rho))
        # a mixed probe of rank d gives each outcome d * (its multiplicity) operators
        mp = qm.random_measuring_process(d, d, rng, pure_probe=False)
        cases.append((f"full-rank-{d}", qm.instrument_from_process(mp), a, b, rho))
        cases.append((f"luders-{d}", qm.luders_instrument(a), a, b, rho))
    return cases


A01 = np.diag([0.0, 1.0]).astype(complex)
A02 = np.diag([0.0, 2.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PLUS = qm.DensityOperator.pure([1.0, 1.0])
MIXED = qm.DensityOperator(np.array([[0.7, 0.2], [0.2, 0.3]]))

# an outcome without Kraus operators: dilate gives it no meter value
EMPTY = qm.CPInstrument([0.0, 1.0, 2.0], [[P0], [], [P1]])
# two outcomes closer than the slack of max|outcome|: dilate's meter merges them
NEAR = qm.CPInstrument([0.0, 1.0, 1.0 + GAP], [[P0], [P1 / np.sqrt(2)], [P1 / np.sqrt(2)]])

CASES = random_cases() + [
    ("empty-outcome-precise", EMPTY, A02, SX, MIXED),
    ("empty-outcome", EMPTY, SX, A02, PLUS),
    ("near-outcomes-precise", NEAR, A01, SX, MIXED),
    ("near-outcomes", NEAR, SX, A01, PLUS),
]

# each public figure function as (source, A, B, rho) -> its result
FIGURES = {
    "edr_ledger": lambda src, a, b, rho: qm.edr_ledger(src, a, b, rho),
    "rms_error": lambda src, a, b, rho: qm.rms_error(src, a, rho),
    "rms_disturbance": lambda src, a, b, rho: qm.rms_disturbance(src, b, rho),
    "mean_noise_operator": lambda src, a, b, rho: qm.mean_noise_operator(src, a),
    "mean_disturbance_operator": lambda src, a, b, rho: qm.mean_disturbance_operator(src, b),
    "noise_moment_operator": lambda src, a, b, rho: qm.noise_moment_operator(src, a),
    "disturbance_moment_operator": lambda src, a, b, rho: qm.disturbance_moment_operator(src, b),
    "locally_uniform_rms_error": lambda src, a, b, rho: qm.locally_uniform_rms_error(src, a, rho),
    "locally_uniform_rms_disturbance":
        lambda src, a, b, rho: qm.locally_uniform_rms_disturbance(src, b, rho),
    "weak_joint_distribution": lambda src, a, b, rho: qm.weak_joint_distribution(src, a, rho),
    "is_precise_weak": lambda src, a, b, rho: qm.theorem2_check(src, a, rho).weak_precise,
    "is_precise_strong": lambda src, a, b, rho: qm.is_precise(src, a, rho),
    "is_nondisturbing": lambda src, a, b, rho: qm.is_nondisturbing(src, b, rho),
    "probability_reproducible": lambda src, a, b, rho: qm.probability_reproducible(src, a, rho),
    "theorem2_check": lambda src, a, b, rho: qm.theorem2_check(src, a, rho),
}


def merged_weights(jd: qm.JointDistribution, atoms: np.ndarray, tol) -> np.ndarray:
    """jd's weights summed into the given y atoms, each of jd's y atoms going
    to the atom it clusters with; a y atom that clusters with none must
    carry zero weight."""
    labels = qm.operators._cluster_labels(np.concatenate([atoms, jd.y_atoms]), tol)
    out = np.zeros((len(jd.x_atoms), len(atoms)), dtype=complex)
    for col, label in zip(jd.weights.T, labels[len(atoms):]):
        hit = np.flatnonzero(labels[:len(atoms)] == label)
        if len(hit):
            out[:, hit[0]] += col
        else:
            assert np.abs(col).max() <= TOL
    return out


def flat(result) -> list:
    """The fields of a report, or the one result, as a list."""
    return list(dataclasses.astuple(result)) if dataclasses.is_dataclass(result) else [result]


@pytest.mark.parametrize("name", FIGURES)
@pytest.mark.parametrize("inst, a, b, rho", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_instrument_figure_matches_its_dilation(name, inst, a, b, rho):
    got = FIGURES[name](inst, a, b, rho)
    want = FIGURES[name](qm.dilate(inst), a, b, rho)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max())) ** 2
    # the dilated meter reports a merged outcome at the mean of the two it
    # merges, so a noise figure can move by about the gap between them
    slack = TOL * scale + (GAP * scale if inst is NEAR else 0.0)
    if isinstance(got, qm.JointDistribution):
        assert np.array_equal(got.x_atoms, want.x_atoms)
        assert np.abs(merged_weights(got, want.y_atoms, inst.tol) - want.weights).max() <= slack
        return
    for g, w in zip(flat(got), flat(want)):
        if isinstance(g, bool):
            assert g == w
        else:
            assert np.abs(np.asarray(g) - w).max() <= slack


def test_instrument_atoms_are_its_own_outcomes():
    # the instrument reports every outcome it has, one without operators
    # (at zero weight) and both of a near pair included; its dilation
    # reports the values its meter has: 0 and 2 for EMPTY, 0 and the mean
    # 1 + GAP/2 of the merged pair for NEAR
    for inst, a, rho, dilated in ((EMPTY, A02, MIXED, [0.0, 2.0]),
                                  (NEAR, A01, MIXED, [0.0, 1.0 + GAP / 2])):
        jd = qm.weak_joint_distribution(inst, a, rho)
        assert tuple(jd.y_atoms.tolist()) == inst.outcomes
        atoms = qm.weak_joint_distribution(qm.dilate(inst), a, rho).y_atoms
        assert np.abs(atoms - dilated).max() <= 1e-15
    assert np.abs(qm.weak_joint_distribution(EMPTY, A02, MIXED).weights[:, 1]).max() == 0.0


@pytest.mark.parametrize("inst, a, rho, dilations", [
    (qm.luders_instrument(A01), A01, MIXED, 1),  # weakly precise: the strong face dilates
    (qm.luders_instrument(SX), A01, MIXED, 0),  # not weakly precise: nothing to dilate
    (NEAR, A01, MIXED, 1),
])
def test_strong_face_dilates_once_and_only_when_weak_holds(monkeypatch, inst, a, rho, dilations):
    calls = []

    def counting(instrument):
        calls.append(instrument)
        return qm.dilate(instrument)

    monkeypatch.setattr(jpd, "dilate", counting)
    report = qm.theorem2_check(inst, a, rho)
    assert report.consistent and report.strong_precise == bool(dilations)
    assert calls == [inst] * dilations
    del calls[:]
    qm.edr_ledger(inst, a, SX, rho)
    qm.weak_joint_distribution(inst, a, rho)
    qm.locally_uniform_rms_error(inst, a, rho)
    assert calls == []


def kraus_gauge(inst: qm.CPInstrument, rng) -> qm.CPInstrument:
    """The same instrument from other Kraus families: each outcome's family
    padded with a zero operator and mixed by a Haar unitary."""
    families = []
    for fam in inst.kraus:
        padded = np.concatenate([fam, np.zeros((1,) + fam.shape[1:])])
        families.append(np.einsum("ij,jab->iab", qm.haar_unitary(len(padded), rng), padded))
    return qm.CPInstrument(inst.outcomes, families, tol=inst.tol)


def system_unitary(inst: qm.CPInstrument, a, b, rho, rng) -> tuple:
    """The scenario in another basis: V X V+ for A, B, rho and every K_j."""
    v = qm.haar_unitary(inst.dim, rng)
    vd = qm.dagger(v)
    return (qm.CPInstrument(inst.outcomes, [v @ fam @ vd for fam in inst.kraus], tol=inst.tol),
            *(v @ x.matrix @ vd for x in (a, b, rho)))


def affine_relabelling(alpha: float, beta: float = 0.5):
    """The change of scenario x -> alpha x + beta of the outcomes, with A -> alpha A + beta."""
    def change(inst, a, b, rho, rng):
        return (qm.CPInstrument([alpha * x + beta for x in inst.outcomes], inst.kraus, tol=inst.tol),
                alpha * a.matrix + beta * np.eye(inst.dim), b, rho)
    return change


# each change of scenario, and the factor by which it scales the figures of
# invariant_figures: all 1 but for an affine relabelling, which scales all
# but eta and sigma_B by |alpha|
CHANGES = {
    "kraus_gauge": (lambda inst, a, b, rho, rng: (kraus_gauge(inst, rng), a, b, rho), 1.0),
    "system_unitary": (system_unitary, 1.0),
    **{f"affine_{alpha}": (affine_relabelling(alpha),
                           np.array([abs(alpha), 1.0, abs(alpha), 1.0] + [abs(alpha)] * 5))
       for alpha in (-2.5, 0.3)},
}


def invariant_figures(inst, a, b, rho) -> tuple:
    """(epsilon, eta, sigma_A, sigma_B, Robertson, correlation term, and the
    three left-hand sides), and every EDR and precision flag."""
    rep = qm.edr_ledger(inst, a, b, rho)
    floats = (rep.epsilon, rep.eta, rep.sigma_a, rep.sigma_b, rep.robertson, rep.correlation_term,
              rep.heisenberg_product, rep.uedr_lhs, rep.oedr_lhs)
    flags = (rep.heisenberg_holds, rep.uedr_holds, rep.oedr_holds) + qm.theorem2_check(inst, a, rho).flags()
    return np.array(floats), flags


@pytest.mark.parametrize("change", CHANGES)
def test_figures_do_not_depend_on_the_representation(change):
    # 150 random instruments (d 2..5, 2-3 outcomes, up to 3 Kraus operators
    # each) and the Lüders instrument of A, whose precision flags hold
    rng = np.random.default_rng(28)
    make, factor = CHANGES[change]
    for draw in range(150):
        d = int(rng.integers(2, 6))
        a, b = qm.random_hermitian(d, rng), qm.random_hermitian(d, rng)
        rho = qm.random_density_operator(d, rng)
        inst = (qm.luders_instrument(a) if draw % 4 == 0 else
                qm.random_cp_instrument(d, int(rng.integers(2, 4)), rng, max_kraus_per_outcome=3))
        floats, flags = invariant_figures(inst, a, b, rho)
        got_floats, got_flags = invariant_figures(*make(inst, a, b, rho, rng))
        scale = max(1.0, float(np.abs(a.matrix).max()), float(np.abs(b.matrix).max())) ** 2
        assert np.abs(got_floats - factor * floats).max() <= TOL * scale
        assert got_flags == flags
