"""Independent reference formulas for the figures qmeasure reports.

Plain numpy only; nothing here imports qmeasure. Every finite report is
recomputed in the Heisenberg picture on the system alone. A process
(U, rho0, M) or an instrument (outcomes, Kraus families) is reduced to
three system operators:

    F = Tr_p[M(dt) (1 x rho0)]           first meter moment,  sum_m m Pi_m
    G = Tr_p[M(dt)^2 (1 x rho0)]         second meter moment, sum_m m^2 Pi_m
    phi*(X) = Tr_p[U+ (X x 1) U (1 x rho0)] = sum_k K_k+ X K_k

and the ledger follows from the source paper's definitions:

    eps^2 = <G> - 2 Re<F A> + <A^2>
    eta^2 = <phi*(B^2)> - 2 Re<phi*(B) B> + <B^2>
    n(A) = F - A,  d(B) = phi*(B) - B
    correlation = |<[n(A), B] + [A, d(B)]>|,  Robertson = |<[A, B]>| / 2

This is a different numerical path from the library, which squares the
noise and disturbance operators on the composite space.
"""

from __future__ import annotations

import math

import numpy as np

# Report values are compared within RTOL times the operator scale of the
# quantity: ||A|| for epsilon and sigma_A, ||B|| for eta and sigma_B, and
# ||A|| ||B|| for every product-like figure.
RTOL = 1e-6
# The library's inequality flags use this absolute slack.
FLAG_SLACK = 1e-8
# Gaussian models: violated means product < hbar/2 - GAUSS_SLACK.
GAUSS_SLACK = 1e-12

EDR_FIELDS = ("epsilon", "eta", "sigma_a", "sigma_b", "robertson", "correlation_term",
              "heisenberg_product", "uedr_lhs", "oedr_lhs")
EDR_FLAGS = (("heisenberg_holds", "heisenberg_product"), ("uedr_holds", "uedr_lhs"),
             ("oedr_holds", "oedr_lhs"))


def herm(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def ev(x: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(x @ rho))


def _probe_average(z: np.ndarray, ds: int, rho0: np.ndarray) -> np.ndarray:
    """Tr_p[z (1 x rho0)] for z on system x probe."""
    dp = rho0.shape[0]
    t = (z @ np.kron(np.eye(ds), rho0)).reshape(ds, dp, ds, dp)
    return herm(np.einsum("ajbj->ab", t))


def process_moments(u, rho0, meter, ds: int):
    """(F, G, phi*) of a measuring process, from the composite operators."""
    u, rho0, meter = np.asarray(u), herm(np.asarray(rho0)), herm(np.asarray(meter))
    dp = rho0.shape[0]
    m_dt = u.conj().T @ np.kron(np.eye(ds), meter) @ u
    f = _probe_average(m_dt, ds, rho0)
    g = _probe_average(m_dt @ m_dt, ds, rho0)

    def phi_star(x):
        return _probe_average(u.conj().T @ np.kron(x, np.eye(dp)) @ u, ds, rho0)

    return f, g, phi_star


def instrument_moments(outcomes, kraus):
    """(F, G, phi*) of a CP instrument, from its Kraus families."""
    effects = [sum(k.conj().T @ k for k in ops) for ops in kraus]
    f = herm(sum(m * e for m, e in zip(outcomes, effects)))
    g = herm(sum(m * m * e for m, e in zip(outcomes, effects)))
    flat = [k for ops in kraus for k in ops]

    def phi_star(x):
        return herm(sum(k.conj().T @ x @ k for k in flat))

    return f, g, phi_star


def _spread(a: np.ndarray, rho: np.ndarray) -> float:
    c = a - ev(a, rho).real * np.eye(a.shape[0])
    return math.sqrt(max(ev(c @ c, rho).real, 0.0))


def edr_oracle(moments, a, b, rho) -> dict:
    """Every number and flag of an EDR report, from (F, G, phi*) and A, B, rho."""
    f, g, phi_star = moments
    a, b, rho = herm(np.asarray(a)), herm(np.asarray(b)), herm(np.asarray(rho))
    eps2 = ev(g, rho).real - 2.0 * ev(f @ a, rho).real + ev(a @ a, rho).real
    pb = phi_star(b)
    eta2 = ev(phi_star(b @ b), rho).real - 2.0 * ev(pb @ b, rho).real + ev(b @ b, rho).real
    eps, eta = math.sqrt(max(eps2, 0.0)), math.sqrt(max(eta2, 0.0))
    n_mean, d_mean = f - a, pb - b
    corr = abs(ev(n_mean @ b - b @ n_mean + a @ d_mean - d_mean @ a, rho))
    sig_a, sig_b = _spread(a, rho), _spread(b, rho)
    out = {
        "epsilon": eps, "eta": eta, "sigma_a": sig_a, "sigma_b": sig_b,
        "robertson": 0.5 * abs(ev(a @ b - b @ a, rho)),
        "correlation_term": corr,
        "heisenberg_product": eps * eta,
        "uedr_lhs": eps * eta + corr,
        "oedr_lhs": eps * eta + eps * sig_b + sig_a * eta,
    }
    na, nb = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    out["_scale"] = {"epsilon": na, "sigma_a": na, "eta": nb, "sigma_b": nb}
    out["_scale_ab"] = na * nb
    return out


def compare_edr(report: dict, oracle: dict, what: str) -> list:
    """Mismatches between a report (keys as in EDR_FIELDS plus the flags)
    and the oracle; an empty list means the report is correct."""
    problems = []
    ab = oracle["_scale_ab"]
    for key in EDR_FIELDS:
        scale = oracle["_scale"].get(key, ab)
        got = float(report[key])
        if not abs(got - oracle[key]) <= RTOL * scale:
            problems.append(f"{what}: {key} {got!r} != oracle {oracle[key]!r}")
    for flag, lhs in EDR_FLAGS:
        gap = oracle[lhs] - (oracle["robertson"] - FLAG_SLACK)
        if abs(gap) > RTOL * ab and bool(report[flag]) != (gap >= 0):
            problems.append(f"{what}: {flag} {report[flag]} disagrees with oracle margin {gap:.3e}")
    return problems


def precision_expected(oracle: dict):
    """For a full-rank state the cyclic subspace is the whole space, so
    precision holds exactly when eps vanishes. None when inconclusive."""
    rel = oracle["epsilon"] / max(oracle["_scale"]["epsilon"], 1e-300)
    if rel < 1e-6:
        return True
    if rel > 1e-3:
        return False
    return None


def meter_probabilities(u, rho0, meter, rho, ds: int, outcomes):
    """Probability of each outcome value when the meter is read after U,
    with the meter spectrum grouped onto the outcome values. Returns the
    dict and the probability of eigenvalues that match no outcome."""
    rho0 = herm(np.asarray(rho0))
    dp = rho0.shape[0]
    w, v = np.linalg.eigh(herm(np.asarray(meter)))
    rot = np.kron(np.eye(ds), v)
    out = rot.conj().T @ u @ np.kron(herm(np.asarray(rho)), rho0) @ u.conj().T @ rot
    probe_diag = np.einsum("ajaj->j", out.reshape(ds, dp, ds, dp)).real
    probs = {float(m): 0.0 for m in outcomes}
    unmatched = 0.0
    for value, p in zip(w, probe_diag):
        m = min(probs, key=lambda x: abs(x - value))
        if abs(m - value) <= 1e-8 * (1.0 + abs(m)):
            probs[m] += float(p)
        else:
            unmatched += float(p)
    return probs, unmatched


def instrument_probabilities(outcomes, kraus, rho) -> dict:
    rho = herm(np.asarray(rho))
    return {float(m): float(sum(np.trace(k @ rho @ k.conj().T).real for k in ops))
            for m, ops in zip(outcomes, kraus)}


def packet_moments(q: float, p: float, q1: float, hbar: float):
    return np.array([q, p]), np.array([[q1 * q1 / 2.0, 0.0], [0.0, hbar * hbar / (2.0 * q1 * q1)]])


def gaussian_oracle(model: str, obj, probe, hbar: float) -> dict:
    """Closed forms for the two linear models; obj and probe are (mean, cov).

    von_neumann: noise y(dt) - x = y, disturbance p_x(dt) - p_x = -p_y,
    meter y(dt) = x + y. ozawa_1988: noise 0, disturbance -(p_x + p_y),
    meter y(dt) = x.
    """
    (mo, co), (mp, cp) = obj, probe
    if model == "von_neumann":
        eps = math.sqrt(cp[0, 0] + mp[0] ** 2)
        eta = math.sqrt(cp[1, 1] + mp[1] ** 2)
        meter = (mo[0] + mp[0], co[0, 0] + cp[0, 0])
    else:
        eps = 0.0
        eta = math.sqrt(co[1, 1] + cp[1, 1] + (mo[1] + mp[1]) ** 2)
        meter = (mo[0], co[0, 0])
    product = eps * eta
    return {"model": model, "epsilon": eps, "eta": eta, "product": product,
            "hbar_over_2": hbar / 2.0, "heisenberg_violated": product < hbar / 2.0 - GAUSS_SLACK,
            "_meter": meter}


def compare_gaussian(results: dict, oracle: dict, what: str) -> list:
    problems = []
    if results.get("model") != oracle["model"]:
        problems.append(f"{what}: model {results.get('model')!r} != {oracle['model']!r}")
    for key in ("epsilon", "eta", "product", "hbar_over_2"):
        got, want = float(results[key]), oracle[key]
        if not abs(got - want) <= RTOL * max(1.0, abs(want)):
            problems.append(f"{what}: {key} {got!r} != oracle {want!r}")
    gap = oracle["product"] - oracle["hbar_over_2"]
    if abs(gap) > RTOL * max(1.0, oracle["hbar_over_2"]) and \
            bool(results["heisenberg_violated"]) != oracle["heisenberg_violated"]:
        problems.append(f"{what}: heisenberg_violated disagrees with oracle")
    return problems


def normal_density(y: float, mean: float, var: float) -> float:
    return math.exp(-((y - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
