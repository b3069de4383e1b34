"""
Precise measurements vs probability-reproducing meters
======================================================

A meter can reproduce the Born statistics of A perfectly and still fail to
measure A: statistics alone do not pin down the correlation between the
system value and the readout. On the cyclic subspace generated from the
state, four conditions collapse into one:

  * strong precision (joint distribution concentrated on the diagonal)
  * weak precision (same, for the bilinear weak joint distribution)
  * zero worst-case rms error over the subspace
  * Born statistics reproduced for every vector state of the subspace
"""

import numpy as np

import qmeasure as qm

sx = np.array([[0.0, 1.0], [1.0, 0.0]])
sz = np.diag([1.0, -1.0])
plus = qm.DensityOperator.pure([1.0, 1.0])

# a projective measurement is precise in every sense; the check reads the
# instrument itself, and realizes it as a process only for the strong face
inst = qm.luders_instrument(sz)
rep = qm.theorem2_check(inst, sz, plus)
print("projective:", rep.flags(), " consistent:", rep.consistent)

# independent meter: the probe carries its own copy of the statistics and
# never looks at the system
rho0 = qm.DensityOperator.pure([1.0, 1.0])
indep = qm.MeasuringProcess(probe_state=rho0, unitary=np.eye(4), meter=sz)
print("reproduces Born statistics:",
      qm.probability_reproducible(indep, sz, plus))
print("strongly precise:", qm.is_precise(indep, sz, plus, mode="strong"))

rep = qm.theorem2_check(indep, sz, plus)
print("independent meter:", rep.flags(), " consistent:", rep.consistent)

# the system-meter joint distribution exists here (they commute) and its
# rms gauge is sqrt(2) sigma(A): the statistics match but the values do not
a0 = qm.tensor(sz, np.eye(2))
jd = qm.joint_distribution(a0, indep.evolved_meter(),
                           indep.composite_state(plus))
print("joint weights:\n", np.real(jd.weights))
print("rms gauge:", qm.gauss_rms(jd),
      " sqrt(2) sigma(A):", np.sqrt(2.0) * qm.std_dev(sz, plus))

# on an eigenstate the same meter happens to be precise: precision is a
# property of the pair (process, state), not of the process alone
eig = qm.DensityOperator.pure([1.0, 0.0])
indep_eig = qm.MeasuringProcess(probe_state=eig, unitary=np.eye(4), meter=sz)
rep = qm.theorem2_check(indep_eig, sz, eig)
print("independent meter on eigenstate:", rep.flags())
