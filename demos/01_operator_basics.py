"""
Observables, states, and spectral statistics
============================================

Build finite-dimensional observables and density operators, take spectral
decompositions, and read off measurement statistics.
"""

import numpy as np

import qmeasure as qm

sx = np.array([[0.0, 1.0], [1.0, 0.0]])
sz = np.diag([1.0, -1.0])

# a qubit state polarized along +x
plus = qm.DensityOperator.pure([1.0, 1.0])
print("state matrix:\n", plus.matrix)

# spectral decomposition groups eigenvalues that agree within eq_tol
dec = qm.spectral_decompose(sz)
print("sz eigenvalues:", dec.eigenvalues)
for lam, proj in zip(dec.eigenvalues, dec.projectors):
    print(f"  projector for {lam:+.0f}:\n{np.real(proj)}")

# outcome statistics for sz measured on the +x state: a fair coin
dist = qm.born_distribution(sz, plus)
print("outcomes:", dist.outcomes)
print("probabilities:", dist.probabilities)
print("mean:", dist.mean(), " variance:", dist.variance())

# first and second moments straight from the operators
print("<sz> =", np.real(qm.expectation(sz, plus)))
print("std(sz) =", qm.std_dev(sz, plus))

# the preparation-stage lower bound on sigma(A) sigma(B); the circular
# state (1, i)/sqrt(2) saturates it for the pair (sz, sx)
circ = qm.DensityOperator.pure([1.0, 1.0j])
bound = qm.robertson_bound(sz, sx, circ)
print("sigma(sz) sigma(sx) =", qm.std_dev(sz, circ) * qm.std_dev(sx, circ))
print("commutator bound    =", bound)

# composite systems: tensor products and partial traces
bell = qm.DensityOperator.pure([1.0, 0.0, 0.0, 1.0])
reduced = qm.partial_trace(bell.matrix, (2, 2))
print("reduced Bell state (maximally mixed):\n", np.real(reduced))
