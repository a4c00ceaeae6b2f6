"""Test-only first-principles reference for the steady coherences.

The double-Lambda atom as a four-level density matrix: ground states 1
and 2, excited states 3 and 4; probe 1-3, coupling 2-3, drive 2-4 and
signal 1-4.  In the frame rotating with the four fields the Hamiltonian
is time-independent,

    H = -delta |2><2| - delta_p |3><3| - Delta |4><4|
        - (1/2) (Op |3><1| + Oc |3><2| + Od |4><2| + Os |4><1| + h.c.),

and the Lindblad master equation (Lindblad, Commun. Math. Phys. 48, 119
(1976)) adds spontaneous decay of 3 and 4, at rates gamma31 and gamma41,
split between the two ground states by a branching ratio, and pure
dephasing of the ground coherence at gamma21.  The 16x16 Liouvillian with
its trace row is solved exactly by np.linalg.solve: no weak-probe
approximation, no hand-eliminated coefficient.  For weak probe or signal
amplitudes eps, rho21, rho31 and rho41 divided by eps approach the linear
response of the reduced model to O(eps^2) (Fleischhauer, Imamoglu &
Marangos, Rev. Mod. Phys. 77, 633 (2005)).
"""

import numpy as np

N = 4


def _ket(i: int, j: int) -> np.ndarray:
    """|i><j| for the 1-based level labels of the module docstring."""
    op = np.zeros((N, N), dtype=complex)
    op[i - 1, j - 1] = 1.0
    return op


def _liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """L with vec(drho/dt) = L @ vec(rho), rho flattened row-major, so
    vec(A rho B) = kron(A, B.T) @ vec(rho)."""
    eye = np.eye(N)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in jumps:
        cdc = c.conj().T @ c
        out += (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye)
                - 0.5 * np.kron(eye, cdc.T))
    return out


def steady_state(*, omega_p, omega_s, omega_c, omega_d, delta, delta_p,
                 Delta, gamma21, gamma31, gamma41, branching=0.5):
    """The 4x4 steady-state density matrix, rho[i-1, j-1] = <i|rho|j>.

    ``branching`` is the share of each excited state's decay that goes
    to ground state 1; the rest goes to 2.
    """
    h = -(delta * _ket(2, 2) + delta_p * _ket(3, 3) + Delta * _ket(4, 4))
    v = 0.5 * (omega_p * _ket(3, 1) + omega_c * _ket(3, 2)
               + omega_d * _ket(4, 2) + omega_s * _ket(4, 1))
    h = h - v - v.conj().T
    jumps = [np.sqrt(branching * gamma31) * _ket(1, 3),
             np.sqrt((1.0 - branching) * gamma31) * _ket(2, 3),
             np.sqrt(branching * gamma41) * _ket(1, 4),
             np.sqrt((1.0 - branching) * gamma41) * _ket(2, 4),
             np.sqrt(gamma21) * _ket(2, 2)]
    lv = _liouvillian(h, jumps)
    rhs = np.zeros(N * N, dtype=complex)
    # the equation for rho11 is redundant with the others; trace = 1
    lv[0] = np.eye(N).ravel()
    rhs[0] = 1.0
    return np.linalg.solve(lv, rhs).reshape(N, N)


def coherences_per_field(m, d, det, eps: float, branching=0.5) -> tuple:
    """(rho21, rho31, rho41) per unit probe and per unit signal, as the
    rows of linear_response's array: each item is (value at Op = eps,
    Os = 0, value at Op = 0, Os = eps), divided by eps."""
    params = dict(omega_c=d.omega_c, omega_d=d.omega_d, delta=det.delta,
                  delta_p=det.delta_p, Delta=det.Delta, gamma21=m.gamma21,
                  gamma31=m.gamma31, gamma41=m.gamma41, branching=branching)
    by_probe = steady_state(omega_p=eps, omega_s=0.0, **params)
    by_signal = steady_state(omega_p=0.0, omega_s=eps, **params)
    return tuple((by_probe[k, 0] / eps, by_signal[k, 0] / eps)
                 for k in (1, 2, 3))
