"""Dense state-space oracles the scan tests check against.

``dense_ssm_reference`` runs the literal recurrence with full matrices;
``ssm_kernel`` and ``apply_kernel`` compute the same output as a causal
convolution with the impulse response.
"""

import numpy as np


def dense_ssm_reference(A_d: np.ndarray, B_d: np.ndarray, C: np.ndarray,
                        D: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """Literal dense recurrence: h_t = A_d h_{t-1} + B_d u_t, y_t = C h_t (+ D u_t).

    u: [L, m] -> y: [L, p].  The state updates before readout, so the impulse
    response is C B_d, C A_d B_d, C A_d^2 B_d, ...
    """
    A_d, B_d, C = (np.asarray(m, dtype=np.float64) for m in (A_d, B_d, C))
    u = np.asarray(u, dtype=np.float64)
    if A_d.shape[0] != A_d.shape[1] or B_d.shape[0] != A_d.shape[0] or C.shape[1] != A_d.shape[0]:
        raise ValueError(
            f"dense_ssm_reference: inconsistent shapes A{A_d.shape} B{B_d.shape} C{C.shape}"
        )
    L = u.shape[0]
    h = np.zeros(A_d.shape[0])
    y = np.zeros((L, C.shape[0]))
    for t in range(L):
        h = A_d @ h + B_d @ u[t]
        y[t] = C @ h
        if D is not None:
            y[t] += np.asarray(D) @ u[t]
    return y


def ssm_kernel(A_d: np.ndarray, B_d: np.ndarray, C: np.ndarray, L: int) -> np.ndarray:
    """Convolution kernel K[k] = C A_d^k B_d for k = 0..L-1; shape [L, p, m]."""
    A_d, B_d, C = (np.asarray(m, dtype=np.float64) for m in (A_d, B_d, C))
    K = np.empty((L, C.shape[0], B_d.shape[1]))
    M = B_d.copy()
    for k in range(L):
        K[k] = C @ M
        M = A_d @ M
    return K


def apply_kernel(u: np.ndarray, K: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
    """Causal convolution y_t = sum_k K[k] u_{t-k} (+ D u_t)."""
    u = np.asarray(u, dtype=np.float64)
    L = u.shape[0]
    y = np.zeros((L, K.shape[1]))
    for t in range(L):
        for k in range(min(t + 1, K.shape[0])):
            y[t] += K[k] @ u[t - k]
        if D is not None:
            y[t] += np.asarray(D) @ u[t]
    return y
