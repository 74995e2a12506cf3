"""Dense reference channels for the `kfree.ensembles` tests.

`kfree.ensembles` compares an ensemble with Haar over row slabs of the
k-fold superoperator (`_superoperator_slabs`), so no full channel matrix is
ever held.  The oracles here build the dense objects:

- `channel_monte_carlo` averages U^{dagger x k} O U^{x k} over an
  ensemble's members, or over a time window exactly, for one input O;
- `ensemble_superoperator` stacks the slabs into the dense superoperator.
"""

import numpy as np

from kfree.ensembles import (
    EnsembleSpec,
    HamiltonianEnsemble,
    _check_superop_size,
    _kron_power,
    _members,
    _superoperator_slabs,
    _window_kernel,
)

DENSE_CHANNEL_CAP = 4096  # D^k for Monte Carlo channel matrices


def channel_monte_carlo(spec: EnsembleSpec, k: int, O: np.ndarray, n_samples: int = 1000, seed: int = 0) -> np.ndarray:
    """Ensemble mean of U^{dagger x k} O U^{x k} (dense; small D^k only).

    Haar takes `n_samples` draws and a discrete ensemble is summed exactly
    (`_members`); a time window is exact too: with W = V^{x k}, it is
    W ((W^dagger O W) * K) W^dagger for the kernel matrix K of `_window_kernel`.
    """
    O = np.asarray(O, dtype=complex)
    D = round(O.shape[0] ** (1.0 / k))
    if D**k != O.shape[0]:
        raise ValueError("operator dimension is not a k-th power")
    if D**k > DENSE_CHANNEL_CAP:
        raise ValueError(f"dense channel capped at D^k <= {DENSE_CHANNEL_CAP}")
    if isinstance(spec, HamiltonianEnsemble):
        w = _kron_power(spec.model.basis, k)
        return w @ ((w.conj().T @ O @ w) * _window_kernel(spec, k)) @ w.conj().T
    weights, total, member = _members(spec, n_samples, seed)
    acc = np.zeros_like(O)
    for i, w in enumerate(weights):
        uk = _kron_power(member(i), k)
        acc += w * (uk.conj().T @ O @ uk)
    return acc / total


def ensemble_superoperator(spec: EnsembleSpec, k: int) -> np.ndarray:
    """Dense k-fold channel superoperator, its slabs stacked: the reference the slab route is tested against."""
    _check_superop_size(k, spec.dim)  # before the stack is allocated
    d = spec.dim**k
    slabs = np.fromiter(_superoperator_slabs(spec, k), dtype=np.dtype((complex, (d, d, d))), count=d)
    return slabs.reshape(d * d, d * d)
