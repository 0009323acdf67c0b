"""Shared exception type and the step-count rule of every route."""

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, step sizes, or keys."""


def step_count(extent: float, step: float, key: str, extent_key: str,
               atol: float | None = None) -> int:
    """Number of steps of size ``step`` in ``extent``.

    ``step`` must divide ``extent`` to ``atol`` (default 1e-9 relative,
    absolute below an extent of 1).  A count that is not finite or exceeds
    the largest array index is a configuration error too; both errors name
    the config key ``key`` of the step and ``extent_key``, the key (or
    expression of keys) the extent comes from.
    """
    count = extent / step
    # "not <=" so that inf and nan are rejected as well
    if not count <= np.iinfo(np.intp).max:
        raise ConfigError(
            f"{key} = {step:.3g} is too small: {extent_key} = {extent:.3g}"
            " cannot be counted in steps of it")
    n = round(count)
    if atol is None:
        atol = 1e-9 * max(1.0, extent)
    if abs(n * step - extent) > atol:
        raise ConfigError(f"{key} must divide {extent_key} = {extent:.12g}")
    return n
