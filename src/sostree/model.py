"""Model parameters (k, m, J, beta), their reading from config text, and UsageError.

The model assigns spins from {0..m} to tree vertices with nearest-neighbour
energy -J * sum |s(x) - s(y)|.  J < 0 is the ferromagnetic regime, J > 0 the
antiferromagnetic one.  Everything downstream of the energy depends on the
parameters only through J*beta.  The recursion, the message sweep and the
child kernels read it as ln theta, from the activation theta = exp(J*beta)
computed once per parameter set; the exact tables and raw Gibbs kernels of
`measure` (log_weight_table, _gibbs_kernel_table) use J*beta itself, which
can differ from ln theta in the last bit.

Each layer raises UsageError where an outside value leaves the domain: m = 2,
k >= 1, 0 < theta < inf, path parameters t <= s in [0, (k+1)/k], and theta > 1
for the chess-board criterion.  This module imports nothing of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class UsageError(ValueError):
    """A value from the command line or a config file that the package refuses."""


@dataclass(frozen=True)
class ModelParams:
    k: int
    m: int
    J: float
    beta: float
    theta: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise UsageError("tree order k must be >= 1")
        if self.m < 1:
            raise UsageError("max spin m must be >= 1")
        if self.beta < 0:
            raise UsageError("inverse temperature beta must be >= 0")
        object.__setattr__(self, "J", float(self.J))
        object.__setattr__(self, "beta", float(self.beta))
        try:
            theta = math.exp(self.J * self.beta)
        except OverflowError:
            theta = math.inf
        # a non-finite J or beta always lands here too (theta is 0, inf or nan)
        if not 0.0 < theta < math.inf:
            raise UsageError("J and beta must be finite, with 0 < theta = exp(J*beta) < inf")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_theta(cls, k: int, m: int, theta: float) -> "ModelParams":
        """Parameter set with a directly prescribed activation.

        Realised as J = ln(theta), beta = 1; all formulas below the energy
        level consume theta only, so this is equivalent to any (J, beta) pair
        with the same product.  theta is the given float itself, which
        exp(ln theta) can miss by an ulp.
        """
        if not theta > 0:
            raise UsageError("theta must be positive")
        params = cls(k=k, m=m, J=math.log(theta), beta=1.0)
        object.__setattr__(params, "theta", theta)
        return params

    def to_dict(self) -> dict:
        return {"k": self.k, "m": self.m, "J": self.J, "beta": self.beta, "theta": self.theta}


def parse_params_text(text: str) -> ModelParams:
    """Read parameters from 'key = value' lines (keys: k, m, J, beta)."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    try:
        return ModelParams(
            k=int(values["k"]), m=int(values["m"]),
            J=float(values["J"]), beta=float(values["beta"]),
        )
    except KeyError as missing:
        raise UsageError(f"config missing key {missing.args[0]!r}") from None
