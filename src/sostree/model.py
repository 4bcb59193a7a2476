"""Model parameters (k, m, J, beta) and their reading from config text.

The model assigns spins from {0..m} to tree vertices with nearest-neighbour
energy -J * sum |s(x) - s(y)|.  J < 0 is the ferromagnetic regime, J > 0 the
antiferromagnetic one.  Everything downstream of the energy depends on the
parameters only through the activation theta = exp(J*beta), which is computed
once per parameter set; `measure` builds the edge weights from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ModelParams:
    k: int
    m: int
    J: float
    beta: float
    theta: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("tree order k must be >= 1")
        if self.m < 1:
            raise ValueError("max spin m must be >= 1")
        if self.beta < 0:
            raise ValueError("inverse temperature beta must be >= 0")
        try:
            theta = math.exp(self.J * self.beta)
        except OverflowError:
            theta = math.inf
        # a non-finite J or beta always lands here too (theta is 0, inf or nan)
        if not 0.0 < theta < math.inf:
            raise ValueError("J and beta must be finite, with 0 < theta = exp(J*beta) < inf")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_theta(cls, k: int, m: int, theta: float) -> "ModelParams":
        """Parameter set with a directly prescribed activation.

        Realised as J = ln(theta), beta = 1; all formulas below the energy
        level consume theta only, so this is equivalent to any (J, beta) pair
        with the same product.
        """
        if not theta > 0:
            raise ValueError("theta must be positive")
        return cls(k=k, m=m, J=math.log(theta), beta=1.0)

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
            raise ValueError(f"malformed config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    try:
        return ModelParams(
            k=int(values["k"]), m=int(values["m"]),
            J=float(values["J"]), beta=float(values["beta"]),
        )
    except KeyError as missing:
        raise ValueError(f"config missing key {missing.args[0]!r}") from None
