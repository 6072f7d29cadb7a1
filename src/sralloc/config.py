"""Run configuration shared by the CLI and the experiment scripts."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

#: arithmetic latencies in cycles; memory accesses cost 0 (register) or 1 (RAM)
DEFAULT_LATENCIES: dict[str, int] = {
    "multiply": 1,
    "add": 1,
    "subtract": 1,
    "compare": 1,
    "accumulate": 1,
}

POLICY_ELEMENT = "element-level"
POLICY_STAGING = "staging-only"
POLICIES = (POLICY_ELEMENT, POLICY_STAGING)

ACCOUNTING_MODES = ("incremental", "full-alpha")
OUTPUT_FORMATS = ("table", "json", "csv")

#: default iteration-space cap for exhaustive enumeration
DEFAULT_CAP = 10_000_000

#: widest address range, in elements, that one bitset may span (16 MiB)
MAX_ADDRESS_BITS = 1 << 27


class CapExceededError(RuntimeError):
    """Work past a cap: the configured enumeration cap or a fixed ceiling."""

CONFIG_ENV_VAR = "SRALLOC_CONFIG"


@dataclass
class RunConfig:
    register_budget: int = 64
    latencies: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    policy: str = POLICY_ELEMENT
    rr_accounting: str = "incremental"
    ports: int = 1
    output_format: str = "table"
    iteration_cap: int = DEFAULT_CAP

    def validate(self) -> "RunConfig":
        counts = [("register_budget", self.register_budget), ("ports", self.ports),
                  ("iteration_cap", self.iteration_cap)]
        counts += [(f"latency {k!r}", v) for k, v in self.latencies.items()]
        for key, value in counts:
            if type(value) is not int:  # bool and float are not counts
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.rr_accounting not in ACCOUNTING_MODES:
            raise ValueError(f"rr accounting must be one of {ACCOUNTING_MODES}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"format must be one of {OUTPUT_FORMATS}")
        if self.ports < 1:
            raise ValueError("ports must be >= 1")
        if self.iteration_cap < 1:
            raise ValueError("iteration cap must be >= 1")
        if any(v < 0 for v in self.latencies.values()):
            raise ValueError("latencies must be non-negative")
        if not self.latencies.keys() <= DEFAULT_LATENCIES.keys():
            raise ValueError(f"latency keys must be among {tuple(DEFAULT_LATENCIES)}, got "
                             f"{sorted(self.latencies.keys() - DEFAULT_LATENCIES.keys())}")
        return self

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path!r} must hold a JSON object")
        cfg = cls()
        for key, value in data.items():
            if key == "latencies":
                if not isinstance(value, dict):
                    raise ValueError(f"latencies must be an object, got {value!r}")
                cfg.latencies.update(value)
            elif key in {f.name for f in fields(cls)}:
                setattr(cfg, key, value)
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cfg.validate()

    @classmethod
    def from_env(cls) -> "RunConfig":
        """Defaults, overridden by the JSON file named in SRALLOC_CONFIG if set."""
        path = os.environ.get(CONFIG_ENV_VAR)
        if path:
            return cls.from_file(path)
        return cls()
