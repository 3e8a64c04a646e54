"""Declarative campaign specifications.

A campaign is "run these optimization flows × these constraint points ×
these benchmarks, then validate and tabulate".  The spec is data — a TOML
or JSON document (or a bundled named spec) — so the whole sweep is
reviewable, diffable, and fingerprintable before anything executes::

    [campaign]
    name = "paper-sweep"
    benchmarks = ["c432", "c499"]
    flows = ["deterministic", "statistical"]
    margins = [1.10]
    yield_targets = [0.95]
    mc_samples = 2000

    [config]              # optional OptimizerConfig overrides
    max_passes = 300

TOML needs :mod:`tomllib` (Python >= 3.11); JSON specs work everywhere.
The bundled specs (``repro campaign run paper-sweep``) are constructed in
code, so they are available on every supported interpreter.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from ..circuit.benchmarks import benchmark_names
from ..core.config import OptimizerConfig
from ..errors import CampaignError
from .fingerprint import fingerprint

try:  # Python >= 3.11; JSON specs remain the portable fallback.
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]

#: Optimization flows a campaign may schedule.
FLOW_NAMES: Tuple[str, ...] = ("deterministic", "statistical")


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative batch run.

    Attributes
    ----------
    name:
        Campaign identity; names the event ledger under the store root.
    benchmarks:
        Registered benchmark names (see ``repro list``), swept in order.
    tech:
        Technology preset shared by every task.
    flows:
        Subset of :data:`FLOW_NAMES`.  When both are present, each
        statistical run reuses the deterministic run's Tmax at the same
        margin — the paper's controlled comparison.
    margins:
        ``delay_margin`` sweep points (Tmax as a multiple of corner Dmin).
    yield_targets:
        Yield-target sweep points for the statistical flow.
    mc_samples / mc_seed:
        When ``mc_samples > 0`` every optimized implementation is
        validated by sharded Monte Carlo at this sample count and root
        seed (0 samples disables the validation stage).
    mc_estimator:
        Yield-estimation strategy for the validation stage — one of
        :data:`repro.mcstat.ESTIMATOR_NAMES` (``plain`` counts the
        validation dies themselves).  Part of the campaign fingerprint,
        so changing it invalidates cached MC artifacts.
    engine:
        Statistical-timing engine for campaign analytics — one of
        :data:`repro.engines.ENGINE_NAMES` (``clark`` is the canonical
        SSTA).  Consumed by the pipeline task kind; part of the campaign
        fingerprint.
    pipeline_stages:
        When positive, schedule a ``pipeline`` task per benchmark: a
        K-stage sequential pipeline of that circuit analyzed for
        clock-period yield with the selected ``engine`` (0 disables
        the workload).
    sigma_scale:
        Scales both process sigmas (the F4-style variability knob).
    retries:
        Re-executions granted to a failing task after its first attempt.
    retry_backoff:
        Base delay [s] before a retry; doubles per subsequent attempt.
    config:
        The shared :class:`~repro.core.config.OptimizerConfig`; its
        ``delay_margin`` / ``yield_target`` fields are overridden per
        sweep point.
    """

    name: str
    benchmarks: Tuple[str, ...]
    tech: str = "ptm100"
    flows: Tuple[str, ...] = FLOW_NAMES
    margins: Tuple[float, ...] = (1.10,)
    yield_targets: Tuple[float, ...] = (0.95,)
    mc_samples: int = 0
    mc_seed: int = 0
    mc_estimator: str = "plain"
    engine: str = "clark"
    pipeline_stages: int = 0
    sigma_scale: float = 1.0
    retries: int = 1
    retry_backoff: float = 0.05
    config: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise CampaignError("campaign name must be non-empty")
        if not self.benchmarks:
            raise CampaignError(f"campaign {self.name!r} has no benchmarks")
        known = set(benchmark_names())
        for bench in self.benchmarks:
            if bench not in known:
                raise CampaignError(
                    f"campaign {self.name!r}: unknown benchmark {bench!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise CampaignError(f"campaign {self.name!r} repeats a benchmark")
        if not self.flows:
            raise CampaignError(f"campaign {self.name!r} has no flows")
        for flow in self.flows:
            if flow not in FLOW_NAMES:
                raise CampaignError(
                    f"campaign {self.name!r}: unknown flow {flow!r} "
                    f"(expected {FLOW_NAMES})"
                )
        if not self.margins:
            raise CampaignError(f"campaign {self.name!r} has no margins")
        for margin in self.margins:
            if margin < 1.0:
                raise CampaignError(
                    f"campaign {self.name!r}: margin {margin} below 1 is "
                    "unsatisfiable"
                )
        if "statistical" in self.flows and not self.yield_targets:
            raise CampaignError(
                f"campaign {self.name!r} schedules the statistical flow "
                "but has no yield_targets"
            )
        for eta in self.yield_targets:
            if not 0.0 < eta < 1.0:
                raise CampaignError(
                    f"campaign {self.name!r}: yield target {eta} outside (0,1)"
                )
        if self.mc_samples < 0:
            raise CampaignError(
                f"campaign {self.name!r}: mc_samples must be >= 0"
            )
        from ..mcstat import ESTIMATOR_NAMES

        if self.mc_estimator not in ESTIMATOR_NAMES:
            raise CampaignError(
                f"campaign {self.name!r}: mc_estimator must be one of "
                f"{ESTIMATOR_NAMES}, got {self.mc_estimator!r}"
            )
        from ..engines import ENGINE_NAMES

        if self.engine not in ENGINE_NAMES:
            raise CampaignError(
                f"campaign {self.name!r}: engine must be one of "
                f"{ENGINE_NAMES}, got {self.engine!r}"
            )
        if self.pipeline_stages < 0:
            raise CampaignError(
                f"campaign {self.name!r}: pipeline_stages must be >= 0"
            )
        if self.retries < 0:
            raise CampaignError(f"campaign {self.name!r}: retries must be >= 0")
        if self.retry_backoff < 0:
            raise CampaignError(
                f"campaign {self.name!r}: retry_backoff must be >= 0"
            )
        if self.sigma_scale <= 0:
            raise CampaignError(
                f"campaign {self.name!r}: sigma_scale must be positive"
            )

    def fingerprint(self) -> str:
        """Version-salted digest identifying this exact campaign."""
        return fingerprint(self, salt="campaign-spec")

    def with_overrides(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        mc_samples: Optional[int] = None,
    ) -> "CampaignSpec":
        """A copy with CLI-level overrides applied (same campaign name)."""
        changes: Dict[str, object] = {}
        if benchmarks is not None:
            changes["benchmarks"] = tuple(benchmarks)
        if mc_samples is not None:
            changes["mc_samples"] = mc_samples
        if not changes:
            return self
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def spec_from_dict(
    data: Mapping[str, object], default_name: str = "campaign"
) -> CampaignSpec:
    """Build a spec from a parsed TOML/JSON document.

    Accepts either the sectioned shape (``[campaign]`` + optional
    ``[config]``) or a flat mapping of campaign fields.
    """
    if not isinstance(data, Mapping):
        raise CampaignError(f"campaign spec must be a mapping, got {type(data).__name__}")
    campaign = data.get("campaign", data)
    if not isinstance(campaign, Mapping):
        raise CampaignError("[campaign] section must be a table/mapping")
    config_data = data.get("config", {})
    if not isinstance(config_data, Mapping):
        raise CampaignError("[config] section must be a table/mapping")

    campaign_fields = {f.name for f in dataclasses.fields(CampaignSpec)}
    kwargs: Dict[str, object] = {}
    for key, value in campaign.items():
        if key in ("campaign", "config"):
            continue  # handled as sections (also valid in the flat shape)
        if key not in campaign_fields:
            raise CampaignError(f"unknown campaign spec field {key!r}")
        if key in ("benchmarks", "flows"):
            value = tuple(_require_str_list(key, value))
        elif key in ("margins", "yield_targets"):
            value = tuple(_require_float_list(key, value))
        kwargs[key] = value
    kwargs.setdefault("name", default_name)

    config_fields = {f.name for f in dataclasses.fields(OptimizerConfig)}
    config_kwargs: Dict[str, object] = {}
    for key, value in config_data.items():
        if key not in config_fields:
            raise CampaignError(f"unknown optimizer config field {key!r}")
        config_kwargs[key] = value
    if config_kwargs:
        kwargs["config"] = OptimizerConfig(**config_kwargs)  # type: ignore[arg-type]
    return CampaignSpec(**kwargs)  # type: ignore[arg-type]


def _require_str_list(name: str, value: object) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise CampaignError(f"spec field {name!r} must be a list of strings")
    return tuple(value)


def _require_float_list(name: str, value: object) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        for item in value
    ):
        raise CampaignError(f"spec field {name!r} must be a list of numbers")
    return tuple(float(item) for item in value)


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise CampaignError(f"no such campaign spec: {path}")
    if path.suffix == ".toml":
        if tomllib is None:
            raise CampaignError(
                f"{path}: TOML specs need Python >= 3.11 (tomllib); "
                "use a JSON spec on this interpreter"
            )
        try:
            data = tomllib.loads(path.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as err:
            raise CampaignError(f"{path}: invalid TOML: {err}") from err
    elif path.suffix == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise CampaignError(f"{path}: invalid JSON: {err}") from err
    else:
        raise CampaignError(
            f"{path}: unknown spec format {path.suffix!r} (use .toml or .json)"
        )
    return spec_from_dict(data, default_name=path.stem)


def bundled_specs() -> Dict[str, CampaignSpec]:
    """The specs shipped with the package, by name.

    * ``paper-sweep`` — the paper's Table-style deterministic-vs-
      statistical comparison over the full ISCAS85 suite at the headline
      constraint (1.1x corner Dmin, 95% yield), each optimized
      implementation cross-checked by Monte Carlo;
    * ``paper-sweep-smoke`` — the same protocol shrunk to the two
      smallest benchmarks and a light MC budget, for CI and quick local
      verification.
    """
    from ..circuit.benchmarks import FULL_SUITE

    return {
        "paper-sweep": CampaignSpec(
            name="paper-sweep",
            benchmarks=FULL_SUITE,
            margins=(1.10,),
            yield_targets=(0.95,),
            mc_samples=2000,
        ),
        "paper-sweep-smoke": CampaignSpec(
            name="paper-sweep-smoke",
            benchmarks=("c17", "c432"),
            margins=(1.10,),
            yield_targets=(0.95,),
            mc_samples=400,
        ),
    }


def resolve_spec(ref: str) -> CampaignSpec:
    """A spec from a bundled name or a ``.toml``/``.json`` path."""
    bundled = bundled_specs()
    if ref in bundled:
        return bundled[ref]
    if ref.endswith((".toml", ".json")) or "/" in ref or Path(ref).exists():
        return load_spec(ref)
    raise CampaignError(
        f"unknown campaign spec {ref!r}; bundled specs: "
        f"{', '.join(sorted(bundled))}, or pass a .toml/.json path"
    )
