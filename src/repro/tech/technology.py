"""Technology descriptions.

A :class:`Technology` bundles every process-level number the rest of the
library needs: nominal channel length, supply, oxide thickness, the two
threshold voltages of the dual-Vth process, mobility, the alpha-power-law
exponent, and calibration constants for the analytic drive/leakage models.

Presets are modeled on the Berkeley Predictive Technology Model (BPTM)
generations that DAC-2004-era statistical-optimization papers evaluated on.
The 100 nm preset is the default used throughout the benchmark harness.
Absolute currents/delays are calibrated to land in the plausible band for
each node (FO4 of a few tens of ps, off currents of nA..100 nA per um);
the *relative* behaviour (exponential leakage in Vth, ~20-30% delay
penalty for high-Vth) is what the optimization results depend on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Dict

from ..errors import TechnologyError
from . import constants
from ..units import nm


class ChannelType(enum.Enum):
    """MOSFET channel polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


class VthClass(enum.Enum):
    """Which threshold flavour of the dual-Vth process a device uses."""

    LOW = "low"
    HIGH = "high"

    def other(self) -> "VthClass":
        """The opposite flavour (used by optimizer swap moves)."""
        return VthClass.HIGH if self is VthClass.LOW else VthClass.LOW


@dataclass(frozen=True)
class Technology:
    """Immutable description of a CMOS process.

    All values are strict SI.  ``vth_low``/``vth_high`` are the *magnitudes*
    of the NMOS thresholds; PMOS thresholds are derived via
    ``pmos_vth_offset``.

    Attributes
    ----------
    name:
        Human-readable node name, e.g. ``"ptm100"``.
    lnom:
        Nominal effective channel length [m].
    vdd:
        Supply voltage [V].
    tox:
        Gate-oxide thickness [m].
    vth_low / vth_high:
        Nominal NMOS threshold magnitudes of the two Vth flavours [V].
    pmos_vth_offset:
        Additive offset applied to get the PMOS threshold magnitude [V].
    subthreshold_n:
        Subthreshold swing ideality factor ``n`` (swing = n * vT * ln 10).
    dibl:
        Drain-induced barrier lowering coefficient [V/V].
    vth_length_sensitivity:
        dVth/dLeff [V/m], positive: a *shorter* channel (negative dL)
        *lowers* Vth (roll-off), which is the mechanism that makes leakage
        blow up exponentially under channel-length variation.
    mobility_n / mobility_p:
        Effective carrier mobilities [m^2/(V s)].
    alpha:
        Alpha-power-law velocity-saturation index (1 = fully saturated,
        2 = long-channel square law).  ~1.3 for ~100 nm devices.
    drive_calibration:
        Dimensionless prefactor multiplying the alpha-power on-current so
        nominal FO4 delays land in the realistic band for the node.
    subthreshold_calibration:
        Dimensionless prefactor on the subthreshold current.
    wmin:
        Minimum drawn transistor width [m].
    cap_overlap_per_width:
        Overlap/fringe gate capacitance per unit width [F/m].
    junction_cap_per_width:
        Drain-junction (parasitic output) capacitance per unit width [F/m].
    wire_cap_per_fanout:
        Lumped interconnect capacitance charged per fanout connection [F].
    temperature:
        Operating temperature [K].
    """

    name: str
    lnom: float
    vdd: float
    tox: float
    vth_low: float
    vth_high: float
    pmos_vth_offset: float
    subthreshold_n: float
    dibl: float
    vth_length_sensitivity: float
    mobility_n: float
    mobility_p: float
    alpha: float
    drive_calibration: float
    subthreshold_calibration: float
    wmin: float
    cap_overlap_per_width: float
    junction_cap_per_width: float
    wire_cap_per_fanout: float
    temperature: float = constants.ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if self.lnom <= 0 or self.tox <= 0 or self.wmin <= 0:
            raise TechnologyError(f"{self.name}: geometric parameters must be positive")
        if self.vdd <= 0:
            raise TechnologyError(f"{self.name}: vdd must be positive")
        if not 0 < self.vth_low < self.vth_high < self.vdd:
            raise TechnologyError(
                f"{self.name}: need 0 < vth_low < vth_high < vdd, got "
                f"vth_low={self.vth_low}, vth_high={self.vth_high}, vdd={self.vdd}"
            )
        if self.subthreshold_n < 1.0:
            raise TechnologyError(f"{self.name}: subthreshold ideality n must be >= 1")
        if self.alpha < 1.0 or self.alpha > 2.0:
            raise TechnologyError(f"{self.name}: alpha-power exponent must lie in [1, 2]")
        if self.vth_length_sensitivity < 0:
            raise TechnologyError(
                f"{self.name}: vth_length_sensitivity is a magnitude and must be >= 0"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def thermal_voltage(self) -> float:
        """kT/q at the operating temperature [V]."""
        return constants.thermal_voltage(self.temperature)

    @property
    def cox(self) -> float:
        """Gate-oxide capacitance per unit area [F/m^2]."""
        return constants.oxide_capacitance_per_area(self.tox)

    @property
    def gate_cap_per_width(self) -> float:
        """Total input gate capacitance per unit transistor width [F/m].

        Channel charge (Cox * L) plus overlap/fringe contribution.
        """
        return self.cox * self.lnom + self.cap_overlap_per_width

    @property
    def subthreshold_swing(self) -> float:
        """Subthreshold swing [V/decade]."""
        return self.subthreshold_n * self.thermal_voltage * math.log(10.0)

    def nominal_vth(self, vth_class: VthClass, channel: ChannelType) -> float:
        """Nominal threshold magnitude for a flavour/polarity pair [V]."""
        base = self.vth_low if vth_class is VthClass.LOW else self.vth_high
        if channel is ChannelType.PMOS:
            base += self.pmos_vth_offset
        return base

    def mobility(self, channel: ChannelType) -> float:
        """Effective mobility for a channel polarity [m^2/(V s)]."""
        return self.mobility_n if channel is ChannelType.NMOS else self.mobility_p

    def at_temperature(self, temperature_k: float) -> "Technology":
        """A copy of this technology at a different operating temperature."""
        return replace(self, temperature=temperature_k)

    def scaled_supply(self, vdd: float) -> "Technology":
        """A copy of this technology with a different supply voltage."""
        return replace(self, vdd=vdd)


def _make_ptm100() -> Technology:
    """~100 nm BPTM-flavoured high-performance process (the paper's node)."""
    return Technology(
        name="ptm100",
        lnom=nm(100.0),
        vdd=1.2,
        tox=nm(1.6),
        vth_low=0.20,
        vth_high=0.33,
        pmos_vth_offset=0.02,
        subthreshold_n=1.40,
        dibl=0.08,
        vth_length_sensitivity=1.2e6,  # 1.2 mV per nm of Leff
        mobility_n=0.030,
        mobility_p=0.012,
        alpha=1.30,
        drive_calibration=0.084,
        subthreshold_calibration=math.exp(1.8),
        wmin=nm(200.0),
        cap_overlap_per_width=0.35e-9,
        junction_cap_per_width=0.60e-9,
        wire_cap_per_fanout=0.18e-15,
    )


def _make_ptm130() -> Technology:
    """~130 nm node: slower, less leaky, weaker roll-off."""
    return Technology(
        name="ptm130",
        lnom=nm(130.0),
        vdd=1.5,
        tox=nm(2.0),
        vth_low=0.26,
        vth_high=0.40,
        pmos_vth_offset=0.02,
        subthreshold_n=1.36,
        dibl=0.06,
        vth_length_sensitivity=0.9e6,
        mobility_n=0.033,
        mobility_p=0.013,
        alpha=1.40,
        drive_calibration=0.078,
        subthreshold_calibration=math.exp(1.8),
        wmin=nm(260.0),
        cap_overlap_per_width=0.40e-9,
        junction_cap_per_width=0.70e-9,
        wire_cap_per_fanout=0.22e-15,
    )


def _make_ptm70() -> Technology:
    """~70 nm node: faster, leakier, stronger roll-off (scaling study)."""
    return Technology(
        name="ptm70",
        lnom=nm(70.0),
        vdd=1.0,
        tox=nm(1.2),
        vth_low=0.17,
        vth_high=0.29,
        pmos_vth_offset=0.02,
        subthreshold_n=1.45,
        dibl=0.11,
        vth_length_sensitivity=1.8e6,
        mobility_n=0.027,
        mobility_p=0.011,
        alpha=1.22,
        drive_calibration=0.105,
        subthreshold_calibration=math.exp(1.8),
        wmin=nm(140.0),
        cap_overlap_per_width=0.30e-9,
        junction_cap_per_width=0.50e-9,
        wire_cap_per_fanout=0.15e-15,
    )


_PRESETS: Dict[str, Technology] = {}


def available_technologies() -> list[str]:
    """Names of the built-in technology presets."""
    _ensure_presets()
    return sorted(_PRESETS)


def get_technology(name: str = "ptm100") -> Technology:
    """Look up a built-in technology preset by name.

    Raises
    ------
    TechnologyError
        If ``name`` is not a known preset.
    """
    _ensure_presets()
    try:
        return _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise TechnologyError(f"unknown technology {name!r}; known presets: {known}") from None


def _ensure_presets() -> None:
    if not _PRESETS:
        for tech in (_make_ptm100(), _make_ptm130(), _make_ptm70()):
            _PRESETS[tech.name] = tech
