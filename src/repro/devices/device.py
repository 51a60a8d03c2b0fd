"""FPGA device envelopes and user resource budgets.

Devices carry both the programmable-logic inventory (for the Table 3
occupation experiment) and the board-level parameters the simulator's
timing/power model needs: clock frequency, external-memory bandwidth and
static power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.cost import ResourceCost
from repro.errors import ResourceError


@dataclass(frozen=True)
class Device:
    """One FPGA device / board configuration."""

    name: str
    resources: ResourceCost
    clock_hz: float = 100e6
    #: Sustained external-memory bandwidth available to the accelerator
    #: through the AXI switches, in bytes per second.
    dram_bandwidth: float = 800e6
    #: DRAM access latency for the first beat of a burst, in cycles.
    dram_latency_cycles: int = 30
    #: Static board-level power in watts: PL leakage plus the PS/DDR
    #: overhead the paper's board measurements include.
    static_power_w: float = 0.35
    #: Host-side invocation overhead per forward pass (ARM core DMA
    #: descriptor setup + start interrupt), in accelerator cycles.
    invocation_overhead_cycles: int = 1500
    #: Dynamic energy per MAC operation at the datapath width, joules.
    energy_per_mac: float = 4.0e-12
    #: Dynamic energy per on-chip buffer byte accessed, joules.
    energy_per_sram_byte: float = 1.2e-12
    #: Dynamic energy per off-chip DRAM byte transferred, joules.
    energy_per_dram_byte: float = 70.0e-12
    #: Extra dynamic power per occupied kLUT of control/datapath, watts.
    power_per_klut: float = 0.030

    def budget(self, fraction: float, label: str = "") -> "ResourceBudget":
        """A budget that is ``fraction`` of this device's resources."""
        return budget_fraction(self, fraction, label)


#: Xilinx Zynq XC7Z020 (the paper's low-budget DB-S target).  One 64-bit
#: AXI HP port at 100 MHz plus margin: ~1.6 GB/s sustained.
Z7020 = Device(
    name="Z-7020",
    resources=ResourceCost(dsp=220, lut=53_200, ff=106_400,
                           bram_bits=int(4.9e6)),
    dram_bandwidth=1.6e9,
    static_power_w=1.1,
)

#: Xilinx Zynq XC7Z045 (the paper's board: DB and DB-L budgets).  Four
#: 64-bit AXI HP ports at 100 MHz: ~3.2 GB/s sustained to the on-board
#: DDR3 through the AXI switches.
Z7045 = Device(
    name="Z-7045",
    resources=ResourceCost(dsp=900, lut=218_600, ff=437_200,
                           bram_bits=int(19.2e6)),
    dram_bandwidth=3.2e9,
    static_power_w=2.0,
)

#: Xilinx Virtex-7 VX485T (platform of Zhang et al. FPGA'15 [7]); their
#: board reports ~4.5 GB/s of external bandwidth.
VX485T = Device(
    name="VX485T",
    resources=ResourceCost(dsp=2_800, lut=303_600, ff=607_200,
                           bram_bits=int(37e6)),
    dram_bandwidth=4.5e9,
    static_power_w=3.0,
)


#: Devices addressable by name (CLI ``--device``, DSE sweep points).
DEVICES: dict[str, Device] = {
    Z7020.name: Z7020,
    Z7045.name: Z7045,
    VX485T.name: VX485T,
}


def device_by_name(name: str) -> Device:
    """Look up a registered device; raise :class:`ResourceError` if unknown."""
    try:
        return DEVICES[name]
    except KeyError:
        raise ResourceError(
            f"unknown device '{name}'; options: {sorted(DEVICES)}"
        ) from None


@dataclass(frozen=True)
class ResourceBudget:
    """The user-specified overhead constraint handed to NN-Gen."""

    device: Device
    limit: ResourceCost
    label: str = ""

    def __post_init__(self) -> None:
        if not self.limit.fits_in(self.device.resources):
            raise ResourceError(
                f"budget {self.limit} exceeds device {self.device.name} "
                f"({self.device.resources})"
            )
        if self.limit.dsp < 1 or self.limit.lut < 16:
            raise ResourceError(
                f"budget {self.limit} is too small for any datapath"
            )

    def utilization(self, used: ResourceCost) -> dict[str, float]:
        """Fraction of each budgeted resource that ``used`` occupies."""
        return {
            "dsp": used.dsp / max(1, self.limit.dsp),
            "lut": used.lut / max(1, self.limit.lut),
            "ff": used.ff / max(1, self.limit.ff),
            "bram_bits": used.bram_bits / max(1, self.limit.bram_bits),
        }


def budget_fraction(device: Device, fraction: float, label: str = "") -> ResourceBudget:
    """Carve a fractional budget out of a device."""
    if not 0.0 < fraction <= 1.0:
        raise ResourceError(f"budget fraction {fraction} must be in (0, 1]")
    resources = device.resources
    limit = ResourceCost(
        dsp=max(1, int(resources.dsp * fraction)),
        lut=max(16, int(resources.lut * fraction)),
        ff=max(16, int(resources.ff * fraction)),
        bram_bits=max(1024, int(resources.bram_bits * fraction)),
    )
    return ResourceBudget(device=device, limit=limit,
                          label=label or f"{device.name}@{fraction:.0%}")
