"""Self-checking testbench for the emitted ``accelerator_top``.

The testbench clocks the top at the device clock, models DRAM as a
memory loaded from ``dram_image.mem`` that answers every AXI read one
cycle later, holds reset, pulses ``start`` and then checks two things:

* ``done`` rises within ``MAX_CYCLES`` clock cycles, a bound derived
  from the design's fold plan (every word each fold moves and every MAC
  beat, twice over, plus a per-state allowance);
* every AXI read address lies inside the DRAM image.

It prints ``PASS: ...`` or ``FAIL: ...`` and calls ``$finish``.
Comparing output blobs against the fixed-point reference needs a
Verilog simulator, which the flow does not ship.
"""

from __future__ import annotations

from repro.compiler.memmap import build_memory_map
from repro.components import SchedulingCoordinator
from repro.nngen.design import AcceleratorDesign
from repro.rtl.ast import Module
from repro.rtl.emit import AXI_ADDR_W, TOP

#: Cycles allowed per coordinator state on top of the streamed words
#: (trigger, ROM load, done handshake).
STATE_ALLOWANCE = 16
#: Reset and start cycles before the run is timed.
SETUP_CYCLES = 64


def cycle_bound(design: AcceleratorDesign) -> int:
    """The ``MAX_CYCLES`` the testbench waits for ``done``."""
    streamed = sum(phase.input_words + phase.weight_words
                   + phase.output_words for phase in design.folding)
    beats = -(-design.folding.total_macs // design.datapath.multipliers)
    states = max((c.n_states for c in design.components.values()
                  if isinstance(c, SchedulingCoordinator)), default=1)
    return 2 * (streamed + beats) + STATE_ALLOWANCE * states + SETUP_CYCLES


def _half_period_ns(clock_hz: float) -> str:
    half = 1e9 / clock_hz / 2
    return f"{half:g}" if half == int(half) else f"{half:.3f}"


def emit_testbench(design: AcceleratorDesign) -> str:
    """Verilog text of ``accelerator_top_tb``."""
    data_w = design.datapath.weight_width
    dram_words = max(1, build_memory_map(
        design.resolved, design.datapath.simd).total_elements)
    tb = Module(f"{TOP}_tb", comment=(
        f"Self-checking testbench for {TOP} ('{design.graph.name}').\n"
        "Loads dram_image.mem into a DRAM model behind the AXI read port, "
        "pulses start and\nwaits up to MAX_CYCLES cycles for done; prints "
        "PASS when done rises in time and\nevery read stays inside the "
        "DRAM image, FAIL otherwise."))
    tb.add_parameter("MAX_CYCLES", cycle_bound(design))
    tb.add_parameter("DRAM_WORDS", dram_words)
    for name, width in (("clk", 1), ("rst", 1), ("start", 1),
                        ("axi_rdata", data_w), ("axi_rvalid", 1)):
        tb.add_signal(name, width, "reg")
    for name, width in (("axi_araddr", AXI_ADDR_W), ("axi_arvalid", 1),
                        ("axi_arlen", 8), ("done", 1)):
        tb.add_signal(name, width)
    tb.add_signal("dram", data_w, "reg", depth=dram_words)
    tb.add_signal("cycles", kind="integer")
    tb.add_signal("bad_reads", kind="integer")
    tb.add_instance(TOP, "dut", {
        name: name for name in ("clk", "rst", "start", "axi_araddr",
                                "axi_arvalid", "axi_arlen", "axi_rdata",
                                "axi_rvalid", "done")})
    tb.add_block(f"always #{_half_period_ns(design.clock_hz)} clk = ~clk;")
    tb.add_block("""
always @(posedge clk) begin
  axi_rvalid <= axi_arvalid;
  if (axi_arvalid) begin
    if (axi_araddr < DRAM_WORDS)
      axi_rdata <= dram[axi_araddr];
    else begin
      axi_rdata <= 0;
      bad_reads = bad_reads + 1;
    end
  end
end""")
    tb.add_block("""
initial begin
  $readmemh("dram_image.mem", dram);
  clk = 1'b0;
  rst = 1'b1;
  start = 1'b0;
  axi_rdata = 0;
  axi_rvalid = 1'b0;
  cycles = 0;
  bad_reads = 0;
  repeat (4) @(posedge clk);
  rst <= 1'b0;
  @(posedge clk);
  start <= 1'b1;
  @(posedge clk);
  start <= 1'b0;
  while (!done && cycles < MAX_CYCLES) begin
    @(posedge clk);
    cycles = cycles + 1;
  end
  if (!done)
    $display("FAIL: done not raised within %0d cycles", MAX_CYCLES);
  else if (bad_reads != 0)
    $display("FAIL: %0d AXI reads outside the %0d-word DRAM image",
             bad_reads, DRAM_WORDS);
  else
    $display("PASS: done after %0d cycles", cycles);
  $finish;
end""")
    return "`timescale 1ns / 1ps\n" + tb.render()
