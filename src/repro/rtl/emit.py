"""Top-level netlist emission: a design → a Verilog project.

:func:`emit_project` renders one file per distinct module (named
``<module>.v``) and ``accelerator_top.v``, which instantiates exactly the
design's components, wired as the data-driven datapath of paper Fig. 2:

* the coordinator triggers the three AGUs and selects their pattern
  rows, and raises ``done`` when its states are walked;
* the main AGU drives the AXI read port; returning words fill the
  feature and weight buffers (writes go to the bank the datapath is not
  reading, flipped at every phase start);
* the data and weight AGUs address the buffers, which feed the neuron
  array → accumulators → connection box → activation unit, whose output
  feeds pooling, LRN, drop-out and the classifier.

Widths are matched by zero-extension or truncation at the top; control
inputs the skeleton coordinator does not drive are tied to constants.
"""

from __future__ import annotations

import os

from repro.components import (
    AccumulatorArray,
    ActivationUnit,
    AddressGenerationUnit,
    AGURole,
    Component,
    ConnectionBox,
    DropOutUnit,
    KSorterClassifier,
    LRNUnit,
    PoolingUnit,
    SchedulingCoordinator,
    SynergyNeuronArray,
)
from repro.components.base import PortDirection
from repro.errors import RTLError
from repro.nngen.design import AcceleratorDesign
from repro.rtl.ast import Module
from repro.rtl.lint import lint_source, parse_modules
from repro.rtl.templates import component_modules

TOP = "accelerator_top"
#: Width of the AXI read address.
AXI_ADDR_W = 32


def _fit(net: str, width: int, target: int) -> str:
    """``net`` (``width`` bits) truncated or zero-extended to ``target``."""
    if width == target:
        return net
    if width > target:
        return f"{net}[0]" if target == 1 else f"{net}[{target - 1}:0]"
    return f"{{{{{target - width}{{1'b0}}}}, {net}}}"


class _Wiring:
    """Looks up the nets of the design's blocks for the top netlist."""

    def __init__(self, design: AcceleratorDesign) -> None:
        self.design = design
        self.widths: dict[str, int] = {}
        for instance, component in design.components.items():
            for port in component.ports():
                if port.direction is PortDirection.OUTPUT:
                    self.widths[f"{instance}_{port.name}"] = port.width
        self.agus = {c.role: c for c in design.components.values()
                     if isinstance(c, AddressGenerationUnit)}
        self.agu_index = {role: i for i, role in enumerate(AGURole)}

    def first(self, cls: type) -> Component | None:
        return next((c for c in self.design.components.values()
                     if isinstance(c, cls)), None)

    def out(self, component: Component | None, port: str,
            target: int) -> str | None:
        """Output ``port`` of ``component`` fitted to ``target`` bits."""
        if component is None:
            return None
        net = f"{component.instance}_{port}"
        return _fit(net, self.widths[net], target)

    def agu_out(self, role: AGURole, port: str, target: int) -> str | None:
        return self.out(self.agus.get(role), port, target)

    def inputs(self, component: Component) -> dict[str, str | None]:
        """Source expression of each input port that has a rule."""
        widths = {p.name: p.width for p in component.ports()}
        fb = self.design.components.get(self.design.feature_buffer)
        wb = self.design.components.get(self.design.weight_buffer)
        coordinator = self.first(SchedulingCoordinator)
        neurons = self.first(SynergyNeuronArray)
        accumulators = self.first(AccumulatorArray)
        cbox = self.first(ConnectionBox)
        activation = self.first(ActivationUnit)

        def out(source: Component | None, port: str, name: str) -> str | None:
            return self.out(source, port, widths[name])

        rules: dict[str, str | None] = {"clk": "clk", "rst": "rst"}
        if isinstance(component, SynergyNeuronArray):
            rules.update(enable="1'b1", clear_acc="phase_start",
                         feature_in=out(fb, "read_data", "feature_in"),
                         weight_in=out(wb, "read_data", "weight_in"),
                         valid_in="feature_valid_q")
        elif isinstance(component, AccumulatorArray):
            rules.update(enable="1'b1", clear="phase_start",
                         partial_in=out(neurons, "sum_out", "partial_in"),
                         valid_in=out(neurons, "valid_out", "valid_in"))
        elif isinstance(component, ConnectionBox):
            upstream = accumulators or neurons
            rules.update(select=self._identity_select(component),
                         shift_amount=self._shift(component),
                         data_in=out(upstream, "sum_out", "data_in"),
                         valid_in=out(upstream, "valid_out", "valid_in"))
        elif isinstance(component, ActivationUnit):
            rules.update(
                func_select=out(coordinator, "crossbar_select",
                                "func_select"),
                data_in=out(cbox, "data_out", "data_in"),
                valid_in=out(cbox, "valid_out", "valid_in"))
        elif isinstance(component, (PoolingUnit, LRNUnit, DropOutUnit)):
            # One rule set for the three post-activation blocks; a port a
            # block does not have is never looked up.
            rules.update(enable="1'b1", mode_max="1'b1",
                         window_start="phase_start", bypass="1'b1",
                         data_in=out(activation, "data_out", "data_in"),
                         valid_in=out(activation, "valid_out", "valid_in"))
        elif isinstance(component, KSorterClassifier):
            rules.update(clear="start",
                         score_in=out(activation, "data_out", "score_in"),
                         valid_in=out(activation, "valid_out", "valid_in"))
        elif component.instance in (self.design.feature_buffer,
                                    self.design.weight_buffer):
            role = (AGURole.DATA
                    if component.instance == self.design.feature_buffer
                    else AGURole.WEIGHT)
            rules.update(
                write_enable="axi_rvalid",
                write_addr=_fit("fill_addr", AXI_ADDR_W,
                                widths["write_addr"]),
                write_data=_fit("axi_rdata", self.design.datapath.weight_width,
                                widths["write_data"]),
                read_enable=self.agu_out(role, "address_valid", 1),
                read_addr=self.agu_out(role, "address_out",
                                       widths["read_addr"]),
                bank_select=_fit("bank", 1, widths["bank_select"]))
        elif isinstance(component, AddressGenerationUnit):
            rules.update(self._agu_control(component, coordinator))
        elif isinstance(component, SchedulingCoordinator):
            rules.update(start="start",
                         phase_done=self._phase_done(component))
        return rules

    @staticmethod
    def _identity_select(cbox: ConnectionBox) -> str:
        """Output port ``j`` reads input port ``j mod in_ports``."""
        value = 0
        for port in range(cbox.out_ports):
            value |= (port % cbox.in_ports) << (port * cbox.select_width)
        width = cbox.out_ports * cbox.select_width
        return f"{width}'h{value:x}"

    def _shift(self, cbox: ConnectionBox) -> str:
        """Requantize products back to the data format: drop the weight
        format's fraction bits, as far as the latch can shift."""
        width = max(1, cbox.max_shift.bit_length())
        shift = min(self.design.datapath.weight_format.fraction_bits,
                    cbox.max_shift)
        return f"{width}'d{shift}"

    def _agu_control(self, agu: AddressGenerationUnit,
                     coordinator: Component | None) -> dict[str, str | None]:
        if not isinstance(coordinator, SchedulingCoordinator):
            return {"stall": "1'b0"}
        index = self.agu_index[agu.role]
        if index >= coordinator.n_agus:
            return {"stall": "1'b0"}
        select_w = coordinator.select_width
        net = f"{coordinator.instance}_agu_pattern_select"
        low = index * select_w
        width = agu.pattern_select_width
        if width <= select_w:
            select = f"{net}[{low + width - 1}:{low}]"
        else:
            select = (f"{{{{{width - select_w}{{1'b0}}}}, "
                      f"{net}[{low + select_w - 1}:{low}]}}")
        trigger = f"{coordinator.instance}_agu_trigger"
        if coordinator.n_agus > 1:
            trigger += f"[{index}]"
        return {"event_trigger": trigger, "pattern_select": select,
                "stall": "1'b0"}

    def _phase_done(self, coordinator: SchedulingCoordinator) -> str:
        bits = []
        for index in reversed(range(coordinator.n_agus)):
            role = next((r for r, i in self.agu_index.items() if i == index),
                        None)
            source = (self.agu_out(role, "pattern_done", 1)
                      if role is not None else None)
            bits.append(source or "1'b0")
        return bits[0] if len(bits) == 1 else "{" + ", ".join(bits) + "}"


def top_module(design: AcceleratorDesign) -> Module:
    """The ``accelerator_top`` netlist over ``design.components``."""
    wiring = _Wiring(design)
    data_w = design.datapath.weight_width
    top = Module(TOP, comment=(
        f"accelerator_top for '{design.graph.name}' on "
        f"{design.budget.device.name} ({design.budget.label}): "
        f"{design.datapath.lanes} lanes x {design.datapath.simd} simd.\n"
        "start launches one forward propagation; the main AGU reads DRAM "
        "over the AXI\nread port, one weight-format word per beat; done "
        "rises when the coordinator\nhas walked its states."))
    for name, direction, width in (
            ("clk", "input", 1), ("rst", "input", 1), ("start", "input", 1),
            ("axi_araddr", "output", AXI_ADDR_W),
            ("axi_arvalid", "output", 1), ("axi_arlen", "output", 8),
            ("axi_rdata", "input", data_w), ("axi_rvalid", "input", 1),
            ("done", "output", 1)):
        top.add_port(name, direction, width)
    for net, width in wiring.widths.items():
        top.add_signal(net, width)
    top.add_signal("phase_start")
    top.add_signal("fill_addr", AXI_ADDR_W, "reg")
    top.add_signal("bank", kind="reg")
    top.add_signal("feature_valid_q", kind="reg")

    for instance, component in design.components.items():
        rules = wiring.inputs(component)
        connections = {}
        for port in component.ports():
            if port.direction is PortDirection.OUTPUT:
                connections[port.name] = f"{instance}_{port.name}"
            else:
                connections[port.name] = (rules.get(port.name)
                                          or f"{port.width}'d0")
        parameters: dict[str, int | str] = {}
        if isinstance(component, AddressGenerationUnit):
            parameters["MEM_PREFIX"] = f"agu_{component.role.value}"
        top.add_instance(component.module_name, instance, connections,
                         parameters)

    coordinator = wiring.first(SchedulingCoordinator)
    trigger = (f"|{coordinator.instance}_agu_trigger" if coordinator
               else "1'b0")
    top.add_assign("phase_start", trigger)
    top.add_assign("axi_araddr", wiring.agu_out(
        AGURole.MAIN, "address_out", AXI_ADDR_W) or f"{AXI_ADDR_W}'d0")
    top.add_assign("axi_arvalid", wiring.agu_out(
        AGURole.MAIN, "address_valid", 1) or "1'b0")
    top.add_assign("axi_arlen", wiring.agu_out(
        AGURole.MAIN, "burst_len", 8) or "8'd0")
    top.add_assign("done", wiring.out(coordinator, "network_done", 1)
                   or "1'b0")
    feature_valid = wiring.agu_out(AGURole.DATA, "address_valid", 1)
    top.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    fill_addr <= 0;
    bank <= 1'b0;
    feature_valid_q <= 1'b0;
  end else begin
    feature_valid_q <= {feature_valid or "1'b0"};
    if (phase_start) begin
      fill_addr <= 0;
      bank <= ~bank;
    end else if (axi_rvalid)
      fill_addr <= fill_addr + 1'b1;
  end
end""")
    return top


def emit_project(design: AcceleratorDesign) -> dict[str, str]:
    """Render ``design`` as ``{file name: Verilog text}``.

    One ``<module>.v`` per distinct module, in first-use order, then
    ``accelerator_top.v``.  Raises :class:`RTLError` when two
    configurations would share a module name but not a body.
    """
    modules: dict[str, str] = {}
    for component in design.components.values():
        for module in component_modules(component):
            text = module.render()
            if modules.setdefault(module.name, text) != text:
                raise RTLError(
                    f"module '{module.name}' would get two different bodies "
                    f"(component '{component.instance}'); its module name "
                    "must encode every parameter its template reads")
    sources = {f"{name}.v": text for name, text in modules.items()}
    sources[f"{TOP}.v"] = top_module(design).render()
    return sources


def project_stats(sources: dict[str, str]) -> dict[str, int]:
    """File, module and line counts of an emitted project."""
    return {
        "files": len(sources),
        "modules": sum(len(parse_modules(text)) for text in sources.values()),
        "lines": sum(text.count("\n") for text in sources.values()),
    }


def write_project(design: AcceleratorDesign, out_dir: str) -> list[str]:
    """Write the project and ``filelist.f`` (compilation order) into
    ``out_dir``, creating it; returns the written paths.

    The project is linted first, so a structurally broken netlist is
    never written.
    """
    sources = emit_project(design)
    lint_source(sources).raise_on_error()
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in sources.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    filelist = os.path.join(out_dir, "filelist.f")
    with open(filelist, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{name}\n" for name in sources))
    paths.append(filelist)
    return paths
