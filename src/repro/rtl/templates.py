"""Behavioural Verilog templates, one per library block (paper Fig. 5).

:func:`render_component` turns a configured
:class:`~repro.components.base.Component` into Verilog: the component's
own module first, named :attr:`Component.module_name` and with exactly
:meth:`Component.ports`, then any sub-blocks it instantiates (the Approx
LUTs inside an activation or LRN unit).  Every configuration parameter
becomes a ``localparam``; the memory-image file a ROM loads is an
overridable ``parameter`` set per instance, so one module text serves
every instance of a configuration.

The templates compute what the Python mirrors in
:mod:`repro.sim.agu_model` and :mod:`repro.sim.block_models` compute:
the AGU's two nested counters, the k-sorter's stable ties, the pooling
lane's running max/sum, the saturating accumulator lanes and the
drop-out LFSR's maximal taps.
"""

from __future__ import annotations

from typing import Callable

from repro.components import (
    AccumulatorArray,
    ActivationUnit,
    AddressGenerationUnit,
    ApproxLUT,
    Component,
    ConnectionBox,
    DropOutUnit,
    KSorterClassifier,
    LRNUnit,
    OnChipBuffer,
    PoolingUnit,
    SchedulingCoordinator,
    SynergyNeuronArray,
)
from repro.errors import RTLError
from repro.rtl.ast import Module

#: Template field → memory-image suffix (``agu_<role>_<suffix>.mem``).
#: ``footprint`` has no ROM: it is ``x_length * y_length``.
AGU_IMAGE_FIELDS = {
    "start_address": "start",
    "x_length": "xlen",
    "stride": "stride",
    "y_length": "ylen",
    "offset": "offset",
}


def lut_image_name(function: str) -> str:
    """File an Approx LUT for ``function`` loads (``lut_<fn>.mem``)."""
    return f"lut_{function}.mem"


def _base(component: Component, what: str) -> Module:
    """The component's module: header ports and configuration."""
    params = ", ".join(f"{k}={v}" for k, v in component.parameters().items())
    module = Module(component.module_name,
                    comment=f"{what}\n{type(component).__name__}: {params}")
    for port in component.ports():
        module.add_port(port.name, port.direction.value, port.width)
    for name, value in component.parameters().items():
        module.add_parameter(name, value)
    return module


def _hex(width: int, value: int) -> str:
    return f"{width}'h{value & ((1 << width) - 1):x}"


def _lane_width(count: int) -> int:
    return max(1, (count - 1).bit_length())


# -- datapath ------------------------------------------------------------


def _neuron_array(c: SynergyNeuronArray) -> list[Module]:
    m = _base(c, "Synergy neuron array: LANES dot products of SIMD "
                 "products each, accumulated per lane.")
    m.add_signal("acc_q", c.lanes * c.accumulate_width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("dot", c.accumulate_width, "reg", signed=True)
    m.add_signal("lane", kind="integer")
    m.add_signal("k", kind="integer")
    m.add_block("""
always @(posedge clk) begin
  if (rst) begin
    acc_q <= 0;
    valid_q <= 1'b0;
  end else if (enable) begin
    for (lane = 0; lane < LANES; lane = lane + 1) begin
      dot = 0;
      for (k = 0; k < SIMD; k = k + 1)
        dot = dot + $signed(feature_in[k*DATA_W +: DATA_W])
                  * $signed(weight_in[(lane*SIMD + k)*WEIGHT_W +: WEIGHT_W]);
      acc_q[lane*ACC_W +: ACC_W] <=
          (clear_acc ? 0 : $signed(acc_q[lane*ACC_W +: ACC_W]))
          + (valid_in ? dot : 0);
    end
    valid_q <= valid_in;
  end
end""")
    m.add_assign("sum_out", "acc_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _saturate(target: str, wide: str, width: int) -> str:
    """Clamp the ``width + 1``-bit signed ``wide`` into ``target``."""
    top = _hex(width, (1 << (width - 1)) - 1)
    bottom = _hex(width, 1 << (width - 1))
    return (f"if ({wide}[{width}] != {wide}[{width - 1}])\n"
            f"  {target} <= {wide}[{width}] ? {bottom} : {top};\n"
            "else\n"
            f"  {target} <= {wide}[{width - 1}:0];")


def _indent(text: str, levels: int) -> str:
    pad = "  " * levels
    return "\n".join(pad + line for line in text.splitlines())


def _accumulator(c: AccumulatorArray) -> list[Module]:
    m = _base(c, "Accumulator array: saturating LANES-wide partial-sum "
                 "merge; clear restarts every lane from this beat.")
    m.add_signal("sum_q", c.lanes * c.width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("wide", c.width + 1, "reg", signed=True)
    m.add_signal("lane", kind="integer")
    saturate = _saturate("sum_q[lane*WIDTH +: WIDTH]", "wide", c.width)
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    sum_q <= 0;
    valid_q <= 1'b0;
  end else if (enable) begin
    for (lane = 0; lane < LANES; lane = lane + 1) begin
      wide = (clear ? 0 : $signed(sum_q[lane*WIDTH +: WIDTH]))
             + (valid_in ? $signed(partial_in[lane*WIDTH +: WIDTH]) : 0);
{_indent(saturate, 3)}
    end
    valid_q <= valid_in;
  end
end""")
    m.add_assign("sum_out", "sum_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _pooling(c: PoolingUnit) -> list[Module]:
    m = _base(c, "Pooling unit: per lane a running max and a saturating "
                 "running sum, restarted by window_start.")
    lane = "lane*WIDTH +: WIDTH"
    start, update = [], []
    if c.support_max:
        m.add_signal("best_q", c.lanes * c.width, "reg")
        start.append(f"best_q[{lane}] <= data_in[{lane}];")
        update.append(f"if ($signed(data_in[{lane}]) > "
                      f"$signed(best_q[{lane}]))\n"
                      f"  best_q[{lane}] <= data_in[{lane}];")
    if c.support_avg:
        m.add_signal("sum_q", c.lanes * c.width, "reg")
        m.add_signal("wide", c.width + 1, "reg", signed=True)
        start.append(f"sum_q[{lane}] <= data_in[{lane}];")
        update.append(f"wide = $signed(sum_q[{lane}]) + "
                      f"$signed(data_in[{lane}]);\n"
                      + _saturate(f"sum_q[{lane}]", "wide", c.width))
    m.add_signal("primed", kind="reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("lane", kind="integer")
    resets = "".join(f"    {reg} <= 0;\n" for reg, kept in
                     (("best_q", c.support_max), ("sum_q", c.support_avg))
                     if kept)
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
{resets}    primed <= 1'b0;
    valid_q <= 1'b0;
  end else if (enable) begin
    if (valid_in) begin
      for (lane = 0; lane < LANES; lane = lane + 1) begin
        if (window_start || !primed) begin
{_indent(chr(10).join(start), 5)}
        end else begin
{_indent(chr(10).join(update), 5)}
        end
      end
      primed <= 1'b1;
    end
    valid_q <= valid_in;
  end
end""")
    if c.support_max and c.support_avg:
        m.add_assign("pool_out", "mode_max ? best_q : sum_q")
    else:
        m.add_assign("pool_out", "best_q" if c.support_max else "sum_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _approx_lut(c: ApproxLUT) -> list[Module]:
    m = _base(c, "Approx LUT: ROM of ENTRIES sampled values indexed by the "
                 "key's top bits;\nthe low bits blend the two adjacent "
                 "entries when INTERP is set.")
    m.add_parameter("MEM_FILE", "approx_lut.mem", overridable=True)
    index_w = _lane_width(c.entries)
    frac_w = max(0, c.key_width - (c.entries - 1).bit_length())
    m.add_signal("rom", c.value_width, "reg", depth=c.entries)
    m.add_signal("index", index_w)
    m.add_signal("value_q", c.value_width, "reg")
    m.add_signal("valid_q", kind="reg")
    if c.entries == 1:
        m.add_assign("index", "1'b0")
    elif frac_w:
        m.add_assign("index", f"key_in[{c.key_width - 1}:{frac_w}]")
    else:
        m.add_assign("index", f"key_in[{index_w - 1}:0]"
                     if c.key_width > index_w else "key_in")
    m.add_block("initial $readmemh(MEM_FILE, rom);")
    if c.interpolate and frac_w and c.entries > 1:
        m.add_signal("index_hi", index_w)
        m.add_signal("delta", c.value_width + 1, "reg", signed=True)
        m.add_signal("blend", c.value_width + frac_w + 2, "reg", signed=True)
        m.add_assign("index_hi",
                     "(index == ENTRIES - 1) ? index : index + 1'b1")
        read = f"""
    delta = $signed(rom[index_hi]) - $signed(rom[index]);
    blend = delta * $signed({{1'b0, key_in[{frac_w - 1}:0]}});
    value_q <= $signed(rom[index]) + (blend >>> {frac_w});"""
    else:
        read = "\n    value_q <= rom[index];"
    m.add_block(f"""
always @(posedge clk) begin
  valid_q <= valid_in;
  if (valid_in) begin{read}
  end
end""")
    m.add_assign("value_out", "value_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _activation(c: ActivationUnit) -> list[Module]:
    m = _base(c, "Activation unit: ReLU/identity in logic on every lane; "
                 "sigmoid/tanh through one\nshared Approx LUT per function, "
                 "one lane per cycle.")
    lut_fns = [fn for fn in c.functions if fn in ("sigmoid", "tanh")]
    luts = c.lut_components()
    select_w = max(1, (len(c.functions) - 1).bit_length())
    code = {fn: f"{select_w}'d{i}" for i, fn in enumerate(c.functions)}
    lane = "lane*WIDTH +: WIDTH"
    m.add_signal("data_q", c.lanes * c.width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("lane", kind="integer")
    logic_cases = []
    for fn in c.functions:
        if fn == "relu":
            logic_cases.append(
                f"{code[fn]}: data_q[{lane}] <= "
                f"($signed(data_in[{lane}]) < 0) ? 0 : data_in[{lane}];")
        elif fn == "identity":
            logic_cases.append(f"{code[fn]}: data_q[{lane}] <= "
                               f"data_in[{lane}];")
    modules = [m]
    if lut_fns:
        lane_w = _lane_width(c.lanes)
        m.add_signal("lut_func")
        m.add_signal("hold_q", c.lanes * c.width, "reg")
        m.add_signal("lut_busy", kind="reg")
        m.add_signal("lut_lane", lane_w, "reg")
        m.add_signal("ret_lane", lane_w, "reg")
        m.add_signal("lut_key", c.width)
        m.add_signal("lut_value", c.width)
        m.add_signal("lut_valid")
        for fn, lut in zip(lut_fns, luts):
            m.add_signal(f"lut_{fn}_value", c.width)
            m.add_signal(f"lut_{fn}_valid")
            m.add_instance(lut.module_name, f"lut_{fn}", {
                "clk": "clk",
                "key_in": "lut_key",
                "valid_in": "lut_busy",
                "value_out": f"lut_{fn}_value",
                "valid_out": f"lut_{fn}_valid",
            }, {"MEM_FILE": lut_image_name(fn)})
            modules.extend(_approx_lut(lut))
        value, valid = "0", "1'b0"
        for fn in reversed(lut_fns):
            value = f"(func_select == {code[fn]}) ? lut_{fn}_value : {value}"
            valid = f"(func_select == {code[fn]}) ? lut_{fn}_valid : {valid}"
        m.add_assign("lut_func", " || ".join(
            f"func_select == {code[fn]}" for fn in lut_fns))
        m.add_assign("lut_key", "hold_q[lut_lane*WIDTH +: WIDTH]")
        m.add_assign("lut_value", value)
        m.add_assign("lut_valid", valid)
    logic = ""
    if logic_cases:
        guard = "valid_in && !lut_func" if lut_fns else "valid_in"
        logic = f"""
    if ({guard}) begin
      for (lane = 0; lane < LANES; lane = lane + 1) begin
        case (func_select)
{_indent(chr(10).join(logic_cases), 5)}
          default: data_q[{lane}] <= data_in[{lane}];
        endcase
      end
      valid_q <= 1'b1;
    end"""
    serial = ""
    resets = ""
    if lut_fns:
        resets = ("\n    lut_busy <= 1'b0;\n    lut_lane <= 0;"
                  "\n    ret_lane <= 0;")
        serial = """
    if (valid_in && lut_func && !lut_busy) begin
      hold_q <= data_in;
      lut_busy <= 1'b1;
      lut_lane <= 0;
    end else if (lut_busy) begin
      if (lut_lane == LANES - 1)
        lut_busy <= 1'b0;
      else
        lut_lane <= lut_lane + 1'b1;
    end
    ret_lane <= lut_lane;
    if (lut_valid) begin
      data_q[ret_lane*WIDTH +: WIDTH] <= lut_value;
      if (ret_lane == LANES - 1)
        valid_q <= 1'b1;
    end"""
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    data_q <= 0;
    valid_q <= 1'b0;{resets}
  end else begin
    valid_q <= 1'b0;{logic}{serial}
  end
end""")
    m.add_assign("data_out", "data_q")
    m.add_assign("valid_out", "valid_q")
    return modules


def _lrn(c: LRNUnit) -> list[Module]:
    m = _base(c, "LRN unit: squares slide through a MAX_LOCAL window whose "
                 "sum keys the shared\nreciprocal-power Approx LUT; the "
                 "output is x times the looked-up scale (Q1.WIDTH-1).")
    square_w = 2 * c.width
    sum_w = square_w + (c.max_local_size).bit_length()
    window = c.max_local_size * square_w
    m.add_signal("squares_q", window, "reg")
    m.add_signal("square", square_w)
    m.add_signal("oldest", square_w)
    m.add_signal("sum_q", sum_w, "reg")
    m.add_signal("x_q", c.width, "reg")
    m.add_signal("x_qq", c.width, "reg")
    m.add_signal("step_q", kind="reg")
    m.add_signal("scale_key", c.width)
    m.add_signal("scale", c.width)
    m.add_signal("scale_valid")
    m.add_signal("product", 2 * c.width, "reg", signed=True)
    m.add_signal("data_q", c.width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_assign("square", "$signed(data_in) * $signed(data_in)")
    m.add_assign("oldest", f"squares_q[{window - 1}:{window - square_w}]")
    m.add_assign("scale_key", f"sum_q[{sum_w - 1}:{sum_w - c.width}]")
    shift = ("square" if c.max_local_size == 1 else
             f"{{squares_q[{window - square_w - 1}:0], square}}")
    m.add_instance(c.scale_lut.module_name, "scale_lut", {
        "clk": "clk",
        "key_in": "scale_key",
        "valid_in": "step_q",
        "value_out": "scale",
        "valid_out": "scale_valid",
    }, {"MEM_FILE": lut_image_name("reciprocal_power")})
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    squares_q <= 0;
    sum_q <= 0;
    step_q <= 1'b0;
    valid_q <= 1'b0;
  end else begin
    step_q <= enable && valid_in;
    x_qq <= x_q;
    if (enable && valid_in) begin
      squares_q <= {shift};
      sum_q <= sum_q + square - oldest;
      x_q <= data_in;
    end
    valid_q <= scale_valid;
    if (scale_valid) begin
      product = $signed(x_qq) * $signed(scale);
      data_q <= product[{2 * c.width - 2}:{c.width - 1}];
    end
  end
end""")
    m.add_assign("data_out", "data_q")
    m.add_assign("valid_out", "valid_q")
    return [m, *_approx_lut(c.scale_lut)]


def _dropout(c: DropOutUnit) -> list[Module]:
    m = _base(c, "Drop-out inserter: a 16-bit Fibonacci LFSR "
                 "(x^16 + x^14 + x^13 + x^11 + 1, seeded 1)\nsteps once per "
                 "beat; lane i keeps its value when bypass or the LFSR "
                 "rotated left by i is >= threshold.")
    bits = c.LFSR_WIDTH
    m.add_signal("lfsr", bits, "reg")
    m.add_signal("feedback")
    m.add_signal("rot", bits, "reg")
    m.add_signal("data_q", c.lanes * c.width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("lane", kind="integer")
    m.add_assign("feedback", "lfsr[15] ^ lfsr[13] ^ lfsr[12] ^ lfsr[10]")
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    lfsr <= {bits}'d1;
    data_q <= 0;
    valid_q <= 1'b0;
  end else begin
    valid_q <= valid_in;
    if (valid_in) begin
      for (lane = 0; lane < LANES; lane = lane + 1) begin
        rot = (lfsr << (lane % {bits})) | (lfsr >> (({bits} - lane % {bits}) % {bits}));
        data_q[lane*WIDTH +: WIDTH] <= (bypass || rot >= threshold)
            ? data_in[lane*WIDTH +: WIDTH] : 0;
      end
      lfsr <= {{lfsr[{bits - 2}:0], feedback}};
    end
  end
end""")
    m.add_assign("data_out", "data_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _connection_box(c: ConnectionBox) -> list[Module]:
    m = _base(c, "Connection box: OUT_PORTS-way crossbar over IN_PORTS "
                 "words, then the shifting latch\n(arithmetic right shift, "
                 "round half up) for approximate division.")
    m.add_parameter("SEL_W", c.select_width)
    m.add_signal("data_q", c.out_ports * c.width, "reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("sel", c.select_width, "reg")
    m.add_signal("picked", c.width + 1, "reg", signed=True)
    m.add_signal("port", kind="integer")
    shift = ""
    if c.max_shift:
        shift = """
        if (shift_amount != 0)
          picked = (picked + (1 <<< (shift_amount - 1))) >>> shift_amount;"""
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    data_q <= 0;
    valid_q <= 1'b0;
  end else begin
    valid_q <= valid_in;
    for (port = 0; port < OUT_PORTS; port = port + 1) begin
      sel = select[port*SEL_W +: SEL_W];
      if (sel < IN_PORTS) begin
        picked = $signed(data_in[sel*WIDTH +: WIDTH]);{shift}
        data_q[port*WIDTH +: WIDTH] <= picked[WIDTH-1:0];
      end else
        data_q[port*WIDTH +: WIDTH] <= 0;
    end
  end
end""")
    m.add_assign("data_out", "data_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _classifier(c: KSorterClassifier) -> list[Module]:
    m = _base(c, "K-sorter: each candidate bubbles down a chain of K "
                 "compare-exchange stages.\nA fresh candidate must beat a "
                 "held score strictly (earlier ties rank first); a\n"
                 "displaced held element wins ties below it.")
    m.add_signal("score_q", c.k * c.width, "reg")
    m.add_signal("index_q", c.k * c.index_width, "reg")
    m.add_signal("score_n", c.k * c.width, "reg")
    m.add_signal("index_n", c.k * c.index_width, "reg")
    m.add_signal("counter", c.index_width, "reg")
    m.add_signal("bubble_s", c.width, "reg", signed=True)
    m.add_signal("held_s", c.width, "reg", signed=True)
    m.add_signal("bubble_i", c.index_width, "reg")
    m.add_signal("held_i", c.index_width, "reg")
    m.add_signal("displaced", kind="reg")
    m.add_signal("wins", kind="reg")
    m.add_signal("valid_q", kind="reg")
    m.add_signal("p", kind="integer")
    m.add_block(f"""
always @(posedge clk) begin
  if (rst || clear) begin
    for (p = 0; p < K; p = p + 1) begin
      score_q[p*WIDTH +: WIDTH] <= {_hex(c.width, 1 << (c.width - 1))};
      index_q[p*INDEX_W +: INDEX_W] <= 0;
    end
    counter <= 0;
    valid_q <= 1'b0;
  end else begin
    valid_q <= valid_in;
    if (valid_in) begin
      score_n = score_q;
      index_n = index_q;
      bubble_s = score_in;
      bubble_i = counter;
      displaced = 1'b0;
      for (p = 0; p < K; p = p + 1) begin
        held_s = score_n[p*WIDTH +: WIDTH];
        held_i = index_n[p*INDEX_W +: INDEX_W];
        wins = displaced ? (bubble_s >= held_s) : (bubble_s > held_s);
        if (wins) begin
          score_n[p*WIDTH +: WIDTH] = bubble_s;
          index_n[p*INDEX_W +: INDEX_W] = bubble_i;
          bubble_s = held_s;
          bubble_i = held_i;
          displaced = 1'b1;
        end
      end
      score_q <= score_n;
      index_q <= index_n;
      counter <= counter + 1'b1;
    end
  end
end""")
    m.add_assign("index_out", "index_q")
    m.add_assign("score_out", "score_q")
    m.add_assign("valid_out", "valid_q")
    return [m]


def _buffer(c: OnChipBuffer) -> list[Module]:
    m = _base(c, "On-chip buffer: BANKS ping-pong banks of DEPTH words; "
                 "reads come from bank_select,\nwrites go to the next bank; "
                 "one cycle read latency.")
    m.add_signal("mem", c.word_bits, "reg", depth=c.banks * c.depth_words)
    m.add_signal("read_q", c.word_bits, "reg")
    m.add_block("""
always @(posedge clk) begin
  if (write_enable)
    mem[((bank_select + 1) % BANKS) * DEPTH + write_addr] <= write_data;
  if (read_enable)
    read_q <= mem[bank_select * DEPTH + read_addr];
end""")
    m.add_assign("read_data", "read_q")
    return [m]


# -- control -------------------------------------------------------------


def _agu(c: AddressGenerationUnit) -> list[Module]:
    m = _base(c, "Address generation unit reduced from the Fig. 6 template: "
                 "a ROWS-deep pattern ROM\nper kept field, loaded from "
                 "<MEM_PREFIX>_<field>.mem, replayed by an inner (x) and\n"
                 "an outer (y) counter; pattern_select is the ROM row.")
    m.add_parameter("MEM_PREFIX", "agu", overridable=True)
    kept = [name for name in AGU_IMAGE_FIELDS if name in c.fields]
    width = c.address_width
    for name in kept:
        m.add_signal(f"rom_{AGU_IMAGE_FIELDS[name]}", width, "reg",
                     depth=c.rows)
    loads = "\n".join(
        f'  $readmemh({{MEM_PREFIX, "_{AGU_IMAGE_FIELDS[name]}.mem"}}, '
        f"rom_{AGU_IMAGE_FIELDS[name]});" for name in kept)
    m.add_block(f"initial begin\n{loads}\nend")
    has_x = "x_length" in c.fields
    has_y = "y_length" in c.fields
    m.add_signal("sel", c.pattern_select_width, "reg")
    m.add_signal("running", kind="reg")
    m.add_signal("done_q", kind="reg")
    m.add_signal("addr", width, "reg")
    regs = ["addr"]
    if has_x:
        m.add_signal("x_count", width, "reg")
        regs.append("x_count")
    if has_y:
        m.add_signal("y_count", width, "reg")
        m.add_signal("row_base", width, "reg")
        regs += ["y_count", "row_base"]
    step = "addr + rom_stride[sel]" if "stride" in c.fields else "addr + 1'b1"
    next_row = ("row_base + rom_offset[sel]" if "offset" in c.fields
                else "row_base")
    branches = []
    if has_x:
        branches.append(f"""if (x_count + 1'b1 < rom_xlen[sel]) begin
  x_count <= x_count + 1'b1;
  addr <= {step};
end""")
    if has_y:
        reset_x = "\n  x_count <= 0;" if has_x else ""
        branches.append(f"""if (y_count + 1'b1 < rom_ylen[sel]) begin
  y_count <= y_count + 1'b1;{reset_x}
  row_base <= {next_row};
  addr <= {next_row};
end""")
    branches.append("begin\n  running <= 1'b0;\n  done_q <= 1'b1;\nend")
    walk = " else ".join(branches)
    load = "\n".join(
        ["addr <= rom_start[pattern_select];"]
        + (["x_count <= 0;"] if has_x else [])
        + (["y_count <= 0;", "row_base <= rom_start[pattern_select];"]
           if has_y else []))
    resets = "\n".join(f"{reg} <= 0;" for reg in regs)
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    running <= 1'b0;
    done_q <= 1'b0;
    sel <= 0;
{_indent(resets, 2)}
  end else if (event_trigger && !running) begin
    sel <= pattern_select;
    running <= 1'b1;
    done_q <= 1'b0;
{_indent(load, 2)}
  end else if (running && !stall) begin
{_indent(walk, 2)}
  end else begin
    done_q <= 1'b0;
  end
end""")
    m.add_assign("address_out", "addr")
    m.add_assign("address_valid", "running && !stall")
    m.add_assign("burst_len", f"8'd{min(c.burst_words, 255)}")
    m.add_assign("pattern_done", "done_q")
    return [m]


def _coordinator(c: SchedulingCoordinator) -> list[Module]:
    m = _base(c, "Scheduling coordinator: on start it walks STATES states; "
                 "each triggers every AGU\nonce and waits for all their "
                 "pattern_done pulses.  Each AGU's pattern select\ncounts "
                 "its table rows in order, the order the coordinator "
                 "tables are laid out in.")
    m.add_parameter("STATE_W", c.state_width)
    m.add_signal("state", c.state_width, "reg")
    m.add_signal("running", kind="reg")
    m.add_signal("launched", kind="reg")
    m.add_signal("done_q", kind="reg")
    m.add_signal("seen", c.n_agus, "reg")
    m.add_signal("trigger_q", c.n_agus, "reg")
    m.add_signal("row_q", c.n_agus * c.select_width, "reg")
    m.add_signal("a", kind="integer")
    all_done = f"{{{c.n_agus}{{1'b1}}}}"
    m.add_block(f"""
always @(posedge clk) begin
  if (rst) begin
    state <= 0;
    running <= 1'b0;
    launched <= 1'b0;
    done_q <= 1'b0;
    seen <= 0;
    trigger_q <= 0;
    row_q <= 0;
  end else begin
    trigger_q <= 0;
    if (start && !running) begin
      state <= 0;
      running <= 1'b1;
      launched <= 1'b0;
      done_q <= 1'b0;
      seen <= 0;
      row_q <= 0;
    end else if (running) begin
      if (!launched) begin
        trigger_q <= {all_done};
        launched <= 1'b1;
      end else if ((seen | phase_done) == {all_done}) begin
        seen <= 0;
        launched <= 1'b0;
        for (a = 0; a < AGUS; a = a + 1)
          row_q[a*SEL_W +: SEL_W] <= row_q[a*SEL_W +: SEL_W] + 1'b1;
        if (state == STATES - 1) begin
          running <= 1'b0;
          done_q <= 1'b1;
        end else
          state <= state + 1'b1;
      end else
        seen <= seen | phase_done;
    end
  end
end""")
    m.add_assign("agu_pattern_select", "row_q")
    m.add_assign("agu_trigger", "trigger_q")
    if c.state_width >= c.select_width:
        m.add_assign("crossbar_select", f"state[{c.select_width - 1}:0]"
                     if c.state_width > 1 else "state")
    else:
        m.add_assign("crossbar_select", "state")
    m.add_assign("state_out", "state")
    m.add_assign("network_done", "done_q")
    return [m]


_RENDERERS: list[tuple[type, Callable[..., list[Module]]]] = [
    (SynergyNeuronArray, _neuron_array),
    (AccumulatorArray, _accumulator),
    (PoolingUnit, _pooling),
    (ApproxLUT, _approx_lut),
    (ActivationUnit, _activation),
    (LRNUnit, _lrn),
    (DropOutUnit, _dropout),
    (ConnectionBox, _connection_box),
    (KSorterClassifier, _classifier),
    (OnChipBuffer, _buffer),
    (AddressGenerationUnit, _agu),
    (SchedulingCoordinator, _coordinator),
]


def component_modules(component: Component) -> list[Module]:
    """The component's module followed by its sub-blocks' modules."""
    for cls, renderer in _RENDERERS:
        if isinstance(component, cls):
            return renderer(component)
    raise RTLError(f"no Verilog template for {type(component).__name__}")


def render_component(component: Component) -> str:
    """Verilog source of one component: its module, then each distinct
    sub-block module once."""
    texts: dict[str, str] = {}
    for module in component_modules(component):
        texts.setdefault(module.name, module.render())
    return "\n".join(texts.values())
