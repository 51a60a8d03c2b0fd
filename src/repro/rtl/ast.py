"""A small Verilog AST and writer.

Just enough structure to emit the component templates and the top-level
netlist: a :class:`Module` holds ports, parameters, declared signals,
continuous assigns, instances and free-form behavioural blocks (``always``
/ ``initial`` text), and :meth:`Module.render` writes Verilog-2001 with
ANSI-style port headers.  Names are checked at construction; duplicate
declarations are caught when the module is rendered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import RTLError

#: Verilog-2001 reserved words (IEEE 1364-2005 Annex B).
KEYWORDS = frozenset("""
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end
    endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam macromodule
    medium module nand negedge nmos nor noshowcancelled not notif0 notif1 or
    output parameter pmos posedge primitive pull0 pull1 pulldown pullup
    pulsestyle_onevent pulsestyle_ondetect rcmos real realtime reg release
    repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed
    small specify specparam strong0 strong1 supply0 supply1 table task time
    tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use
    uwire vectored wait wand weak0 weak1 while wire wor xnor xor
""".split())

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")

PORT_DIRECTIONS = ("input", "output", "inout")
SIGNAL_KINDS = ("wire", "reg", "integer")


def check_identifier(name: str) -> str:
    """Return ``name`` if it is a legal, non-reserved Verilog identifier."""
    if not isinstance(name, str) or not _IDENTIFIER.match(name):
        raise RTLError(f"'{name}' is not a legal Verilog identifier")
    if name in KEYWORDS:
        raise RTLError(f"'{name}' is a Verilog keyword")
    return name


def width_decl(width: int) -> str:
    """The ``[msb:0] `` range prefix of a ``width``-bit declaration."""
    if int(width) != width or width < 1:
        raise RTLError(f"signal width must be a positive integer, got {width}")
    return "" if width == 1 else f"[{width - 1}:0] "


@dataclass(frozen=True)
class Port:
    """One ANSI-style module port."""

    name: str
    direction: str
    width: int = 1

    def __post_init__(self) -> None:
        check_identifier(self.name)
        if self.direction not in PORT_DIRECTIONS:
            raise RTLError(f"port '{self.name}' has direction "
                           f"'{self.direction}', expected one of "
                           f"{PORT_DIRECTIONS}")
        width_decl(self.width)

    def render(self) -> str:
        return f"{self.direction} {width_decl(self.width)}{self.name}"


@dataclass(frozen=True)
class Signal:
    """A ``wire``/``reg``/``integer`` declaration; ``depth`` > 0 makes
    a ``reg`` a memory of that many words."""

    name: str
    width: int = 1
    kind: str = "wire"
    depth: int = 0
    signed: bool = False

    def __post_init__(self) -> None:
        check_identifier(self.name)
        if self.kind not in SIGNAL_KINDS:
            raise RTLError(f"signal '{self.name}' has kind '{self.kind}', "
                           f"expected one of {SIGNAL_KINDS}")
        width_decl(self.width)
        if self.depth < 0 or (self.depth and self.kind != "reg"):
            raise RTLError(f"only a reg can be a memory ('{self.name}')")

    def render(self) -> str:
        if self.kind == "integer":
            return f"integer {self.name};"
        sign = "signed " if self.signed else ""
        memory = f" [0:{self.depth - 1}]" if self.depth else ""
        return (f"{self.kind} {sign}{width_decl(self.width)}"
                f"{self.name}{memory};")


@dataclass(frozen=True)
class Instance:
    """A named-connection instantiation of another module."""

    module: str
    name: str
    connections: dict[str, str]
    parameters: dict[str, int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_identifier(self.module)
        check_identifier(self.name)
        for port in self.connections:
            check_identifier(port)
        for parameter in self.parameters:
            check_identifier(parameter)

    def render(self) -> str:
        head = self.module
        if self.parameters:
            overrides = ", ".join(f".{name}({_literal(value)})"
                                  for name, value in self.parameters.items())
            head += f" #({overrides})"
        lines = [f"{head} {self.name} ("]
        conns = [f"    .{port}({expr})"
                 for port, expr in self.connections.items()]
        lines.append(",\n".join(conns))
        lines.append("  );")
        return "\n".join(lines)


def _literal(value: int | str) -> str:
    return f'"{value}"' if isinstance(value, str) else str(value)


@dataclass
class Module:
    """A Verilog module under construction."""

    name: str
    comment: str = ""
    ports: list[Port] = field(default_factory=list)
    #: ``(name, value, overridable)``: ``parameter`` when overridable,
    #: else ``localparam``.
    parameters: list[tuple[str, int | str, bool]] = field(default_factory=list)
    signals: list[Signal] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    assigns: list[tuple[str, str]] = field(default_factory=list)
    blocks: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_identifier(self.name)

    def add_port(self, name: str, direction: str, width: int = 1) -> None:
        self.ports.append(Port(name, direction, width))

    def add_parameter(self, name: str, value: int | str,
                      overridable: bool = False) -> None:
        self.parameters.append((check_identifier(name), value, overridable))

    def add_signal(self, name: str, width: int = 1, kind: str = "wire",
                   depth: int = 0, signed: bool = False) -> None:
        self.signals.append(Signal(name, width, kind, depth, signed))

    def add_instance(self, module: str, name: str,
                     connections: dict[str, str],
                     parameters: dict[str, int | str] | None = None) -> None:
        self.instances.append(
            Instance(module, name, dict(connections), dict(parameters or {})))

    def add_assign(self, target: str, expr: str) -> None:
        self.assigns.append((target, expr))

    def add_block(self, text: str) -> None:
        """Append behavioural code (``always``/``initial``) verbatim."""
        self.blocks.append(text.strip("\n"))

    def _check_unique(self) -> None:
        seen: set[str] = set()
        names = ([p.name for p in self.ports]
                 + [name for name, _, _ in self.parameters]
                 + [s.name for s in self.signals]
                 + [i.name for i in self.instances])
        for name in names:
            if name in seen:
                raise RTLError(f"module '{self.name}' declares '{name}' "
                               "more than once")
            seen.add(name)

    def render(self) -> str:
        self._check_unique()
        lines = [f"// {line}".rstrip() for line in self.comment.splitlines()]
        if self.ports:
            lines.append(f"module {self.name} (")
            lines.append(",\n".join(f"  {p.render()}" for p in self.ports))
            lines.append(");")
        else:
            lines.append(f"module {self.name};")
        sections = [
            [f"  {'parameter' if over else 'localparam'} {name} = "
             f"{_literal(value)};" for name, value, over in self.parameters],
            [f"  {s.render()}" for s in self.signals],
            [f"  {i.render()}" for i in self.instances],
            [f"  assign {target} = {expr};" for target, expr in self.assigns],
            ["\n".join(f"  {line}" if line else ""
                       for line in block.splitlines())
             for block in self.blocks],
        ]
        for section in sections:
            if section:
                lines.append("")
                lines.extend(section)
        lines.append("endmodule")
        return "\n".join(lines) + "\n"
