"""RTL backend: Verilog for a generated accelerator.

* :mod:`repro.rtl.ast` — a small Verilog AST and writer,
* :mod:`repro.rtl.templates` — one behavioural module per component
  configuration,
* :mod:`repro.rtl.emit` — the ``accelerator_top`` netlist and the
  project writer,
* :mod:`repro.rtl.images` — ``$readmemh`` images (Approx LUTs, AGU
  pattern ROMs, DRAM),
* :mod:`repro.rtl.testbench` — a self-checking testbench,
* :mod:`repro.rtl.lint` — the structural checker standing in for
  synthesis.
"""

from repro.rtl.emit import emit_project
from repro.rtl.lint import lint_source, parse_modules

__all__ = ["emit_project", "lint_source", "parse_modules"]
