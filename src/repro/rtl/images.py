"""``$readmemh`` memory images for the emitted ROMs and DRAM.

Every image is one hex word per line, two's complement at a fixed
width, with an optional leading ``// comment`` (docs/file_formats.md):

* ``lut_<fn>.mem`` — Approx-LUT values in the datapath word,
* ``agu_<role>_<field>.mem`` — one pattern-ROM field, 32 bits, one row
  per coordinator-table entry (:func:`repro.compiler.reduce.pattern_rom`);
  fields the reduced AGU dropped are not emitted,
* ``dram_image.mem`` — the preprocessed DRAM contents at the weight
  format's width.
"""

from __future__ import annotations

import os

import numpy as np

from repro.compiler.program import ControlProgram
from repro.compiler.reduce import pattern_rom
from repro.components import AddressGenerationUnit, AGURole
from repro.errors import RTLError
from repro.fixedpoint.ops import quantize_to_ints
from repro.rtl.templates import AGU_IMAGE_FIELDS, lut_image_name

#: Word width of every AGU pattern-ROM image.
AGU_IMAGE_WIDTH = 32

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
#: Words rendered per vectorised block, bounding the temporaries.
_BLOCK = 1 << 18


def render_mem(values: np.ndarray, width: int, comment: str = "") -> str:
    """``values`` as ``$readmemh`` text, ``width``-bit two's complement.

    Values must fit ``width`` bits, signed or unsigned.
    """
    if int(width) != width or not 1 <= width <= 64:
        raise RTLError(f"memory word width must be 1..64 bits, got {width}")
    flat = np.asarray(values).ravel()
    if flat.size and not np.issubdtype(flat.dtype, np.integer):
        raise RTLError(f"memory image needs integers, got {flat.dtype}")
    if flat.size and (int(flat.min()) < -(1 << (width - 1))
                      or int(flat.max()) >= (1 << width)):
        raise RTLError(f"memory image values do not fit {width} bits")
    digits = -(-width // 4)
    mask = np.uint64((1 << width) - 1)
    shifts = np.arange(digits - 1, -1, -1, dtype=np.uint64) * np.uint64(4)
    parts = ["".join(f"// {line}\n" for line in comment.splitlines())]
    for start in range(0, flat.size, _BLOCK):
        # Two's complement: the uint64 view of an int64 keeps the bits.
        words = flat[start:start + _BLOCK].astype(np.int64).view(np.uint64)
        words = words & mask
        nibbles = (words[:, None] >> shifts) & np.uint64(0xF)
        text = np.empty((words.size, digits + 1), dtype=np.uint8)
        text[:, :digits] = _HEX_DIGITS[nibbles.astype(np.intp)]
        text[:, digits] = ord("\n")
        parts.append(text.tobytes().decode("ascii"))
    return "".join(parts)


def parse_mem(text: str, width: int) -> np.ndarray:
    """Read a ``$readmemh`` image back as signed ``int64`` values."""
    if int(width) != width or not 1 <= width <= 64:
        raise RTLError(f"memory word width must be 1..64 bits, got {width}")
    values = []
    for number, line in enumerate(text.splitlines(), start=1):
        word = line.split("//", 1)[0].strip().replace("_", "")
        if not word:
            continue
        try:
            value = int(word, 16)
        except ValueError:
            raise RTLError(f"line {number}: '{word}' is not a hex word") \
                from None
        if value >= 1 << width:
            raise RTLError(f"line {number}: '{word}' exceeds {width} bits")
        if value >> (width - 1):
            value -= 1 << width
        values.append(value)
    return np.array(values, dtype=np.int64)


def lut_images(program: ControlProgram) -> dict[str, str]:
    """One ``lut_<fn>.mem`` per compiled Approx LUT."""
    images = {}
    for function, lut in program.luts.items():
        fmt = lut.value_format or program.design.datapath.data_format
        comment = (f"Approx LUT '{function}': {lut.entries} entries over "
                   f"[{lut.input_low:g}, {lut.input_high:g}], "
                   f"Q{fmt.integer_bits}.{fmt.fraction_bits}")
        images[lut_image_name(function)] = render_mem(
            quantize_to_ints(lut.values, fmt), fmt.total_bits, comment)
    return images


def agu_images(program: ControlProgram) -> dict[str, str]:
    """Pattern-ROM images of every AGU: one file per kept field."""
    tables = {
        AGURole.MAIN: program.coordinator.main_table,
        AGURole.DATA: program.coordinator.data_table,
        AGURole.WEIGHT: program.coordinator.weight_table,
    }
    images = {}
    for agu in program.design.components.values():
        if not isinstance(agu, AddressGenerationUnit):
            continue
        rows = pattern_rom(tables[agu.role])
        if len(rows) != agu.rows:
            raise RTLError(f"AGU '{agu.instance}' holds {agu.rows} ROM rows "
                           f"but its table has {len(rows)}; compile the "
                           "design before emitting images")
        for field, suffix in AGU_IMAGE_FIELDS.items():
            if field not in agu.fields:
                continue
            values = np.array([getattr(p, field) for p in rows],
                              dtype=np.int64)
            images[f"agu_{agu.role.value}_{suffix}.mem"] = render_mem(
                values, AGU_IMAGE_WIDTH,
                f"AGU '{agu.instance}' field {field}: {len(rows)} rows")
    return images


def dram_image(program: ControlProgram) -> str:
    """The DRAM image at the weight format's width."""
    if program.dram_image is None:
        raise RTLError("the program has no DRAM image (compiled without "
                       "weights)")
    fmt = program.weight_format or program.design.datapath.weight_format
    return render_mem(program.dram_image, fmt.total_bits,
                      f"DRAM image: {program.dram_image.size} elements, "
                      f"Q{fmt.integer_bits}.{fmt.fraction_bits} weights")


def emit_images(program: ControlProgram) -> dict[str, str]:
    """Every image of ``program``; the DRAM image only when it has
    weights."""
    images = {**lut_images(program), **agu_images(program)}
    if program.dram_image is not None:
        images["dram_image.mem"] = dram_image(program)
    return images


def write_images(program: ControlProgram, out_dir: str) -> list[str]:
    """Write :func:`emit_images` into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in emit_images(program).items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths
