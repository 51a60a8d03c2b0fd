"""AGU template reduction.

"The final AGU generated for the target network is reduced from this
template AGU to provide the demanded on-chip and off-chip memory access
patterns" (paper §3.3, Fig. 6).  Once the compiler knows every pattern
an AGU will ever replay, the hardware generator re-instantiates each AGU
with only the template fields those patterns exercise and a pattern
table of exactly the right depth — trimming counters and table rows the
design will never use.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from repro.compiler.patterns import AccessPattern
from repro.components.agu import AGURole, AddressGenerationUnit, TEMPLATE_FIELDS
from repro.errors import CompileError
from repro.nngen.design import AcceleratorDesign


def fields_for_patterns(patterns: Iterable[AccessPattern]) -> tuple[str, ...]:
    """Union of template fields the given patterns exercise.

    A pattern's fields depend only on its :attr:`~AccessPattern.shape`,
    so one pattern per distinct shape gives the same union.
    """
    used: set[str] = set()
    for pattern in patterns:
        used.update(pattern.fields_used())
    # Keep template declaration order for stable module names.
    return tuple(f for f in TEMPLATE_FIELDS if f in used) or ("start_address",)


def pattern_rom(table: Sequence[AccessPattern]) -> Sequence[AccessPattern]:
    """The rows an AGU's pattern ROM holds: one per coordinator-table
    entry, in table order, so ``pattern_select`` is the table index the
    coordinator states record.  An AGU with nothing to do holds one idle
    row.  The ``agu_<role>_<field>.mem`` images carry exactly these rows.
    """
    return table or [AccessPattern(start_address=0, x_length=1)]


class TableSummary(NamedTuple):
    """What a reduced AGU needs of its coordinator table: the distinct
    pattern shapes the cost model prices, the template fields they
    exercise and the pattern-ROM rows."""

    n_patterns: int
    fields: tuple[str, ...]
    rows: int


def summarize_tables(coordinator_program) -> dict[AGURole, TableSummary]:
    """Each AGU role's :class:`TableSummary` of a compiled
    :class:`~repro.compiler.control.CoordinatorProgram`.

    Folds of one layer share a pattern shape, re-based per fold; the
    cost model prices the table by its distinct shapes, while the ROM
    holds every row.  One pass keyed by the hashed shape keeps this
    linear in the table length.  Every design compiled to the same
    program installs AGUs from the same summaries
    (:func:`reduce_agus`), so they are computed once per program.
    """
    tables = {
        AGURole.MAIN: coordinator_program.main_table,
        AGURole.DATA: coordinator_program.data_table,
        AGURole.WEIGHT: coordinator_program.weight_table,
    }
    summaries = {}
    for role, table in tables.items():
        table = pattern_rom(table)
        distinct = {pattern.shape: pattern for pattern in table}
        summaries[role] = TableSummary(
            len(distinct), fields_for_patterns(distinct.values()), len(table))
    return summaries


def reduce_agus(design: AcceleratorDesign,
                summaries: Mapping[AGURole, TableSummary],
                ) -> dict[str, AddressGenerationUnit]:
    """Replace the design's template AGUs with reduced instances.

    Returns the reduced AGUs (also installed into ``design.components``).
    ``summaries`` (:func:`summarize_tables`) say what each AGU's pattern
    table must support; the address width and burst length stay the
    design's own.
    """
    reduced: dict[str, AddressGenerationUnit] = {}
    for role, summary in summaries.items():
        instance = f"agu_{role.value}"
        original = design.components.get(instance)
        if original is None:
            raise CompileError(f"design has no '{instance}' to reduce")
        agu = AddressGenerationUnit(
            instance,
            role=role,
            n_patterns=summary.n_patterns,
            address_width=original.address_width,
            burst_words=original.burst_words,
            fields=summary.fields,
            rows=summary.rows,
        )
        design.components[instance] = agu
        reduced[instance] = agu
    return reduced
