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

from collections.abc import Iterable, Sequence

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


def reduce_agus(design: AcceleratorDesign, coordinator_program) -> dict[str, AddressGenerationUnit]:
    """Replace the design's template AGUs with reduced instances.

    Returns the reduced AGUs (also installed into ``design.components``).
    ``coordinator_program`` is the compiled
    :class:`~repro.compiler.control.CoordinatorProgram` whose pattern
    tables define what each AGU must support.
    """
    tables = {
        AGURole.MAIN: coordinator_program.main_table,
        AGURole.DATA: coordinator_program.data_table,
        AGURole.WEIGHT: coordinator_program.weight_table,
    }
    reduced: dict[str, AddressGenerationUnit] = {}
    for role, table in tables.items():
        instance = f"agu_{role.value}"
        original = design.components.get(instance)
        if original is None:
            raise CompileError(f"design has no '{instance}' to reduce")
        table = pattern_rom(table)
        # Folds of one layer share a pattern shape, re-based per fold;
        # the cost model prices the table by its distinct shapes, while
        # the ROM holds every row (``rows``).  One pass keyed by the
        # hashed shape keeps this linear in the table length.
        distinct = {pattern.shape: pattern for pattern in table}
        agu = AddressGenerationUnit(
            instance,
            role=role,
            n_patterns=len(distinct),
            address_width=original.address_width,
            burst_words=original.burst_words,
            fields=fields_for_patterns(distinct.values()),
            rows=len(table),
        )
        design.components[instance] = agu
        reduced[instance] = agu
    return reduced
