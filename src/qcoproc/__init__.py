"""Two-qubit quantum coprocessor toolkit.

Modules:

* :mod:`qcoproc.isa` — native Rxy/cZ instruction set, program IR, assembly text
* :mod:`qcoproc.compiler` — source gates, decompositions, frame rotation, scheduling
* :mod:`qcoproc.wavemem` — pulse synthesis and codeword-table paging
* :mod:`qcoproc.simulator` — ideal and noisy backends, exact-evolution oracle
* :mod:`qcoproc.workload` — disorder-transition circuits and experiment runner
* :mod:`qcoproc.cli` — command-line front end
"""

__version__ = "0.1.0"

from .isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, TimeSlot,
                  emit_program, parse_program, program_segment_unitary, rxy_matrix, slot,
                  slot_unitary)

__all__ = [
    "__version__", "CZ", "Measure", "QuantumProgram", "Reset", "RotationKey",
    "Rxy", "TimeSlot", "emit_program", "parse_program",
    "program_segment_unitary", "rxy_matrix", "slot", "slot_unitary",
]
