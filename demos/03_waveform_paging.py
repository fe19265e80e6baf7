# Waveform memory in action: registry scans and codeword paging.
#
# An arbitrary-rotation instruction names infinitely many gates, but the
# electronics hold a bounded codeword table.  Each program is scanned for new
# rotations (which get pulses synthesized), then paged: rotations it misses
# replace randomly chosen residents the program does not use.  A small table
# makes the churn visible.

import numpy as np

from qcoproc import wavemem, workload
from qcoproc.wavemem import RCT, dgs_scan, page_update

capacity = 12
rct = RCT(capacity=capacity)
qos = {}  # rotation -> pulse
evict_rng = np.random.default_rng(99)

print(f"codeword table capacity: {capacity} rotations "
      f"(a full-depth program needs 10: 6 fixed + 4 disorder)\n")
print("real   new pulses   missing   hits   evicted   loads so far")
for i in range(8):
    seed = workload.derive_seed(1234, 0, i)
    r = workload.sample_disorder(25.0, workload.DEFAULT_TAU, 10,
                                 np.random.default_rng(seed), seed=seed)
    program = workload.build_native_circuit(r, 10)
    _, new_keys = dgs_scan(program, qos)
    _, report = page_update(program, rct, evict_rng)
    print(f"{i:4d}   {len(new_keys):10d}   {len(report.mlst):7d}   "
          f"{report.hits:4d}   {len(report.evicted):7d}   {rct.load_counter:12d}")

print(f"\nregistry now knows {len(qos)} rotations; "
      f"{len(rct.codewords)} are loaded")

# every instruction of the last program maps to a codeword
stream = wavemem.assign_codewords(program, rct)
print(f"codeword stream length for the last program: {len(stream)} "
      f"(104 rotations + 40 cZ + 2 resets + 2 measures)")

# one synthesized pulse, in the clear
key = min(report.loaded)
pulse = qos[key]
print(f"\npulse for phi={key.phi_over_pi}*pi, gamma={key.gamma_over_pi}*pi "
      f"({len(pulse)} samples at {wavemem.SAMPLE_RATE / 1e9:.0f} GS/s):")
print(pulse.round(3))
