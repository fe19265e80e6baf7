"""Waveform memory: pulse synthesis, registry scans, codeword paging."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import workload
from qcoproc.errors import CapacityExceeded, ValidationError
from qcoproc.isa import CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, slot
from qcoproc.wavemem import (RCT, RESERVED_CODEWORDS, PageReport, assign_codewords,
                             dgs_scan, page_update, program_rotation_keys,
                             synthesize_pulse)

PI = math.pi
TAU = 0.04 * PI


def key(phi_over_pi, gamma_over_pi):
    return RotationKey.from_pi_units(phi_over_pi, gamma_over_pi)


def native(r, k):
    return workload.build_native_circuit(r, k)


def realization(seed, w=25.0):
    rng = np.random.default_rng(seed)
    return workload.sample_disorder(w, TAU, 10, rng, seed=seed)


def by_phi_then_gamma(keys):
    return sorted(keys, key=lambda k_: (k_.phi_over_pi, k_.gamma_over_pi))


def set_based_page_update(needed, resident, capacity, rng):
    """Test-local copy of the codeword rule that built the whole free set.

    Every free codeword, sorted; victims drawn from the sorted dumping list
    give up theirs, which join the free list before it is sorted again; the
    sorted missing list takes the lowest.  Returns (resident, evicted, loaded).
    """
    by_key = {k_: cw for cw, k_ in resident.items()}
    to_load = by_phi_then_gamma(needed - set(by_key))
    evicted = []
    if to_load:
        free = sorted(set(range(capacity)) - set(resident))
        n_evict = max(0, len(to_load) - len(free))
        if n_evict:
            dlst_sorted = by_phi_then_gamma(set(by_key) - needed)
            victims = rng.choice(len(dlst_sorted), size=n_evict, replace=False)
            for victim in (dlst_sorted[i] for i in sorted(victims.tolist())):
                codeword = by_key.pop(victim)
                del resident[codeword]
                free.append(codeword)
                evicted.append(victim)
            free.sort()
        for k_, codeword in zip(to_load, free):
            resident[codeword] = k_
    return resident, evicted, to_load


KEY_POOL = [key(i / 4, j / 8) for i in range(4) for j in range(1, 9)]
finite_keys = st.builds(RotationKey.make, st.floats(-50, 50), st.floats(-50, 50))


def mlst(program, rct):
    """Rotations required by the program but not loaded."""
    return program_rotation_keys(program) - set(rct.codewords)


def dlst(program, rct):
    """Rotations loaded but not used by the program."""
    return set(rct.codewords) - program_rotation_keys(program)


class TestSynthesizePulse:
    def test_zero_rotation_is_silence(self):
        pulse = synthesize_pulse(key(0, 0))
        assert all(s == 0 for s in pulse)

    def test_20_samples_read_only(self):
        pulse = synthesize_pulse(key(0, 1))
        assert len(pulse) == 20
        assert not pulse.flags.writeable

    def test_phase_factor_multiplies_samples(self):
        base = synthesize_pulse(key(0, 1))
        rotated = synthesize_pulse(key(0.5, 1))
        np.testing.assert_allclose(rotated, 1j * base, atol=1e-15)

    def test_amplitude_scales_with_gamma(self):
        half = synthesize_pulse(key(0, 0.5))
        full = synthesize_pulse(key(0, 1))
        np.testing.assert_allclose(full, 2 * half, atol=1e-15)
        assert np.max(np.abs(full)) == pytest.approx(1.0)  # unit-peak envelope

    def test_deterministic(self):
        a = synthesize_pulse(key(0.3, 1.7))
        b = synthesize_pulse(key(0.3, 1.7))
        np.testing.assert_array_equal(a, b)

    def test_full_canonical_gamma_is_twice_full_scale(self):
        assert np.max(np.abs(synthesize_pulse(key(0, 2.0)))) == pytest.approx(2.0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_canonical_key_never_exceeds_twice_full_scale(self, phi, gamma):
        """A canonical gamma lies in (-2 pi, 2 pi], so |gamma|/pi <= 2."""
        assert np.max(np.abs(synthesize_pulse(RotationKey.make(phi, gamma)))) \
            <= 2 + 1e-12


FIXED_KEYS = {key(0, 0.5), key(0, -0.5), key(0.5, -0.5), key(1.54, 1.0),
              key(0, -0.08), key(0, 0.08)}


class TestDgsScan:
    def test_empty_program_no_new_keys(self):
        qos = {}
        _, new = dgs_scan(QuantumProgram(1, ()), qos)
        assert new == set() and qos == {}

    def test_repeated_rotation_deduplicated(self):
        program = QuantumProgram(1, tuple(slot(Rxy(0, key(0, 0.5))) for _ in range(5)))
        qos = {}
        _, new = dgs_scan(program, qos)
        assert len(new) == 1
        np.testing.assert_array_equal(qos[key(0, 0.5)], synthesize_pulse(key(0, 0.5)))

    def test_idempotent(self):
        qos = {}
        program = native(realization(1), 3)
        _, first = dgs_scan(program, qos)
        _, second = dgs_scan(program, qos)
        assert first and second == set()

    def test_seeded_fixed_angles_leave_only_disorder(self):
        """Against a registry holding the fixed pulses, a fresh realization
        introduces exactly its disorder-dependent rotations."""
        qos = {k_: synthesize_pulse(k_) for k_ in FIXED_KEYS | {key(0.5, 0.5)}}
        r = realization(7)
        _, new = dgs_scan(native(r, 10), qos)
        expected = {
            key(0.5, round(2 * r.w * r.h0y * TAU / PI, 12)),
            key(0.5, round(0.5 + 2 * r.w * r.h1y * TAU / PI, 12)),
            key(0, round(2 * r.w * r.h0x * TAU / PI, 12)),
            key(0, round(2 * r.w * r.h1x * TAU / PI, 12)),
        }
        assert new == expected

    def test_generic_realization_needs_ten_keys(self):
        # 6 fixed + 4 disorder-dependent rotations
        assert len(program_rotation_keys(native(realization(3), 10))) == 10
        assert program_rotation_keys(native(realization(3), 10)) >= FIXED_KEYS


class TestMlstDlst:
    def test_empty_table(self):
        program = native(realization(1), 2)
        rct = RCT(capacity=16)
        needed = program_rotation_keys(program)
        assert mlst(program, rct) == needed
        assert dlst(program, rct) == set()

    def test_exact_match_leaves_both_empty(self):
        program = native(realization(1), 2)
        rct = RCT(capacity=16)
        page_update(program, rct, np.random.default_rng(0))
        assert mlst(program, rct) == set()
        assert dlst(program, rct) == set()

    def test_set_algebra(self):
        a, b, c, d = key(0, 0.1), key(0, 0.2), key(0, 0.3), key(0, 0.4)
        rct = RCT(capacity=4, codewords={a: 0, b: 1, c: 2})
        program = QuantumProgram(1, (slot(Rxy(0, b)), slot(Rxy(0, d))))
        assert mlst(program, rct) == {d}
        assert dlst(program, rct) == {a, c}
        _, report = page_update(program, rct, np.random.default_rng(0))
        assert (report.mlst, report.dlst) == ({d}, {a, c})


class TestPageUpdate:
    def test_all_needed_resident_after_update(self):
        program = native(realization(2), 10)
        rct = RCT(capacity=16)
        _, report = page_update(program, rct, np.random.default_rng(0))
        assert program_rotation_keys(program) <= set(rct.codewords)
        assert set(report.loaded) == set(report.mlst)
        assert report.hits == 0

    def test_second_update_is_free(self):
        program = native(realization(2), 10)
        rct = RCT(capacity=16)
        page_update(program, rct, np.random.default_rng(0))
        loads_before = rct.load_counter
        _, report = page_update(program, rct, np.random.default_rng(0))
        assert report.mlst == frozenset()
        assert rct.load_counter == loads_before
        assert report.hits == len(program_rotation_keys(program))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_repeated_pass_changes_nothing(self, data):
        """Paging a program again, after a pass into a full table made it
        resident, loads, evicts and draws nothing and leaves the table as it
        was; a third pass reports what the second did.  The sweep's stream
        reuses a repeated pass's report on this rule."""
        capacity = data.draw(st.integers(1, 12), label="capacity")
        pool = data.draw(st.permutations(KEY_POOL), label="pool")
        rct = RCT(capacity=capacity, codewords=dict(zip(pool[:capacity], range(capacity))))
        n_new = data.draw(st.integers(1, capacity), label="n_new")
        kept = data.draw(st.lists(st.sampled_from(pool[:capacity]), unique=True,
                                  max_size=capacity - n_new), label="kept")
        needed = data.draw(st.permutations(pool[capacity:capacity + n_new] + kept),
                           label="needed")
        program = QuantumProgram(1, tuple(slot(Rxy(0, k_)) for k_ in needed))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        _, first = page_update(program, rct, rng)
        assert first.evicted  # the table was full
        before = (dict(rct.codewords), rct.load_counter, rng.bit_generator.state)
        _, second = page_update(program, rct, rng)
        assert (rct.codewords, rct.load_counter, rng.bit_generator.state) == before
        assert second.loaded == second.evicted == ()
        assert second.hits == len(program_rotation_keys(program))
        _, third = page_update(program, rct, rng)
        assert third == second

    def test_load_counter_tracks_mlst(self):
        rct = RCT(capacity=16)
        total = 0
        rng = np.random.default_rng(0)
        for seed in range(5):
            program = native(realization(seed), 10)
            _, report = page_update(program, rct, rng)
            total += len(report.mlst)
            assert rct.load_counter == total

    def test_capacity_8_exceeded_16_fits(self):
        """A generic realization needs 10 distinct rotations."""
        program = native(realization(11), 10)
        with pytest.raises(CapacityExceeded):
            page_update(program, RCT(capacity=8), np.random.default_rng(0))
        rct = RCT(capacity=16)
        _, report = page_update(program, rct, np.random.default_rng(0))
        assert len(report.loaded) == 10

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_is_a_validation_error(self, capacity):
        """A toolkit class, as every raise in the package is (tests/test_errors.py)."""
        with pytest.raises(ValidationError, match=f"^capacity must be >= 1, got {capacity}$"):
            RCT(capacity=capacity)

    def test_second_realization_loads_only_new_disorder(self):
        rct = RCT(capacity=16)
        rng = np.random.default_rng(0)
        page_update(native(realization(1), 10), rct, rng)
        _, report = page_update(native(realization(2), 10), rct, rng)
        assert len(report.loaded) == 4  # fixed angles shared, disorder differs

    def test_free_slots_used_before_eviction(self):
        rct = RCT(capacity=14)
        rng = np.random.default_rng(0)
        page_update(native(realization(1), 10), rct, rng)
        _, report = page_update(native(realization(2), 10), rct, rng)
        assert len(report.loaded) == 4
        assert len(report.evicted) == 0  # 4 free slots remained

    def test_eviction_only_from_dlst(self):
        rct = RCT(capacity=10)
        rng = np.random.default_rng(0)
        page_update(native(realization(1), 10), rct, rng)
        program2 = native(realization(2), 10)
        _, report = page_update(program2, rct, rng)
        assert set(report.evicted) <= set(report.dlst)
        assert len(report.evicted) == 4  # full table, 4 new disorder keys
        assert program_rotation_keys(program2) <= set(rct.codewords)

    def test_retained_entries_keep_codewords(self):
        rct = RCT(capacity=10)
        rng = np.random.default_rng(0)
        page_update(native(realization(1), 10), rct, rng)
        fixed_before = {k_: rct.codewords[k_] for k_ in FIXED_KEYS}
        page_update(native(realization(2), 10), rct, rng)
        for k_, cw in fixed_before.items():
            assert rct.codewords[k_] == cw

    def test_mlst_never_exceeds_dlst_when_full(self):
        rct = RCT(capacity=10)
        rng = np.random.default_rng(0)
        page_update(native(realization(0), 10), rct, rng)
        for seed in range(1, 30):
            program = native(realization(seed), 10)
            assert len(rct.codewords) == 10  # table stays full
            assert len(mlst(program, rct)) <= len(dlst(program, rct))
            page_update(program, rct, rng)

    def test_eviction_deterministic_under_seed(self):
        # capacity 12 leaves 2 free after the first load, so later updates
        # evict a random 2-of-4 subset of the dumping list
        def trace(seed):
            rct = RCT(capacity=12)
            rng = np.random.default_rng(seed)
            out = []
            for s in range(10):
                _, report = page_update(native(realization(s), 10), rct, rng)
                out.append(tuple(report.evicted))
            return out

        assert trace(123) == trace(123)
        assert trace(123) != trace(124)  # different stream picks different victims

    def test_loading_pass_memory_does_not_grow_with_capacity(self):
        """Finding free codewords must not build the set of all of them."""
        program = native(realization(2), 10)
        rct = RCT(capacity=10**6)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _, report = page_update(program, rct, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.loaded) == 10
        assert sorted(rct.codewords.values()) == list(range(10))
        assert peak < 1 << 20

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_codewords_match_set_based_rule(self, data):
        """Any resident layout, holes included: same codewords, victims and
        loads as the rule that sorted the whole free set."""
        capacity = data.draw(st.integers(1, 24), label="capacity")
        occupied = data.draw(st.sets(st.integers(0, capacity - 1)), label="occupied")
        pool = data.draw(st.permutations(KEY_POOL), label="pool")
        resident = dict(zip(sorted(occupied), pool))
        needed = set(data.draw(st.lists(st.sampled_from(KEY_POOL), max_size=capacity),
                               label="needed"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        rct = RCT(capacity=capacity, codewords={k_: cw for cw, k_ in resident.items()})
        program = QuantumProgram(1, tuple(slot(Rxy(0, k_)) for k_ in by_phi_then_gamma(needed)))
        _, report = page_update(program, rct, np.random.default_rng(seed))
        want, evicted, loaded = set_based_page_update(
            needed, dict(resident), capacity, np.random.default_rng(seed))
        assert rct.codewords == {k_: cw for cw, k_ in want.items()}
        assert report.evicted == tuple(evicted)
        assert report.loaded == tuple(loaded)


class TestAssignCodewords:
    def test_empty_program(self):
        assert assign_codewords(QuantumProgram(1, ()), RCT(capacity=4)) == []

    def test_not_resident(self):
        program = QuantumProgram(1, (slot(Rxy(0, key(0, 0.5))),))
        with pytest.raises(KeyError):
            assign_codewords(program, RCT(capacity=4))

    def test_same_rotation_same_codeword(self):
        program = QuantumProgram(1, (slot(Rxy(0, key(0, 0.5))),
                                     slot(Rxy(0, key(0, 0.5)))))
        rct = RCT(capacity=4)
        page_update(program, rct, np.random.default_rng(0))
        stream = assign_codewords(program, rct)
        assert stream[0] == stream[1]

    def test_stream_length_counts_gates(self):
        """The deepest circuit runs 104 single-qubit + 40 two-qubit gates."""
        program = native(realization(5), 10)
        rct = RCT(capacity=16)
        page_update(program, rct, np.random.default_rng(0))
        stream = assign_codewords(program, rct)
        census = workload.gate_census(program)
        assert (census[Rxy], census[CZ]) == (104, 40)
        measure, reset = (rct.capacity + RESERVED_CODEWORDS[kind] for kind in (Measure, Reset))
        gate_stream = [cw for cw in stream if cw not in (measure, reset)]
        assert len(gate_stream) == 144
        assert stream.count(rct.capacity + RESERVED_CODEWORDS[CZ]) == 40

    def test_reserved_codewords_outside_rotation_space(self):
        rct = RCT(capacity=8)
        assert {rct.capacity + RESERVED_CODEWORDS[kind] for kind in (CZ, Measure, Reset)} \
            == {8, 9, 10}
        program = QuantumProgram(2, (slot(Reset(0)), slot(CZ(0, 1)), slot(Measure(0, "m"))))
        assert assign_codewords(program, rct) == [10, 8, 9]


class TestSerialization:
    def test_page_report_json_fields(self):
        program = native(realization(1), 2)
        rct = RCT(capacity=16)
        _, report = page_update(program, rct, np.random.default_rng(0))
        body = report.to_json_dict()
        assert set(body) == {"mlst", "dlst", "evicted", "loaded", "hits", "load_counter"}
        assert body["loaded"] == body["mlst"]
        assert all(set(k_) == {"phi_over_pi", "gamma_over_pi"} for k_ in body["mlst"])
        json.dumps(body)  # serializable

    @given(st.lists(finite_keys, max_size=6), st.lists(finite_keys, max_size=6),
           st.lists(finite_keys, max_size=6))
    def test_page_report_json_keeps_field_form(self, dlst_, evicted, loaded):
        """Each rotation is {"phi_over_pi", "gamma_over_pi"} in that order, the
        DLST lists by phi, then gamma, and the MLST is the loaded list."""
        def key_json(k_):
            return {"phi_over_pi": k_.phi_over_pi, "gamma_over_pi": k_.gamma_over_pi}

        report = PageReport(dlst=frozenset(dlst_), evicted=tuple(evicted),
                            loaded=tuple(loaded), hits=3, load_counter=7)
        expected = {
            "mlst": [key_json(k_) for k_ in loaded],
            "dlst": [key_json(k_) for k_ in by_phi_then_gamma(set(dlst_))],
            "evicted": [key_json(k_) for k_ in evicted],
            "loaded": [key_json(k_) for k_ in loaded],
            "hits": 3,
            "load_counter": 7,
        }
        assert json.dumps(report.to_json_dict()) == json.dumps(expected)


class TestExperimentReplay:
    def test_loads_and_hits_account_exactly(self):
        """Replaying many program loads: per-run loads + hits = needed."""
        rct = RCT(capacity=12)
        qos = {}
        rng = np.random.default_rng(99)
        total_loads = 0
        for seed in range(20):
            r = realization(seed, w=float(1 + seed % 3))
            for k_ in range(0, 11, 5):
                program = native(r, k_)
                dgs_scan(program, qos)
                needed = len(program_rotation_keys(program))
                _, report = page_update(program, rct, rng)
                assert len(report.loaded) + report.hits == needed
                total_loads += len(report.loaded)
        assert rct.load_counter == total_loads
