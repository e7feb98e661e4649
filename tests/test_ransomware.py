"""Ransomware simulators: cohort composition, per-class behaviour,
family quirks, reversibility of the damage."""

import collections
import random

import pytest

from repro.crypto import chacha20_xor
from repro.fs import DOCUMENTS, TEMP
from repro.magic import identify_name
from repro.ransomware import (RansomwareSample, SampleProfile,
                              TOTAL_HAUL, TOTAL_INERT, TOTAL_WORKING,
                              virustotal_haul, working_cohort)
from repro.ransomware.traversal import order_targets
from repro.sandbox import VirtualMachine, run_sample


class TestCohortComposition:
    """Table I's exact sample counts."""

    @pytest.fixture(scope="class")
    def cohort(self):
        return working_cohort()

    def test_total_is_492(self, cohort):
        assert len(cohort) == TOTAL_WORKING == 492

    def test_class_totals_match_table1(self, cohort):
        counts = collections.Counter(s.profile.behavior_class
                                     for s in cohort)
        assert counts == {"A": 282, "B": 147, "C": 63}

    def test_family_counts_match_table1(self, cohort):
        from repro.experiments import PAPER_TABLE1
        counts = collections.Counter(s.profile.family for s in cohort)
        for family, (a, b, c, total, _median) in PAPER_TABLE1.items():
            assert counts[family] == total, family

    def test_fifteen_families(self, cohort):
        assert len({s.profile.family for s in cohort}) == 15

    def test_sample_names_unique(self, cohort):
        names = [s.name for s in cohort]
        assert len(set(names)) == len(names)

    def test_deterministic_given_seed(self):
        a = [s.profile.seed for s in working_cohort(0)]
        b = [s.profile.seed for s in working_cohort(0)]
        assert a == b

    def test_different_base_seed_changes_samples(self):
        a = [s.profile.seed for s in working_cohort(0)]
        b = [s.profile.seed for s in working_cohort(1)]
        assert a != b

    def test_haul_dimensions(self):
        haul = virustotal_haul()
        assert len(haul) == TOTAL_HAUL == 2663
        inert = [s for s in haul if s.profile.inert_reason]
        assert len(inert) == TOTAL_INERT == 2171


class TestProfileValidation:
    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            SampleProfile("x", 0, "D", seed=1)

    def test_bad_disposal_rejected(self):
        with pytest.raises(ValueError):
            SampleProfile("x", 0, "C", seed=1, class_c_disposal="burn")

    def test_bad_note_mode_rejected(self):
        with pytest.raises(ValueError):
            SampleProfile("x", 0, "A", seed=1, note_mode="sky_writing")


def _unmonitored_machine(small_corpus):
    machine = VirtualMachine(small_corpus)
    machine.snapshot()
    return machine


class TestClassBehaviours:
    """Run samples with no monitor and inspect the transformation."""

    def test_class_a_overwrites_in_place(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "A", seed=3,
                                extensions=(".txt",), max_files=3,
                                rename_suffix=None, note_mode="none")
        sample = RansomwareSample(profile)
        machine.run_program(sample)
        damage = machine.assess()
        assert damage.files_lost == 3
        assert not damage.missing          # same paths, new content
        assert not damage.new_files

    def test_class_a_rename_suffix(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "A", seed=3,
                                extensions=(".txt",), max_files=2,
                                rename_suffix=".locked", note_mode="none")
        machine.run_program(RansomwareSample(profile))
        damage = machine.assess()
        assert len(damage.missing) == 2    # originals renamed away
        assert all(str(p).endswith(".locked") for p in damage.new_files)

    def test_class_a_output_is_ciphertext(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "A", seed=4,
                                extensions=(".pdf",), max_files=1,
                                rename_suffix=None, note_mode="none")
        sample = RansomwareSample(profile)
        machine.run_program(sample)
        attacked = sample.files_attacked[0]
        assert identify_name(machine.vfs.peek_read(attacked)) == "data"

    def test_class_b_stages_through_temp(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "B", seed=5,
                                extensions=(".txt",), max_files=2,
                                rename_suffix=".enc", note_mode="none")
        machine.run_program(RansomwareSample(profile))
        damage = machine.assess()
        assert len(damage.missing) == 2
        assert len(damage.new_files) == 2
        # staging files cleaned out of temp
        assert not [n for n in machine.vfs.listdir(
            machine.vfs.processes.spawn("x").pid, TEMP)
            if n.endswith(".tmp")]

    def test_class_c_delete_leaves_sibling_ciphertext(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "C", seed=6,
                                extensions=(".txt",), max_files=2,
                                rename_suffix=".enc", note_mode="none",
                                class_c_disposal="delete",
                                work_in_temp=False)
        machine.run_program(RansomwareSample(profile))
        damage = machine.assess()
        assert len(damage.missing) == 2
        assert len(damage.new_files) == 2

    def test_class_c_move_over_replaces_content(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "C", seed=7,
                                extensions=(".txt",), max_files=2,
                                rename_suffix=".enc", note_mode="none",
                                class_c_disposal="move_over",
                                work_in_temp=False)
        machine.run_program(RansomwareSample(profile))
        damage = machine.assess()
        assert len(damage.modified) == 2
        assert not damage.new_files

    def test_damage_is_reversible_with_the_key(self, small_corpus):
        """The defining property of crypto-ransomware (§III): the
        transformation is decryptable by whoever holds the key."""
        from repro.ransomware.ciphers import CipherEngine
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("testfam", 0, "A", seed=8,
                                cipher_kind="chacha",
                                extensions=(".txt",), max_files=1,
                                rename_suffix=None, note_mode="none")
        sample = RansomwareSample(profile)
        original = {p: bytes(machine.vfs.peek_read(p))
                    for p, _ in machine.vfs.peek_walk_files(DOCUMENTS)}
        machine.run_program(sample)
        victim = sample.files_attacked[0]
        cipher_text = machine.vfs.peek_read(victim)
        engine = CipherEngine("chacha", seed=8)
        recovered = chacha20_xor(engine.key32, engine.nonce, cipher_text,
                                 initial_counter=1 << 16)
        assert recovered == original[victim]

    def test_notes_dropped_per_directory(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("teslacrypt", 0, "A", seed=9,
                                extensions=(".txt",), max_files=4,
                                rename_suffix=None, note_mode="per_dir")
        sample = RansomwareSample(profile)
        machine.run_program(sample)
        assert sample.notes_written >= 1
        assert machine.assess().new_files  # notes are new files

    def test_read_only_files_skipped_not_fatal(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        # mark every txt read-only: a Class A sweep should skip them all
        for path, node in machine.vfs.peek_walk_files(DOCUMENTS):
            if path.suffix == ".txt":
                node.attrs.read_only = True
        profile = SampleProfile("testfam", 0, "A", seed=10,
                                extensions=(".txt",), rename_suffix=None,
                                note_mode="none")
        sample = RansomwareSample(profile)
        outcome = machine.run_program(sample)
        assert outcome.completed
        assert machine.assess().files_lost == 0
        assert sample.files_skipped > 0

    def test_inert_sample_touches_nothing(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("vt-unlabeled", 0, "A", seed=11,
                                inert_reason="locker")
        outcome = machine.run_program(RansomwareSample(profile))
        assert outcome.completed
        assert machine.assess().files_lost == 0

    def test_shadow_copy_ritual(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        machine.shadow.create(4, DOCUMENTS)
        profile = SampleProfile("teslacrypt", 0, "A", seed=12,
                                extensions=(".txt",), max_files=1,
                                note_mode="none",
                                delete_shadow_copies=True)
        machine.run_program(RansomwareSample(profile))
        assert not machine.shadow.list_copies()

    def test_prefix_encryption_keeps_tail(self, small_corpus):
        machine = _unmonitored_machine(small_corpus)
        profile = SampleProfile("gpcode", 0, "A", seed=13,
                                extensions=(".pdf",), max_files=1,
                                skip_small=4096, rename_suffix=None,
                                note_mode="none",
                                encrypt_prefix_bytes=2048)
        sample = RansomwareSample(profile)
        original = {p: n.read_bytes()
                    for p, n in machine.vfs.peek_walk_files(DOCUMENTS)}
        machine.run_program(sample)
        victim = sample.files_attacked[0]
        after = machine.vfs.peek_read(victim)
        assert after[:2048] != original[victim][:2048]
        assert after[2048:] == original[victim][2048:]


class TestTraversalStrategies:
    ENTRIES = [
        (DOCUMENTS / "a" / "deep" / "deeper" / "f1.txt", 100, 5),
        (DOCUMENTS / "a" / "f2.txt", 5000, 3),
        (DOCUMENTS / "f3.txt", 50, 2),
        (DOCUMENTS / "b" / "f4.txt", 900, 3),
    ]

    def test_size_ascending(self):
        rng = random.Random(0)
        ordered = order_targets(self.ENTRIES, "size_ascending", rng)
        assert [e[1] for e in ordered] == [50, 100, 900, 5000]

    def test_size_descending(self):
        rng = random.Random(0)
        ordered = order_targets(self.ENTRIES, "size_descending", rng)
        assert [e[1] for e in ordered] == [5000, 900, 100, 50]

    def test_deepest_first(self):
        rng = random.Random(0)
        ordered = order_targets(self.ENTRIES, "dfs_deepest_first", rng)
        assert ordered[0][0].name == "f1.txt"

    def test_top_down_starts_at_root(self):
        rng = random.Random(0)
        ordered = order_targets(self.ENTRIES, "top_down", rng)
        assert ordered[0][0].name == "f3.txt"

    def test_ext_priority_prefers_productivity(self):
        rng = random.Random(0)
        entries = [(DOCUMENTS / "x.mp3", 10, 1), (DOCUMENTS / "y.pdf", 10, 1)]
        ordered = order_targets(entries, "ext_priority", rng)
        assert ordered[0][0].suffix == ".pdf"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            order_targets(self.ENTRIES, "teleport", random.Random(0))

    def test_shuffled_is_seed_deterministic(self):
        a = order_targets(self.ENTRIES, "shuffled", random.Random(5))
        b = order_targets(self.ENTRIES, "shuffled", random.Random(5))
        assert a == b


class TestStaticArtifacts:
    def test_marker_families_share_bytes(self):
        cohort = working_cohort()
        tesla = [s for s in cohort if s.profile.family == "teslacrypt"][:2]
        marker = tesla[0].profile.family_marker
        assert marker and marker in tesla[0].image_bytes
        assert marker in tesla[1].image_bytes

    def test_polymorphic_variants_share_nothing_stable(self):
        cohort = working_cohort()
        virlock = [s for s in cohort if s.profile.family == "virlock"][:2]
        a, b = virlock[0].image_bytes, virlock[1].image_bytes
        # beyond the 64-byte PE header, no 24-byte run in common
        grams = {a[i:i + 24] for i in range(64, len(a) - 24)}
        assert not any(b[i:i + 24] in grams
                       for i in range(64, len(b) - 24))

    def test_poshcoder_image_is_script_text(self):
        sample = next(s for s in working_cohort()
                      if s.profile.family == "poshcoder")
        assert sample.name.endswith(".ps1")
        assert b"Get-ChildItem" in sample.image_bytes
