"""The seeded benchmark corpus: determinism, manifests, verification."""

import json

import pytest

from repro.model.serialization import canonical_system_json
from repro.synth import CorpusError, CorpusManifest, CorpusSpec, generate_corpus
from repro.synth.corpus import entry_id, entry_relpath, generate_entry

SPEC = CorpusSpec(count=8, seed=42, chains=2, tasks_per_chain=(2, 3))


class TestCorpusSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(count=0)
        with pytest.raises(ValueError):
            CorpusSpec(count=1, family="martian")
        with pytest.raises(ValueError):
            CorpusSpec(count=1, utilization=(0.8, 0.5))
        with pytest.raises(ValueError):
            CorpusSpec(count=1, utilization=(0.0, 0.5))
        with pytest.raises(ValueError):
            CorpusSpec(count=1, chains=0)
        with pytest.raises(ValueError):
            CorpusSpec(count=1, tasks_per_chain=(3, 2))

    def test_dict_roundtrip(self):
        assert CorpusSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_unknown_fields_rejected(self):
        wire = SPEC.to_dict()
        wire["flavor"] = "vanilla"
        with pytest.raises(ValueError, match="flavor"):
            CorpusSpec.from_dict(wire)

    def test_count_required(self):
        with pytest.raises(ValueError, match="count"):
            CorpusSpec.from_dict({"seed": 1})


class TestEntryGeneration:
    def test_entries_are_deterministic(self):
        first = canonical_system_json(generate_entry(SPEC, 3))
        second = canonical_system_json(generate_entry(SPEC, 3))
        assert first == second

    def test_entries_are_independent(self):
        """Generating entry 5 never requires generating entries 0-4."""
        alone = canonical_system_json(generate_entry(SPEC, 5))
        for index in range(5):
            generate_entry(SPEC, index)
        after_others = canonical_system_json(generate_entry(SPEC, 5))
        assert alone == after_others

    def test_different_indices_differ(self):
        a = canonical_system_json(generate_entry(SPEC, 0))
        b = canonical_system_json(generate_entry(SPEC, 1))
        assert a != b

    def test_seed_changes_population(self):
        other = CorpusSpec(count=8, seed=43, chains=2, tasks_per_chain=(2, 3))
        assert canonical_system_json(
            generate_entry(SPEC, 0)
        ) != canonical_system_json(generate_entry(other, 0))

    def test_entry_named_after_id(self):
        assert generate_entry(SPEC, 7).name == entry_id(7) == "sys-00000007"

    def test_waters_family_generates(self):
        spec = CorpusSpec(count=1, seed=1, family="waters", chains=2)
        system = generate_entry(spec, 0)
        assert system.tasks and system.chains

    def test_grouped_layout(self):
        assert entry_relpath(0).endswith("00000/sys-00000000.json")
        assert entry_relpath(1234).endswith("00001/sys-00001234.json")


class TestGeneratedCorpus:
    def test_same_seed_same_digest(self, tmp_path):
        first = generate_corpus(SPEC, tmp_path / "a")
        second = generate_corpus(SPEC, tmp_path / "b")
        assert first.manifest_digest == second.manifest_digest

    def test_load_roundtrip(self, tmp_path):
        generated = generate_corpus(SPEC, tmp_path / "c")
        loaded = CorpusManifest.load(tmp_path / "c")
        assert loaded.spec == SPEC
        assert loaded.count == SPEC.count
        assert loaded.manifest_digest == generated.manifest_digest

    def test_systems_stream_in_order(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        systems = list(manifest.systems())
        assert [s.name for s in systems] == [entry_id(i) for i in range(SPEC.count)]
        limited = list(manifest.systems(limit=3))
        assert [s.name for s in limited] == [entry_id(i) for i in range(3)]

    def test_verify_clean_corpus(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        assert manifest.verify() == SPEC.count
        assert manifest.verify(limit=2) == 2

    def test_refuses_to_overwrite(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        with pytest.raises(CorpusError, match="already exists"):
            generate_corpus(SPEC, tmp_path / "c")

    def test_load_missing_corpus(self, tmp_path):
        with pytest.raises(CorpusError, match="no corpus manifest"):
            CorpusManifest.load(tmp_path / "nowhere")


class TestCorpusVerifyCatchesDamage:
    def test_tampered_system_file(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        victim = manifest.paths(limit=1)[0]
        with open(victim, "a", encoding="utf-8") as handle:
            handle.write(" ")
        with pytest.raises(CorpusError, match="digest mismatch"):
            manifest.verify()

    def test_missing_system_file(self, tmp_path):
        import os

        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        os.remove(manifest.paths(limit=1)[0])
        with pytest.raises(CorpusError, match="missing system file"):
            manifest.verify()

    def test_tampered_manifest_lines(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        with open(manifest.lines_path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        with pytest.raises(CorpusError, match="manifest digest mismatch"):
            manifest.verify()

    def test_dropped_manifest_line(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        manifest = CorpusManifest.load(tmp_path / "c")
        with open(manifest.lines_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(manifest.lines_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
        with pytest.raises(CorpusError, match="entries"):
            manifest.verify()

    def test_corrupt_header(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        header = tmp_path / "c" / "manifest.json"
        header.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusError, match="corrupt corpus header"):
            CorpusManifest.load(tmp_path / "c")

    def test_unsupported_format(self, tmp_path):
        generate_corpus(SPEC, tmp_path / "c")
        header = tmp_path / "c" / "manifest.json"
        data = json.loads(header.read_text(encoding="utf-8"))
        data["format"] = 99
        header.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(CorpusError, match="unsupported corpus format"):
            CorpusManifest.load(tmp_path / "c")
