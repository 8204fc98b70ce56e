"""Unit tests for the class registry and cross-process serial translation."""

import pytest

from repro.core.checkpoint import FullCheckpoint
from repro.core.errors import RestoreError, SchemaError
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.restore import restore_full, structurally_equal
from tests.conftest import Leaf, Mid, build_root


class TestSerialTranslation:
    def test_identity_translation(self):
        manifest = DEFAULT_REGISTRY.name_to_serial()
        translation = DEFAULT_REGISTRY.serial_translation(manifest)
        assert all(old == new for old, new in translation.items())

    def test_shifted_serials_translate(self):
        """Simulates recovery in a process that registered classes in a
        different order (different serials for the same class names)."""
        manifest = DEFAULT_REGISTRY.name_to_serial()
        # Pretend the writing process had every serial shifted by 1000.
        shifted = {name: serial + 1000 for name, serial in manifest.items()}
        translation = DEFAULT_REGISTRY.serial_translation(shifted)
        for name, old_serial in shifted.items():
            cls = DEFAULT_REGISTRY.class_by_name(name)
            assert translation[old_serial] == DEFAULT_REGISTRY.serial_of(cls)

    def test_unknown_class_in_manifest_rejected(self):
        with pytest.raises(RestoreError, match="not.*defined"):
            DEFAULT_REGISTRY.serial_translation({"ghosts.Phantom": 1})

    def test_restore_with_translation_end_to_end(self):
        root = build_root()
        driver = FullCheckpoint()
        driver.checkpoint(root)
        data = driver.getvalue()

        # Rewrite the stream's serials as a foreign process would have
        # written them, then restore with the matching translation.
        manifest = DEFAULT_REGISTRY.name_to_serial()
        shifted_manifest = {n: s + 7 for n, s in manifest.items()}
        serial_to_shifted = {s: s + 7 for s in manifest.values()}

        from repro.core.registry import DEFAULT_REGISTRY as reg
        from repro.core.streams import DataInputStream, DataOutputStream

        inp = DataInputStream(data)
        out = DataOutputStream()
        while not inp.at_eof:
            out.write_int32(inp.read_int32())
            serial = inp.read_int32()
            out.write_int32(serial_to_shifted[serial])
            cls = reg.class_for(serial)
            start = inp.position
            end = cls.skip_packed(data, start, len(data), 0)
            out.write_bytes(inp.read_bytes(end - start))
        foreign = out.getvalue()

        translation = reg.serial_translation(shifted_manifest)
        table = restore_full(foreign, serial_translation=translation)
        recovered = table[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)


class TestRegistryBasics:
    def test_class_by_name(self):
        name = f"{Leaf.__module__}.{Leaf.__qualname__}"
        assert DEFAULT_REGISTRY.class_by_name(name) is Leaf
        assert DEFAULT_REGISTRY.class_by_name("no.such.Class") is None

    def test_reregistration_is_idempotent(self):
        registry = ClassRegistry()
        first = registry.register(Leaf, Leaf._ckpt_schema)
        second = registry.register(Leaf, Leaf._ckpt_schema)
        assert first == second
        assert len(registry) == 1

    def test_len_and_contains(self):
        registry = ClassRegistry()
        registry.register(Mid, Mid._ckpt_schema)
        assert Mid in registry
        assert Leaf not in registry

    def test_class_for_unknown_serial(self):
        with pytest.raises(RestoreError):
            ClassRegistry().class_for(5)

    def test_schema_of_unregistered(self):
        with pytest.raises(SchemaError):
            ClassRegistry().schema_of(Leaf)
