"""The persistence primitive: pinned on-disk values and atomic writes.

``TestPinnedValues`` holds literal digests and bytes computed before
the frame codecs, atomic writers, and digest helpers were merged into
:mod:`repro.store`. Existing checkpoints, spool runs, kernel caches,
and memo directories load only while every one of them holds, so they
are written against the public entry points each artifact is
produced through, not against ``repro.store`` itself.
"""

import hashlib
import os

import pytest

from repro.arrays.kernel_disk import key_digest
from repro.integrity import pack_record, record_digest, write_sealed
from repro.resilience import CheckpointManager, checkpoint_key
from repro.service.protocol import parse_request, query_fingerprint
from repro.service.results_cache import ResultsCache


class TestPinnedValues:
    def test_checkpoint_key(self):
        assert checkpoint_key(("config-a", 1)) \
            == "fdbb1035e51f9607e198e6d44ae972d3"

    def test_kernel_key_digest(self):
        assert key_digest(("config-a", 1)) \
            == (546659474070354941, 15236496996956543201)

    def test_record_digest(self):
        assert record_digest({"pitch_nm": 70, "ok": True,
                              "xs": [1, 2.5]}) \
            == "901fa799f7a84916f16527fafd628ce0"

    def test_query_fingerprint(self):
        query = parse_request({"op": "uber", "mode": "expected",
                               "pitch_nm": 70, "pattern": "random",
                               "seed": 1})
        assert query_fingerprint(query) \
            == "ac2524e5523cbf17bbffad408029adea"

    @staticmethod
    def _assert_frame(blob, magic):
        assert blob[:8] == magic
        assert int.from_bytes(blob[8:16], "little") == len(blob) - 48
        assert blob[16:48] == hashlib.sha256(blob[48:]).digest()

    def test_record_frame(self):
        self._assert_frame(pack_record({"values": [1, 2.5]}),
                           b"RRECORD1")

    def test_checkpoint_frame(self, tmp_path):
        CheckpointManager(str(tmp_path)).save("run", {"key": "k"})
        with open(str(tmp_path / "run.ckpt"), "rb") as fh:
            self._assert_frame(fh.read(), b"RCHKPT01")

    def test_sealed_document_bytes(self, tmp_path):
        path = str(tmp_path / "record.json")
        write_sealed(path, {"kind": "test", "n": 4})
        with open(path, "rb") as fh:
            assert fh.read() == (
                b'{\n  "check": "aee1ee70bd06315d4b8d8bf746d9ff6d",\n'
                b'  "kind": "test",\n  "n": 4\n}')

    def test_memo_envelope_bytes(self, tmp_path):
        key = "ab" * 16
        cache = ResultsCache(directory=str(tmp_path),
                             clock=lambda: 1000.0)
        cache.put(key, {"answer": 42, "xs": [1, 2.5]})
        with open(str(tmp_path / f"{key}.json"), "rb") as fh:
            assert fh.read() == (
                b'{"fingerprint":"abababababababababababababababab",'
                b'"payload":{"answer":42,"xs":[1,2.5]},'
                b'"sha256":"e5023cff77a022d2433b73c7f31730b8",'
                b'"stored_at":1000.0,"v":1}')


class TestAtomicWrite:
    @pytest.mark.parametrize("failing", ["write_bytes", "replace"])
    def test_failure_leaves_no_temp_file(self, tmp_path, failing):
        from repro.store import FileSystem, atomic_write

        class Failing(FileSystem):
            def write_bytes(self, path, data):
                super().write_bytes(path, data[:2])
                if failing == "write_bytes":
                    raise OSError("disk full")

            def replace(self, src, dst):
                raise OSError("EIO on rename")

        path = str(tmp_path / "target.bin")
        with open(path, "wb") as fh:
            fh.write(b"old")
        with pytest.raises(OSError):
            atomic_write(path, b"new contents", fs=Failing())
        assert os.listdir(str(tmp_path)) == ["target.bin"]
        with open(path, "rb") as fh:
            assert fh.read() == b"old"

    def test_temp_name_keeps_the_target_basename(self, tmp_path):
        from repro.store import FileSystem, atomic_write

        class Recording(FileSystem):
            def __init__(self):
                self.calls = []

            def makedirs(self, path):
                self.calls.append(("makedirs", path))
                super().makedirs(path)

            def write_bytes(self, path, data):
                self.calls.append(("write_bytes", path))
                super().write_bytes(path, data)

            def replace(self, src, dst):
                self.calls.append(("replace", dst))
                super().replace(src, dst)

        fs = Recording()
        path = str(tmp_path / "run.ckpt")
        atomic_write(path, b"x", fs=fs)
        assert [op for op, _ in fs.calls] \
            == ["makedirs", "write_bytes", "replace"]
        tmp_name = os.path.basename(fs.calls[1][1])
        assert tmp_name.startswith(".tmp-")
        assert tmp_name.endswith("-run.ckpt")
        assert len(tmp_name) == len(".tmp-12345678-run.ckpt")
        assert fs.calls[2][1] == path
