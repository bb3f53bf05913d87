"""The byte-identity script's comparer, on two synthetic output trees."""
from byte_identity import differing_files


def _tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_differing_files_ignores_only_the_provenance_timestamp(tmp_path):
    prov = b'{\n "command": "covariance",\n "generated_at": "%s",\n "seed": %s\n}\n'
    same = {"a/out/report.csv": b"1,2\n", "a/stdout.txt": b'{"ok": true}\nexit 0\n'}
    _tree(tmp_path / "before", {
        **same,
        "a/out/provenance.json": prov % (b"2026-01-01T00:00:00", b"1"),
        "b/out/provenance.json": prov % (b"2026-01-01T00:00:00", b"1"),
        "b/out/value.json": b"0.1\n",
        "b/out/only_before.txt": b"x",
    })
    _tree(tmp_path / "after", {
        **same,
        "a/out/provenance.json": prov % (b"2026-06-30T12:34:56", b"1"),
        "b/out/provenance.json": prov % (b"2026-06-30T12:34:56", b"2"),
        "b/out/value.json": b"0.10000000000000002\n",
        "c/stdout.txt": b"exit 1\n",
    })
    assert differing_files(tmp_path / "before", tmp_path / "after") == [
        "b/out/only_before.txt", "b/out/provenance.json", "b/out/value.json",
        "c/stdout.txt",
    ]
    assert differing_files(tmp_path / "before", tmp_path / "before") == []

