"""Synthetic corpus generator: validity, determinism, and class traces."""

import hashlib
from collections import Counter

import pytest

from boxtrace.bmff import parse_file
from boxtrace.fixtures import (
    DEFAULT_PROFILES,
    FixtureSpec,
    generate_corpus,
)
from boxtrace.symbols import default_blacklist, extract_symbols


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture_corpus")
    return generate_corpus(FixtureSpec(seed=5, videos_per_cell=2), out), out


class TestGeneration:
    def test_row_count(self, corpus):
        manifest, _ = corpus
        assert len(manifest.rows) == 6 * 4 * 2

    def test_two_class_spec_counts(self, tmp_path):
        spec = FixtureSpec(seed=1, classes=("native", "exiftool"),
                           videos_per_cell=4)
        manifest = generate_corpus(spec, tmp_path)
        assert len(manifest.rows) == 48

    def test_unknown_class_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_corpus(FixtureSpec(classes=("native", "premiere")),
                            tmp_path)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = FixtureSpec(seed=42, classes=("native",), videos_per_cell=1)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, a_dir)
        generate_corpus(spec, b_dir)
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate_corpus(FixtureSpec(seed=1, classes=("native",),
                                        videos_per_cell=1), tmp_path / "a")
        b = generate_corpus(FixtureSpec(seed=2, classes=("native",),
                                        videos_per_cell=1), tmp_path / "b")
        assert a.rows[0].file == b.rows[0].file
        assert (tmp_path / "a" / a.rows[0].file).read_bytes() != \
            (tmp_path / "b" / b.rows[0].file).read_bytes()


class TestGeneratedFilesAreValid:
    def test_all_files_parse(self, corpus):
        manifest, _ = corpus
        for row in manifest.rows:
            tree = parse_file(str(row.path))
            assert tree.warnings == []
            assert tree.root.children, row.file

    def test_ftyp_first_and_sizes_consistent(self, corpus):
        manifest, _ = corpus
        for row in manifest.rows:
            tree = parse_file(str(row.path))
            assert tree.root.children[0].name == "ftyp"
            total = sum(c.header.effective_len for c in tree.root.children)
            assert total == row.path.stat().st_size


class TestClassTraces:
    def test_exiftool_files_carry_xmp_symbol(self, corpus):
        manifest, _ = corpus
        target = "moov/udta/XMP_/@stuff"
        for row in manifest.rows:
            ms = extract_symbols(parse_file(str(row.path)), default_blacklist())
            expected = 1 if row.software == "exiftool" else 0
            assert ms[target] == expected, row.file

    def test_native_same_profile_differs_only_in_noise(self, corpus):
        manifest, _ = corpus
        native = [r for r in manifest.rows
                  if r.software == "none" and r.platform == "none"
                  and r.device == "D01"]
        assert len(native) >= 2
        noise_paths = {"moov/mvhd/@nextTrackId"}
        reference = None
        for row in native:
            ms = extract_symbols(parse_file(str(row.path)), default_blacklist())
            stable = {s: count for s, count in ms.items()
                      if not any(s == p or s.startswith(p + "/")
                                 for p in noise_paths)}
            if reference is None:
                reference = stable
            else:
                assert stable == reference

    def test_profiles_have_distinct_vendor_boxes(self):
        vendors = [p.vendor_box for p in DEFAULT_PROFILES]
        assert len(set(vendors)) == len(vendors)


class TestVariedLayouts:
    def test_rare_forms_appear_and_parse(self, tmp_path):
        manifest = generate_corpus(
            FixtureSpec(seed=7, videos_per_cell=3, varied=True), tmp_path)
        forms = Counter()
        for row in manifest.rows:
            tree = parse_file(str(row.path))
            forms["padding"] += len(tree.warnings)
            assert all("zero bytes of padding" in w for w in tree.warnings)
            stack = [(node, "") for node in tree.root.children]
            while stack:
                node, parent = stack.pop()
                stack += [(child, node.name) for child in node.children]
                fields = dict(node.fields)
                if fields.get("version") == "1":
                    forms[f"{node.name} v1"] += 1
                if node.name == "co64":
                    forms["co64"] += 1
                if node.header.large_size is not None and parent in ("moov",
                                                                      "trak"):
                    forms[f"64-bit size in {parent}"] += 1
                if node.header.size == 0:
                    forms["size 0"] += 1
                if node.name == "uuid" and parent in ("moov", "trak"):
                    forms[f"uuid in {parent}"] += 1
        assert set(forms) == {"padding", "mvhd v1", "tkhd v1", "mdhd v1",
                              "elst v1", "co64", "64-bit size in moov",
                              "64-bit size in trak", "size 0", "uuid in moov",
                              "uuid in trak"}


def _corpus_digest(out) -> str:
    """sha256 over the name, length and bytes of every file in `out`, in
    name order: the manifest and every container, blacklisted bytes too."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.name.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


class TestFixtureBytesGolden:
    """The recorded digest of every file `generate_corpus` writes at two
    seeds, plain and varied. The other goldens see parse dumps and
    symbols, so they miss bytes neither shows, such as a `free` box's
    payload or the manifest's line endings; these digests do not."""

    @pytest.mark.parametrize("seed,varied,expected", [
        (7, False,
         "fc298f09ac8d76dc72574273d8ecf5660077d05896e078c4cf0b26f3718c3714"),
        (7, True,
         "86eb82f60687f7d2c2d0a0690cb5070569b99120fa467e4e1950c55d595d0aba"),
        (11, False,
         "8ac05b226d84786ff1fdf36bce2df15e9060a0dc626b43495a0e7b40642574cd"),
        (11, True,
         "8b655e280346dc221a26ce3b28f00e50eaf2fccdd265ceefffccffc62c9a228a"),
    ])
    def test_corpus_bytes(self, tmp_path, seed, varied, expected):
        generate_corpus(FixtureSpec(seed=seed, videos_per_cell=2,
                                    varied=varied), tmp_path)
        assert _corpus_digest(tmp_path) == expected
