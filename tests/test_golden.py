"""Byte-identity goldens for training, evaluation and the LLR report.

The digests were recorded from the per-symbol pipeline (dict vectors and
the O(K^2) pair scan) before training moved to one count matrix per
evaluation; any change to a model byte or a report byte fails here.

The fixture seed reaches only blacklisted or filtered fields, so seeds 7
and 11 give the same symbols; the `wide` corpora add seeded opaque
top-level boxes, which give hundreds of symbols with uneven presence and
many tied class frequencies.
"""

import hashlib
import io
import random
import struct
from contextlib import redirect_stdout

from collections import Counter

import pytest

from boxtrace.bmff import dump_tree, parse_container, parse_file
from boxtrace.cli import main
from boxtrace.errors import ParseError
from boxtrace.evaluate import get_scenario, run_scenario
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.modelfile import dumps_model
from boxtrace.symbols import dump_symbols, extract_symbols

WIDE_POOL = [f"zz{i:02d}".encode() for i in range(48)]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_corpus(tmp_path, seed: int, wide: bool):
    corpus = generate_corpus(FixtureSpec(seed=seed, videos_per_cell=2),
                             tmp_path / f"corpus-{seed}-{int(wide)}")
    if wide:
        for row in corpus.rows:
            rng = random.Random(f"{seed}/{row.file}")
            extra = b"".join(struct.pack(">I4s", 8, code)
                             for code in rng.sample(WIDE_POOL, 6))
            with open(row.path, "ab") as handle:
                handle.write(extra)
    return corpus


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def digests(tmp_path, seed: int, wide: bool, scenario: str) -> dict:
    corpus = make_corpus(tmp_path, seed, wide)
    report = run_scenario(corpus, get_scenario(scenario))
    model_path = tmp_path / "model.json"
    cli_stdout(["train", str(corpus.path), "--scenario", scenario,
                "--out", str(model_path)])
    return {
        "folds": [sha(dumps_model(fold.model)) for fold in report.folds],
        "llr_report": sha(cli_stdout(["llr-report", str(corpus.path),
                                      "--scenario", scenario])),
        "train": sha(model_path.read_text(encoding="ascii")),
    }


GOLDEN = {
    "7/plain/blind": {
        "folds": [
            "b8f1cbd2ae3cb49eca4c95cd2cc3487dfa930bc5af4b419e147acb69300e8829",
            "497a724b4448f6909cc4c1a27ec2fc0dbab62fdd23da43179c7e381bff28fe23",
            "931df8e9bfbc6d129f419043366978edefb28765a188a3be9b83ddfbb0b43f16",
            "85e041d80f3b3cf45da31114233d06992cb1face3bc07d97d7f6ec6035c58469",
            "44b2eaecb8776bd8accccbfa261394cf0111b6f8d6aa2663560c0fd9ac2ce502",
            "38bb38196bff748a721d5076de50a7f99ca551ea8800d58cca5160658d086a24",
        ],
        "llr_report": "1c8423e8ca20f2ea4ab5cd524303cbff612c3859dc152541c2b30df74d7c76e3",
        "train": "556289d55f1da679f6b450d7187cf7a7ff293bde51264ecee30d9242fa623ef2",
    },
    "7/plain/integrity": {
        "folds": [
            "83e7ebdbb6bc4d23b62f1f858669413dd0cffb6285fc3e168e3132c4a297b449",
            "a76416052648f4868e5c6d8711e7fdd83a5659b9e1897797e08e7072f6822aa4",
            "37f1c1bda7ca80d9b1df3e7ad07977b5e5a060989d1ee0550db290959fdec9d3",
            "2194494fa93ccbd2283ba4bca2f4bf5ef1f7e96097007ae109f54f00967f22c5",
            "61a101b67804a8282577c9fb820ef899f0cf71523020463eaebfc309d75073dd",
            "7c89eb4bcc2844c4de4dcc9db48a3e83035f6ba9122b7380a4349342f9dff469",
        ],
        "llr_report": "b91726a3d2bee601051701b4646335aca4c3c117e8239305b8eb01266f5a66eb",
        "train": "8eddd7956f91f2648bd91ffafcc28a8ab9f42605691d2b9b0c414bf4e1563fd9",
    },
    "7/wide/blind": {
        "folds": [
            "5c1b96dcaf6a22de2b6fa4c05719fcd1e2341aaede4d393a640f3c8c25729d95",
            "3251cc8391385d3c3058153a73540a5f6722018700a197f900be90d54587f5cc",
            "08a3d69a223efb0cbacb20bbd01855b8a46a2ef606129f7a71708f2bf63987b6",
            "d18fa5465d06598e96ca7d0e508a614238d7d924a830992838fdfbc5ff45ae7f",
            "140aa4dfb47be7f8710e0b7f475f18508596f83b4a7c752a23e940e2752e1f3d",
            "01bc1be2047e261f42a40f4d6d108261192b697e0acef8d3c07c3deb50de4fb7",
        ],
        "llr_report": "e4dd9100a900e76df665d4dcc8e1f88c0a94acb7ec6379eae31abafac5599b13",
        "train": "7d501b2ea1757d0ee2dfcd57f6153594509d2925797d6e3ad7787e02312e516b",
    },
    "7/wide/integrity": {
        "folds": [
            "d7fbcdfe0cb8fa3b20c905c4df15034d28cc228e7d5c6e267c4ccc4c4b153f86",
            "bde89897a8a0c3ffcd78b50a265cf89f49492712d214beac0f5976fc11c01700",
            "625504f5994aed5651ea0526d6bde18695ab059a491968bfc2415e3834bc5e8e",
            "d742694397e73966e7fb45c7375264430664fc8e3cc940b4f7911f1180e4437c",
            "3367352d4eddf301131d4e8bf477d7d2b3bd43a2766afdc13197be7a480a006a",
            "ef7973046f7ee5da6b0759eceedd77b2075d6cc6e008347a13094f991c864c72",
        ],
        "llr_report": "adc5b29061ae97e799586dc61e7d7e531fcaa0e08d8ed5b0f26b4e16b11151df",
        "train": "7da5abb909d46774e6b05e6ee8989ffd73b76ad86857704e5a695eb7ce23c0e8",
    },
    "11/plain/blind": {
        "folds": [
            "b8f1cbd2ae3cb49eca4c95cd2cc3487dfa930bc5af4b419e147acb69300e8829",
            "497a724b4448f6909cc4c1a27ec2fc0dbab62fdd23da43179c7e381bff28fe23",
            "931df8e9bfbc6d129f419043366978edefb28765a188a3be9b83ddfbb0b43f16",
            "85e041d80f3b3cf45da31114233d06992cb1face3bc07d97d7f6ec6035c58469",
            "44b2eaecb8776bd8accccbfa261394cf0111b6f8d6aa2663560c0fd9ac2ce502",
            "38bb38196bff748a721d5076de50a7f99ca551ea8800d58cca5160658d086a24",
        ],
        "llr_report": "1c8423e8ca20f2ea4ab5cd524303cbff612c3859dc152541c2b30df74d7c76e3",
        "train": "556289d55f1da679f6b450d7187cf7a7ff293bde51264ecee30d9242fa623ef2",
    },
    "11/plain/integrity": {
        "folds": [
            "83e7ebdbb6bc4d23b62f1f858669413dd0cffb6285fc3e168e3132c4a297b449",
            "a76416052648f4868e5c6d8711e7fdd83a5659b9e1897797e08e7072f6822aa4",
            "37f1c1bda7ca80d9b1df3e7ad07977b5e5a060989d1ee0550db290959fdec9d3",
            "2194494fa93ccbd2283ba4bca2f4bf5ef1f7e96097007ae109f54f00967f22c5",
            "61a101b67804a8282577c9fb820ef899f0cf71523020463eaebfc309d75073dd",
            "7c89eb4bcc2844c4de4dcc9db48a3e83035f6ba9122b7380a4349342f9dff469",
        ],
        "llr_report": "b91726a3d2bee601051701b4646335aca4c3c117e8239305b8eb01266f5a66eb",
        "train": "8eddd7956f91f2648bd91ffafcc28a8ab9f42605691d2b9b0c414bf4e1563fd9",
    },
    "11/wide/blind": {
        "folds": [
            "f290395b13fe121fdf0270c2943dbb633b164fbabfcff2c2feeea3bc77001ff4",
            "3943a5e823c4e26edb56e79f4a8726900cd96e8b3dcfcb29b7cbe130af553884",
            "4168417f31aec19354a6885a4cde94368623e8894a2bf72ac05143c2743a1747",
            "fd7112487ec1875e776d2fd2b14df3eff51cca02aa90ff0db0cc1403af8804df",
            "26b8dde5104bd3fb0bf0da6408b548f16793817159ee0569a6dd19b195ac4872",
            "8291bf2417412ebabe7baf51cc5b2b2060b14e2b1d45d97aae42f0103718df7f",
        ],
        "llr_report": "cf921c392f988458aac1757d066c221819d134b941ab2eab8ace18ab7b2780c6",
        "train": "93134a206af95ad3a58e36af09bc81271dc86fe976aafcb5f69763769e1daf8f",
    },
    "11/wide/integrity": {
        "folds": [
            "91f3fa4be26d458df8fc3f78f150d4334bf1dcdb64b080bf04a415ef00646b02",
            "952eba185fe4a59fca8d4325356f904ea743da776330247cb19eee5af97b17de",
            "82418e67191cc08868cb3c89911ab8b1da1725cf3d7d78fe89648bffb698bb31",
            "549f5d9f9dd8dc2d141cfdf2613b5cec03394992930b1ebc1a3cf6c587d8676c",
            "cdbe5392c0aa11668c217cb0e1db12cd4525c8cafcb78e6d21e8927c5741462b",
            "b3f34b9725cb3b38969d2a086cd339da822e13ff16b1c3901a0ab5cc63020088",
        ],
        "llr_report": "87add279e75c4de90dd7718502d1ea2d800087e87169e975c628277b3ef09b4a",
        "train": "3d13ae313dab898128a3a0fbc6f5c0b883540ee818d91e1ee216751cbf2eb98b",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_digests_match_golden(case, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    seed, kind, scenario = case.split("/")
    assert digests(tmp_path, int(seed), kind == "wide", scenario) \
        == GOLDEN[case]


# Parse and symbolize goldens: the tree dumps, parse warnings and symbol
# dumps of every corpus file, and the outcome of parsing seeded hostile
# variants of some of them (the error type and message when parsing
# raises). Recorded from the seek-per-field parser with `Symbol` objects,
# before the parser read through a window and symbols became strings.

HOSTILE_BASES = 8
HOSTILE_PER_BASE = 8
HOSTILE_SIZES = (0, 1, 7, 8, 2**32 - 1)


def file_outputs(tree) -> dict[str, str]:
    return {
        "tree_text": dump_tree(tree, "text"),
        "tree_json": dump_tree(tree, "json"),
        "warnings": "".join(w + "\n" for w in tree.warnings),
        "symbols": dump_symbols(extract_symbols(tree)),
    }


def box_offsets(tree) -> list[int]:
    stack, offsets = list(tree.root.children), []
    while stack:
        node = stack.pop()
        offsets.append(node.header.offset)
        stack.extend(node.children)
    return sorted(offsets)


def hostile_variant(data: bytes, offsets: list[int], rng: random.Random,
                    kind: int) -> bytes:
    """A bit-flipped, truncated or size-rewritten copy of `data`."""
    if kind == 0:
        out = bytearray(data)
        for _ in range(rng.randrange(1, 5)):
            bit = rng.randrange(len(out) * 8)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == 1:
        return data[:rng.randrange(1, len(data))]
    out = bytearray(data)
    struct.pack_into(">I", out, rng.choice(offsets), rng.choice(HOSTILE_SIZES))
    return bytes(out)


def hostile_outcome(data: bytes) -> str:
    try:
        tree = parse_container(io.BytesIO(data), source_id="hostile")
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return "ok\n" + "".join(file_outputs(tree).values())


# Every fixture file parses without a warning.
NO_WARNINGS = "05fe156a12494af0a544d5859e0b668615df283942d0e48e5c0861277dbf6c88"

PARSE_GOLDEN = {
    "7/plain": {
        "symbols": "46c38de02e4db86dde0f2147ab867d775c8ee53e8c2a68c2fe31e7fb9a39f234",
        "tree_json": "6b1cb988baf2da04cdeba07caee1cd2d6ff75f2e3a14989e53fe787ff51b321a",
        "tree_text": "ca56130ed22f38c21483e9e3ef19674d77ded1f2b95fb600a63e9b9af2ed846d",
        "warnings": NO_WARNINGS,
    },
    "7/wide": {
        "symbols": "39674c44a44ab86c6b8a68a9849cf1fa5734ddaed0460333aeb10695fe048a52",
        "tree_json": "6709e5623505c3c8b930d2a6095e5fde0be01e6c20ea82e7192ffc347919f230",
        "tree_text": "db03d3cf6c299834d6509d763da5871ccca7d65d82996982180bbdb7da2529f5",
        "warnings": NO_WARNINGS,
    },
    "11/plain": {
        "symbols": "46c38de02e4db86dde0f2147ab867d775c8ee53e8c2a68c2fe31e7fb9a39f234",
        "tree_json": "121c1c85ef5e01b12e854618084091e8e22041bfc88cefa0a96e021e1cdef8ce",
        "tree_text": "989d66976150bb8db7d22f3d644174c9270a0d6452e24b7ea35bb696042d2d3c",
        "warnings": NO_WARNINGS,
    },
    "11/wide": {
        "symbols": "c3712c6e879d9bc8314384cbc36b2a1809820f3ed88b233193e45f85b01f786a",
        "tree_json": "d5d09717d73f06e9a1ebba10dbc2a75081b108c3447c9cee84ce897ddaa8ed41",
        "tree_text": "678aa8d0512bc96d7e8a70ae15f9850dbaacc8982c70f4abc86a365c400ab6c5",
        "warnings": NO_WARNINGS,
    },
}

HOSTILE_GOLDEN = {
    "digest": "b43f0801519244044b12a3c8eb26b2ef98f8d3c716886da72605a659e9add374",
    "outcomes": {"TruncatedBox": 33, "ZeroSizeNonFinal": 8, "ok": 23},
}


@pytest.mark.parametrize("case", sorted(PARSE_GOLDEN))
def test_parse_and_symbol_dumps_match_golden(case, tmp_path):
    seed, kind = case.split("/")
    corpus = make_corpus(tmp_path, int(seed), kind == "wide")
    lines: dict[str, list[str]] = {}
    for row in corpus.rows:
        for name, text in file_outputs(parse_file(str(row.path))).items():
            lines.setdefault(name, []).append(f"{row.file}\t{sha(text)}\n")
    assert {name: sha("".join(rows)) for name, rows in lines.items()} \
        == PARSE_GOLDEN[case]


def test_hostile_variants_match_golden(tmp_path):
    corpus = make_corpus(tmp_path, 7, False)
    outcomes, kinds = [], Counter()
    step = len(corpus.rows) // HOSTILE_BASES
    for b, row in enumerate(corpus.rows[::step][:HOSTILE_BASES]):
        data = row.path.read_bytes()
        offsets = box_offsets(parse_file(str(row.path)))
        for v in range(HOSTILE_PER_BASE):
            rng = random.Random(f"hostile/{b}/{v}")
            outcome = hostile_outcome(
                hostile_variant(data, offsets, rng, v % 3))
            outcomes.append(outcome)
            kinds[outcome.split(":", 1)[0].split("\n", 1)[0]] += 1
    assert len(outcomes) == HOSTILE_BASES * HOSTILE_PER_BASE
    assert {"digest": sha("".join(outcomes)), "outcomes": dict(kinds)} \
        == HOSTILE_GOLDEN
