"""Shared vocabulary: the specials block, round-trips, alignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftt.harness import shared_vocabulary
from difftt.synthlang import SyntheticLanguageSpec
from difftt.vocab import SPECIALS, UNK, Vocabulary, VocabularyMismatch, assert_alignment


def test_specials_block_first():
    v = Vocabulary(SPECIALS + ["a", "b"])
    assert v.tokens[:5] == SPECIALS
    assert v.pad_id == 0 and v.bos_id == 1 and v.eos_id == 2
    assert v.unk_id == 3 and v.cls_id == 4


def test_duplicate_tokens_rejected():
    with pytest.raises(ValueError):
        Vocabulary(SPECIALS + ["x", "x"])


def test_must_start_with_specials():
    with pytest.raises(ValueError):
        Vocabulary(["x"] + SPECIALS)


def test_encode_decode_roundtrip():
    v = Vocabulary(SPECIALS + ["x", "y", "z"])
    toks = ["y", "z", "x", "y"]
    assert v.decode(v.encode(toks)) == toks


def test_unknown_tokens_map_to_unk():
    v = Vocabulary(SPECIALS + ["x"])
    ids = v.encode(["x", "nope"])
    assert ids[1] == v.unk_id
    assert v.decode(ids) == ["x", UNK]


def test_encode_target_wraps_bos_eos():
    v = Vocabulary(SPECIALS + ["x"])
    ids = v.encode_target(["x"])
    assert ids[0] == v.bos_id and ids[-1] == v.eos_id


def test_save_load_roundtrip(tmp_path):
    v = Vocabulary(SPECIALS + ["alpha", "beta"])
    v.save(tmp_path / "vocab.txt")
    assert Vocabulary.load(tmp_path / "vocab.txt") == v


def test_alignment_accepts_identical():
    v = Vocabulary(SPECIALS + ["x", "y"])
    assert_alignment(v, Vocabulary(list(v.tokens)))


def test_alignment_names_first_divergent_index():
    a = Vocabulary(SPECIALS + ["x", "y"])
    b = Vocabulary(SPECIALS + ["x", "z"])
    with pytest.raises(VocabularyMismatch, match="index 6"):
        assert_alignment(a, b)


def test_alignment_rejects_prefix():
    a = Vocabulary(SPECIALS + ["x"])
    b = Vocabulary(SPECIALS + ["x", "y"])
    with pytest.raises(VocabularyMismatch, match="index 6"):
        assert_alignment(a, b)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 120), st.integers(1, 1200))
def test_every_corpus_token_encodable(n_function_words, n_content_tokens):
    # every token either language can emit has its own id in the shared
    # vocabulary, also past the 2- and 3-digit widths the token names use
    lang = SyntheticLanguageSpec(n_function_words=n_function_words,
                                 n_content_tokens=n_content_tokens)
    v = shared_vocabulary(lang)
    inventory = lang.function_words() + lang.source_content() + lang.target_content()
    ids = v.encode(inventory)
    assert v.unk_id not in ids
    assert v.decode(ids) == inventory
    assert len(v) == len(SPECIALS) + len(inventory)
