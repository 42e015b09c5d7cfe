"""The single shared token vocabulary used by both the translator and the classifier.

Both models index the same token inventory, so the same index always refers to
the same token on both sides of the bridge. ``assert_alignment`` enforces this
at pipeline construction.
"""

from __future__ import annotations

from pathlib import Path

PAD, BOS, EOS, UNK, CLS = "<pad>", "<bos>", "<eos>", "<unk>", "<cls>"
SPECIALS = [PAD, BOS, EOS, UNK, CLS]


class VocabularyMismatch(ValueError):
    pass


class Vocabulary:
    """Dense token<->id mapping with a fixed block of special tokens."""

    def __init__(self, tokens: list[str]):
        if tokens[: len(SPECIALS)] != SPECIALS:
            raise ValueError("vocabulary must start with the special-token block")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(tokens)}
        self.pad_id = self.index[PAD]
        self.bos_id = self.index[BOS]
        self.eos_id = self.index[EOS]
        self.unk_id = self.index[UNK]
        self.cls_id = self.index[CLS]

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids; unknown tokens map to UNK."""
        return [self.index.get(t, self.unk_id) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def encode_target(self, tokens: list[str]) -> list[int]:
        """Encode an MT target sequence wrapped BOS ... EOS."""
        return [self.bos_id] + self.encode(tokens) + [self.eos_id]

    def save(self, path):
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(tokens)


def assert_alignment(mt_vocab: Vocabulary, tc_vocab: Vocabulary):
    """Fail unless the two vocabularies are identical by content."""
    if mt_vocab.tokens == tc_vocab.tokens:
        return
    n = min(len(mt_vocab), len(tc_vocab))
    for i in range(n):
        if mt_vocab.tokens[i] != tc_vocab.tokens[i]:
            raise VocabularyMismatch(
                f"vocabularies differ at index {i}: "
                f"{mt_vocab.tokens[i]!r} vs {tc_vocab.tokens[i]!r}"
            )
    raise VocabularyMismatch(
        f"vocabularies differ at index {n}: one vocabulary has {len(mt_vocab)} tokens, "
        f"the other {len(tc_vocab)}"
    )
