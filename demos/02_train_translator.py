"""Train the sequence-to-sequence translator on a synthetic cipher language.

The target language is an invertible token substitution of the high-resource
language with a little word reordering, so the translation task is learnable
from a few thousand parallel sentences and has an exact reference for BLEU.

Run: python3 demos/02_train_translator.py   (about a minute on a laptop CPU)
"""

from difftt.harness import shared_vocabulary
from difftt.mt import MtConfig, MtModel, TrainConfig, evaluate_bleu, train_mt, translate
from difftt.synthlang import SyntheticLanguageSpec, gen_language_pair


def main():
    lang = SyntheticLanguageSpec(seed=0, reorder_prob=0.1)
    corpus = gen_language_pair(lang, sizes=(3000, 300, 300))
    vocab = shared_vocabulary(lang)
    print(f"parallel corpus: {len(corpus.train)} train pairs, vocab {len(vocab)}")

    # translator direction is target -> high-resource, so swap the stored pairs
    train_pairs = [(t, s) for s, t in corpus.train]
    dev_pairs = [(t, s) for s, t in corpus.dev]

    model = MtModel(vocab, MtConfig(), seed=1)
    result = train_mt(model, train_pairs, dev_pairs,
                      TrainConfig(epochs=4, batch_size=32, lr=2e-3,
                                  warmup_steps=100, grad_accum=1, seed=1))
    for epoch, (loss, bleu) in enumerate(zip(result.train_loss, result.val_bleu)):
        print(f"epoch {epoch}  loss {loss:.3f}  dev BLEU {bleu:.3f}")

    test_src = [vocab.encode(t) for _, t in corpus.test]
    test_refs = [list(s) for s, _ in corpus.test]
    print(f"test BLEU {evaluate_bleu(model, test_src, test_refs):.3f}")

    src, tgt = corpus.test[0]
    out = translate(model, [vocab.encode(tgt)])[0]
    print("target text: ", " ".join(tgt))
    print("translation: ", " ".join(out))
    print("reference:   ", " ".join(src))


if __name__ == "__main__":
    main()
