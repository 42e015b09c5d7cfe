"""Soft translations and the expected-embedding bridge.

Shows the core coupling trick: the translator emits a probability
distribution over the vocabulary at every decode step, and the bridge turns
each distribution into a convex combination of the classifier's embedding
rows. Forcing those distributions to one-hot vectors reproduces the ordinary
hard-token path exactly, and gradients flow from the classifier's loss all
the way back into the translator.

Run: python3 demos/03_soft_translation_bridge.py
"""

import numpy as np

from difftt import autodiff as ad
from difftt.bridge import expected_embedding
from difftt.mt import MtConfig, MtModel
from difftt.pipeline import FreezingPolicy, TranslateTestPipeline
from difftt.tc import TcConfig, TcModel
from difftt.vocab import SPECIALS, Vocabulary


def main():
    vocab = Vocabulary(SPECIALS + [f"tok{i}" for i in range(40)])
    mt = MtModel(vocab, MtConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                                 max_source_len=8, max_decode_len=8), seed=0)
    tc = TcModel(vocab, TcConfig(d_model=32, n_layers=1, n_heads=2, d_ff=64,
                                 max_len=10, n_classes=3), seed=1)

    src = vocab.encode(["tok3", "tok17", "tok5"])
    st = mt.soft_decode(src)
    print(f"soft translation: {len(st)} steps, each a distribution over {len(vocab)} tokens")
    print(f"greedy tokens: {vocab.decode(st.tokens)}")
    print(f"per-step max probability: {np.round(st.probs.data.max(axis=1), 3)}")
    print(f"rows sum to one: {np.allclose(st.probs.data.sum(axis=1), 1.0, atol=1e-12)}")

    bridged = expected_embedding(st.probs, tc.emb.tensor)
    print(f"bridged embeddings: shape {bridged.data.shape} "
          f"(convex combinations of the classifier's embedding rows)")

    # logits_soft bridges a (B, M, V) batch and runs the classifier on it;
    # gradient flows through the bridge into the translator
    probs = ad.reshape(st.probs, (1, len(st), len(vocab)))
    loss = ad.cross_entropy(tc.logits_soft(probs, np.asarray([len(st)])), np.asarray([2]))
    loss.backward()
    g = mt.out_proj[0].grad
    print(f"translator output-projection gradient norm: {np.linalg.norm(g):.4f}")

    # one-hot forcing reproduces the hard path bitwise
    pipe = TranslateTestPipeline(mt, tc, FreezingPolicy(0.0, 0.0))
    forced = pipe.predict_forced_onehot_batch([src])[0]
    hard = pipe.predict_hard(src)
    print(f"forced one-hot == hard path bitwise: "
          f"{np.array_equal(forced.logits, hard.logits)}")


if __name__ == "__main__":
    main()
