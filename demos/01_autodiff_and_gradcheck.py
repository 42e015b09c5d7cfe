"""A tour of the autodiff substrate.

Builds a tiny two-layer network out of the tape primitives, trains it on a
toy regression problem with AdamW, and verifies the backward pass against
central finite differences.

Run: python3 demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from difftt import autodiff as ad
from difftt.gradcheck import finite_difference_check
from difftt.optim import AdamW, TrainConfig
from difftt.params import ParamStore


def main():
    rng = np.random.default_rng(0)
    store = ParamStore(rng)
    w1, b1 = store.linear("l1", 2, 16, group="net")
    w2, b2 = store.linear("l2", 16, 1, group="net")

    # target function: y = sin(x0) + 0.5 * x1
    x = rng.uniform(-2, 2, size=(256, 2))
    y = np.sin(x[:, 0:1]) + 0.5 * x[:, 1:2]

    def loss_fn():
        h = ad.gelu(ad.affine(ad.Tensor(x), w1.tensor, b1.tensor))
        pred = ad.affine(h, w2.tensor, b2.tensor)
        diff = ad.sub(pred, ad.Tensor(y))
        return ad.mean_all(ad.mul(diff, diff))

    err = finite_difference_check(loss_fn, store.parameters(), n_coords=100)
    print(f"finite-difference check: max relative error {err:.2e}")

    # the loop below steps on every gradient itself: no warmup, no accumulation
    opt = AdamW(store.parameters(), TrainConfig(lr=1e-2, weight_decay=0.0, warmup_steps=0,
                                                grad_accum=1))
    for step in range(400):
        store.zero_grad()
        loss = loss_fn()
        loss.backward()
        opt.step()
        if step % 100 == 0 or step == 399:
            print(f"step {step:4d}  mse {loss.item():.5f}")


if __name__ == "__main__":
    main()
