"""Differentiable translate-and-test pipeline on a numpy autodiff substrate.

A small sequence-to-sequence translator emits per-step vocabulary probability
distributions ("soft translations"); an expected-embedding bridge turns them
into classifier inputs without breaking differentiability, so translator and
classifier fine-tune jointly with ordinary gradient descent. A synthetic
cipher-language harness reproduces the zero-shot / few-shot / baseline
protocols with exact oracles.
"""

from .autodiff import Tensor, no_grad
from .bridge import expected_embedding
from .gradcheck import finite_difference_check
from .metrics import accuracy, corpus_bleu, mean_r_precision, r_precision
from .mt import MtConfig, MtModel, SoftTranslation, train_mt
from .optim import AdamW, TrainConfig
from .params import Parameter
from .pipeline import FreezingPolicy, TranslateTestPipeline, apply_freezing
from .synthlang import (DatasetBundle, SyntheticLanguageSpec, TaskSpec,
                        degrade_language, gen_classification_dataset,
                        gen_language_pair, oracle_label)
from .tc import Prediction, TcConfig, TcModel, train_tc
from .vocab import Vocabulary, assert_alignment

__version__ = "0.1.0"
