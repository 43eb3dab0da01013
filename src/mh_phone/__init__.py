"""Movement-hold sequence modeling for sign language keypoint streams."""

from .baselines import fit_gmm, fit_gmm_lda, sample_gmm, sample_gmm_lda
from .corpus import (Corpus, RawSign, ingest_raw_signs, load_corpus,
                     normalize_pose, save_corpus, synth_corpus)
from .discriminator import (EvalReport, GruNet, bce_loss, evaluate_generator,
                            gru_forward, gru_grad, train_gru)
from .errors import (AbsorbingState, DegenerateScale, EmptyBatch,
                     InvariantViolation, MhPhoneError, NotEnoughData,
                     ParseError, TooLong)
from .interpret import (InterpretReport, expected_counts,
                        expected_hold_length, format_report, summarize)
from .io import load_model, save_model
from .model import (e_step_greedy, e_step_viterbi, fit_em, init_params,
                    log_joint, m_step, sample)
from .params import (FitReport, GmmLdaParams, GmmParams,
                     Hyperparams, ModelParams, make_truth_params)
from .seeding import component_seed

__version__ = "0.1.0"

__all__ = [
    "AbsorbingState", "Corpus", "DegenerateScale", "EmptyBatch",
    "EvalReport", "FitReport", "GmmLdaParams", "GmmParams", "GruNet",
    "Hyperparams", "InterpretReport", "InvariantViolation", "MhPhoneError",
    "ModelParams", "NotEnoughData", "ParseError", "RawSign", "TooLong",
    "bce_loss", "component_seed", "e_step_greedy", "e_step_viterbi",
    "evaluate_generator", "expected_counts", "expected_hold_length", "fit_em",
    "fit_gmm", "fit_gmm_lda", "format_report", "gru_forward", "gru_grad",
    "ingest_raw_signs", "init_params", "load_corpus", "load_model",
    "log_joint", "m_step", "make_truth_params", "normalize_pose",
    "sample", "sample_gmm", "sample_gmm_lda", "save_corpus", "save_model",
    "summarize", "synth_corpus", "train_gru", "__version__",
]
