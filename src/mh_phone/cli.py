"""Command line entry point.

Subcommands cover the full pipeline: synthesize a corpus with known truth,
train any of the three models, draw samples, score a model against real data
with the recurrent discriminator, and summarize a fitted chain. One --seed
drives everything; per-stage streams are split off by name so reruns are
byte-identical regardless of --threads.

Exit codes: 0 success, 1 validation error (bad flags or bad input files),
2 runtime error.
"""

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import baselines, interpret, model
from .corpus import DEFAULT_FRAMES, load_corpus, save_corpus, synth_corpus
from .discriminator import evaluate_generator
from .errors import InvariantViolation, MhPhoneError, ParseError
from .io import dump_json, load_model, save_model, validate_artifact
from .params import MODEL_KINDS, Hyperparams, ModelParams, make_truth_params
from .seeding import component_seed

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

log = logging.getLogger("mh_phone")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented contract reserves
    # 2 for runtime failures, so remap to 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _setup_logging(flag_level):
    name = flag_level or os.environ.get("MH_PHONE_LOG", "warning")
    level = getattr(logging, str(name).upper(), None)
    if not isinstance(level, int):
        raise InvariantViolation(f"unknown log level '{name}'")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _hyper_from_args(args):
    return Hyperparams(alpha=args.alpha, mu_mu=args.mu_mu, sigma_mu=args.sigma_mu,
                       mu_sigma=args.mu_sigma, sigma_sigma=args.sigma_sigma)


def _sample_any(fitted, n_signs, n_frames, seed, exact_end_token=True):
    if isinstance(fitted, ModelParams):
        return model.sample(fitted, n_signs, n_frames=n_frames, seed=seed,
                            exact_end_token=exact_end_token)
    if isinstance(fitted, baselines.GmmParams):
        return baselines.sample_gmm(fitted, n_signs, n_frames=n_frames, seed=seed)
    return baselines.sample_gmm_lda(fitted, n_signs, n_frames=n_frames, seed=seed)


def _load_training_corpus(path, include_broken):
    corp = load_corpus(path)
    if not include_broken:
        corp = corp.without_noise("broken")
    return corp


def cmd_synth(args):
    config = {"command": "synth", "seed": args.seed, "n_states": args.n_states,
              "m_signs": args.m_signs, "p_frames": args.p_frames,
              "sigma": args.sigma, "self_stick": args.self_stick,
              "end_prob": args.end_prob, "separation": args.separation,
              "noisy_end_token": args.noisy_end_token, "out": args.out,
              "truth_out": args.truth_out}
    truth = make_truth_params(args.n_states, seed=component_seed(args.seed, "synth/truth"),
                              self_stick=args.self_stick, end_prob=args.end_prob,
                              separation=args.separation, sigma=args.sigma)
    corp, _ = synth_corpus(truth, args.m_signs, component_seed(args.seed, "synth/corpus"),
                           n_frames=args.p_frames,
                           exact_end_token=not args.noisy_end_token)
    save_corpus(corp, args.out, config=config)
    log.info("wrote %d signs to %s", len(corp), args.out)
    if args.truth_out:
        save_model(args.truth_out, truth, Hyperparams(), config=config)
        log.info("wrote generating parameters to %s", args.truth_out)
    return EXIT_OK


def cmd_train(args):
    config = {"command": "train", "seed": args.seed, "corpus": args.corpus,
              "model": args.model, "n_states": args.n_states,
              "e_step": args.e_step, "topics": args.topics,
              "max_iters": args.max_iters, "tol": args.tol,
              "include_broken": args.include_broken, "out": args.out,
              "alpha": args.alpha, "mu_mu": args.mu_mu, "sigma_mu": args.sigma_mu,
              "mu_sigma": args.mu_sigma, "sigma_sigma": args.sigma_sigma}
    corp = _load_training_corpus(args.corpus, args.include_broken)
    hyper = _hyper_from_args(args)
    seed = component_seed(args.seed, "train")
    if args.model == "dbn":
        fitted, _, report = model.fit_em(corp, args.n_states, hyper,
                                         max_iters=args.max_iters, tol=args.tol,
                                         e_step=args.e_step, seed=seed,
                                         threads=args.threads)
    elif args.model == "gmm":
        fitted, report = baselines.fit_gmm(corp, args.n_states, hyper, seed=seed,
                                           max_iters=args.max_iters, tol=args.tol)
    else:
        fitted, report = baselines.fit_gmm_lda(corp, args.n_states, args.topics,
                                               hyper, seed=seed,
                                               max_iters=args.max_iters, tol=args.tol)
    final = report.log_joint_trace[-1]
    log.info("%s fit: %d iterations, converged=%s, final objective %.6f",
             args.model, report.iterations, report.converged, final)
    if not math.isfinite(final):
        log.warning("%s fit stopped at iteration %d on a non-finite objective (%s)",
                    args.model, report.iterations, final)
    save_model(args.out, fitted, hyper, config=config)
    return EXIT_OK


def cmd_generate(args):
    config = {"command": "generate", "seed": args.seed, "model": args.model,
              "n": args.n, "p_frames": args.p_frames,
              "noisy_end_token": args.noisy_end_token, "out": args.out}
    fitted, _, _ = load_model(args.model)
    corp = _sample_any(fitted, args.n, args.p_frames,
                       component_seed(args.seed, "generate"),
                       exact_end_token=not args.noisy_end_token)
    save_corpus(corp, args.out, config=config)
    log.info("wrote %d sampled signs to %s", len(corp), args.out)
    return EXIT_OK


def cmd_evaluate(args):
    config = {"command": "evaluate", "seed": args.seed, "real": args.real,
              "model": args.model, "seeds": args.seeds, "epochs": args.epochs,
              "lr": args.lr, "hidden": args.hidden, "split": args.split,
              "include_broken": args.include_broken, "report": args.report}
    real = _load_training_corpus(args.real, args.include_broken)
    fitted, hyper, _ = load_model(args.model)
    d_model = fitted.mu.shape[1]
    if d_model != real.dims[2]:
        raise InvariantViolation(
            f"model emits {d_model} features but corpus has {real.dims[2]}")
    n_frames = real.dims[1]

    def generator(n_signs, seed):
        return _sample_any(fitted, n_signs, n_frames, seed)

    result = evaluate_generator(real, generator, n_seeds=args.seeds,
                                split=args.split, epochs=args.epochs,
                                lr=args.lr, hidden_dim=args.hidden,
                                seed=args.seed)
    obj = {"format": "mh-eval-report", "version": 1}
    obj.update(result.to_dict())
    obj["hyper"] = hyper.to_dict()
    obj["config"] = config
    validate_artifact("eval-report", obj)
    dump_json(args.report, obj)
    print(f"test bce {result.bce_mean:.6f} +/- {result.bce_std:.6f} "
          f"over {result.n_seeds} seeds")
    return EXIT_OK


def cmd_interpret(args):
    config = {"command": "interpret", "seed": args.seed, "model": args.model,
              "frame_ms": args.frame_ms, "horizon": args.horizon,
              "include_end_state": args.include_end_state, "out": args.out}
    fitted, _, _ = load_model(args.model)
    if not isinstance(fitted, ModelParams):
        raise InvariantViolation("interpretation needs a sequential model file "
                                 "(kind 'dbn')")
    report = interpret.summarize(fitted, frame_ms=args.frame_ms,
                                 horizon=args.horizon,
                                 include_end_state=args.include_end_state)
    obj = {"format": "mh-interpret-report", "version": 1}
    obj.update(report.to_dict())
    obj["config"] = config
    validate_artifact("interpret-report", obj)
    if args.out:
        dump_json(args.out, obj)
    print(interpret.format_report(report))
    return EXIT_OK


def cmd_export_samples(args):
    fitted, _, _ = load_model(args.model)
    corp = _sample_any(fitted, args.n, args.p_frames,
                       component_seed(args.seed, "export-samples"))
    m, p, d = corp.dims
    flat = corp.features.reshape(m, p * d)
    np.savetxt(args.out, flat, delimiter=",", fmt="%.17g")
    log.info("wrote %d rows of %d values to %s", m, p * d, args.out)
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed; per-stage streams derive from it")
    sub.add_argument("--log-level", default=None,
                     help="debug|info|warning|error (default from MH_PHONE_LOG)")


def _add_hyper(sub):
    sub.add_argument("--alpha", type=float, default=1.0,
                     help="Dirichlet concentration for rows of pi and T")
    sub.add_argument("--mu-mu", type=float, default=0.0,
                     help="prior mean for prototype coordinates")
    sub.add_argument("--sigma-mu", type=float, default=10.0,
                     help="prior std for prototype coordinates")
    sub.add_argument("--mu-sigma", type=float, default=1.0,
                     help="log-normal location for emission variances")
    sub.add_argument("--sigma-sigma", type=float, default=10.0,
                     help="log-normal scale for emission variances")


def build_parser() -> _Parser:
    parser = _Parser(prog="mh-phone",
                     description="Movement-hold sequence models for sign "
                                 "language keypoint data.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("synth", help="sample a corpus from known parameters")
    p.add_argument("--n-states", type=int, default=5)
    p.add_argument("--m-signs", type=int, default=300)
    p.add_argument("--out", required=True, help="corpus JSONL path")
    p.add_argument("--p-frames", type=int, default=DEFAULT_FRAMES)
    p.add_argument("--sigma", type=float, default=0.05,
                   help="emission variance of the generating model")
    p.add_argument("--self-stick", type=float, default=0.85,
                   help="self-transition mass for non-end states")
    p.add_argument("--end-prob", type=float, default=0.06,
                   help="per-step mass on entering the end state")
    p.add_argument("--separation", type=float, default=2.0,
                   help="minimum distance between prototypes")
    p.add_argument("--noisy-end-token", action="store_true",
                   help="emit Gaussian noise around zero after the end state")
    p.add_argument("--truth-out", default=None,
                   help="also write the generating parameters as a model file")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="fit a model to a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--model", choices=tuple(MODEL_KINDS), default="dbn")
    p.add_argument("--n-states", type=int, default=5,
                   help="states (dbn) or mixture components (baselines)")
    p.add_argument("--e-step", choices=("greedy", "viterbi"), default="greedy")
    p.add_argument("--topics", type=int, default=10, help="topics for gmm-lda")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--include-broken", action="store_true",
                   help="keep signs with noise level 'broken'")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="E-step worker threads; output does not depend on it")
    _add_hyper(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("generate", help="sample signs from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", required=True, help="corpus JSONL path")
    p.add_argument("--p-frames", type=int, default=DEFAULT_FRAMES)
    p.add_argument("--noisy-end-token", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("evaluate",
                        help="score a model by discriminator test loss")
    p.add_argument("--real", required=True, help="real corpus JSONL")
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True, help="report JSON path")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--include-broken", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("interpret", help="summarize a fitted chain")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--frame-ms", type=float, default=interpret.DEFAULT_FRAME_MS)
    p.add_argument("--horizon", type=int, default=interpret.DEFAULT_HORIZON)
    p.add_argument("--include-end-state", action="store_true",
                   help="rank the end state alongside the others")
    _add_common(p)
    p.set_defaults(func=cmd_interpret)

    p = subs.add_parser("export-samples",
                        help="sample a model and write flat CSV rows")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", required=True, help="CSV path, one sign per row")
    p.add_argument("--p-frames", type=int, default=DEFAULT_FRAMES)
    _add_common(p)
    p.set_defaults(func=cmd_export_samples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging(args.log_level)
        return args.func(args)
    except (ParseError, InvariantViolation) as exc:
        print(f"mh-phone: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MhPhoneError, OSError) as exc:
        print(f"mh-phone: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
