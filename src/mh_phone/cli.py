"""Command line entry point.

Subcommands cover the full pipeline: synthesize a corpus with known truth,
train any of the three models, draw samples (as a JSONL or binary .npz
corpus, or flat CSV rows), score a model against real data with the recurrent discriminator, and
summarize a fitted chain. One --seed drives everything; per-stage streams are
split off by name so reruns are byte-identical regardless of --threads.

Exit codes: 0 success, 1 validation error (bad flags or bad input files),
2 runtime error.
"""

import argparse
import logging
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import baselines, interpret, model
from .corpus import DEFAULT_FRAMES, load_corpus, save_corpus, synth_corpus
from .discriminator import evaluate_generator
from .errors import InvariantViolation, MhPhoneError, NotEnoughData, ParseError
from .io import dump_json, load_model, output_file, save_model, validate_artifact
from .params import MODEL_KINDS, Hyperparams, ModelParams, make_truth_params
from .seeding import component_seed

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# Parsed names that never reach an artifact's config: the handler, and flags
# that the outputs do not depend on.
_UNRECORDED = ("func", "log_level", "threads")

log = logging.getLogger("mh_phone")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented contract reserves
    # 2 for runtime failures, so remap to 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _checked(convert, what, ok, rule):
    """An argparse type: `convert` the text to `what`, then require ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {what}, got '{text}'") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    return parse


_positive_int = _checked(int, "an integer", lambda v: v >= 1, "at least 1")
_non_negative_int = _checked(int, "an integer", lambda v: v >= 0, "at least 0")
_finite_float = _checked(float, "a number", math.isfinite, "finite")
_positive_float = _checked(float, "a number", lambda v: 0 < v < math.inf, "positive and finite")
_non_negative_float = _checked(float, "a number", lambda v: 0 <= v < math.inf,
                               "finite and at least 0")
_probability = _checked(float, "a number", lambda v: 0 <= v <= 1, "between 0 and 1")
_fraction = _checked(float, "a number", lambda v: 0 < v < 1, "strictly between 0 and 1")


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS
    reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux and a few Unixes
        return os.cpu_count() or 1


def _setup_logging(flag_level):
    name = flag_level or os.environ.get("MH_PHONE_LOG", "warning")
    level = getattr(logging, str(name).upper(), None)
    if not isinstance(level, int):
        raise InvariantViolation(f"unknown log level '{name}'")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _config(args):
    """The flags that made an artifact, in the order the parser declares them."""
    return {k: v for k, v in vars(args).items() if k not in _UNRECORDED}


def _report(kind, body, args):
    """A `kind` report: the envelope around `body`, with its config, validated."""
    obj = {"format": f"mh-{kind}", "version": 1, **body, "config": _config(args)}
    validate_artifact(kind, obj)
    return obj


def _hyper_from_args(args):
    return Hyperparams(**{f.name: getattr(args, f.name) for f in fields(Hyperparams)})


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
    config = _config(args)
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
    hyper = _hyper_from_args(args)
    corp = _load_training_corpus(args.corpus, args.include_broken)
    seed = component_seed(args.seed, "train")
    if args.model == "dbn":
        fitted, _, report = model.fit_em(corp, args.n_states, hyper,
                                         max_iters=args.max_iters, tol=args.tol,
                                         e_step=args.e_step, seed=seed,
                                         threads=args.threads)
    elif args.model == "gmm":
        fitted, report = baselines.fit_gmm(corp, args.n_states, hyper, seed=seed,
                                           max_iters=args.max_iters, tol=args.tol,
                                           threads=args.threads)
    else:
        fitted, report = baselines.fit_gmm_lda(corp, args.n_states, args.topics,
                                               hyper, seed=seed,
                                               max_iters=args.max_iters, tol=args.tol,
                                               threads=args.threads)
    final = report.log_joint_trace[-1]
    log.info("%s fit: %d iterations, converged=%s, final objective %.6f",
             args.model, report.iterations, report.converged, final)
    if not math.isfinite(final):
        log.warning("%s fit stopped at iteration %d on a non-finite objective (%s)",
                    args.model, report.iterations, final)
    save_model(args.out, fitted, hyper, config=_config(args))
    return EXIT_OK


def cmd_generate(args):
    fitted, _, _ = load_model(args.model)
    corp = _sample_any(fitted, args.n, args.p_frames,
                       component_seed(args.seed, "generate"),
                       exact_end_token=not args.noisy_end_token)
    if args.out.lower().endswith(".csv"):
        m, p, d = corp.dims
        with output_file(args.out) as fh:
            np.savetxt(fh, corp.features.reshape(m, p * d), delimiter=",", fmt="%.17g")
    else:
        save_corpus(corp, args.out, config=_config(args))
    log.info("wrote %d sampled signs to %s", len(corp), args.out)
    return EXIT_OK


def cmd_evaluate(args):
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
    body = {**result.to_dict(), "hyper": hyper.to_dict()}
    dump_json(args.report, _report("eval-report", body, args))
    print(f"test bce {result.bce_mean:.6f} +/- {result.bce_std:.6f} "
          f"over {result.n_seeds} seeds")
    return EXIT_OK


def cmd_interpret(args):
    fitted, _, _ = load_model(args.model)
    if not isinstance(fitted, ModelParams):
        raise InvariantViolation("interpretation needs a sequential model file "
                                 "(kind 'dbn')")
    report = interpret.summarize(fitted, frame_ms=args.frame_ms,
                                 horizon=args.horizon,
                                 include_end_state=args.include_end_state)
    obj = _report("interpret-report", report.to_dict(), args)
    if args.out:
        dump_json(args.out, obj)
    print(interpret.format_report(report))
    return EXIT_OK


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0,
                     help="master seed; per-stage streams derive from it")
    sub.add_argument("--log-level", default=None,
                     help="debug|info|warning|error (default from MH_PHONE_LOG)")


def _add_hyper(sub):
    for f in fields(Hyperparams):
        sub.add_argument("--" + f.name.replace("_", "-"), type=_finite_float, default=f.default,
                         help=f.metadata["help"])


def build_parser() -> _Parser:
    # An artifact records the parsed flags in the order they are declared here
    # (see _config), so reordering them changes every artifact's bytes.
    parser = _Parser(prog="mh-phone",
                     description="Movement-hold sequence models for sign "
                                 "language keypoint data.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("synth", help="sample a corpus from known parameters")
    _add_common(p)
    p.add_argument("--n-states", default=5,
                   type=_checked(int, "an integer", lambda v: v >= 2, "at least 2"))
    p.add_argument("--m-signs", type=_positive_int, default=300)
    p.add_argument("--p-frames", type=_positive_int, default=DEFAULT_FRAMES)
    p.add_argument("--sigma", type=_positive_float, default=0.05,
                   help="emission variance of the generating model")
    p.add_argument("--self-stick", type=_probability, default=0.85,
                   help="self-transition mass for non-end states")
    p.add_argument("--end-prob", type=_non_negative_float, default=0.06,
                   help="per-step mass on entering the end state")
    p.add_argument("--separation", type=_finite_float, default=2.0,
                   help="minimum distance between prototypes")
    p.add_argument("--noisy-end-token", action="store_true",
                   help="emit Gaussian noise around zero after the end state")
    p.add_argument("--out", required=True, help="corpus path: JSONL, or .npz for binary")
    p.add_argument("--truth-out", default=None,
                   help="also write the generating parameters as a model file")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="fit a model to a corpus")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus path: JSONL, or .npz for binary")
    p.add_argument("--model", choices=tuple(MODEL_KINDS), default="dbn")
    p.add_argument("--n-states", type=_positive_int, default=5,
                   help="states (dbn) or mixture components (baselines)")
    p.add_argument("--e-step", choices=("greedy", "viterbi"), default="greedy")
    p.add_argument("--topics", type=_positive_int, default=10, help="topics for gmm-lda")
    p.add_argument("--max-iters", type=_positive_int, default=200)
    p.add_argument("--tol", type=_finite_float, default=1e-6)
    p.add_argument("--include-broken", action="store_true",
                   help="keep signs with noise level 'broken'")
    p.add_argument("--threads", type=_positive_int, default=usable_cores(),
                   help="worker threads of every fit's sign-block sweeps; output does not "
                        "depend on it")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_hyper(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("generate", help="sample signs from a fitted model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_positive_int, default=100)
    p.add_argument("--p-frames", type=_positive_int, default=DEFAULT_FRAMES)
    p.add_argument("--noisy-end-token", action="store_true",
                   help="dbn only: draw the frames after the end state from its Gaussian, "
                        "not zeros; mixture samples are full-length draws with no end token")
    p.add_argument("--out", required=True,
                   help="corpus JSONL path, a .npz path for a binary corpus, or a .csv "
                        "path for flat rows, one padded sign per row")
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("evaluate",
                        help="score a model by discriminator test loss")
    _add_common(p)
    p.add_argument("--real", required=True, help="real corpus: JSONL, or .npz for binary")
    p.add_argument("--model", required=True)
    p.add_argument("--seeds", type=_positive_int, default=5)
    p.add_argument("--epochs", type=_non_negative_int, default=50)
    p.add_argument("--lr", type=_positive_float, default=1e-2)
    p.add_argument("--hidden", type=_positive_int, default=16)
    p.add_argument("--split", type=_fraction, default=0.8)
    p.add_argument("--include-broken", action="store_true")
    p.add_argument("--report", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("interpret", help="summarize a fitted chain")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--frame-ms", type=_positive_float, default=interpret.DEFAULT_FRAME_MS)
    p.add_argument("--horizon", type=_positive_int, default=interpret.DEFAULT_HORIZON)
    p.add_argument("--include-end-state", action="store_true",
                   help="rank the end state alongside the others")
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_interpret)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging(args.log_level)
        return args.func(args)
    except (ParseError, InvariantViolation, NotEnoughData) as exc:
        print(f"mh-phone: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MhPhoneError, OSError) as exc:
        print(f"mh-phone: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
