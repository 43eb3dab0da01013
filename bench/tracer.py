"""In-memory span tracer that wraps the public functions of each mh_phone layer.

Spans carry a name, start, end, parent span and run id. Wrappers are set on
the module attributes that callers actually resolve (for example
`mh_phone.model.emission_loglik`, not `mh_phone.estimation.emission_loglik`),
so the program itself is unchanged. `fit_em` picks its E-step from the
module-level `_E_STEPS` dict, so the E-steps are wrapped in that dict.

Threads: `--threads` runs E-step chunks in worker threads. Each thread keeps
its own span stack; a span opened on an empty worker stack takes the main
thread's innermost open span as its parent.
"""

import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "corpus", "estimation", "model", "baselines",
          "discriminator", "io", "interpret")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # dicts: id, name, start, end, parent, run, thread
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._installed = []  # (owner, key, original), restored by uninstall
        self._fit_labels = None  # labels of the previous E-step in this fit

    # ---------------------------------------------------------------- spans
    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            main = self._stacks.get(self._main) or []
            parent = main[-1]["id"] if main else None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                    "end": None, "parent": parent, "run": self.run_id,
                    "thread": threading.get_ident()}
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def high_water(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, key, name, **hooks):
        """Replace owner.key (or owner[key] for a dict) with a traced wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        wrapped = self.wrap(name, original, **hooks)
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._installed.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # ---------------------------------------------------------- installing
    def install(self):
        """Wrap every layer boundary the per-layer metrics need."""
        import os

        from mh_phone import (baselines, cli, corpus, discriminator, interpret,
                              io, model)

        def emission_counts(span, args, kwargs, result):
            frames, mu = args[0], args[1]
            cells = result.size  # frames x states
            self.count("estimation.emission_loglik_calls")
            self.count("estimation.emission_cells", cells)
            # the (..., N, D) broadcast difference is the largest temporary
            self.high_water("estimation.emission_bytes_computed",
                            cells * mu.shape[1] * 8)

        def sigma_counts(span, args, kwargs, result):
            self.count("estimation.map_sigma_calls")

        def saved(span, args, kwargs, result):
            self.count("corpus.signs", len(args[0]))
            self.count("corpus.bytes_written", os.path.getsize(args[1]))

        def loaded(span, args, kwargs, result):
            self.count("corpus.signs", len(result))
            self.count("corpus.bytes_read", os.path.getsize(args[0]))

        def fit_start(args, kwargs):
            self._fit_labels = None
            return args, kwargs

        def fit_done(span, args, kwargs, result):
            self.count("model.em_iterations", result[2].iterations)

        def e_step_done(span, args, kwargs, result):
            labels = result.labels
            prev = self._fit_labels
            if prev is None or prev.shape != labels.shape or (prev != labels).any():
                self.count("model.em_useful_iterations")
            self._fit_labels = labels

        def gmm_done(span, args, kwargs, result):
            self.count("baselines.gmm_iterations", result[1].iterations)

        def lda_done(span, args, kwargs, result):
            self.count("baselines.gmm_lda_iterations", result[1].iterations)

        def forward_done(span, args, kwargs, result):
            self.count("discriminator.forward_passes")

        def gru_epochs(span, args, kwargs, result):
            self.count("discriminator.train_gru_epochs", int(kwargs.get("epochs", 50)))

        def traced_generator(args, kwargs):
            real, generator = args[0], args[1]
            return (real, self.wrap("discriminator.generator", generator)) + args[2:], kwargs

        for owner in (cli, model):
            self.patch(owner, "synth_corpus", "corpus.synth_corpus")
        self.patch(cli, "save_corpus", "corpus.save_corpus", after=saved)
        self.patch(cli, "load_corpus", "corpus.load_corpus", after=loaded)
        self.patch(corpus, "markov_chain_sample", "estimation.markov_chain_sample")
        for owner in (model, baselines):
            self.patch(owner, "emission_loglik", "estimation.emission_loglik",
                       after=emission_counts)
            self.patch(owner, "map_sigma", "estimation.map_sigma", after=sigma_counts)
        self.patch(model, "fit_em", "model.fit_em", before=fit_start, after=fit_done)
        for key in ("init_params", "m_step", "log_joint", "sample"):
            self.patch(model, key, f"model.{key}")
        for kind in tuple(model._E_STEPS):
            self.patch(model._E_STEPS, kind, f"model.e_step_{kind}", after=e_step_done)
        self.patch(baselines, "fit_gmm", "baselines.fit_gmm", after=gmm_done)
        self.patch(baselines, "fit_gmm_lda", "baselines.fit_gmm_lda", after=lda_done)
        self.patch(cli, "evaluate_generator", "discriminator.evaluate_generator",
                   before=traced_generator)
        self.patch(discriminator, "train_gru", "discriminator.train_gru", after=gru_epochs)
        self.patch(discriminator, "gru_grad", "discriminator.gru_grad")
        self.patch(discriminator, "bce_loss", "discriminator.bce_loss")
        self.patch(discriminator, "_forward", "discriminator.forward", after=forward_done)
        self.patch(cli, "save_model", "io.save_model")
        self.patch(cli, "load_model", "io.load_model")
        for owner in (cli, io):
            self.patch(owner, "validate_artifact", "io.validate_artifact")
        self.patch(interpret, "summarize", "interpret.summarize")

    # ---------------------------------------------------------- reporting
    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _children(self):
        kids = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                kids[span["parent"]].append(span)
        return kids

    def self_times(self):
        """Per-layer self time: each span's duration minus the union of its
        children's intervals, summed by the layer prefix of the span name."""
        kids = self._children()
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for child in sorted(kids[span["id"]], key=lambda c: c["start"]):
                if cur_end is None or child["start"] > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = child["start"], child["end"]
                else:
                    cur_end = max(cur_end, child["end"])
            if cur_end is not None:
                covered += cur_end - cur_start
            layer = span["name"].split(".", 1)[0]
            out[layer] += (span["end"] - span["start"]) - covered
        return out

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def per_iteration(self, name, first_child, iterations):
        """Time after the first `first_child` call inside each `name` span,
        divided by the iteration count: the set-up before the loop is left out."""
        if iterations == 0:
            return 0.0
        kids = self._children()
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            first = [c for c in kids[span["id"]] if c["name"] == first_child]
            start = min(first, key=lambda c: c["start"])["end"] if first else span["start"]
            total += span["end"] - start
        return total / iterations
