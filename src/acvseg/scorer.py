"""Two-layer frame scorer with hand-derived gradients.

One hidden ReLU layer feeds per-class logits.  `forward` returns one
FrameScores that every consumer reads: its sigmoids score each class for
saliency and multi-instance pretraining, its softmax is the posterior
p(c | x_t) for the HMM likelihood and the cross-entropy loss, and `backward`
reads its input and hidden layer.  All gradients are analytic, no autodiff.

Precision: `forward` and `backward` run their matrix products in the dtype
of the features they are given.  The pipeline hands them `gemm_input`'s
float32 copy, cast once per video, so the products run in float32 on
float32 casts of W1, b1 and W2; the logits are widened to float64 before b2
is added, and the gradients are returned in float64.  The parameters, the
SGD step, the checkpoints, the log readings, the HMM likelihoods and every
dynamic program stay float64.  Any other input is read as float64 and
computes entirely in float64, the path the gradient checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit, logsumexp

from .core import label_array
from .rng import fork_rng

N_HIDDEN = 256
EPS = 1e-12


class NonFiniteError(ValueError):
    """The scorer's logits, gradients or parameters overflowed."""


@dataclass
class MlpParams:
    W1: np.ndarray  # (n_hidden, dim)
    b1: np.ndarray  # (n_hidden,)
    W2: np.ndarray  # (n_classes, n_hidden)
    b2: np.ndarray  # (n_classes,)

    def __post_init__(self):
        self.W1 = np.array(self.W1, dtype=np.float64)
        self.b1 = np.array(self.b1, dtype=np.float64)
        self.W2 = np.array(self.W2, dtype=np.float64)
        self.b2 = np.array(self.b2, dtype=np.float64)
        n_hidden, _ = self.W1.shape
        n_classes = self.W2.shape[0]
        if self.b1.shape != (n_hidden,) or self.W2.shape[1] != n_hidden \
                or self.b2.shape != (n_classes,):
            raise ValueError("inconsistent parameter shapes")

    @property
    def dim(self):
        return self.W1.shape[1]

    @property
    def n_classes(self):
        return self.W2.shape[0]

    @property
    def n_hidden(self):
        return self.W1.shape[0]

    def copy(self):
        return MlpParams(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())

    @classmethod
    def init(cls, dim, n_classes, n_hidden, seed):
        if n_hidden < 1:
            raise ValueError("n_hidden must be >= 1, got %d" % n_hidden)
        rng = fork_rng(seed, "mlp-init")
        w1 = rng.normal(0.0, np.sqrt(2.0 / dim), size=(n_hidden, dim))
        w2 = rng.normal(0.0, np.sqrt(1.0 / n_hidden), size=(n_classes, n_hidden))
        return cls(w1, np.zeros(n_hidden), w2, np.zeros(n_classes))


@dataclass(frozen=True, eq=False)
class FrameScores:
    """One forward pass: the (T, dim) input x, the (n_hidden, T) post-ReLU
    hidden layer and the (n_classes, T) logits.  log_sigmoid and log_softmax
    read the logits stably, each computed when first read."""

    x: np.ndarray
    hidden: np.ndarray
    logits: np.ndarray

    @cached_property
    def log_sigmoid(self):
        return -np.logaddexp(0.0, -self.logits)

    @cached_property
    def log_softmax(self):
        return self.logits - logsumexp(self.logits, axis=0, keepdims=True)


def gemm_input(features):
    """The (T, dim) float32 array of a FrameFeatures or an array-like, on
    which forward and backward run their products in float32.  A value
    beyond the float32 range is an error."""
    with np.errstate(over="ignore"):
        x = np.asarray(getattr(features, "values", features), dtype=np.float32)
    if not np.all(np.isfinite(x)):
        raise ValueError("features exceed the float32 range")
    return x


def forward(params, x):
    """Score every frame; x is (T, dim) or a FrameFeatures.  float32 input
    (see gemm_input) runs the products in float32, any other in float64;
    the logits are float64 either way.  Non-finite logits are an error."""
    x = np.asarray(getattr(x, "values", x))
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError("features must be (T, %d)" % params.dim)
    # overflow shows as non-finite logits, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        # build the hidden layer in place: one (n_hidden, T) allocation per call
        h = params.W1.astype(x.dtype, copy=False) @ x.T
        # a float32 h plus a float64 b1 would take numpy's slow mixed-dtype loop
        h += params.b1.astype(x.dtype, copy=False)[:, None]
        np.maximum(h, 0.0, out=h)
        logits = (params.W2.astype(x.dtype, copy=False) @ h).astype(np.float64, copy=False)
        logits += params.b2[:, None]
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("non-finite logits")
    return FrameScores(x, h, logits)


def backward(params, x, hidden, d_logits):
    """Gradients of any loss from its gradient at the logits of frames x,
    in float64; the products run in the dtype of x and hidden."""
    d_b2 = d_logits.sum(axis=1)
    d_logits = d_logits.astype(x.dtype, copy=False)
    # overflow shows as a non-finite gradient, which sgd_step refuses
    with np.errstate(over="ignore", invalid="ignore"):
        d_w2 = (d_logits @ hidden.T).astype(np.float64, copy=False)
        d_z1 = params.W2.T.astype(x.dtype, copy=False) @ d_logits  # d_h until masked
        d_z1 *= hidden > 0.0
        d_b1 = d_z1.sum(axis=1, dtype=np.float64)
        d_w1 = (d_z1 @ x).astype(np.float64, copy=False)
    return {"W1": d_w1, "b1": d_b1, "W2": d_w2, "b2": d_b2}


def _binary_cross_entropy(p, y):
    """Per-element -(y log p + (1 - y) log(1 - p)) with p clipped to
    [EPS, 1 - EPS]; returns (terms, clipped p)."""
    pc = np.clip(p, EPS, 1.0 - EPS)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)), pc


def cross_entropy_loss(scores, pseudo_labels):
    """Frame-averaged one-vs-rest cross-entropy on the softmax posteriors.

    Every class contributes at every frame: the pseudo-label class through
    log p, all others through log(1 - p).  Returns (loss, d_logits).
    """
    labels = np.asarray(label_array(pseudo_labels), dtype=np.int64)
    p = np.exp(scores.log_softmax)
    n_classes, t_total = p.shape
    if labels.shape != (t_total,):
        raise ValueError("need one pseudo-label per frame")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("pseudo-label out of range")
    y = np.zeros_like(p)
    y[labels, np.arange(t_total)] = 1.0
    terms, pc = _binary_cross_entropy(p, y)
    loss = terms.sum() / t_total
    d_p = -(y / pc - (1.0 - y) / (1.0 - pc)) / t_total
    d_logits = p * (d_p - (d_p * p).sum(axis=0, keepdims=True))
    return float(loss), d_logits


def diversity_loss(saliency):
    """Mean cosine similarity between distinct saliency rows.

    Ordered pairs normalized by M(M-1); a single row gives exactly 0.
    Returns (loss, d_saliency).  A zero-norm row contributes 0 to the loss
    and receives zero gradient: through the saliency construction such a row
    stays identically zero under small parameter changes, so the loss is
    locally flat in it.
    """
    s = np.asarray(saliency, dtype=np.float64)
    m = s.shape[0]
    if m <= 1:
        return 0.0, np.zeros_like(s)
    raw_norms = np.linalg.norm(s, axis=1)
    norms = np.maximum(raw_norms, EPS)
    u = s / norms[:, None]
    g = u @ u.T
    loss = (g.sum() - np.trace(g)) / (m * (m - 1))
    # d cos(c,c')/dS_c = (u_c' - g_cc' u_c)/|S_c|; both orderings double it.
    d_s = 2.0 * ((u.sum(axis=0) - u) - (g.sum(axis=1) - np.diag(g))[:, None] * u) \
        / norms[:, None] / (m * (m - 1))
    d_s[raw_norms == 0.0] = 0.0
    return float(loss), d_s


def sgd_step(params, grads, lr):
    """params - lr * grads; refuses non-finite gradients and a step that
    overflows a parameter."""
    stepped = {}
    with np.errstate(over="raise"):
        for name in ("W1", "b1", "W2", "b2"):
            if not np.all(np.isfinite(grads[name])):
                raise NonFiniteError("non-finite gradient in %s" % name)
            try:
                stepped[name] = getattr(params, name) - lr * grads[name]
            except FloatingPointError:
                raise NonFiniteError("the step overflows %s" % name) from None
    return MlpParams(**stepped)


def mil_loss_and_grads(params, x, action_set):
    """Video-level multi-instance objective: per class, binary cross-entropy
    between the max-pooled sigmoid score and set membership, averaged over
    classes.  The gradient flows through the max-pooled frame only, so the
    backward pass runs over those (at most n_classes) frames alone.  It reads
    the logits only, so neither log reading is computed."""
    scores = forward(params, x)
    f = expit(scores.logits)
    n_classes = f.shape[0]
    best_t = f.argmax(axis=1)
    pooled = f[np.arange(n_classes), best_t]
    y = np.zeros(n_classes)
    y[list(action_set)] = 1.0
    loss = float(_binary_cross_entropy(pooled, y)[0].mean())
    frames, col = np.unique(best_t, return_inverse=True)
    d_logits = np.zeros((n_classes, frames.shape[0]))
    d_logits[np.arange(n_classes), col] = (pooled - y) / n_classes
    return loss, backward(params, scores.x[frames], scores.hidden[:, frames], d_logits)


def mil_pretrain(params, corpus, epochs, lr, seed):
    """SGD over shuffled videos on the multi-instance objective.

    corpus: sequence of (features, action_set) pairs; each video's features
    are cast by gemm_input once, before the first epoch.  Zero epochs
    returns an unchanged copy; fewer, or a non-finite lr, are an error, and
    an lr that makes the scorer overflow is named in the error.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0, got %d" % epochs)
    if not np.isfinite(lr):
        raise ValueError("lr must be finite, got %r" % (lr,))
    params = params.copy()
    corpus = [(gemm_input(x), aset) for x, aset in corpus]
    if not corpus:
        raise ValueError("empty corpus")
    rng = fork_rng(seed, "mil")
    try:
        for _ in range(int(epochs)):
            for v in rng.permutation(len(corpus)):
                x, aset = corpus[v]
                _, grads = mil_loss_and_grads(params, x, aset)
                params = sgd_step(params, grads, lr)
    except NonFiniteError as exc:
        raise ValueError("lr %g: %s" % (lr, exc)) from None
    return params
