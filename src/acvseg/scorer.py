"""Two-layer frame scorer with hand-derived gradients.

One hidden ReLU layer feeds per-class logits.  The same logits are read two
ways: sigmoids give independent per-class scores f_c used for saliency and
multi-instance pretraining, a softmax gives the posterior p(c | x_t) used
for the HMM likelihood and the cross-entropy loss.  All gradients are
analytic; there is no autodiff anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .core import label_array
from .rng import fork_rng

N_HIDDEN = 256
EPS = 1e-12


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
    def init(cls, dim, n_classes, n_hidden=N_HIDDEN, seed=0):
        if n_hidden < 1:
            raise ValueError("n_hidden must be >= 1, got %d" % n_hidden)
        rng = fork_rng(seed, "mlp-init")
        w1 = rng.normal(0.0, np.sqrt(2.0 / dim), size=(n_hidden, dim))
        w2 = rng.normal(0.0, np.sqrt(1.0 / n_hidden), size=(n_classes, n_hidden))
        return cls(w1, np.zeros(n_hidden), w2, np.zeros(n_classes))


@dataclass(frozen=True, eq=False)
class FrameScores:
    """Per-frame class scores, all (n_classes, T).

    softmax columns sum to 1; sigmoid and softmax are two readings of the
    same logits.  log_sigmoid and log_softmax are computed stably and are
    the forms consumed downstream.
    """

    logits: np.ndarray
    sigmoid: np.ndarray
    log_sigmoid: np.ndarray
    softmax: np.ndarray
    log_softmax: np.ndarray


@dataclass(frozen=True, eq=False)
class ForwardCache:
    x: np.ndarray  # (T, dim)
    h: np.ndarray  # (n_hidden, T) post-ReLU; h > 0 exactly where the pre-activation is


def _hidden_and_logits(params, x):
    """(x as a (T, dim) array, post-ReLU hidden layer, logits)."""
    x = np.asarray(getattr(x, "values", x), dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError("features must be (T, %d)" % params.dim)
    # build the hidden layer in place: one (n_hidden, T) allocation per call
    h = params.W1 @ x.T
    h += params.b1[:, None]
    np.maximum(h, 0.0, out=h)
    return x, h, params.W2 @ h + params.b2[:, None]


def forward(params, x, want_cache=False):
    """Score every frame; x is (T, dim) or a FrameFeatures."""
    x, h, logits = _hidden_and_logits(params, x)
    log_sig = -np.logaddexp(0.0, -logits)
    log_soft = logits - logsumexp(logits, axis=0, keepdims=True)
    scores = FrameScores(logits, expit(logits), log_sig, np.exp(log_soft), log_soft)
    if want_cache:
        return scores, ForwardCache(x, h)
    return scores


def backward(params, cache, d_logits):
    """Gradients of any loss given its gradient at the logits."""
    d_b2 = d_logits.sum(axis=1)
    d_w2 = d_logits @ cache.h.T
    d_z1 = params.W2.T @ d_logits  # d_h until masked by the ReLU in place
    d_z1 *= cache.h > 0.0
    d_b1 = d_z1.sum(axis=1)
    d_w1 = d_z1 @ cache.x
    return {"W1": d_w1, "b1": d_b1, "W2": d_w2, "b2": d_b2}


def cross_entropy_loss(scores, pseudo_labels):
    """Frame-averaged one-vs-rest cross-entropy on the softmax posteriors.

    Every class contributes at every frame: the pseudo-label class through
    log p, all others through log(1 - p).  Returns (loss, d_logits).
    """
    labels = np.asarray(label_array(pseudo_labels), dtype=np.int64)
    p = scores.softmax
    n_classes, t_total = p.shape
    if labels.shape != (t_total,):
        raise ValueError("need one pseudo-label per frame")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("pseudo-label out of range")
    y = np.zeros_like(p)
    y[labels, np.arange(t_total)] = 1.0
    pc = np.clip(p, EPS, 1.0 - EPS)
    loss = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum() / t_total
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


def total_loss(ce, div, beta=0.4):
    return ce + beta * div


def sgd_step(params, grads, lr):
    """params - lr * grads; refuses non-finite gradients."""
    for name in ("W1", "b1", "W2", "b2"):
        if not np.all(np.isfinite(grads[name])):
            raise ValueError("non-finite gradient in %s" % name)
    return MlpParams(params.W1 - lr * grads["W1"], params.b1 - lr * grads["b1"],
                     params.W2 - lr * grads["W2"], params.b2 - lr * grads["b2"])


def mil_loss_and_grads(params, x, action_set):
    """Video-level multi-instance objective: per class, binary cross-entropy
    between the max-pooled sigmoid score and set membership, averaged over
    classes.  The gradient flows through the max-pooled frame only, so the
    backward pass runs over those (at most n_classes) frames alone.  Only the
    sigmoid reading of the logits is computed."""
    x, h, logits = _hidden_and_logits(params, x)
    f = expit(logits)
    n_classes = f.shape[0]
    best_t = f.argmax(axis=1)
    pooled = f[np.arange(n_classes), best_t]
    y = np.zeros(n_classes)
    y[list(action_set)] = 1.0
    pc = np.clip(pooled, EPS, 1.0 - EPS)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    frames, col = np.unique(best_t, return_inverse=True)
    d_logits = np.zeros((n_classes, frames.shape[0]))
    d_logits[np.arange(n_classes), col] = (pooled - y) / n_classes
    pooled_cache = ForwardCache(x[frames], h[:, frames])
    return loss, backward(params, pooled_cache, d_logits)


def mil_pretrain(params, corpus, epochs, lr, seed=0):
    """SGD over shuffled videos on the multi-instance objective.

    corpus: sequence of (features, action_set) pairs.  Zero epochs returns
    an unchanged copy; fewer are an error.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0, got %d" % epochs)
    params = params.copy()
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    rng = fork_rng(seed, "mil")
    for _ in range(int(epochs)):
        for v in rng.permutation(len(corpus)):
            x, aset = corpus[v]
            _, grads = mil_loss_and_grads(params, x, aset)
            params = sgd_step(params, grads, lr)
    return params
