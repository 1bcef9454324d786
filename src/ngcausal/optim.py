"""Proximal gradient descent with a line search for the penalized objectives.

Each iteration takes a full gradient step on every parameter, then applies
the penalty's prox (threshold step * lam) to the first-layer column groups;
unpenalized parameters just keep the plain gradient step.  Backtracking
halves the step until the candidate passes the sufficient-decrease test
on the unpenalized loss L

    L(cand) <= L(theta) + <grad, delta> + ||delta||^2 / (2 * step) + slack,

which guarantees the penalized objective never increases by more than the
slack, an allowance for the rounding of L (see below).  Each line search
after the first starts from the short Barzilai-Borwein step s.y / y.y of the
last accepted move (s the change in parameters, y the change in the loss
gradient), floored at MIN_STEP, so the step can grow again after a
backtrack; where s.y <= 0 the move shows no positive curvature to size a
step by, and the search restarts at initial_step.  This is the start GISTA
(Gong et al., ICML 2013) uses, initial_step standing for its largest step,
so a nonconvex fit leaving a saddle along negative curvature takes long
steps there: the all-zero first layer a series' model has down a sweep
until, at some lambda, its first group enters.  Every fit starts from a
``_Chain``: a model, the design it reads, its loss and activations on it,
and a step, which is unbounded for a bare model; ``fit_path`` hands one
chain down a lambda path, each fit warm from the one before, its final
step capped at initial_step.  Every rejected trial step counts as one
backtrack; a line search that halves the step below MIN_STEP fails the
fit.

A fit reads the design its model takes, ``data.design_for(model)``, which
its chain makes once: the stacked lags and a column of ones that carries
the first layer's bias, rounded to float32 for a model with hidden layers,
whose kernels then run those layers in float32 (see ``_kernels``), and in
float64 for a linear model.  Theta, the gradient, the prox and its
penalty, the objective, the BB step and the line-search test stay float64
either way, so exact-zero groups and suffix patterns keep their meaning.
The loss of a hidden model carries float32 rounding, measured up to about
2**-22 of the loss against float64 arithmetic, so its line search is held
to a slack of 2**-20 * max(1, |L(theta)|), eight units of float32
rounding.  Measured on the seed-0 VAR sweep (p = 10, T = 1,000, group
penalty, 6 lambdas, width 10) at rel_tol 1e-8 and 1e-10, the float64
slack of 1e-12 of the loss halved the step below MIN_STEP within the
sweep; 2**-26 and 2**-20 ran every fit, and on the gate's data with
max_iters 5,000 2**-30 failed a Lorenz sweep where 2**-26 did not.  A
linear model keeps the 1e-12 slack (``SLACK`` holds both), and with it
every result bit for bit.

Nothing the loop already has is computed twice, nor any array made twice.
A path's design is made once, by its chain; the forward pass of each
accepted candidate, with its residual, is the next gradient's forward pass;
the prox returns the penalty of the candidate it builds, so penalty_value
runs only at the start of a fit; and a path runs one forward pass before
its first fit, each later fit taking its predecessor's last.  A chain owns
the design its fits read and two slots, each a model and the
``kernels.Buffers`` of its theta (layer views, ``[W1 | b1]`` and every
(width, N) array); one holds the current model, each trial step is built
in place in the other, and an accepted step swaps them.  It also owns
both gradients and the last move, so an iteration allocates no array of
the data's size; a fit returns a copy of its final model.  Scalars stay
Python floats.  Each of these leaves every result bit for bit what the
plain loop gives.

The default rel_tol (1e-4) stops fits deliberately early.  Because only the
first layer is penalized, prolonged optimization lets the network drain
first-layer magnitude into the unpenalized output layer, which erodes the
selection contrast between input groups; moderate early stopping acts as the
implicit regularizer that keeps recovered graphs close to the truth (see the
README for the measured sensitivity).  Tighten rel_tol for convex
(zero-hidden-layer) solves, where full convergence is well defined and safe.

The loss is a plain sum over rows, so lambda and the step size both scale
with the number of rows T; configs that change T should expect to rescale
them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .model import ComponentMLP, _count, _real
from .penalties import apply_prox, penalty_value

BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-12  # floor of every step: BB and backtracking
# the line search's slack relative to max(1, |loss|), by the dtype of the
# design the model reads
SLACK = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 2.0 ** -20}


class OptimizationError(RuntimeError):
    """The iteration produced non-finite values or the step size underflowed."""


@dataclass
class OptimizerConfig:
    initial_step: float = 1e-2
    max_iters: int = 20000
    rel_tol: float = 1e-4

    def __post_init__(self):
        # an infinite step never backtracks below MIN_STEP, and a NaN
        # tolerance never stops: either would run a fit forever or to the cap
        self.initial_step = _real("initial_step", self.initial_step, MIN_STEP)
        self.rel_tol = _real("rel_tol", self.rel_tol, 0)
        self.max_iters = _count("max_iters", self.max_iters)


@dataclass
class FitResult:
    """A trained model plus the optimization trace that produced it."""

    model: object
    objective_trace: np.ndarray
    iterations_run: int
    converged: bool
    final_step: float
    backtracks: int          # rejected trial steps, over all iterations


class _Chain:
    """The state every fit starts from and each fit of a path hands the next:
    the design ``X`` its models read, ``data.design_for(model)``; two slots
    of a model (a ComponentMLP with the data's p and K) and its Buffers, the
    first holding the model whose loss and activations it keeps; the loop's
    arrays; and the step to start at (unbounded at first)."""

    @np.errstate(over="ignore", invalid="ignore")  # fit raises on a non-finite objective
    def __init__(self, model, data):
        if not isinstance(model, ComponentMLP):
            raise TypeError(f"start must be a ComponentMLP, got {type(model).__name__}")
        if model.p != data.p or model.K != data.K:
            raise ValueError(
                f"model expects p={model.p}, K={model.K} but data has "
                f"p={data.p}, K={data.K}")
        self.X = X = data.design_for(model)
        a, b = model.copy(), model.copy()
        bufs = kernels.Buffers(a.theta, a.dims, a.w_off, a.b_off, X)
        self.slots = [(a, bufs), (b, kernels.Buffers(b.theta, b.dims, b.w_off, b.b_off, X,
                                                     bufs.backward))]
        loss, self.acts = kernels.mlp_loss(a.theta, a.dims, a.w_off, a.b_off,
                                           a.arch.activation, X, data.targets, bufs)
        self.grads = np.empty(a.n_params), np.empty(a.n_params)
        self.delta = np.empty(a.n_params)
        self.loss, self.step = float(loss), math.inf


@np.errstate(over="ignore", invalid="ignore")  # every non-finite value raises below
def fit(data, spec, start, opt):
    """Run proximal gradient descent to convergence from a copy of the model
    ``start``, a ComponentMLP, with its first line search at opt.initial_step,
    on the design ``data.design_for(start)``, or warm from the chain
    ``start`` on the design it holds.

    A model whose p or K differs from the data's raises ValueError.  Stops
    when the relative objective change drops below opt.rel_tol or after
    opt.max_iters iterations; the converged flag records which.
    """
    chain = start if isinstance(start, _Chain) else _Chain(start, data)
    step = min(chain.step, opt.initial_step)
    loss_val, acts = chain.loss, chain.acts
    (model, bufs), (trial, trial_bufs) = chain.slots
    (g, g_prev), delta = chain.grads, chain.delta
    layout = (model.dims, model.w_off, model.b_off, model.arch.activation)
    X = chain.X
    slack_rel = SLACK[X.dtype]
    obj = loss_val + penalty_value(spec, model)
    if not math.isfinite(obj):
        raise OptimizationError("non-finite objective at initialization")
    trace = [obj]
    converged = moved = False
    iterations = backtracks = 0

    for iterations in range(1, opt.max_iters + 1):
        kernels.mlp_loss_grad(model.theta, *layout, X, g, acts, bufs)
        if not np.isfinite(g).all():
            raise OptimizationError(f"non-finite gradient at iteration {iterations}")
        if moved:
            # short Barzilai-Borwein step from the last accepted move, or a
            # restart at initial_step where the move had no positive curvature
            y = np.subtract(g, g_prev, out=g_prev)
            sy = float(delta.dot(y))
            if sy > 0:
                step = max(sy / float(y.dot(y)), MIN_STEP)
            else:
                step = opt.initial_step
        slack = slack_rel * max(1.0, abs(loss_val))
        while True:
            cand = np.subtract(model.theta, np.multiply(g, step, out=trial.theta),
                               out=trial.theta)
            pen = apply_prox(spec, model, cand, step)
            new_loss, new_acts = kernels.mlp_loss(cand, *layout, X, data.targets, trial_bufs)
            new_loss = float(new_loss)
            np.subtract(cand, model.theta, out=delta)
            bound = (loss_val + float(g.dot(delta))
                     + float(delta.dot(delta)) / (2.0 * step) + slack)
            if new_loss <= bound:
                break
            step *= BACKTRACK_FACTOR
            backtracks += 1
            if step < MIN_STEP:
                raise OptimizationError(
                    f"the line search drove the step below MIN_STEP={MIN_STEP} "
                    f"at iteration {iterations}")
        (model, bufs), (trial, trial_bufs) = (trial, trial_bufs), (model, bufs)
        g, g_prev, moved = g_prev, g, True
        loss_val, acts = new_loss, new_acts
        new_obj = new_loss + pen
        if not math.isfinite(new_obj):
            raise OptimizationError(f"non-finite objective at iteration {iterations}")
        trace.append(new_obj)
        if abs(obj - new_obj) < opt.rel_tol * max(1.0, abs(obj)):
            converged = True
            break
        obj = new_obj

    chain.slots = [(model, bufs), (trial, trial_bufs)]
    chain.step, chain.loss, chain.acts = step, loss_val, acts
    return FitResult(model=model.copy(), objective_trace=np.asarray(trace),
                     iterations_run=iterations, converged=converged,
                     final_step=step, backtracks=backtracks)


def fit_path(data, specs, model, opt):
    """One FitResult per PenaltySpec of the descending path ``specs``: the
    first fit from ``model``, each later one warm from the fit before it.
    A failing fit raises OptimizationError naming its lambda."""
    chain = _Chain(model, data)
    results = []
    for spec in specs:
        try:
            results.append(fit(data, spec, chain, opt))
        except OptimizationError as exc:
            raise OptimizationError(f"at lambda {spec.lam:.6g}: {exc}") from exc
    return results
