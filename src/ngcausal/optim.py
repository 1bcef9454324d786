"""Proximal gradient descent with backtracking for the penalized objectives.

Each iteration takes a full gradient step on every parameter, then applies
the penalty's prox (threshold step * lam) to the first-layer column groups;
unpenalized parameters just keep the plain gradient step.  Backtracking
shrinks the step until the candidate passes the sufficient-decrease test

    loss(cand) <= loss + <grad, delta> + ||delta||^2 / (2 * step),

which guarantees the penalized objective never increases.  Each line search
after the first starts from the short Barzilai-Borwein step s.y / y.y of the
last accepted move (s the change in parameters, y the change in the loss
gradient), floored at min_step, so the step can grow again after a
backtrack; where s.y <= 0 it starts from the last accepted step instead.
This is the start GISTA (Gong et al., ICML 2013) uses.  The first line
search of a fit starts from initial_step, or from a warm start's previous
final step capped at initial_step.  With backtracking off the step stays
fixed at the starting step.

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

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .model import init_model, loss_and_grad
from .numerics import SeededRng
from .penalties import apply_prox, penalty_value


class OptimizationError(RuntimeError):
    """The iteration produced non-finite values or the step size underflowed."""


@dataclass
class OptimizerConfig:
    initial_step: float = 1e-2
    max_iters: int = 20000
    rel_tol: float = 1e-4
    backtracking: bool = True
    backtrack_factor: float = 0.5
    min_step: float = 1e-12

    def __post_init__(self):
        if self.initial_step <= 0:
            raise ValueError(f"initial_step must be > 0, got {self.initial_step}")
        if not (0 < self.backtrack_factor < 1):
            raise ValueError(f"backtrack_factor must be in (0, 1), got {self.backtrack_factor}")
        if not (0 < self.min_step < self.initial_step):
            raise ValueError("need 0 < min_step < initial_step, got "
                             f"min_step={self.min_step}, initial_step={self.initial_step}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


@dataclass
class FitResult:
    """A trained model plus the optimization trace that produced it."""

    model: object
    objective_trace: np.ndarray
    iterations_run: int
    converged: bool
    final_step: float


def fit(data, spec, arch, opt, seed, init_from=None, step0=None, progress=None):
    """Run proximal gradient descent to convergence from a seeded init.

    Stops when the relative objective change drops below opt.rel_tol or
    after opt.max_iters iterations; the converged flag records which.
    ``init_from`` (a ComponentMLP) overrides the seeded initialization and
    ``step0`` the starting step size, so warm starts continue where the
    previous fit left off.  ``progress(iteration, objective, step,
    active_groups)`` is called once per iteration when given.
    """
    if data.n_rows < 1:
        raise ValueError("dataset is empty")
    if init_from is not None:
        if init_from.p != data.p or init_from.K != data.K:
            raise ValueError(
                f"model expects p={init_from.p}, K={init_from.K} but data has "
                f"p={data.p}, K={data.K}")
        model = init_from.copy()
    else:
        model = init_model(data.p, data.K, arch, SeededRng(seed))

    # activations of the current theta: each accepted candidate's forward
    # pass is reused by the next gradient instead of being run again
    loss_val, acts = kernels.mlp_loss(model.theta, model.dims, model.w_off,
                                      model.b_off, model.act_code,
                                      data.inputs, data.targets)
    loss_val = float(loss_val)
    obj = loss_val + penalty_value(spec, model)
    if not np.isfinite(obj):
        raise OptimizationError("non-finite objective at initialization")
    trace = [obj]
    step = opt.initial_step if step0 is None else min(max(step0, opt.min_step),
                                                      opt.initial_step)
    converged = False
    iterations = 0
    g = delta = None

    for iterations in range(1, opt.max_iters + 1):
        g_prev = g
        _, g = loss_and_grad(model, data, acts)
        if not np.all(np.isfinite(g)):
            raise OptimizationError(f"non-finite gradient at iteration {iterations}")
        if delta is not None:
            # short Barzilai-Borwein step from the last accepted move (delta
            # is only set when backtracking, so a fixed step stays fixed)
            y = g - g_prev
            sy = delta @ y
            if sy > 0:
                step = max(sy / (y @ y), opt.min_step)
        while True:
            cand = apply_prox(spec, model, model.theta - step * g, step)
            new_loss, new_acts = kernels.mlp_loss(cand, model.dims, model.w_off,
                                                  model.b_off, model.act_code,
                                                  data.inputs, data.targets)
            new_loss = float(new_loss)
            if not opt.backtracking:
                break
            delta = cand - model.theta
            bound = (loss_val + g @ delta + (delta @ delta) / (2.0 * step)
                     + 1e-12 * max(1.0, abs(loss_val)))
            if new_loss <= bound:
                break
            step *= opt.backtrack_factor
            if step < opt.min_step:
                raise OptimizationError(
                    f"backtracking drove the step below min_step={opt.min_step} "
                    f"at iteration {iterations}")
        model.theta[:] = cand
        loss_val, acts = new_loss, new_acts
        new_obj = new_loss + penalty_value(spec, model)
        if not np.isfinite(new_obj):
            raise OptimizationError(f"non-finite objective at iteration {iterations}")
        trace.append(new_obj)
        if progress is not None:
            active = int(np.count_nonzero(
                kernels.group_norms(model.first_layer_packed, model.p, model.K)))
            progress(iterations, new_obj, step, active)
        if abs(obj - new_obj) < opt.rel_tol * max(1.0, abs(obj)):
            converged = True
            break
        obj = new_obj

    return FitResult(model=model, objective_trace=np.asarray(trace),
                     iterations_run=iterations, converged=converged,
                     final_step=step)


def warm_start_fit(previous, data, spec, opt, progress=None):
    """Continue from a previous result, e.g. at the next lambda on a grid.

    Starts from the previous model and its last accepted step size, so a
    restart at an unchanged penalty is already at its stopping point.
    """
    prev_model = previous.model
    if prev_model.dims[0] != data.p * data.K:
        raise ValueError(
            f"warm start architecture mismatch: model input width {prev_model.dims[0]}, "
            f"data has p*K = {data.p * data.K}")
    return fit(data, spec, arch=None, opt=opt, seed=None,
               init_from=prev_model, step0=previous.final_step, progress=progress)
