"""Outside-in tracing of ngcausal: wrap the module-level functions each layer
calls through, count the calls and time them.

Every module binding of a function is wrapped, because ``from .x import f``
copies the name: ``optim`` calls ``penalty_value`` through its own global.
Times are inclusive (a span covers the spans inside it); a call that starts
while another span of the same name is open is not counted again, so
``roc_points`` calling ``edge_rates`` is one scoring span.  Self time is
kept for the fit span only: its duration minus the spans directly inside it.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Missing modules (cli in a library
# process that never imported it) are skipped.
TARGETS = [
    ("ngcausal._kernels", "mlp_loss_grad", "kernels.mlp_loss_grad"),
    ("ngcausal._kernels", "mlp_loss", "kernels.mlp_loss"),
    ("ngcausal._kernels", "prox_group", "kernels.prox"),
    ("ngcausal._kernels", "prox_hier", "kernels.prox"),
    ("ngcausal._kernels", "group_norms", "kernels.norms"),
    ("ngcausal._kernels", "lag_norms", "kernels.norms"),
    ("ngcausal.penalties", "penalty_value", "penalties.penalty_value"),
    ("ngcausal.optim", "penalty_value", "penalties.penalty_value"),
    ("ngcausal.model", "build_lagged", "model.build_lagged"),
    ("ngcausal.evaluation", "build_lagged", "model.build_lagged"),
    ("ngcausal.cli", "build_lagged", "model.build_lagged"),
    ("ngcausal.optim", "fit", "optim.fit"),
    ("ngcausal.evaluation", "fit", "optim.fit"),
    ("ngcausal.evaluation", "lambda_max_linear", "evaluation.lambda_max_linear"),
    ("ngcausal.cli", "lambda_max_linear", "evaluation.lambda_max_linear"),
    ("ngcausal.evaluation", "roc_points", "evaluation.scoring"),
    ("ngcausal.evaluation", "edge_rates", "evaluation.scoring"),
    ("ngcausal.evaluation", "auc", "evaluation.scoring"),
    ("ngcausal.cli", "roc_points", "evaluation.scoring"),
    ("ngcausal.cli", "edge_rates", "evaluation.scoring"),
    ("ngcausal.cli", "auc", "evaluation.scoring"),
    ("ngcausal.datasets", "make_sparse_var", "datasets.generate"),
    ("ngcausal.datasets", "simulate_var", "datasets.generate"),
    ("ngcausal.datasets", "standardize", "datasets.standardize"),
    ("ngcausal.evaluation", "standardize", "datasets.standardize"),
    ("ngcausal.cli", "standardize", "datasets.standardize"),
    ("ngcausal.io", "read_dataset_csv", "io.read"),
    ("ngcausal.io", "read_matrix_csv", "io.read"),
    ("ngcausal.cli", "read_dataset_csv", "io.read"),
    ("ngcausal.cli", "read_matrix_csv", "io.read"),
    ("ngcausal.io", "write_dataset_csv", "io.write"),
    ("ngcausal.io", "write_matrix_csv", "io.write"),
    ("ngcausal.cli", "write_dataset_csv", "io.write"),
    ("ngcausal.cli", "write_matrix_csv", "io.write"),
    ("ngcausal.cli", "write_roc_csv", "io.write"),
    ("ngcausal.cli", "write_auc_csv", "io.write"),
    ("ngcausal.cli", "write_edges_csv", "io.write"),
    ("ngcausal.cli", "save_config", "io.write"),
]
# the fit spans alone: an untraced sweep counts its fits with these
FIT_TARGETS = [t for t in TARGETS if t[2] == "optim.fit"]


def _mlp_flop(args):
    """Matmul flops of one kernel call, from the shapes: 2*N*sum(d_l*d_l+1)."""
    dims, X = args[1], args[5]
    n = X.shape[0]
    pairs = [int(dims[l]) * int(dims[l + 1]) for l in range(len(dims) - 1)]
    return 2 * n * sum(pairs), 2 * n * sum(pairs[1:])


class Tracer:
    """Span totals, call counts and derived counters, kept in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self._open = []          # per open span: [name, seconds of child spans]
        self._saved = []         # (owner, attribute, original) to restore

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()

    def snapshot(self):
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "counts": dict(self.counts)}

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(span[0] == name for span in tracer._open):
                return fn(*args, **kwargs)
            tracer._open.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][1] += dt
                tracer.calls[name] += 1
                tracer.seconds[name] += dt
                if name == "optim.fit":
                    tracer.counts["optim.self_s"] += dt - child
            tracer._record(name, args, result)
            return result

        return traced

    def _record(self, name, args, result):
        c = self.counts
        if name == "kernels.mlp_loss":
            c["kernels.mlp.flop"] += _mlp_flop(args)[0]
        elif name == "kernels.mlp_loss_grad":
            forward, backprop = _mlp_flop(args)
            c["kernels.mlp.flop"] += 2 * forward + backprop
        elif name == "optim.fit":
            c["optim.iterations"] += result.iterations_run
            c["optim.capped_fits"] += 0 if result.converged else 1
        elif name == "io.write":
            path = args[0]
            if isinstance(path, str) and os.path.isfile(path):
                c["io.bytes_written"] += os.path.getsize(path)

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self):
        """Wrap every target whose module is loaded."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in self.targets:
            mod = sys.modules.get(mod_name)
            if mod is not None and hasattr(mod, attr):
                self._patch(mod, attr, name)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
