"""Outside-in tracing of feddva's public functions.

The tracer replaces each traced function in the namespace its caller looks
it up in, once per namespace, with a wrapper that records a span (id,
parent id, name, start, end). No code under src/ knows about it:

  * feddva.federation, feddva.data, feddva.metrics and feddva.cli import
    functions by name, so those module globals are patched;
  * Tensor operators, ``neg`` and the ``ad.*`` calls in model, gaussians and
    losses resolve through feddva.autodiff globals;
  * model.ACTIVATIONS holds the activation functions and Mlp captures one
    at build time, so the tracer must be installed before ``init_run``;
  * DvaModel methods are patched on the class.

One function looked up in several namespaces gets one shared wrapper. Spans
stay in memory as one tuple each and are written by :meth:`Tracer.write`.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import defaultdict

import numpy as np

# span names of the autodiff op kinds: OP_TABLE plus the two scalar-affine
# ops that Tensor operators emit
EXTRA_OP_KINDS = ("scale", "shift")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one (id, parent id, name id, start, end) tuple per span, appended
        # when the span ends; ids count spans in start order
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object, bool]] = []
        # counters kept at the same boundaries as the spans
        self.topo_calls = 0
        self.topo_nodes = 0
        self.leaves_reached = 0
        self.leaves_stepped = 0
        self._last_leaves: set[int] = set()
        self.hinge_calls = 0
        self.hinge_mixture = 0
        self.save_bytes = 0
        self.client_update_s: dict[int, list[float]] = defaultdict(list)

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, after=None):
        """One wrapper per function object; ``after(args, result, dur)``
        runs once the span is closed."""
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self._name_id(name)
        record = self.spans.append
        next_id = self._ids.__next__
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, parent, nid, t0, t1))
            if after is not None:
                after(args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        self._wrappers[key] = traced
        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapper = self._wrap(original, name, after)
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, is_dict))

    # ---------------------------------------------------------- install

    def install(self) -> None:
        from feddva import (autodiff, cli, data, federation, gaussians,
                            losses, metrics, model)

        kinds = {fn.__name__: kind for kind, fn in autodiff.OP_TABLE.items()}
        kinds.update({k: k for k in EXTRA_OP_KINDS})
        for fn_name, kind in kinds.items():
            self._patch(autodiff, fn_name, f"autodiff.op.{kind}")
        for act in list(model.ACTIVATIONS):
            self._patch(model.ACTIVATIONS, act,
                        f"autodiff.op.{kinds[model.ACTIVATIONS[act].__name__]}")
        autodiff.topo_order = self._count_topo(autodiff.topo_order)
        self._patched.append((autodiff, "topo_order",
                              autodiff.topo_order.__wrapped__, False))

        self._patch(federation, "backward", "autodiff.backward")
        self._patch(federation, "sgd_step", "autodiff.sgd_step",
                    after=self._count_stepped)
        for mod in (federation, data, metrics):
            self._patch(mod, "make_rng", "seeding.make_rng")

        for meth in ("encode_z", "encode_c", "decode", "classify"):
            self._patch(model.DvaModel, meth, f"model.{meth}")
        for fn_name in ("reparameterize", "kl_to_standard",
                        "mixture_bound_batch_mean"):
            self._patch(gaussians, fn_name, f"gaussians.{fn_name}")
        for fn_name in ("bce_recon", "cross_entropy", "loss_feddva"):
            self._patch(losses, fn_name, f"losses.{fn_name}")
        self._patch(losses, "hinge_max", "losses.hinge_max",
                    after=self._count_hinge)
        for fn_name in ("loss_feddva", "loss_classifier"):
            self._patch(federation, fn_name, f"losses.{fn_name}")

        self._patch(federation, "client_update", "federation.client_update",
                    after=self._record_client_update)
        self._patch(federation, "aggregate", "federation.aggregate")
        for fn_name in ("make_toy_digits", "partition_uniform_marked",
                        "partition_label_skew"):
            self._patch(federation, fn_name, f"data.{fn_name}")

        self._patch(metrics, "mixture_kl_to_standard_mc",
                    "metrics.mixture_kl_to_standard_mc")
        for fn_name in ("clustering_report", "latent_traversal",
                        "export_embeddings_csv", "accuracy_per_client"):
            self._patch(cli, fn_name, f"metrics.{fn_name}")
        self._patch(cli, "save_checkpoint", "checkpoint.save_checkpoint",
                    after=self._count_save_bytes)
        self._patch(cli, "load_checkpoint", "checkpoint.load_checkpoint")
        for fn_name in ("save_state", "load_state", "cmd_eval"):
            self._patch(cli, fn_name, f"cli.{fn_name}")

    def uninstall(self) -> None:
        for owner, attr, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------- counters

    def _count_topo(self, topo_order):
        def counted(root):
            order = topo_order(root)
            self.topo_calls += 1
            self.topo_nodes += len(order)
            self._last_leaves = {id(n) for n in order
                                 if n.requires_grad and not n.parents}
            self.leaves_reached += len(self._last_leaves)
            return order

        counted.__wrapped__ = topo_order
        return counted

    def _count_stepped(self, args, result, dur) -> None:
        self.leaves_stepped += sum(1 for p in args[0]
                                   if id(p) in self._last_leaves)

    def _count_hinge(self, args, result, dur) -> None:
        self.hinge_calls += 1
        self.hinge_mixture += result is args[0]

    def _count_save_bytes(self, args, result, dur) -> None:
        self.save_bytes += os.path.getsize(args[0])

    def _record_client_update(self, args, result, dur) -> None:
        self.client_update_s[args[3]].append(dur)

    # ---------------------------------------------------------- results

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as id-ordered columns: id, parent, name, start, end."""
        table = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        table = table[np.argsort(table[:, 0], kind="stable")]
        ints = table[:, :3].astype(np.int64)
        return {"id": ints[:, 0], "parent": ints[:, 1], "name": ints[:, 2],
                "start": table[:, 3], "end": table[:, 4]}

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, incl_s and self_s for every span name seen."""
        cols = self.columns()
        n = cols["id"].size
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent],
                            weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        incl = np.bincount(cols["name"], weights=dur, minlength=k)
        self_s = np.bincount(cols["name"], weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
