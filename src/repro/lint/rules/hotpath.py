"""hot-path: the batch-ingest and frame-codec kernels stay loop-free and copy-free.

The 37–54M items/s served ingest rate (PR 5) exists because the hot functions —
every sketch's ``insert_many``, the executors' ``ingest_chunk``, and the frame
codec (``encode_items`` / ``decode_items`` / ``send_frame`` / ``recv_frame`` /
``_recv_exact`` / ``_send_vectored`` / ``rechunk_arrays``) — never fall back to
per-item Python loops or allocation-heavy idioms.  This rule flags the three
regressions PR 5 explicitly engineered out:

* a Python ``for`` loop directly over an array parameter (per-item work where a
  vectorized kernel is expected);
* ``np.concatenate`` on per-batch data (an O(batch) copy per call — the
  ring-buffer re-chunker exists to avoid exactly this);
* bytes-copying idioms: ``b"".join(...)`` and ``bytes(memoryview(...))`` (the
  ``recv_into``/``sendmsg`` framing exists to avoid the glue copy).

A loop over a derived local (e.g. over ``np.unique`` output) is not flagged,
but it still costs one Python step per distinct id.  Misra–Gries and ``T1`` of
both paper algorithms avoid it: ``MisraGriesTable.update_many`` merges the whole
batch summary into the at most k table entries in one array step.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lint.engine import Finding, Rule, SourceFile
from repro.lint.rules.base import (
    canonical_name,
    function_param_names,
    import_aliases,
    walk_functions,
)

#: Batch-ingest entry points (any module) …
_INGEST_FUNCTIONS = {"insert_many", "ingest_chunk"}
#: … and the zero-copy frame/re-chunk kernels.
_CODEC_FUNCTIONS = {
    "encode_items", "decode_items", "send_frame", "recv_frame",
    "_recv_exact", "_send_vectored", "rechunk_arrays",
}
_HOT_FUNCTIONS = _INGEST_FUNCTIONS | _CODEC_FUNCTIONS


class HotPathRule(Rule):
    rule_id = "hot-path"
    description = (
        "flag per-item loops over array parameters, np.concatenate, and "
        "bytes-copying idioms inside insert_many/ingest_chunk/frame-codec functions"
    )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        aliases = import_aliases(source.tree)
        findings: List[Finding] = []
        for function, _owner in walk_functions(source.tree):
            if function.name not in _HOT_FUNCTIONS:
                continue
            params = set(function_param_names(function))
            for node in ast.walk(function):
                if isinstance(node, ast.For):
                    findings.extend(self._check_loop(source, function, node, params))
                elif isinstance(node, ast.Call):
                    findings.extend(self._check_call(source, function, node, aliases))
        return findings

    def _check_loop(
        self, source: SourceFile, function, node: ast.For, params
    ) -> Iterable[Finding]:
        iterable = node.iter
        # `for x in items:` — also catch `enumerate(items)` / `zip(items, …)`
        # over the raw parameter, which is the same per-item loop in disguise.
        candidates = [iterable]
        if isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Name):
            if iterable.func.id in ("enumerate", "zip", "iter", "reversed"):
                candidates.extend(iterable.args)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in params:
                yield self.finding(
                    source, node,
                    f"per-item Python loop over parameter `{candidate.id}` in "
                    f"hot function `{function.name}`",
                    "vectorize (np.unique / hash_many / binomial batch updates) or "
                    "aggregate first; per-item loops undo the batched fast path",
                )
                return

    def _check_call(
        self, source: SourceFile, function, node: ast.Call, aliases
    ) -> Iterable[Finding]:
        name = canonical_name(node.func, aliases)
        if name == "numpy.concatenate":
            yield self.finding(
                source, node,
                f"`np.concatenate` on per-batch data in hot function `{function.name}`",
                "stage fragments into a preallocated ring buffer "
                "(see primitives.batching.rechunk_arrays) instead of concatenating",
            )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, bytes)
        ):
            yield self.finding(
                source, node,
                f"`b\"\".join(...)` glue copy in hot function `{function.name}`",
                "receive with socket.recv_into over one preallocated buffer / send "
                "with vectored sendmsg instead of concatenating byte pieces",
            )
            return
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and canonical_name(node.args[0].func, aliases) == "memoryview"
        ):
            yield self.finding(
                source, node,
                f"`bytes(memoryview(...))` copy in hot function `{function.name}`",
                "pass the memoryview itself; the frame layer sends views uncopied",
            )
