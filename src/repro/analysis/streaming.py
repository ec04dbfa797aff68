"""Streaming-discipline checker: the ingest path never materialises a stream.

PR 2 made ingest streaming end-to-end (peak memory O(super-chunk) regardless
of stream size) and a CI tracemalloc gate holds the bound at runtime.  This
checker holds it *statically*: inside the streaming-path modules declared in
:mod:`repro.analysis.registry`, the constructs that buffer a whole stream are
flagged:

* ``b"".join(...)`` -- the canonical whole-payload concatenation;
* ``bytes(...)`` / ``bytearray(...)`` over a conventional payload name
  (``payload``, ``blocks``, ``stream``, ...) or over a block-stream producer
  call;
* ``list(...)`` / ``tuple(...)`` over a block-stream producer call
  (``iter_blocks``, ``chunk_stream``, ``iter_chunk_records``, ...);
* reading the materialising ``.data`` attribute (``WorkloadFile.data``
  concatenates lazy sources; streaming consumers use ``iter_blocks``).

Documented, intentionally materialising sites (the list-returning convenience
APIs, the process-pool pickling boundary) carry ``# streaming-ok: <reason>``
waivers on the offending line.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Sequence

from repro.analysis.common import Checker, Finding, SourceModule
from repro.analysis.registry import (
    BLOCK_STREAM_PRODUCERS,
    STREAM_PAYLOAD_NAMES,
    STREAMING_MODULES,
)

WAIVER = "streaming-ok"

_COLLECTORS = frozenset({"list", "tuple", "bytes", "bytearray"})


def _is_empty_bytes_join(node: ast.Call) -> bool:
    """``b"".join(...)`` (or any bytes-literal ``.join``)."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "join"
        and isinstance(func.value, ast.Constant)
        and isinstance(func.value.value, bytes)
    )


def _called_producer(node: ast.AST, producers: FrozenSet[str]) -> Optional[str]:
    """The block-stream producer name ``node`` calls, if it calls one."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in producers:
            return func.attr
        if isinstance(func, ast.Name) and func.id in producers:
            return func.id
    return None


class StreamingDisciplineChecker(Checker):
    """Flag whole-stream materialisation inside streaming-path modules."""

    name = "streaming-discipline"

    def __init__(
        self,
        modules: Optional[FrozenSet[str]] = None,
        producers: Optional[FrozenSet[str]] = None,
        payload_names: Optional[FrozenSet[str]] = None,
    ) -> None:
        self.modules = STREAMING_MODULES if modules is None else modules
        self.producers = BLOCK_STREAM_PRODUCERS if producers is None else producers
        self.payload_names = STREAM_PAYLOAD_NAMES if payload_names is None else payload_names

    def check_module(self, module: SourceModule) -> List[Finding]:
        if not any(module.relpath.endswith(suffix) for suffix in self.modules):
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            message = self._violation(node)
            if message is None:
                continue
            if module.has_waiver(node, WAIVER):
                continue
            findings.append(
                Finding(
                    checker=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=message,
                )
            )
        return findings

    def stale_scopes(self, modules: Sequence[SourceModule]) -> List[str]:
        return sorted(
            suffix
            for suffix in self.modules
            if not any(module.relpath.endswith(suffix) for module in modules)
        )

    def _violation(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            if _is_empty_bytes_join(node):
                return (
                    'b"".join(...) materialises a whole payload on the '
                    "streaming path; keep the block stream lazy"
                )
            func = node.func
            if isinstance(func, ast.Name) and func.id in _COLLECTORS and node.args:
                argument = node.args[0]
                producer = _called_producer(argument, self.producers)
                if producer is not None:
                    return (
                        f"{func.id}() buffers the lazy stream of {producer}(); "
                        f"iterate it instead"
                    )
                if (
                    func.id in ("bytes", "bytearray")
                    and isinstance(argument, ast.Name)
                    and argument.id in self.payload_names
                ):
                    return (
                        f"{func.id}({argument.id}) materialises a stream payload; "
                        f"keep it as blocks"
                    )
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr == "data" and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                return (
                    ".data reads materialise the whole payload of a workload "
                    "file; stream it with iter_blocks() instead"
                )
        return None
