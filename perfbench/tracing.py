"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`Tracer` wraps each layer's public entry points (module functions,
class methods, a machine's trap handlers and extern table, the methods of
one arithmetic-port instance) and records one span per call: name, start,
end, parent span and job id.  Spans are kept in flat ``array`` columns in
memory and written out once, when the run ends (:meth:`Tracer.dump`).

Aggregates are kept online per span name: call count, inclusive time of
the outermost spans of that name, and self time (duration minus the time
covered by direct child spans).  A call nested directly inside a span of
the same name (a port method calling another port method, an interposed
extern calling the original) is not recorded again, so inclusive totals
never count the same interval twice.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

#: marker attribute on every wrapper, so nothing is wrapped twice
_MARK = "__perfbench_span__"

#: arithmetic-port methods that model cost or describe the port rather
#: than compute: left unwrapped so port counts are arithmetic work only
_PORT_SKIP = frozenset({"op_cycles", "describe", "set_precision"})


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.job_col = array("i")
        self.job = -1
        self.recording = False
        #: open spans: [index, name id, start ns, child ns]
        self._stack: list[list] = []
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: spans whose direct children summed past their own duration
        self.violations = 0
        self._undo: list = []

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _open(self, name: str) -> list | None:
        stack = self._stack
        if stack and self.names[stack[-1][1]] == name:
            return None
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_col)
        self.name_col.append(nid)
        self.parent_col.append(stack[-1][0] if stack else -1)
        self.job_col.append(self.job)
        self.end_col.append(0)
        frame = [idx, nid, 0, 0]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        self.start_col.append(frame[2])
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        idx, nid, start, child = frame
        self.end_col[idx] = end
        dur = end - start
        if child > dur:
            self.violations += 1
        if stack:
            stack[-1][3] += dur
        name = self.names[nid]
        self.count[name] = self.count.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child

    def span(self, name: str):
        """Context manager: one span around the ``with`` body."""
        return _Span(self, name)

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name`` while the tracer records."""
        if getattr(fn, _MARK, None) is not None:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = self._open(name)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        setattr(traced, _MARK, name)
        return traced

    # ------------------------------------------------------------------ #
    # layer boundaries                                                    #
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        orig = vars(owner)[attr]
        wrapped = self.wrap(name, orig)
        if after is not None:
            inner = wrapped

            @functools.wraps(orig)
            def wrapped(*args, **kwargs):
                out = inner(*args, **kwargs)
                after(args, out)
                return out
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def wrap_machine(self, machine) -> None:
        """Wrap a machine's FPVM trap handlers and its extern table.

        Called after every load and every FPVM install, so handlers and
        interposed externs are wrapped before the guest's first
        instruction; the machine looks all of them up at call time.
        """
        if machine.fp_trap_handler is not None:
            machine.fp_trap_handler = self.wrap(
                "fpvm.fp_trap", machine.fp_trap_handler)
        if machine.correctness_handler is not None:
            machine.correctness_handler = self.wrap(
                "fpvm.correctness_trap", machine.correctness_handler)
        for addr, impl in list(machine.externs.items()):
            machine.externs[addr] = self.wrap("machine.libc", impl)

    def wrap_port(self, arith) -> None:
        """Wrap the arithmetic methods of one port *instance*.

        Instance attributes shadow the class methods, so the object
        keeps its type (the runtime picks the sanitizer with an
        ``isinstance`` check) and bound methods captured later by the
        emulator are the wrapped ones.
        """
        from repro.arith.interface import AlternativeArithmetic

        for attr in dir(AlternativeArithmetic):
            if attr.startswith("_") or attr in _PORT_SKIP:
                continue
            if callable(getattr(arith, attr, None)):
                setattr(arith, attr,
                        self.wrap("arith.port", getattr(arith, attr)))

    def install(self) -> None:
        """Patch every layer boundary; :meth:`uninstall` reverts."""
        import repro.analysis as analysis
        import repro.analysis.ranges as ranges
        import repro.machine.loader as loader
        import repro.session as session
        from repro.analysis.vsa import ValueSetAnalysis
        from repro.fpvm.gc import ConservativeGC
        from repro.fpvm.runtime import FPVM
        from repro.machine.cpu import Machine

        def loaded(args, machine):
            self.wrap_machine(machine)

        def installed(args, _out):
            self.wrap_machine(args[1])

        self._patch(ValueSetAnalysis, "run", "analysis.vsa")
        self._patch(analysis, "refine", "analysis.refine")
        self._patch(analysis, "apply_patches", "analysis.patch")
        self._patch(ranges, "analyze_ranges", "analysis.ranges")
        # Session binds load_binary at import; batch spills import it
        # from the loader module at call time
        self._patch(session, "load_binary", "machine.load", after=loaded)
        self._patch(loader, "load_binary", "machine.load", after=loaded)
        self._patch(Machine, "run", "machine.run")
        self._patch(FPVM, "__init__", "fpvm.install")
        self._patch(FPVM, "install", "fpvm.install", after=installed)
        self._patch(ConservativeGC, "collect", "fpvm.gc")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------ #
    # results                                                             #
    # ------------------------------------------------------------------ #

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def calls(self, name: str) -> int:
        return self.count.get(name, 0)

    def dump(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "spans": len(self.name_col),
            "columns": [["name", "i"], ["start_ns", "q"], ["end_ns", "q"],
                        ["parent", "q"], ["job", "i"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.start_col, self.end_col,
                        self.parent_col, self.job_col):
                col.tofile(f)


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame = None

    def __enter__(self):
        if self.tracer.recording:
            self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.frame is not None:
            self.tracer._close(self.frame)
