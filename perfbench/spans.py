"""Span recording for the traced benchmark run.

The benchmark installs timing wrappers around public functions of the
dyncomm modules, at the name each caller looks the function up under
(``dyncomm.sampler.extended_modularity`` and ``dyncomm.cli.extended_modularity``
are two wrappers around one function).  Spans stay in memory, each with the
id of the span that was open when it started, and are written out when the
run ends.  No per-edge function is wrapped: ``draw_for_edge`` runs about a
million times per detect, and timing it would measure a different program.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

MARK = "__perfbench_original__"


def _records_nbytes(records) -> int:
    return sum(r.beta.nbytes + r.assign_ids.nbytes + r.sizes.nbytes
               for r in records)


def _cover_lines(covers) -> int:
    return sum(len(members) for cover in covers.values()
               for members in cover.communities.values())


# (module, attribute path, span name, attrs(args, result) or None).  The
# attrs function runs after the span has closed, so its cost lands in the
# parent span, never in the measured one.
TARGETS = (
    ("dyncomm.cli", "entry_point", "cli.entry_point", None),
    ("dyncomm.cli", "resolve_run_config", "cli.resolve", None),
    ("dyncomm.cli", "cmd_generate", "cli.cmd_generate", None),
    ("dyncomm.cli", "cmd_detect", "cli.cmd_detect", None),
    ("dyncomm.cli", "_write_meta", "cli.write_meta", None),
    ("dyncomm.cli", "load_dynamic", "graphs.load_dynamic",
     lambda a, r: {"path": str(a[0])}),
    ("dyncomm.cli", "save_dynamic", "graphs.save_dynamic", None),
    ("dyncomm.cli", "generate_dynamic", "benchgen.generate_dynamic", None),
    ("dyncomm.benchgen", "plant_memberships", "benchgen.plant", None),
    ("dyncomm.benchgen", "apply_events", "benchgen.apply_events", None),
    ("dyncomm.benchgen", "generate_snapshot", "benchgen.generate_snapshot",
     lambda a, r: {"n": r.m}),
    ("dyncomm.cli", "load_covers", "membership.load_covers",
     lambda a, r: {"n": _cover_lines(r)}),
    ("dyncomm.cli", "save_covers", "membership.save_covers",
     lambda a, r: {"n": _cover_lines(a[1])}),
    ("dyncomm.sampler", "soft_membership_from_arrays", "membership.soft_membership", None),
    ("dyncomm.sampler", "extract_cover", "membership.extract_cover", None),
    ("dyncomm.cli", "extended_modularity", "metrics.extended_modularity", None),
    ("dyncomm.sampler", "extended_modularity", "metrics.extended_modularity", None),
    ("dyncomm.cli", "overlapping_nmi", "metrics.overlapping_nmi",
     lambda a, r: {"n": a[0].k * a[1].k}),
    ("dyncomm.metrics", "MetricReport.save", "metrics.report_write", None),
    ("dyncomm.cli", "detect_dynamic", "sampler.detect_dynamic", None),
    ("dyncomm.sampler", "run_snapshot", "sampler.run_snapshot",
     lambda a, r: {"t": a[0].t, "n": _records_nbytes(r)}),
    ("dyncomm.sampler", "init_assignments_first", "sampler.init_assignments", None),
    ("dyncomm.sampler", "init_assignments_carry", "sampler.init_assignments", None),
    ("dyncomm.sampler", "SamplerState.__init__", "sampler.state_init", None),
    ("dyncomm.sampler", "gibbs_sweep", "sampler.gibbs_sweep",
     lambda a, r: {"n": a[0].m}),
    ("dyncomm.sampler", "SamplerState.resample_beta", "sampler.resample_beta", None),
    ("dyncomm.sampler", "SamplerState.record", "sampler.record",
     lambda a, r: {"n": len(r.ids)}),
    ("dyncomm.sampler", "SamplerState._create_community", "sampler.open_community", None),
    ("dyncomm.sampler", "select_best", "sampler.select_best", None),
    ("dyncomm.sampler", "PrevSummary.from_record", "sampler.carry_over", None),
)


class Recorder:
    """Spans as ``[id, parent, name, start, end, attrs]`` lists, in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        setattr(timed, MARK, fn)
        return timed

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


class Installed:
    """Context manager: wrappers in place on entry, originals back on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        try:
            for module, path, name, attrs in TARGETS:
                owner, attr = _owner(module, path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.recorder.wrap(name, raw.__func__, attrs))
                else:
                    new = self.recorder.wrap(name, raw, attrs)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def wrapped_names() -> list[str]:
    """Targets that still carry a benchmark wrapper; empty when untraced."""
    out = []
    for module, path, _, _ in TARGETS:
        owner, attr = _owner(module, path)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, MARK):
            out.append("%s.%s" % (module, path))
    return out


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
