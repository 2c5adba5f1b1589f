"""Spans around the library's public functions, installed from outside.

The tracer wraps each function listed in ``SPANS`` and rebinds the wrapper
at every ``controlforge`` module (and class) that holds the original, so a
function imported by name elsewhere (``winners`` lives in ``elections``,
``control``, ``solvers`` and ``cli``) is traced wherever it is called.
Nothing under ``src/`` changes: ``uninstall`` restores every binding.

Spans are aggregated as they close, per name: calls, inclusive time and the
time covered by child spans, so self time is inclusive minus child time.
"""

import functools
import sys
import time

# (span name, attribute path). A span's layer, and the module that defines
# the function, is the name's first component.
SPANS = (
    ("elections.winners", "winners"),
    ("elections.masked", "VoteCollection.masked"),
    ("elections.masked", "mask_votes"),
    ("elections.select_voters", "VoteCollection.select_voters"),
    ("elections.election_init", "Election.__post_init__"),
    ("control.check_solution", "check_solution"),
    ("control.verify_solution", "verify_solution"),
    ("solvers.brute_force_search", "brute_force_search"),
    ("solvers.oracle", "BruteForceOracle.__call__"),
    ("solvers.oracle_search", "lex_min_search_with_oracle"),
    ("solvers.immunity_search", "immunity_search_approval"),
    ("solvers.isolate_search", "cc_rpc_te_nuw_search_approval"),
    ("reductions.apply", "TransferRule.apply"),
    ("reductions.find_chain", "find_transfer_chain"),
    ("hardness.encode", "encode_hitting_set"),
    ("hardness.extract", "extract_hitting_set"),
    ("cli.run_command", "run_command"),
    ("cli.render", "RunReport.render"),
)

LAYERS = ("elections", "control", "solvers", "reductions", "hardness", "cli")


def layer_of(name):
    return name.split(".", 1)[0]


class Span:
    """Running totals for one span name."""

    __slots__ = ("calls", "total_ns", "child_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.extra = {}

    @property
    def self_ns(self):
        return self.total_ns - self.child_ns


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = {}
        self._stack = []
        self._restore = []

    def _modules(self):
        prefix = self.package.__name__
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.child_ns += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(span.extra, result, stack[-1][1] if stack else None)
            return result

        return traced

    def install(self):
        """Wrap every span target that exists, at every binding of it."""
        modules = self._modules()
        for name, path in SPANS:
            module = sys.modules.get(f"{self.package.__name__}.{layer_of(name)}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
            else:
                original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._bind(owner, attr, original, wrapper)
            else:
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._bind(holder, key, original, wrapper)

    def _bind(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


def _count_true(extra, result, parent):
    extra["true"] = extra.get("true", 0) + bool(result)
    if parent == "solvers.brute_force_search":
        extra["in_search"] = extra.get("in_search", 0) + 1


def _count_fallback(extra, result, parent):
    extra["fallback"] = extra.get("fallback", 0) + bool(result.via_fallback)


_OBSERVERS = {
    "control.verify_solution": _count_true,
    "reductions.apply": _count_fallback,
}
