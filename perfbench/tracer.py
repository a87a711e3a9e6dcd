"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of each parachern module from outside the
program: every import site that holds the original function object, and every
class attribute that aliases a wrapped method (``__rmul__`` for ``__mul__``),
is replaced by a wrapper that keeps a span stack.  A span's self time is its
duration minus the time its child spans cover.  Spans are aggregated in
memory as they close, so a pass of millions of ring products stays small.

``RingElement.__init__`` is counted but not spanned: one construction is one
normalize pass, and a span per element would cost more than the work.

A target the program no longer has is skipped and reads zero calls, so a
later change that removes a function still gets a traced run.  The tracer
reads elements through their public ``terms`` mapping only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (metric prefix, module, attribute path inside the module)
TARGETS = (
    ("frontend.parse_program", "parachern.frontend", "parse_program"),
    ("frontend.elaborate", "parachern.frontend", "elaborate"),
    ("rings.GradedRing", "parachern.rings", "GradedRing.__init__"),
    ("rings.mul", "parachern.rings", "RingElement.__mul__"),
    ("rings.add", "parachern.rings", "RingElement.__add__"),
    ("rings.exp_nilpotent", "parachern.rings", "exp_nilpotent"),
    ("rings.chern_from_character", "parachern.rings", "chern_from_character"),
    ("rings.character_from_chern", "parachern.rings", "character_from_chern"),
    ("chow.make_cover", "parachern.chow", "make_cover"),
    ("chow.pullback", "parachern.chow", "CoverModel.pullback"),
    ("chow.pushdown", "parachern.chow", "CoverModel.pushdown"),
    ("chow.integrate", "parachern.chow", "integrate"),
    ("bundles.cover_bundle", "parachern.bundles", "cover_bundle"),
    ("bundles.parabolic_chern", "parachern.bundles", "parabolic_chern"),
    ("bundles.character_element", "parachern.bundles", "character_element"),
    (
        "bundles.OrdinaryBundleClass.character",
        "parachern.bundles",
        "OrdinaryBundleClass.character",
    ),
    ("bundles.dual", "parachern.bundles", "dual"),
    ("bundles.tensor", "parachern.bundles", "tensor"),
    ("bundles.direct_sum", "parachern.bundles", "direct_sum"),
    ("grothendieck.verify_relation", "parachern.grothendieck", "verify_relation"),
    (
        "grothendieck.verify_cover_pullback",
        "parachern.grothendieck",
        "verify_cover_pullback",
    ),
    (
        "grothendieck.verify_pair_identities",
        "parachern.grothendieck",
        "verify_pair_identities",
    ),
    ("grothendieck.h_power", "parachern.grothendieck", "ProjBundleRing.h_power"),
    ("grothendieck.pmul", "parachern.grothendieck", "ProjBundleElement.__mul__"),
    ("cli.evaluate_text", "parachern.cli", "evaluate_text"),
    ("cli.execute_scene", "parachern.cli", "execute_scene"),
    ("cli.run", "parachern.cli", "run"),
)
SPAN_NAMES = tuple(name for name, _, _ in TARGETS)
LAYERS = ("frontend", "rings", "chow", "bundles", "grothendieck", "cli")

# Functions that some workload never calls.  Their self time is reported in
# the layer total and in the run's detail lines, but not as a metric of its
# own, because on the other workloads it would read a constant zero.
NOT_ON_EVERY_WORKLOAD = frozenset(
    {
        "chow.integrate",
        "bundles.dual",
        "bundles.tensor",
        "bundles.direct_sum",
        "grothendieck.verify_pair_identities",
        "cli.run",
    }
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a target, or None if it is gone."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    function = getattr(owner, attr, None)
    return None if function is None else (owner, attr, function)


def _first_two_arguments(fn):
    signature = inspect.signature(fn)

    def first_two(args, kwargs):
        values = list(signature.bind(*args, **kwargs).arguments.values())
        return values[0], values[1]

    return first_two


class Tracer:
    """Wraps the targets on :meth:`install` and restores them on
    :meth:`uninstall`; :meth:`reset` starts a new pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = [["<root>", 0]]
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.callers: dict[tuple[str, str], int] = {}
        self.elements = 0
        self.term_pairs = 0
        self.max_coeff_bits = 0
        # Objects are held, not their ids, so an id cannot be reused within
        # a pass.  Varieties and parabolic bundles hash by identity.
        self.covers: set = set()
        self.cover_bundles: set = set()

    def install(self):
        import parachern.cli  # noqa: F401  (loads every module it wraps)

        from parachern.rings import RingElement

        for name, module_name, path in TARGETS:
            target = _resolve(module_name, path)
            if target is None:
                continue
            owner, _, original = target
            hook = None
            if name == "rings.mul":
                hook = self._count_term_pairs
            elif name == "chow.make_cover":
                args_of = _first_two_arguments(original)

                def hook(args, kwargs, args_of=args_of):
                    variety, order = args_of(args, kwargs)
                    self.covers.add((variety, int(order)))

            elif name == "bundles.cover_bundle":
                args_of = _first_two_arguments(original)

                def hook(args, kwargs, args_of=args_of):
                    self.cover_bundles.add(args_of(args, kwargs)[0])

            wrapper = self._span(name, original, hook)
            self._replace(original, wrapper, owner if isinstance(owner, type) else None)
        init = RingElement.__init__

        @functools.wraps(init)
        def counted_init(element, *args, **kwargs):
            init(element, *args, **kwargs)
            self.elements += 1
            for coeff in element.terms.values():
                bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits

        self._replace(init, counted_init, RingElement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, original, wrapper, cls):
        """Swap ``original`` for ``wrapper`` on the class that defines it, or,
        for a module function, in every parachern module that imported it."""
        owners = [cls] if cls is not None else [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "parachern" or module_name.startswith("parachern.")
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def _count_term_pairs(self, args, kwargs):
        a, b = args
        other = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
        self.term_pairs += len(a.terms) * other

    def _span(self, name, fn, hook):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            key = (name, stack[-1][0])
            tracer.callers[key] = tracer.callers.get(key, 0) + 1
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return wrapper

    def counts(self) -> dict[str, float]:
        """The pass's work counts and ratios, each ratio next to its base."""
        out = {f"{name}.calls": self.calls[name] for name in SPAN_NAMES}
        out["rings.elements"] = self.elements
        out["rings.mul.term_pairs"] = self.term_pairs
        out["rings.max_coeff_bits"] = self.max_coeff_bits
        for name, distinct in (
            ("chow.make_cover", len(self.covers)),
            ("bundles.cover_bundle", len(self.cover_bundles)),
        ):
            calls = self.calls[name]
            out[f"{name}.distinct"] = distinct
            out[f"{name}.useful_ratio"] = distinct / calls if calls else 0.0
        return out

    def self_ms(self) -> dict[str, float]:
        """Self time of every span and of every layer, in milliseconds."""
        out = {f"{name}.self_ms": ns / 1e6 for name, ns in self.self_ns.items()}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(
                ns for name, ns in self.self_ns.items() if name.startswith(layer + ".")
            ) / 1e6
        return out
