"""Run one leonard-kit command as the console script does, optionally traced.

usage: python3 child.py SRC_DIR TRACE_FILE|- ARG...

SRC_DIR is the checkout's ``src``; the package must load from there.
With a TRACE_FILE, the public functions of every ``leonard_kit`` module
are wrapped from outside before the command runs: each call records a
span (name, start, end, parent, d, max entry bits) in memory, and the
spans are written to TRACE_FILE as JSON when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, attribute, span name).  Functions that share a span name form
# one layer; its inclusive time counts only the outermost of nested calls.
FUNCTIONS = (
    ("linalg", "charpoly", "linalg.charpoly"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "represent_in_basis", "linalg.represent_in_basis"),
    ("linalg", "subspace_sum", "linalg.subspace"),
    ("linalg", "subspace_intersection", "linalg.subspace"),
    ("linalg", "simple_rational_eigen", "linalg.simple_rational_eigen"),
    ("leonard", "verify_leonard", "leonard.verify_leonard"),
    ("flags", "standard_flag_set", "flags.standard_flag_set"),
    ("flags", "induced_flag", "flags.induced_flag"),
    ("flags", "are_opposite", "flags.are_opposite"),
    ("flags", "decomposition_from_flags", "flags.decomposition_from_flags"),
    ("split", "split_type", "split.split_type"),
    ("split", "split_type_via_flags", "split.split_type_via_flags"),
    ("adjacency", "are_adjacent", "adjacency.are_adjacent"),
    ("adjacency", "are_adjacent_via_flags", "adjacency.are_adjacent_via_flags"),
    ("adjacency", "build_labeling", "adjacency.build_labeling"),
    ("adjacency", "verify_transition_identity", "adjacency.verify_transition_identity"),
    ("adjacency", "classify_dichotomy", "adjacency.classify_dichotomy"),
    ("adjacency", "check_mutually_adjacent", "adjacency.check_mutually_adjacent"),
    ("sl2", "three_mutually_adjacent", "sl2.three_mutually_adjacent"),
    ("sl2", "companions", "sl2.companions"),
    ("sl2", "krawtchouk_normal_form", "sl2.krawtchouk_normal_form"),
    ("sequences", "classify_sequence", "sequences.classify_sequence"),
    ("cli", "_load_json", "jsonio.parse"),
    ("jsonio", "pair_from_obj", "jsonio.parse"),
    ("jsonio", "sequence_from_obj", "jsonio.parse"),
    ("jsonio", "pair_report_obj", "jsonio.emit"),
    ("jsonio", "pair_to_obj", "jsonio.emit"),
    ("jsonio", "matrix_to_obj", "jsonio.emit"),
    ("jsonio", "flag_to_obj", "jsonio.emit"),
    ("jsonio", "vector_to_obj", "jsonio.emit"),
    ("jsonio", "sequence_to_obj", "jsonio.emit"),
    ("cli", "_emit", "jsonio.emit"),
)


def _dim(x):
    if type(x) is int:
        return x
    d = getattr(x, "d", None)
    if isinstance(d, int):
        return d
    rows = getattr(x, "rows", None)
    return rows - 1 if isinstance(rows, int) else None


def _max_bits(m):
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for row in m.entries
        for x in row
    )


class Tracer:
    """Spans kept in memory as [name, start, end, parent, d, bits]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, bits=False, when=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            first = args[0] if args else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _dim(first),
                    _max_bits(first) if bits else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package):
        """Replace every module-level binding of each traced function
        across the package, including from-import copies, and the
        ExactMatrix product, inverse and Subspace.span methods."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == package.__name__]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"{package.__name__}.{module_name}"], attr)
            wrapped = self.wrap(name, original, bits=attr == "charpoly")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        linalg = sys.modules[f"{package.__name__}.linalg"]
        matrix, subspace = linalg.ExactMatrix, linalg.Subspace
        matrix.__mul__ = self.wrap(
            "linalg.matmul", matrix.__mul__, when=lambda args: isinstance(args[1], matrix)
        )
        matrix.inverse = self.wrap("linalg.inverse", matrix.inverse)
        subspace.span = classmethod(self.wrap("linalg.subspace", subspace.span.__func__))


def main():
    src, trace_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import leonard_kit.cli as cli

    import_s = time.perf_counter() - start
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"leonard_kit was not loaded from {src}", file=sys.stderr)
        return 3
    if trace_file == "-":
        return cli.main(argv)
    import leonard_kit
    import leonard_kit.flags as flags

    cached_flag_set = flags.standard_flag_set
    tracer = Tracer()
    tracer.install(leonard_kit)
    try:
        return tracer.wrap("cli", cli.main)(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "import_s": import_s,
                    "flag_set_misses": cached_flag_set.cache_info().misses,
                    "spans": tracer.spans,
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main())
