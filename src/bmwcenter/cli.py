"""Command-line front end.

One subcommand per analysis; deterministic output in text, JSON or DOT
form.  Exit status 0 on success, 1 on domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import string
import sys

from . import blocks as blocks_mod
from . import center as center_mod
from . import contentfn
from . import idempotents as idem_mod
from . import tableaux
from . import wheelpoly
from .errors import BmwError
from .partitions import partition_from_text, text_of_partition
from .scalars import ADD, content_value, regime_from_text


def _lp_json(lp):
    return {"shape": text_of_partition(lp.shape), "defect": lp.defect}


def _path_text(path):
    return " -> ".join(map(text_of_partition, path))


_ESCAPE = json.encoder.encode_basestring_ascii
_SCALAR = {str: _ESCAPE, int: int.__repr__, type(None): lambda _: "null",
           bool: lambda b: "true" if b else "false"}


def _layout(x, pad, out):
    """Append the chunks of ``json.dumps(x, indent=2, sort_keys=True)`` to
    out, indented as a value nested at indent pad; dict keys must be str."""
    scalar = _SCALAR.get(type(x))
    if scalar is not None:
        out.append(scalar(x))
    elif x and isinstance(x, (list, tuple)):
        sep = ",\n" + pad + "  "
        out.append("[" + sep[1:])
        try:  # a list of strings is one C call
            out.append(sep.join(map(_ESCAPE, x)))
        except TypeError:
            for i, v in enumerate(x):
                if i:
                    out.append(sep)
                _layout(v, pad + "  ", out)
        out.append("\n" + pad + "]")
    elif x and isinstance(x, dict):
        sep = "{\n" + pad + "  "
        for k, v in sorted(x.items()):
            out.append(sep + _ESCAPE(k) + ": ")
            _layout(v, pad + "  ", out)
            sep = ",\n" + pad + "  "
        out.append("\n" + pad + "}")
    else:  # empty containers, floats and other types: one line each
        out.append(json.dumps(x))


def _emit(payload):
    """Print payload as ``json.dumps(payload, indent=2, sort_keys=True)``
    would, without that call's fall back to the pure-Python encoder."""
    out = []
    _layout(payload, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def cmd_lambda(args):
    lps = tableaux.enumerate_lambda(args.n)
    if args.format == "json":
        _emit([_lp_json(lp) for lp in lps])
    else:
        for lp in lps:
            print("(%s, %d)" % (text_of_partition(lp.shape), lp.defect))
    return 0


def cmd_paths(args):
    # each head and tail of path_halves is rendered once, and a path's line
    # is its head's text then its tail's; JSON is json.dumps(paths, indent=2)
    heads, tails = tableaux.path_halves(args.n, args.shape)
    js = args.format == "json"
    name = (lambda s: _ESCAPE(text_of_partition(s))) if js else text_of_partition
    sep, first, last = (",\n    ", "[\n    ", "\n  ]") if js else (" -> ", "", "")
    ends = {m: ["".join([sep + name(s) for s in t]) + last for t in ts]
            for m, ts in tails.items()}
    lines = [head + end for h in heads for head in [first + sep.join(map(name, h))]
             for end in ends[h[-1]]]
    sys.stdout.write("[\n  " + ",\n  ".join(lines) + "\n]\n" if js else
                     "\n".join(lines) + "\ntotal: %d\n" % len(lines))
    return 0


def cmd_contents(args):
    mult = contentfn.drunk_contents(args.n, args.shape)
    items = sorted(mult.items())
    if args.format == "json":
        _emit([{"direction": "add" if c.s == ADD else "remove",
                "diagonal": c.i, "multiplicity": m,
                "value": str(content_value(c, args.regime))}
               for c, m in items])
    else:
        for c, m in items:
            print("%s x %d = %s" % (c, m, content_value(c, args.regime)))
    return 0


def cmd_wheel(args):
    n, K = args.n, args.order
    rows = [{"k": k, "w": str(w), "p": str(wheelpoly.power_sum(n, k))}
            for k, w in enumerate(wheelpoly.wheel_coefficients(n, K))]
    newton = wheelpoly.newton_check(n, K)
    if args.format == "json":
        _emit({"n": n, "order": K, "rows": rows, "newton": newton})
    else:
        for r in rows:
            print("w_%d = %s" % (r["k"], r["w"]))
            print("p_%d^- = %s" % (r["k"], r["p"]))
        print("newton identities: %s" % ("ok" if newton else "FAILED"))
    return 0


def cmd_signature(args):
    sig = contentfn.signature(args.n, args.shape, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "shape": text_of_partition(args.shape),
               "regime": str(args.regime),
               "signature": contentfn.signature_json(sig)})
    else:
        print(str(sig))
    return 0


def _pair_letters(mates):
    """Letter per pairing orbit {i, mates[i]}, keyed by diagonal."""
    orbit = {}
    for i in sorted(mates, reverse=True):
        if i not in orbit:
            orbit[i] = orbit[mates[i]] = string.ascii_lowercase[
                len(set(orbit.values())) % 26]
    return orbit


def cmd_pairs(args):
    mates = contentfn.pairing_set(args.n, args.shape, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "shape": text_of_partition(args.shape),
               "regime": str(args.regime), "paired": sorted(mates)})
        return 0
    print("P = {%s}" % ", ".join(str(i) for i in sorted(mates)))
    orbit = _pair_letters(mates)
    for i, p in enumerate(args.shape, start=1):
        cells = []
        for j in range(1, p + 1):
            d = j - i
            cells.append("[%3d%s]" % (d, orbit.get(d, " ")))
        print("".join(cells))
    return 0


def cmd_separate(args):
    rep = center_mod.separation_classes(args.n, args.regime)
    pred = center_mod.theorem1_predicate(args.n, args.regime)
    ss = blocks_mod.is_semisimple(args.n, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime),
               "classes": [[_lp_json(lp) for lp in c] for c in rep.classes],
               "separates": rep.separates,
               "witnesses": [[_lp_json(a), _lp_json(b)]
                             for a, b in rep.witnesses],
               "semisimple": ss, "predicted": pred})
        return 0
    print("classes: %d / %d" % (len(rep.classes), sum(len(c) for c in rep.classes)))
    for c in rep.classes:
        print("  " + "  ".join(str(lp) for lp in c))
    print("separates: %s (predicted: %s)" % (rep.separates, pred))
    for a, b in rep.witnesses:
        print("witness: %s ~ %s" % (a, b))
    print("semisimple: %s" % ss)
    if not ss:
        print("note: with semisimplicity failing, the signature classes "
              "bound the center only conjecturally")
    if ss and rep.separates != pred:
        print("warning: computed separation disagrees with the predicate")
    return 0


def cmd_matrix(args):
    matrix, rank, K = center_mod.adaptive_matrix(args.n, args.regime,
                                                 order=args.order)
    labels = center_mod.matrix_row_labels(K)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime), "order": K,
               "rank": rank,
               "rows": [{"e_power": j, "w_index": k,
                         "entries": [str(x) for x in row]}
                        for (j, k), row in zip(labels, matrix)]})
        return 0
    for (j, k), row in zip(labels, matrix):
        name = "w_%d" % k if j == 0 else "e^%+d*w_%d" % (j, k)
        print("%-10s %s" % (name, "  ".join(str(x) for x in row)))
    print("rank: %d" % rank)
    return 0


def cmd_family(args):
    reps, family, K = center_mod.separating_family(args.n, args.regime)
    labels = center_mod.matrix_row_labels(K)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime), "order": K,
               "representatives": [_lp_json(lp) for lp in reps],
               "combinations": [[{"e_power": j, "w_index": k,
                                  "coefficient": str(c)}
                                 for (j, k), c in zip(labels, combo)
                                 if not c.is_zero]
                                for combo in family]})
        return 0
    for lp, combo in zip(reps, family):
        print("p[%s]:" % lp)
        for (j, k), c in zip(labels, combo):
            if not c.is_zero:
                name = "w_%d" % k if j == 0 else "e^%+d*w_%d" % (j, k)
                print("  %s: %s" % (name, c))
    return 0


def cmd_semisimple(args):
    ss = blocks_mod.is_semisimple(args.n, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime), "semisimple": ss})
    else:
        print("true" if ss else "false")
    return 0


def cmd_blocks(args):
    rep = blocks_mod.block_partition(args.n, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime),
               "semisimple": blocks_mod.is_semisimple(args.n, args.regime),
               "blocks": [[_lp_json(lp) for lp in c] for c in rep.blocks],
               "agrees_with_W": rep.agrees_with_W})
        return 0
    for c in rep.blocks:
        print("  ".join(str(lp) for lp in c))
    print("agrees with signature classes: %s" % rep.agrees_with_W)
    for a, b in rep.closure_pairs:
        print("closure only: %s ~ %s" % (a, b))
    return 0


def cmd_verify_blocks(args):
    ok = blocks_mod.verify_block_theorem(args.n, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime), "verified": ok})
    else:
        print("verified" if ok else "MISMATCH")
    return 0 if ok else 1


def cmd_idempotent(args):
    diag = idem_mod.spectral_idempotent(args.n, args.shape)
    sel = diag.selected()
    ok = (len(sel) == 1 and sel[0] == tableaux.drunk_path(args.n, args.shape))
    if args.format == "json":
        _emit({"n": args.n, "lambda": text_of_partition(args.shape),
               "selected_path": [text_of_partition(s) for s in sel[0]]
               if sel else [],
               "all_zero_elsewhere": ok})
        return 0
    for p in sel:
        print("selected: %s" % _path_text(p))
    print("all other paths zero: %s" % ok)
    return 0


def cmd_graph(args):
    if args.format == "dot":
        sys.stdout.write(tableaux.branching_graph_dot(args.n, args.regime))
        return 0
    levels, edges = tableaux.branching_graph(args.n, args.regime)
    if args.format == "json":
        _emit({"n": args.n, "regime": str(args.regime),
               "levels": [[text_of_partition(s) for s in lev]
                          for lev in levels],
               "edges": [{"level": k,
                          "parent": text_of_partition(a),
                          "child": text_of_partition(b),
                          "value": str(v)} for k, a, b, v in edges]})
        return 0
    sys.stdout.write("".join(
        "L%d:%s -> L%d:%s  [%s]\n" % (k - 1, text_of_partition(a), k,
                                       text_of_partition(b), v)
        for k, a, b, v in edges))
    return 0


def _check_shape(n, lp, regime, wheels):
    """Per-shape invariant bundle for selfcheck; ``wheels`` is the level's
    ``wheel_coefficients`` for the series check, or None to skip it."""
    from collections import Counter
    lam = lp.shape
    closed = contentfn.drunk_contents(n, lam)
    walked = Counter(tableaux.content_sequence(tableaux.drunk_path(n, lam)))
    if closed != walked:
        return "drunk multiset mismatch at %s" % lp
    sig = contentfn.signature(n, lam, regime)
    for v, e in sig.exponents.items():
        if sig.exponents.get(v.inverse()) != -e:
            return "signature asymmetry at %s" % lp
    if wheels is not None and not contentfn.series_consistency(n, lam, regime, wheels):
        return "series inconsistency at %s" % lp
    return None


def cmd_selfcheck(args):
    n = args.n
    counts = tableaux.path_counts(n)  # refuses a level above MAX_PATHS first
    wheels = wheelpoly.wheel_coefficients(n, min(3, n)) if n <= 6 else None
    failures = [f for f in (_check_shape(n, lp, args.regime, wheels)
                            for lp in tableaux.enumerate_lambda(n)) if f]

    expected = 1
    for k in range(1, n + 1):
        expected *= 2 * k - 1
    if sum(c * c for c in counts.values()) != expected:
        failures.append("path-count square sum mismatch at level %d" % n)
    if n <= 4 and not wheelpoly.newton_check(n, min(2 * n, 8)):
        failures.append("newton identities failed at level %d" % n)
    for lam, count in counts.items():
        heads, tails = tableaux.path_halves(n, lam)
        if count != sum(len(tails[h[-1]]) for h in heads):
            failures.append("path count mismatch at %s" % (lam,))
    if args.format == "json":
        _emit({"n": n, "regime": str(args.regime), "ok": not failures,
               "failures": failures})
    else:
        for f in failures:
            print("FAIL: %s" % f)
        print("selfcheck level %d: %s" % (n, "ok" if not failures else
                                          "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


COMMANDS = {
    "lambda": cmd_lambda,
    "paths": cmd_paths,
    "contents": cmd_contents,
    "wheel": cmd_wheel,
    "signature": cmd_signature,
    "pairs": cmd_pairs,
    "separate": cmd_separate,
    "matrix": cmd_matrix,
    "family": cmd_family,
    "semisimple": cmd_semisimple,
    "blocks": cmd_blocks,
    "verify-blocks": cmd_verify_blocks,
    "idempotent": cmd_idempotent,
    "graph": cmd_graph,
    "selfcheck": cmd_selfcheck,
}

NEEDS_SHAPE = {"paths", "contents", "signature", "pairs", "idempotent"}
READS_REGIME = set(COMMANDS) - {"lambda", "paths", "wheel", "idempotent"}
# the commands that read --order, with its default (None: chosen adaptively)
ORDERED = {"wheel": 4, "matrix": None}


def _integer(text):
    """An int from ASCII digits with an optional minus sign, spaces around."""
    if not re.fullmatch("-?[0-9]+", text.strip()):
        raise argparse.ArgumentTypeError("bad integer %r" % text)
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bmwcenter",
        description="Exact combinatorics of wheel polynomial evaluations "
                    "on updown tableaux")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=_integer, required=True)
        if name in READS_REGIME:
            p.add_argument("--t", default="generic",
                           help='regime: "generic", "q^N", "-q^N" or "1"')
        if name in NEEDS_SHAPE:
            p.add_argument("--shape", required=True,
                           help='partition, e.g. "4,2,2" ("0" for empty)')
        if name in ORDERED:
            p.add_argument("--order", type=_integer, default=ORDERED[name])
        formats = ("text", "json", "dot") if name == "graph" else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
    return parser


PARSER = build_parser()


def run(argv):
    # let regime values like "-q^-1" follow --t without being read as flags
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--t" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append("--t=" + argv[i + 1])
            skip = True
        else:
            merged.append(tok)
    args = PARSER.parse_args(merged)
    if args.n < 0:
        PARSER.error("--n must be non-negative")
    if getattr(args, "order", None) is not None and args.order < 0:
        PARSER.error("--order must be non-negative")
    try:
        if args.command in READS_REGIME:
            args.regime = regime_from_text(args.t)
        if args.command in NEEDS_SHAPE:
            args.shape = partition_from_text(args.shape)
    except ValueError as exc:
        PARSER.error(str(exc))
    try:
        return COMMANDS[args.command](args)
    except BmwError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main():
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); point stdout at
        # devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
