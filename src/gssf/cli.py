"""Command-line pipeline: synthesize, train, score, cluster, evaluate, export.

Subcommands: ``synth``, ``train``, ``cluster``, ``compare``.
Every setting is a flag, except the recognizer's and the synthetic set's:
``train --config`` reads a JSON file of at most ``MAX_CONFIG_BYTES`` shaped
like ``TrainConfig`` (keys ``arch`` and ``train``), and ``synth`` takes its
seed from the spec. A setting that does not depend on the answers is checked
before the answer file is read. A kind or method has one spelling, its flag
value, in the flags and in every output.
Exit codes: 0 success, 2 usage/validation error, 3 runtime failure (training
divergence, no scorable answers, non-finite scores); any other error is a
program fault and ends in a traceback. Only this module writes diagnostics:
one ``error: <text>`` or ``warning: <text>`` line on stderr per condition.

Each subcommand imports the gssf modules it runs when it starts, so that,
for example, ``synth`` never loads the recognizer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import InputError, RunFailure, read_json_object

if TYPE_CHECKING:
    from .cluster import Assignment
    from .sbr import SbRMatrix
    from .seq2seq import TrainConfig
    from .similarity import SimilarityKind

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 2, 3

METHODS = ("m3", "m4", "m5")
M3_RULE = "method m3 clusters |score| distances and needs a symmetric score family kind"

MAX_ANSWERS = 5_000  # answers per file; 25x the paper's largest question, where F takes 200 MB
MAX_CONFIG_BYTES = 17 * 256  # 256 bytes for each TrainConfig key: 6 in train, 11 in arch


class UsageError(InputError):
    pass


def _warn(text: str) -> None:
    print(f"warning: {text}", file=sys.stderr)


# -- configuration ----------------------------------------------------------


def _at_least(value: int, flag: str, minimum: int) -> int:
    if value < minimum:
        raise UsageError(f"{flag} must be an integer >= {minimum}, got {value}")
    return value


def _train_config(path: str | None) -> TrainConfig:
    """The checked ``train --config`` file; without one, ``TrainConfig()``."""
    from .seq2seq import ArchConfig, ModelError, TrainConfig

    config = (read_json_object(path, MAX_CONFIG_BYTES, "config", UsageError)
              if path is not None else {})
    unknown = set(config) - {"arch", "train"}
    if unknown:
        raise UsageError(f"config {path}: unknown keys {sorted(unknown)}")
    try:
        tconf = TrainConfig(arch=ArchConfig(**config.get("arch", {})),
                            **config.get("train", {}))
        tconf.validate()
        return tconf
    except (TypeError, ModelError) as exc:
        raise UsageError(f"bad training config: {exc}") from exc


def _parse_kind(name: str) -> SimilarityKind:
    from .similarity import SimilarityKind

    try:
        return SimilarityKind(name)
    except ValueError:
        names = tuple(kind.value for kind in SimilarityKind)
        raise UsageError(f"unknown similarity kind {name!r} (choose from {names})") from None


def _cells(kinds: list[SimilarityKind], methods: list[str]) -> list[tuple[SimilarityKind, str]]:
    """The distinct (kind, method) cells to cluster, kinds outermost, in
    first-seen order; m3 clusters |score| distances, so it keeps only the
    kinds in ``DISTANCE_KINDS``, warning of the others when a cell remains."""
    from .similarity import DISTANCE_KINDS

    kinds, methods = list(dict.fromkeys(kinds)), list(dict.fromkeys(methods))
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r} (choose from {METHODS})")
    cells = [(kind, method) for kind in kinds for method in methods
             if method != "m3" or kind in DISTANCE_KINDS]
    skipped = [f"{kind.value}/m3" for kind in kinds if "m3" in methods
               and kind not in DISTANCE_KINDS]
    if skipped and cells:
        _warn(f"skipping {', '.join(skipped)}: {M3_RULE}")
    return cells


def _resolve_k(policy: str, categories: list[str | None], n: int) -> int:
    if policy == "categories":
        if any(c is None for c in categories):
            raise UsageError("k policy 'categories' needs a category on every sample")
        return len(set(categories))
    try:
        k = int(policy)
    except ValueError:
        raise UsageError(f"k must be an integer or 'categories', got {policy!r}") from None
    if not 1 <= k <= n:
        raise UsageError(f"k={k} out of range for {n} answers")
    return k


# -- pipeline pieces --------------------------------------------------------


def _cluster_once(method: str, raw: SbRMatrix, norm: SbRMatrix, k: int, seed: int,
                  restarts: int) -> Assignment:
    from .cluster import complete_linkage, euclidean_distance_matrix, kmeans

    if method == "m5":
        return kmeans(norm.values, k, seed=seed, restarts=restarts)
    if method == "m4":
        return complete_linkage(euclidean_distance_matrix(norm.values), k)
    return complete_linkage(np.abs(raw.values), k)


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# -- subcommands ------------------------------------------------------------


def cmd_synth(args) -> int:
    from . import synthgen
    from .ink import save_jsonl

    inks = synthgen.generate_answer_set(synthgen.load_spec(args.spec))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(out, inks)
    return EXIT_OK


def cmd_train(args) -> int:
    from . import synthgen
    from .ink import load_jsonl
    from .seq2seq import save_checkpoint, train

    seed = _at_least(args.seed, "--seed", 0)
    tconf = _train_config(args.config)
    # The largest set ``synth`` renders.
    inks = load_jsonl(args.data, max_answers=synthgen.MAX_SPEC_ANSWERS)

    def on_epoch(record: dict) -> None:
        print(json.dumps(record, sort_keys=True), flush=True)

    params = train([(ink, ink.label) for ink in inks], tconf, seed, on_epoch=on_epoch)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, params)
    return EXIT_OK


def _inputs(args):
    """Every setting of ``cluster`` and ``compare`` that needs no recognizer,
    and the answer count (2 to ``MAX_ANSWERS``), checked before the
    checkpoint is read: (inks, categories, k)."""
    from .ink import load_jsonl

    _at_least(args.seed, "--seed", 0)
    _at_least(args.restarts, "--restarts", 1)
    if args.threads is not None:  # accepted and validated, but scoring does not use it
        _at_least(args.threads, "--threads", 1)
        _warn("--threads is deprecated and ignored")
    inks = load_jsonl(args.data, max_answers=MAX_ANSWERS)
    if len(inks) < 2:
        raise UsageError(f"{args.data}: need at least two answers to cluster, not {len(inks)}")
    categories = [ink.category for ink in inks]
    return inks, categories, _resolve_k(args.k, categories, len(inks))


def _sweep(ckpt: str, inks, cells: list[tuple[SimilarityKind, str]], k: int,
           seeds: list[int], restarts: int):
    """Score the answers once, then, one kind at a time, build the kind's raw
    and normalized SbR matrix and cluster its cells for each of ``seeds``;
    only k-means reads the seed, so a linkage cell runs once and repeats.
    Each stage frees what later stages do not read: the recognizer and the
    annotations before any matrix is built, and a kind's matrices before the
    next kind's; each kind warns of its sentinel fill and its constant
    matrix. Returns the decodes, the last kind's (raw, normalized) matrices,
    one assignment list per cell and the stage wall times, summed over kinds."""
    from .sbr import _sbr_matrix, normalize_unit_interval
    from .seq2seq import load_checkpoint
    from .similarity import GSSF_FAMILY, cross_score_matrix, score_answers

    params = load_checkpoint(ckpt)
    t0 = time.perf_counter()
    answers = score_answers(params, inks)
    t1 = time.perf_counter()
    kinds = dict.fromkeys(kind for kind, _ in cells)
    # One cross-score pass feeds every F-family kind.
    f = None if GSSF_FAMILY.isdisjoint(kinds) else cross_score_matrix(answers, params)
    ids, decodes = [a.id for a in answers], [a.decode for a in answers]
    del params, answers
    times = {"score_s": t1 - t0, "cross_s": time.perf_counter() - t1, "sbr_s": 0, "cluster_s": 0}
    unscorable = sum(1 for d in decodes if not d.tokens)
    runs = []
    for kind in kinds:  # _cells puts kinds outermost, so runs keep the cells' order
        raw = norm = None  # free the previous kind's matrices first
        t0 = time.perf_counter()
        raw = _sbr_matrix(ids, decodes, kind, f)
        norm = normalize_unit_interval(raw)
        t1 = time.perf_counter()
        if unscorable and kind in GSSF_FAMILY:
            _warn(f"{kind.value}: {unscorable} unscorable answer(s) get the lowest score")
        if norm.degenerate:
            _warn(f"{kind.value}: degenerate similarity matrix, normalized to zeros")
        for method in [m for c, m in cells if c == kind]:
            once = [_cluster_once(method, raw, norm, k, seed, restarts)
                    for seed in (seeds if method == "m5" else seeds[:1])]
            runs.append(once * (len(seeds) // len(once)))
        times["sbr_s"] += t1 - t0
        times["cluster_s"] += time.perf_counter() - t1
    return decodes, (raw, norm), runs, times


def cmd_cluster(args) -> int:
    from .cluster import save_assignment_csv
    from .metrics import evaluate
    from .sbr import save_csv, save_pgm

    kind, method = _parse_kind(args.kind), args.method
    cells = _cells([kind], [method])
    if not cells:
        raise UsageError(f"{M3_RULE}, not {kind.value!r}")
    inks, categories, k = _inputs(args)
    decodes, (raw, norm), [[assignment]], times = _sweep(args.ckpt, inks, cells, k, [args.seed],
                                                         args.restarts)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "k": assignment.k,
        "h": len(inks),
        "objective": assignment.objective,
        "similarity_kind": kind.value,
        "method": method,
        "seeds": {"clustering": args.seed, "restarts": args.restarts},
        "num_unscorable": sum(1 for d in decodes if not d.tokens),
        "num_unique_decodes": len({tuple(d.tokens) for d in decodes}),
        "num_truncated_decodes": sum(1 for d in decodes if d.truncated),
        "degenerate_matrix": norm.degenerate,
    }
    report.update(dict.fromkeys(("purity", "mc", "j", "per_cluster")) if None in categories
                  else evaluate(assignment.labels, categories))
    _write_json(out_dir / "report.json", report)
    save_assignment_csv(out_dir / "assignment.csv", assignment,
                        [ink.id for ink in inks], categories)
    save_csv(out_dir / "sbr.csv", raw)
    save_pgm(out_dir / "sbr.pgm", norm)
    # Wall times live outside report.json so repeat runs stay byte-identical.
    _write_json(out_dir / "timings.json", times)
    return EXIT_OK


def cmd_compare(args) -> int:
    from .metrics import evaluate
    from .similarity import SimilarityKind

    kinds = (list(SimilarityKind) if args.kinds is None
             else [_parse_kind(name) for name in args.kinds.split(",")])
    cells = _cells(kinds, args.methods.split(","))
    if not cells:
        raise UsageError("no compatible kind/method combinations to compare")
    num_seeds = _at_least(args.num_seeds, "--num-seeds", 1)
    inks, categories, k = _inputs(args)
    if None in categories:
        raise UsageError("compare needs a category on every sample")

    # Restart r of seed s draws generator s + r, so these seeds share none.
    seeds = [args.seed + i * args.restarts for i in range(num_seeds)]
    _, _, runs, _ = _sweep(args.ckpt, inks, cells, k, seeds, args.restarts)
    rows, summary = [], []
    for (kind, method), assignments in zip(cells, runs):
        evs = [evaluate(a.labels, categories) for a in assignments]
        rows += [{"kind": kind.value, "method": method, "seed": seed,
                  "purity": ev["purity"], "mc": ev["mc"]} for seed, ev in zip(seeds, evs)]
        purities, mcs = (np.array([ev[key] for ev in evs]) for key in ("purity", "mc"))
        summary.append({"kind": kind.value, "method": method,
                        "purity_mean": float(purities.mean()), "purity_sd": float(purities.std()),
                        "mc_mean": float(mcs.mean()), "mc_sd": float(mcs.std())})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "compare.json",
                {"k": k, "h": len(inks), "num_seeds": num_seeds, "rows": rows,
                 "summary": summary})
    lines = ["kind,method,seed,purity,mc"]
    lines += [f"{r['kind']},{r['method']},{r['seed']},{r['purity']!r},{r['mc']!r}"
              for r in rows]
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gssf",
        description="Cluster handwritten answer trajectories by recognizer-based "
                    "sequence similarity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic answer set")
    p.add_argument("--spec", required=True, help="answer-set spec JSON")
    p.add_argument("--out", required=True, help="output dataset (JSON Lines)")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("train", help="train the recognizer")
    p.add_argument("--data", required=True, help="labelled dataset (JSON Lines)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", help="recognizer config JSON: 'arch' and 'train'")
    p.add_argument("--seed", type=int, default=0, help="training seed")
    p.set_defaults(handler=cmd_train)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True, help="dataset (JSON Lines)")
    common.add_argument("--ckpt", required=True, help="trained checkpoint")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=0, help="k-means seed")
    common.add_argument("--threads", type=int, help="deprecated; accepted and ignored")
    common.add_argument("--k", default="categories", help="cluster count or 'categories'")
    common.add_argument("--restarts", type=int, default=10, help="k-means restarts")

    p = sub.add_parser("cluster", parents=[common], help="score, cluster and evaluate")
    p.add_argument("--kind", default="gssf", help="similarity kind: gssf|asym|min|max|edit")
    p.add_argument("--method", default="m5", help="clustering method: m3|m4|m5")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("compare", parents=[common],
                       help="sweep similarity kinds and methods")
    p.add_argument("--kinds", help="comma list of kinds (default: all)")
    p.add_argument("--methods", default="m5", help="comma list of methods (default: m5)")
    p.add_argument("--num-seeds", type=int, default=3, help="k-means seeds per cell")
    p.set_defaults(handler=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RunFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
