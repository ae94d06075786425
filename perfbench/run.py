"""gssf benchmark: drives the ``gssf`` CLI the way a user does.

    python3 perfbench/run.py --workload mark-shared --seed 11 --seconds 45 --trace 0

Run it from the repository root; it uses the sources under ``src/`` as they
are. Each run renders its answer set from ``--seed`` with ``gssf synth``
(timed, several times, as ``setup_s``), then runs the workload's one
command in a closed loop, one process at a time, until ``--seconds`` would
be exceeded. Every command's outputs are checked. The last stdout line is
one JSON object: with ``--trace 0`` the end-to-end metrics of untraced
commands, with ``--trace 1`` the per-layer metrics of commands run under
``tracer.py``.

End-to-end times are scaled to a reference host speed: while the run
lasts, a thread of the benchmark times a small fixed probe on the run's CPU
every ``PROBE_PERIOD_S``, and a wall time is multiplied by ``PROBE_REF_S``
over the mean probe time during it (see ``HostSpeed``). The raw wall times
are in the details line.

Workloads:

* ``mark-shared``: ``gssf cluster --kind gssf --method m5 --k categories``
  on the pinned 5 x 20 set with the fixed ``pinned`` checkpoint; only five
  distinct decodes among 100 answers.
* ``train``: ``gssf train`` on the pinned set for a fixed 6 epochs.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# The probe below runs in this process; one BLAS thread, like the commands.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402

DEFAULT_SEED = inputs.PINNED_SEED
#: One ``gssf synth`` takes about 0.3-0.5 s, most of it interpreter start and
#: imports, and single calls spread widely; the median of 15 is steadier.
SETUP_REPEATS = 15
COMMAND_TIMEOUT_S = 150.0
#: Six epochs keep a train command near 6 s, so a 45 s run holds six or seven
#: of them; at 15 epochs a 30 s run held one and reported a single sample.
TRAIN_EPOCHS = 6
REFERENCE = HERE / "reference"
MODELS = HERE / "models"
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = WORK / "fingerprints.json"
#: The probe's CPU time on the reference host. On a two-vCPU shared VM
#: (Intel Xeon, Python 3.11, numpy 2.4), beside a running command, it took
#: 0.018-0.02 s when the host ran fast and up to 0.03 s when it ran slow.
PROBE_REF_S = 0.02
PROBE_ITERATIONS = 800
#: One probe per period takes about 8 % of the run's CPU from the commands.
PROBE_PERIOD_S = 0.25
_PROBE_A = np.random.default_rng(0).standard_normal((64, 64))
_PROBE_B = np.random.default_rng(1).standard_normal((64, 64))


class BenchError(Exception):
    """The benchmark itself cannot run (program missing, checkpoint altered, ...)."""


@dataclass
class Run:
    wall_s: float
    #: wall time scaled to the reference host speed
    scaled_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    spans: dict | None


def _probe() -> float:
    """CPU seconds this thread takes for a fixed piece of work unrelated to the program.

    Small numpy matrix products driven from a Python loop, like the program's
    own inference and training steps.
    """
    a, b = _PROBE_A, _PROBE_B
    t0 = time.thread_time()
    for _ in range(PROBE_ITERATIONS):
        np.tanh(a @ b)
    return time.thread_time() - t0


class HostSpeed:
    """Times the probe every ``PROBE_PERIOD_S`` in a thread on the run's CPU.

    The host shares its cores with other machines, and how fast it runs a
    fixed task drifts: the same ``mark-shared`` command took 4.3 s in one
    minute and 7.6 s a few minutes later, its CPU time equal to its wall
    time, and two sets of ten 30 s runs of the same code spread by an
    IQR/median of 0.19 and 0.30. The probe sees the same drift. It runs
    beside the command, on the same CPU, over the command's whole duration,
    and counts its own CPU time, so the command's share of the CPU does not
    enter it. Over eight minutes of ``mark-shared`` commands, the per-command
    coefficient of variation was 0.12 for wall time and 0.06 for wall time
    over the mean probe time. Probes of 0.4 s before and after each command
    gave 0.09; the same probe on the other CPU gave 0.12.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at the end, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-speed", daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append((time.perf_counter(), _probe()))

    def scale(self, t0: float, t1: float) -> float:
        """Reference over mean probe time, from the probes that ended in [t0, t1]."""
        samples = list(self.samples)
        inside = [cpu for t, cpu in samples if t0 <= t <= t1]
        if len(inside) < 3:
            # Shorter than three periods: the three probes nearest to its end.
            inside = [cpu for t, cpu in sorted(samples, key=lambda s: abs(s[0] - t1))[:3]]
        return PROBE_REF_S / statistics.fmean(inside or [_probe()])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _same_as_before(key: str, fingerprint: str) -> list[str]:
    """Outputs must repeat byte for byte for the same sources and inputs, across runs too."""
    seen = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    if key not in seen:
        seen[key] = fingerprint
        tmp = FINGERPRINTS.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True, indent=1), encoding="utf-8")
        os.replace(tmp, FINGERPRINTS)
        return []
    if seen[key] != fingerprint:
        return ["outputs differ from an earlier command on the same sources and inputs"]
    return []


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Runner:
    """Starts one ``gssf`` process at a time and waits for it."""

    def __init__(self, work: Path, trace: bool, speed: HostSpeed):
        self.work, self.trace, self.speed = work, trace, speed
        # One BLAS thread: the run is confined to one CPU (see ``bench``), and
        # on these small matrices a second BLAS thread would only spin.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        self.env.pop("GSSF_LOG", None)
        self.count = 0

    def gssf(self, args: list[str]) -> Run:
        self.count += 1
        stem = self.work / f"cmd{self.count:04d}"
        spans_path = stem.with_suffix(".spans.json")
        if self.trace:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "gssf.cli", *args]
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if self.trace and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return Run(wall_s=wall, scaled_s=wall * self.speed.scale(t0, t0 + wall),
                   rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                   stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                   stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                   spans=spans)


# -- workloads --------------------------------------------------------------


def _check_model(name: str) -> Path:
    manifest = json.loads((MODELS / "manifest.json").read_text(encoding="utf-8"))
    entry = manifest[name]
    path = MODELS / entry["file"]
    if not path.is_file() or _sha256(path) != entry["sha256"]:
        raise BenchError(f"checkpoint {path.name} does not match its recorded SHA-256; "
                         f"re-pin it only on purpose with perfbench/make_models.py")
    return path


class Workload:
    name = ""
    model: str | None = None
    #: The workload's own numbers behind the end-to-end "quality" and "cost".
    quality_names = ("purity", "marking_cost")

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work, self.seed, self.tiny = work, seed, tiny
        self.reference = seed == DEFAULT_SEED and not tiny
        self.ckpt = _check_model(self.model) if self.model else None

    def spec(self) -> dict:
        raise NotImplementedError

    def args(self, data: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, run: Run, out: Path, ids: list[str]) -> tuple[list[str], dict, str]:
        """(problems, quality numbers, fingerprint of the deterministic outputs)."""
        raise NotImplementedError


class MarkShared(Workload):
    name = "mark-shared"
    model = "pinned"

    def spec(self) -> dict:
        return inputs.pinned_spec(self.seed, count=3 if self.tiny else inputs.PINNED_COUNT)

    def args(self, data: Path, out: Path) -> list[str]:
        return ["cluster", "--data", str(data), "--ckpt", str(self.ckpt), "--out", str(out),
                "--kind", "gssf", "--method", "m5", "--k", "categories"]

    def check(self, run, out, ids):
        problems = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if not 0.0 < report["purity"] <= 1.0:
            problems.append(f"purity {report['purity']} outside (0, 1]")
        if not math.isfinite(report["mc"]):
            problems.append("marking cost is not finite")
        header, rows = _read_csv(out / "assignment.csv")
        if [r[0] for r in rows] != ids or any(not r[1].isdigit() for r in rows):
            problems.append("assignment.csv does not give one label per answer")
        header, rows = _read_csv(out / "sbr.csv")
        values = [[float(v) for v in r[1:]] for r in rows]
        n = len(ids)
        if header[1:] != ids or [r[0] for r in rows] != ids or any(len(v) != n for v in values):
            problems.append("sbr.csv is not an N x N matrix over the answer ids")
        else:
            if not all(math.isfinite(x) for row in values for x in row):
                problems.append("sbr.csv has non-finite entries")
            if any(values[i][i] != 0.0 for i in range(n)):
                problems.append("sbr.csv diagonal is not exactly 0")
            if any(values[i][j] != values[j][i] for i in range(n) for j in range(i)):
                problems.append("gssf kind is not bit-exactly symmetric")
        if self.reference:
            problems += self._against_reference(out, values)
        names = ("report.json", "assignment.csv", "sbr.csv", "sbr.pgm")
        fingerprint = "".join(_sha256(out / f) for f in names)
        return problems, {"purity": report["purity"], "marking_cost": report["mc"]}, fingerprint

    def _against_reference(self, out: Path, values) -> list[str]:
        problems = []
        ref_assign = (REFERENCE / "mark-shared.assignment.csv").read_bytes()
        if (out / "assignment.csv").read_bytes() != ref_assign:
            problems.append("assignment.csv differs from the reference")
        ref_sbr = (REFERENCE / "mark-shared.sbr.csv.gz").read_bytes()
        ref_rows = gzip.decompress(ref_sbr).decode("utf-8").splitlines()[1:]
        ref = [[float(v) for v in r.split(",")[1:]] for r in ref_rows]
        if len(ref) != len(values) or any(
                len(a) != len(b) or any(abs(x - y) > 1e-9 for x, y in zip(a, b))
                for a, b in zip(ref, values)):
            problems.append("sbr.csv differs from the reference by more than 1e-9")
        return problems


class Train(Workload):
    name = "train"
    quality_names = ("val_token_acc", "train_loss")

    def epochs(self) -> int:
        return 2 if self.tiny else TRAIN_EPOCHS

    def spec(self) -> dict:
        return inputs.pinned_spec(self.seed, count=3 if self.tiny else inputs.PINNED_COUNT)

    def args(self, data: Path, out: Path) -> list[str]:
        config = self.work / "train.config.json"
        inputs.write_json(config, {
            "arch": {"resample_spacing": inputs.SPACING},
            "train": {"max_epochs": self.epochs(), "patience": self.epochs()}})
        return ["train", "--data", str(data), "--config", str(config), "--seed", "0",
                "--out", str(out / "model.ckpt")]

    def check(self, run, out, ids):
        problems = []
        records = [json.loads(line) for line in run.stdout.splitlines() if line.startswith("{")]
        if len(records) != self.epochs():
            problems.append(f"{len(records)} epoch records, expected {self.epochs()}")
        if not records or any(not math.isfinite(r["loss"]) for r in records):
            problems.append("training loss is not finite")
        if any(not 0.0 <= r["val_token_acc"] <= 1.0 for r in records):
            problems.append("validation token accuracy outside [0, 1]")
        last = records[-1] if records else {"val_token_acc": 0.0, "loss": 0.0}
        quality = {"val_token_acc": last["val_token_acc"], "train_loss": last["loss"]}
        return problems, quality, _sha256(out / "model.ckpt")


WORKLOADS = {w.name: w for w in (MarkShared, Train)}


# -- metrics ----------------------------------------------------------------


def _tail(walls: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(walls)
    if n <= 10:
        return "wall_max_s", max(walls)
    pct = 100 * (n - 10) // n
    return f"wall_p{pct}_s", sorted(walls)[max(math.ceil(pct / 100 * n) - 1, 0)]


def _merge(span_files: list[dict]) -> tuple[dict, list[str], float]:
    merged: dict[str, dict] = {}
    overhead = []
    missing: set[str] = set()
    for spans in span_files:
        missing.update(spans["missing"])
        for name, entry in spans["spans"].items():
            dst = merged.setdefault(name, {})
            for key, value in entry.items():
                dst[key] = dst.get(key, 0.0) + value
        wall = spans["spans"].get("cli.main", {}).get("busy_s", 0.0)
        if wall > 0:
            overhead.append(spans["span_count"] * spans["span_cost_s"] / wall)
    return merged, sorted(missing), statistics.fmean(overhead) if overhead else 0.0


def layer_metrics(commands: list[dict], setups: list[dict],
                  answers: int) -> tuple[dict, list[str]]:
    """Per-layer metrics and workload counters, per command; missing targets."""
    spans, missing, overhead = _merge(commands)
    setup_spans, setup_missing, _ = _merge(setups)
    n = len(commands)

    def get(name: str, key: str = "busy_s") -> float:
        return spans.get(name, {}).get(key, 0.0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for name, keys in (
            ("ink.preprocess", ("busy_s", "calls", "points")),
            ("seq2seq.encode", ("busy_s", "calls", "steps")),
            ("seq2seq.greedy_decode", ("busy_s", "calls", "tokens", "truncated")),
            ("seq2seq.cross_logprob_sums", ("busy_s", "calls", "sequences")),
            ("seq2seq.loss_and_gradients", ("busy_s", "calls")),
            ("seq2seq.backward", ("busy_s",)),
            ("seq2seq.teacher_forced_accuracy", ("busy_s",)),
            ("similarity.score_answers", ("busy_s", "self_s")),
            ("similarity.cross_score_matrix", ("busy_s", "self_s")),
            ("sbr.build", ("busy_s", "self_s")),
            ("sbr.normalize", ("busy_s",)),
            ("sbr.export", ("busy_s",)),
            ("cluster.kmeans", ("busy_s", "calls")),
            ("metrics.evaluate", ("busy_s",)),
            ("cli.main", ("busy_s",))):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    m["seq2seq.cross_logprob_sums.distinct_ratio"] = ratio(
        get("seq2seq.cross_logprob_sums", "distinct"), get("seq2seq.cross_logprob_sums", "sequences"))
    m["similarity.score_answers.parallelism"] = ratio(
        get("similarity.score_answer"), get("similarity.score_answers"))
    m["similarity.cross_score_matrix.pairs_per_s"] = ratio(
        get("similarity.cross_score_matrix", "pairs"), get("similarity.cross_score_matrix"))
    m["similarity.unique_decode_ratio"] = ratio(
        get("similarity.score_answers", "distinct_decodes"),
        get("similarity.score_answers", "answers"))
    m["synthgen.generate.busy_s"] = (setup_spans.get("synthgen.generate", {}).get("busy_s", 0.0)
                                     / max(len(setups), 1))
    m["cli.self_s"] = get("cli.main", "self_s")
    m["trace.overhead_frac"] = overhead

    wall = get("cli.main")
    m.update({
        "workload.answers": answers,
        "workload.distinct_decode_share": m["similarity.unique_decode_ratio"],
        "workload.truncated_decodes": get("similarity.score_answers", "truncated"),
        "workload.mean_decode_len": ratio(get("seq2seq.greedy_decode", "tokens"),
                                          get("seq2seq.greedy_decode", "calls")),
        "workload.mean_points": ratio(get("ink.preprocess", "points"),
                                      get("ink.preprocess", "calls")),
        "workload.share_of_wall.similarity": ratio(
            get("similarity.score_answers") + get("similarity.cross_score_matrix"), wall),
        "workload.share_of_wall.cluster": ratio(
            get("cluster.kmeans") + get("cluster.linkage") + get("cluster.distance"), wall),
        "workload.share_of_wall.training": ratio(
            get("seq2seq.loss_and_gradients") + get("seq2seq.teacher_forced_accuracy"), wall),
    })
    return m, sorted(set(missing) | set(setup_missing))


# -- main -------------------------------------------------------------------


def _setup(runner: Runner, workload: Workload) -> tuple[Path, float, list[dict]]:
    """Render the answer set with ``gssf synth``; time it several times."""
    spec = runner.work / "spec.json"
    inputs.write_json(spec, workload.spec())
    data = runner.work / "answers.jsonl"
    times, spans, digest = [], [], None
    for _ in range(SETUP_REPEATS):
        data.unlink(missing_ok=True)
        run = runner.gssf(["synth", "--spec", str(spec), "--out", str(data)])
        if run.code != 0:
            raise BenchError(f"gssf synth exited with {run.code}: {run.stderr.strip()[-500:]}")
        if digest is not None and _sha256(data) != digest:
            raise BenchError("gssf synth wrote different bytes for the same spec")
        digest = _sha256(data)
        times.append(run.scaled_s)
        if run.spans:
            spans.append(run.spans)
    return data, statistics.median(times), spans


def bench(args) -> dict:
    if not (ROOT / "src" / "gssf" / "cli.py").is_file():
        raise BenchError(f"no gssf sources under {ROOT / 'src'}; run from a repository checkout")
    # Every process of the run inherits one CPU. On a shared host a process
    # spread over two vCPUs loses time whenever either is descheduled, which
    # made wall times swing by up to 2x. The program still sizes its thread
    # pool from os.cpu_count(), so on a two-CPU host two pool threads share
    # this one core; the tracer counts their spans in thread CPU time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, work, ignore_errors=True)
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny)
        speed = stack.enter_context(HostSpeed())
        runner = Runner(work, trace=bool(args.trace), speed=speed)
        data, setup_s, setup_spans = _setup(runner, workload)
        ids = [json.loads(line)["id"] for line in data.read_text(encoding="utf-8").splitlines()]
        key = (f"{workload.name} tiny={args.tiny} data={_sha256(data)[:16]} "
               f"src={_source_digest()}")
        out = work / "out"
        walls, scaled, rss, span_files = [], [], [], []
        numbers: dict = {}
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            attempted += 1
            run = runner.gssf(workload.args(data, out))
            if run.code != 0:
                problems = [f"exit code {run.code}: {run.stderr.strip()[-500:]}"]
            else:
                try:
                    # Outputs repeat byte for byte, so any command's numbers stand for all.
                    problems, numbers, fingerprint = workload.check(run, out, ids)
                    problems += _same_as_before(key, fingerprint)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"unreadable outputs: {exc!r}"]
            if problems:
                failed += 1
                print(f"check failed ({workload.name}, seed {args.seed}): "
                      + "; ".join(problems), file=sys.stderr)
            else:
                walls.append(run.wall_s)
                scaled.append(run.scaled_s)
                rss.append(run.rss_mb)
                if run.spans:
                    span_files.append(run.spans)
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls) if walls else run.wall_s
            if elapsed + typical > args.seconds:
                break
        if not walls:
            raise BenchError(f"every {workload.name} command failed")
        tail_name, tail_value = _tail(scaled)
        qname, cname = workload.quality_names
        info = {"workload": workload.name, "seed": args.seed, "commands": attempted,
                "wall_samples": len(walls), "scaled_wall_min_s": min(scaled),
                f"scaled_{tail_name}": tail_value, "raw_wall_median_s": statistics.median(walls),
                "raw_wall_min_s": min(walls), "raw_wall_max_s": max(walls),
                "host_slowdown": statistics.median(w / s for w, s in zip(walls, scaled)),
                qname: numbers[qname], cname: numbers[cname]}
        if args.trace:
            per_layer, info["trace.missing"] = layer_metrics(span_files, setup_spans, len(ids))
            metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit}
                       for name, unit in _declared("per_layer")}
        else:
            values = {"scaled_wall_s": statistics.median(scaled), "setup_s": setup_s,
                      "peak_rss_mb": statistics.median(rss),
                      "quality": numbers[qname], "cost": numbers[cname]}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in _declared("end_to_end")}
        print(json.dumps(info, sort_keys=True))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def _declared(section: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[section]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few answers and epochs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
