"""Benchmark of the `ecpo` CLI on three seeded workloads.

    python3 bench/run.py --workload validate_k8 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Run it from anywhere inside a checkout of the repository: it imports and runs
the package from the checkout's `src/` and refuses to run without it.

Load comes from this one process, which runs one operation at a time and
waits for each to finish (a closed loop with one client).

`--trace 0` measures the end-to-end metrics of a workload. After nine
set-up runs, CLI batches over the whole record file alternate with blocks of
in-process calls, each block lasting as long as the batch before it, until
`--seconds` is used up:

- `setup_s`: median wall time of the CLI command over an empty record file,
  with the same static inputs (prompts, store).
- `records_per_s`: input records over the wall time of one CLI subprocess
  writing through `--out`, median over the batches (at least two).
- `peak_rss_mb`: the child's `ru_maxrss` from `os.wait4` (see `launch.py`),
  median over batches.
- `call_p50_ms`, `call_p90_ms`: per-call latency of the same inputs replayed
  in-process through the public library functions, over at least 200 calls
  and one full pass.
- `ok_pct`: the share of attempted operations (CLI invocations and in-process
  calls) that succeeded. An operation fails on a non-zero exit, a traceback
  on stderr, an output that breaks an invariant (see `checks.py`), an output
  that differs from the first batch or, on the default seed, from the digest
  pinned in `spec.json`, or an in-process result that differs from its CLI
  line.

All times are scaled to a nominal host speed (see `HostSpeed`), and the
hash seeds of this process and of the CLI children are fixed (see
`pin_hash_seed`); the results file keeps the raw times as well.

`--trace 1` runs the CLI in-process instead, alternating untraced and traced
passes for `--seconds`, then one counting pass (see `spans.py`), and reports
per-layer self time and calls per input record.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A results file with the run's metadata,
raw samples and the workload's spec goes to `bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import launch
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
DEFAULT_SEED = SPEC["default_seed"]
WORKLOADS = tuple(SPEC["workloads"])

SETUP_RUNS = 9
# Each workload runs at least this many CLI batches and in-process calls, even
# past --seconds: a single long batch (retrieve_5k) leaves records_per_s to one
# sample, and the 90th percentile needs twenty calls beyond it.
MIN_BATCHES = 2
MIN_CALLS = 200
CLI_TIMEOUT_S = 120
BENCH_HASH_SEED = "0"
CLI_HASH_SEED = "1"
# The documented retrieval defaults; the benchmark passes no flags that change them.
TOP_K = 5
TOKEN_BUDGET = 200
MAX_PROBLEMS_KEPT = 20
PROBE_NOMINAL_MS = 0.3


def import_ecpo():
    """Import `ecpo` from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "ecpo" / "cli.py").is_file():
        raise SystemExit(f"error: no ecpo sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ecpo.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(ecpo.__file__).resolve().parent != (SRC / "ecpo").resolve():
        raise SystemExit(f"error: imported ecpo from {ecpo.__file__}, not from {SRC}")
    return ecpo


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[: MAX_PROBLEMS_KEPT - len(self.problems)]:
                self.problems.append(f"{what}: {problem}")


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def document_text(raw: object) -> str:
    """How the CLI turns a `document` field into the text it validates."""
    return raw if isinstance(raw, str) else json.dumps(raw)


def roundtrip(value: object) -> object:
    return json.loads(json.dumps(value))


# --- workloads -----------------------------------------------------------------


class Workload:
    """Generated inputs of one workload plus how to run and check them."""

    # The span that starts each input record in the traced run.
    record_root = "context.prompt_from_dict"

    def __init__(self, name: str, seed: int, size: str, work_dir: Path):
        self.name = name
        self.seed = seed
        self.size = size
        self.dir = work_dir
        self.files = workloads.generate(name, seed, size)
        for file_name, text in self.files.items():
            (work_dir / file_name).write_text(text, encoding="utf-8")
        (work_dir / "empty.jsonl").write_text("", encoding="utf-8")
        self.records = [json.loads(line) for line in self.files["records.jsonl"].splitlines()]

    def path(self, file_name: str) -> str:
        return str(self.dir / file_name)

    def reference_problems(self, output: str) -> list[str]:
        """Checks of the output every later run of the same input must repeat:
        the invariants and, on the default seed, the pinned digest."""
        problems = self.check(output, self.records)
        pinned = SPEC["workloads"][self.name]["sha256"].get(self.size) if self.seed == DEFAULT_SEED else None
        if pinned is not None and digest(output) != pinned:
            problems.append(f"output sha256 {digest(output)} differs from the pinned {pinned}")
        return problems

    def sizes(self) -> dict:
        return {"records": len(self.records), **workloads.SIZES[self.name][self.size]}


class ValidateWorkload(Workload):
    record_root = "validator.validate"

    def cli_args(self, records_file: str) -> list[str]:
        return ["validate", "--policies", self.path(records_file), "--prompts", self.path("prompts.jsonl")]

    def check(self, text: str, records: list[dict]) -> list[str]:
        return checks.check_validate(text, records)

    def prepare(self, ecpo, config):
        from ecpo.context import prompt_from_dict
        from ecpo.validator import report_to_dict, validate

        prompts = {}
        for line in self.files["prompts.jsonl"].splitlines():
            prompt = prompt_from_dict(json.loads(line))
            prompts[prompt.prompt_id] = prompt
        items = [(document_text(r["document"]), prompts[r["prompt_id"]]) for r in self.records]
        echo = config.echo()

        def call(index: int):
            document, prompt = items[index]
            return validate(document, prompt, config)

        def compare(index: int, report, cli_lines: list[dict]) -> list[str]:
            record = self.records[index]
            expected = {"kind": "report", "prompt_id": record["prompt_id"],
                        "candidate_id": record["candidate_id"], "report": report_to_dict(report),
                        "config": echo}
            return [] if roundtrip(expected) == cli_lines[index] else ["differs from its CLI line"]

        return len(items), call, compare, None


class EvalWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.strategy = [r for r in self.records if r["kind"] == "strategy"]

    def cli_args(self, records_file: str) -> list[str]:
        return ["eval", "--records", self.path(records_file)]

    def check(self, text: str, records: list[dict]) -> list[str]:
        return checks.check_eval(text, records)

    def prepare(self, ecpo, config):
        from ecpo.context import prompt_from_dict
        from ecpo.validator import report_to_dict, validate

        def call(index: int):
            record = self.strategy[index]
            return validate(document_text(record["document"]), prompt_from_dict(record["prompt"]), config)

        def compare(index: int, report, cli_lines: list[dict]) -> list[str]:
            return checks.report_problems(report_to_dict(report), f"strategy record {index}")

        def compare_all(reports: list, cli_lines: list[dict]) -> list[str]:
            expected = roundtrip(self.expected_values(reports, config))
            actual = cli_lines[0].get("values") if cli_lines else None
            if expected != actual:
                return [f"metric values {actual} differ from in-process {expected}"]
            return []

        return len(self.strategy), call, compare, compare_all

    def expected_values(self, reports: list, config) -> dict:
        """The eval report's values, recomputed from in-process validation reports."""
        from ecpo.errors import InputError
        from ecpo.metrics import (
            HAS_WEIGHTS, LabelSetSample, StrategyEvalRecord, bleu4, classification_metrics,
            has_aggregate, multilabel_metrics, rouge_l, spearman, strategy_metrics,
        )

        by_kind: dict[str, list[dict]] = {}
        for record in self.records:
            by_kind.setdefault(record["kind"], []).append(record)
        values: dict[str, float | None] = {}
        if "labels" in by_kind:
            samples = [LabelSetSample.from_lists(r["truth"], r["prediction"]) for r in by_kind["labels"]]
            try:
                scores = multilabel_metrics(samples, epsilon=config.epsilon)
            except InputError:
                scores = (None, None, None)
            values.update(zip(("labels_iou", "labels_emr", "labels_f1"), scores))
        if "classification" in by_kind:
            rows = by_kind["classification"]
            values.update(zip(("cls_accuracy", "cls_macro_f1"), classification_metrics(
                [str(r["truth"]) for r in rows], [str(r["prediction"]) for r in rows])))
        if "text" in by_kind:
            references = [str(r["reference"]) for r in by_kind["text"]]
            hypotheses = [str(r["hypothesis"]) for r in by_kind["text"]]
            values["text_bleu4"] = bleu4(references, hypotheses, epsilon=config.epsilon)
            values["text_rouge_l"] = rouge_l(references, hypotheses)
        if self.strategy:
            rated = [
                StrategyEvalRecord.from_report(
                    r["prompt_id"], report, ratings=tuple(tuple(bool(f) for f in v) for v in r["ratings"]),
                    seed=r["seed"])
                for r, report in zip(self.strategy, reports)
            ]
            values.update(strategy_metrics(rated, epsilon=config.epsilon).values)
            if values.get("viol_sev") is None:
                values.update(has_mean=None, has_std=None, ecpo_has_spearman=None)
            else:
                values["has_mean"], values["has_std"] = has_aggregate(rated)
                items = [
                    sum(w * all(vote[i] for vote in r.ratings) for i, w in enumerate(HAS_WEIGHTS))
                    for r in rated
                ]
                values["ecpo_has_spearman"] = spearman([r.report.ecpo for r in rated], items)
        return values


class RetrieveWorkload(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.store = [json.loads(line) for line in self.files["store.jsonl"].splitlines()]

    def cli_args(self, records_file: str) -> list[str]:
        return ["retrieve", "--store", self.path("store.jsonl"), "--prompt", self.path(records_file)]

    def check(self, text: str, records: list[dict]) -> list[str]:
        return checks.check_retrieve(text, records, [s["snippet_id"] for s in self.store],
                                     TOP_K, TOKEN_BUDGET)

    def prepare(self, ecpo, config):
        from ecpo.context import prompt_from_dict
        from ecpo.store import LexicalScorer, build_query, compress, load_store, retrieve, snippet_from_dict

        store = load_store(snippet_from_dict(record) for record in self.store)
        by_id = {snippet.snippet_id: snippet for snippet in store.snapshot()}
        scorer = LexicalScorer()
        prompts = [prompt_from_dict(record) for record in self.records]
        echo = config.echo()

        def call(index: int):
            prompt = prompts[index]
            query = build_query(prompt.z, prompt.driver, prompt.vehicle)
            result = retrieve(store, query, config.top_k, scorer=scorer)
            compressed = compress([by_id[entry.snippet_id] for entry in result.ranked], config.token_budget)
            return query, result, compressed

        def compare(index: int, outcome, cli_lines: list[dict]) -> list[str]:
            query, result, compressed = outcome
            expected = {
                "kind": "retrieval",
                "prompt_id": prompts[index].prompt_id,
                "store_version": result.store_version,
                "scorer": result.scorer_kind,
                "query": {"jurisdiction": query.jurisdiction, "operating_mode": query.operating_mode,
                          "sensitivity_terms": list(query.sensitivity_terms),
                          "situation_terms": list(query.situation_terms)},
                "ranked": [{"snippet_id": e.snippet_id, "layer": by_id[e.snippet_id].layer,
                            "clause_id": by_id[e.snippet_id].clause_id, "score": e.score,
                            "text": by_id[e.snippet_id].text} for e in result.ranked],
                "compressed": [{"snippet_id": e.snippet_id, "clause_id": e.clause_id, "layer": e.layer,
                                "text": e.text} for e in compressed],
                "config": echo,
            }
            return [] if roundtrip(expected) == cli_lines[index] else ["differs from its CLI line"]

        return len(prompts), call, compare, None


WORKLOAD_CLASSES = {"validate_k8": ValidateWorkload, "eval_k1": EvalWorkload, "retrieve_5k": RetrieveWorkload}


# --- host speed ---------------------------------------------------------------------


class HostSpeed:
    """Scales wall times to a nominal host speed.

    On a shared host the same work runs up to 1.6 times as long while other
    tenants load the machine, and that state switches within seconds, which
    swamps any change worth measuring. Every timed sample is therefore
    bracketed by probes (`launch.probe`, a fixed loop of the kind of work
    the package does that shares no code with it), and a CLI run also carries
    the probes `launch.py` takes while pausing it. The sample is multiplied
    by PROBE_NOMINAL_MS over the median of its probes, so results read as
    wall times at the host speed where one probe takes PROBE_NOMINAL_MS.
    Raw wall times and the spread of the probes go to the results file.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        self.probes.append(launch.probe())
        return self.probes[-1]

    def scale(self, during: list[float] = ()) -> float:
        """Factor for the sample timed since the previous call, given any
        probes taken while it ran (see `launch.py`)."""
        before, self.last = self.last, self.probe()
        self.probes.extend(during)
        return PROBE_NOMINAL_MS / statistics.median([before, *during, self.last])

    def summary(self) -> dict:
        low, median, high = statistics.quantiles(self.probes, n=4) if len(self.probes) > 1 else self.probes * 3
        return {"count": len(self.probes), "min_ms": min(self.probes), "q1_ms": low,
                "median_ms": median, "q3_ms": high, "max_ms": max(self.probes)}


# --- the CLI in a subprocess ---------------------------------------------------------


def run_cli(workload: Workload, args: list[str]) -> dict:
    """One `ecpo` subprocess, started through `launch.py`: its wall time,
    peak RSS, problems and output text."""
    out_path = workload.dir / "out.jsonl"
    err_path = workload.dir / "stderr.txt"
    out_path.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "launch.py"), str(CLI_TIMEOUT_S),
               sys.executable, "-m", "ecpo.cli", "--out", str(out_path), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=CLI_HASH_SEED)
    with open(err_path, "wb") as err_file:
        launched = subprocess.run(command, cwd=workload.dir, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=err_file, timeout=CLI_TIMEOUT_S + 30)
    report = json.loads(launched.stdout)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    output = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    problems = []
    if report["exit_code"] != 0:
        problems.append(f"exit code {report['exit_code']}: {stderr.strip()[-300:]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return {"wall_s": report["wall_s"], "rss_mb": report["maxrss_kb"] / 1024,
            "probes_ms": report["probes_ms"], "output": output, "problems": problems}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_end_to_end(workload: Workload, ecpo, seconds: float) -> tuple[dict, Tally, dict]:
    from ecpo.config import RunConfig

    tally = Tally()
    speed = HostSpeed()
    setup_args = workload.cli_args("empty.jsonl")
    batch_args = workload.cli_args("records.jsonl")

    def setup_run() -> float:
        result = run_cli(workload, setup_args)
        tally.add("setup run", result["problems"] or workload.check(result["output"], []))
        return result["wall_s"] * speed.scale(result["probes_ms"])

    setup_run()  # warm-up: byte-compiles the package and fills the page cache
    setup_walls = [setup_run() for _ in range(SETUP_RUNS)]

    batches = []
    first_output = None

    def run_batch() -> None:
        nonlocal first_output
        result = run_cli(workload, batch_args)
        result["scaled_wall_s"] = result["wall_s"] * speed.scale(result.pop("probes_ms"))
        problems = list(result.pop("problems"))
        output = result.pop("output")
        if first_output is None:
            first_output = output
            problems += workload.reference_problems(output)
        elif output != first_output:
            problems.append("output differs from the first batch on the same input")
        tally.add(f"batch {len(batches)}", problems)
        batches.append(result)

    start_time = time.perf_counter()
    run_batch()
    cli_lines = []
    for line in first_output.splitlines():
        with contextlib.suppress(ValueError):
            cli_lines.append(json.loads(line))
    config = RunConfig()
    items, call, compare, compare_all = workload.prepare(ecpo, config)
    # The benchmark's own inputs and parsed CLI lines are long-lived: keep
    # them out of the collector's work so calls pay only for their garbage.
    gc.collect()
    gc.freeze()
    latencies = []
    raw_latencies = []
    first_pass = []
    clock = time.perf_counter_ns

    attempts = 0

    def call_once() -> None:
        nonlocal attempts
        position = attempts % items
        first = attempts < items
        attempts += 1
        try:
            start = clock()
            result = call(position)
            latency = (clock() - start) / 1e6
        except Exception as error:  # the call's failure is what the benchmark reports
            speed.scale()
            tally.add(f"call {attempts - 1}", [f"raised {error!r}"])
            result = None
        else:
            raw_latencies.append(latency)
            latencies.append(latency * speed.scale())
            tally.add(f"call {attempts - 1}", compare(position, result, cli_lines) if first else [])
        if first:
            first_pass.append(result)

    # CLI batches and in-process calls alternate, each call block lasting as
    # long as the batch before it, so both sample the host over the whole run.
    speed.scale()
    while True:
        block_end = time.perf_counter() + batches[-1]["wall_s"]
        while time.perf_counter() < block_end:
            call_once()
        if (len(batches) >= MIN_BATCHES
                and time.perf_counter() + 2 * batches[-1]["wall_s"] > start_time + seconds):
            break
        run_batch()
    while attempts < max(MIN_CALLS, items):
        call_once()
    if compare_all is not None:
        problems = ["a call raised"] if None in first_pass else compare_all(first_pass, cli_lines)
        tally.add("in-process metric report", problems)

    walls = [b["scaled_wall_s"] for b in batches]
    p50, p90 = p50_p90(latencies)
    metrics = {
        "records_per_s": statistics.median(len(workload.records) / wall for wall in walls),
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in batches),
        "setup_s": statistics.median(setup_walls),
        "ok_pct": 100.0 * (tally.attempted - tally.failed) / tally.attempted,
    }
    samples = {
        "setup_runs": len(setup_walls),
        "setup_scaled_walls_s": setup_walls,
        "cli_batches": len(batches),
        "cli_walls_s": [b["wall_s"] for b in batches],
        "cli_scaled_walls_s": walls,
        "cli_rss_mb": [b["rss_mb"] for b in batches],
        "in_process_calls": len(latencies),
        "calls_beyond_p90": sum(latency > metrics["call_p90_ms"] for latency in latencies),
        "raw_call_p50_p90_ms": p50_p90(raw_latencies),
        "probes": speed.summary(),
        "output_sha256": digest(first_output),
        "failed_pct": 100.0 * tally.failed / tally.attempted,
    }
    return metrics, tally, samples


# --- the traced run ---------------------------------------------------------------------


def run_main_in_process(ecpo, argv: list[str]) -> tuple[float, list[str]]:
    """`ecpo.cli.main(argv)` in this process: wall time and problems."""
    problems = []
    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = ecpo.cli.main(argv)
    except Exception as error:  # an escaping exception is the failure being reported
        problems.append(f"raised {error!r}")
    else:
        if code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
    return time.perf_counter() - start, problems


def run_traced(workload: Workload, ecpo, seconds: float) -> tuple[dict, Tally, dict]:
    tally = Tally()
    out_path = workload.dir / "out.jsonl"
    argv = ["--out", str(out_path), *workload.cli_args("records.jsonl")]
    records = len(workload.records)

    def one_pass(what: str) -> tuple[float, str]:
        """Scaled wall time and output of one in-process CLI run."""
        out_path.unlink(missing_ok=True)
        wall, problems = run_main_in_process(ecpo, argv)
        wall *= speed.scale()
        output = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
        if reference is None:
            problems += workload.reference_problems(output)
        elif output != reference:
            problems.append("output differs from the untraced output")
        tally.add(what, problems)
        return wall, output

    reference = None
    gc.collect()
    gc.freeze()
    speed = HostSpeed()
    untraced, traced, tracers = [], [], []
    missing: set[str] = set()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + untraced[-1] + traced[-1] < deadline:
        wall, output = one_pass("untraced pass")
        untraced.append(wall)
        if reference is None:
            reference = output
        tracer = spans.Tracer(frozenset({workload.record_root}))
        with spans.patched(spans.SPANS, tracer.wrap) as absent:
            traced.append(one_pass("traced pass")[0])
        missing.update(absent)
        tracers.append((tracer, speed.probes[-2:]))
    counter = spans.CallCounter()
    with spans.patched(spans.COUNTED + (spans.SCORED,), counter.wrap) as absent:
        one_pass("counting pass")
    missing.update(absent)

    # Self times are scaled like the pass they were taken in.
    per_pass = [(tracer.self_times(), 2 * PROBE_NOMINAL_MS / sum(probes)) for tracer, probes in tracers]
    calls = per_pass[0][0][1]
    metrics = {}
    for name, _, _ in spans.SPANS:
        metrics[f"{name}.self_ms_per_record"] = statistics.median(
            self_ns.get(name, 0) * factor / 1e6 / records for (self_ns, _), factor in per_pass)
        metrics[f"{name}.calls_per_record"] = calls.get(name, 0) / records
    for name, _, _ in spans.COUNTED:
        metrics[f"{name}.calls_per_record"] = counter.counts[name] / records
    queries = calls.get("store.retrieve", 0)
    metrics["store.snippets_scored_per_query"] = counter.counts[spans.SCORED[0]] / queries if queries else 0.0
    metrics["emit.bytes_per_record"] = len(reference.encode("utf-8")) / records
    metrics["trace.overhead_ms_per_record"] = (
        (statistics.median(traced) - statistics.median(untraced)) * 1e3 / records)

    spans_path = OUT / f"{workload.name}-seed{workload.seed}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as spans_file:
        for number, (tracer, _) in enumerate(tracers):
            for span in tracer.spans:
                spans_file.write(json.dumps({"pass": number, "name": span[0], "start_ns": span[1],
                                             "end_ns": span[2], "parent": span[3], "record": span[4]}) + "\n")
    samples = {
        "traced_passes": len(traced),
        "untraced_scaled_walls_s": untraced,
        "traced_scaled_walls_s": traced,
        "probes": speed.summary(),
        "missing_functions": sorted(missing),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "output_sha256": digest(reference),
    }
    return metrics, tally, samples


# --- results ------------------------------------------------------------------------------


def commit_id() -> str:
    """The checked-out commit when the checkout is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def declared_metrics(trace_on: bool) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if trace_on else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace_on: bool, size: str, ecpo,
                 cpus: set[int]) -> dict:
    work_dir = OUT / f"{name}-seed{seed}-trace{int(trace_on)}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    load_start = loadavg()
    try:
        workload = WORKLOAD_CLASSES[name](name, seed, size, work_dir)
        runner = run_traced if trace_on else run_end_to_end
        metrics, tally, samples = runner(workload, ecpo, seconds)
    finally:
        gc.unfreeze()
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "workload": name,
        "metadata": {
            "commit": commit_id(),
            "python": sys.version,
            "nproc": os.cpu_count(),
            "cpus_usable": len(cpus),
            "pinned_cpu": min(cpus),
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace_on),
            "size": size,
            "sizes": workload.sizes(),
        },
        "spec": SPEC["workloads"][name],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "samples": samples,
        "metrics": metrics,
    }
    results_path = OUT / f"{name}-seed{seed}-trace{int(trace_on)}.json"
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def pin_hash_seed() -> None:
    """Re-run this script under PYTHONHASHSEED=BENCH_HASH_SEED unless it already is.

    String hashing is randomised per interpreter, and the hash seed alone
    moves the speed of the same dict-heavy work by up to ten percent between
    processes. Fixed seeds, one for this process and another for the CLI
    children, make runs comparable; comparing in-process results with CLI
    lines still checks that outputs do not depend on the hash seed.
    """
    if os.environ.get("PYTHONHASHSEED") != BENCH_HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=BENCH_HASH_SEED))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny inputs, for smoke tests of the benchmark itself")
    args = parser.parse_args(argv)

    ecpo = import_ecpo()
    # One CPU for this process and the CLI children it starts, so the speed
    # probes run on the CPU the measured work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in declared_metrics(bool(args.trace))}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, ecpo, cpus)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] = summary["correct"] and result["failed"] == 0
        print(f"{name} (seed {args.seed}, {result['metadata']['sizes']['records']} records, "
              f"{result['attempted']} operations, {result['failed']} failed)")
        for problem in result["problems"]:
            print(f"  problem: {problem}")
        for metric, unit in units.items():
            value = result["metrics"][metric]
            print(f"  {metric:<56} {value:>14.6f} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            summary["metrics"][key] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
