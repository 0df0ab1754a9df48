"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10-warm --seed 1 --seconds 25 --trace 0

The run imports the program from ``src/``, sets the workload up (several
times, reporting the median), then times closed-loop ops for ``--seconds``,
checking each op's output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` every other op runs with the span tracer
installed and the run reports the per-layer metrics instead.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the run's provenance.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Every run's scratch space (caches, queue directories) lives under here.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Single-threaded BLAS: unpinned, a few ops of a run take twice the median.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.workloads import REFERENCE_SEED, WORKLOADS, Workload  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def hermetic_environment(tmp: Path) -> None:
    """Pin BLAS threads and replace every ``REPRO_*`` override.

    Must run before numpy is imported.  The artifact cache defaults to a
    directory private to this run, so no ``default_cache()`` path can read a
    cache an earlier process filled.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(BLAS_PIN)
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")


def import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
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
    return None


def provenance(workload: Workload, args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "fingerprint": workload.fingerprint(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pin": {key: os.environ.get(key) for key in BLAS_PIN},
        "traced": bool(args.trace),
        "seconds": args.seconds,
    }


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def tree_bytes(path: Path) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                pass
    return total


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; queue workers are children of this process
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


class Run:
    """The timed loop of one workload, with the tracer on alternate ops."""

    def __init__(self, workload: Workload, seconds: float, traced: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = None
        if traced:
            from perfbench.tracer import Tracer

            self.tracer = Tracer()
        self.op_s: dict[int, float] = {}
        self.traced_ops: list[int] = []
        self.cpu: dict[int, tuple[float, float]] = {}
        self.put_bytes = 0
        self.failed: set[int] = set()
        self.outputs: dict[int, object] = {}

    def one(self, index: int) -> None:
        workload, tracer = self.workload, self.tracer
        traced = tracer is not None and index % 2 == 1
        if traced:
            before_bytes = tree_bytes(workload.tmp)
            tracer.op = index
            tracer.install()
        self_cpu = cpu_seconds(resource.RUSAGE_SELF)
        child_cpu = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            output = workload.op(index)
        except Exception:
            output = None
            traceback.print_exc()
        self.op_s[index] = time.perf_counter() - start
        self.cpu[index] = (
            cpu_seconds(resource.RUSAGE_SELF) - self_cpu,
            cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu,
        )
        if traced:
            tracer.remove()
            tracer.op = -1
            self.traced_ops.append(index)
            self.put_bytes += tree_bytes(workload.tmp) - before_bytes
        try:
            ok = output is not None and workload.check(index, output)
        except Exception:
            ok = False
            traceback.print_exc()
        if ok:
            self.outputs[index] = output
        else:
            self.failed.add(index)
        workload.after_op(index)

    def loop(self) -> None:
        deadline = time.perf_counter() + self.seconds
        index = 0
        limit = self.workload.max_ops
        while limit is None or index < limit:
            self.one(index)
            index += 1
            # a traced run needs one op of each kind
            if time.perf_counter() >= deadline and (self.tracer is None or index >= 2):
                break
        self.failed |= self.workload.finish(self.outputs)

    def end_to_end(self, setup_s: float) -> dict:
        times = list(self.op_s.values())
        completed = len(times) - len(self.failed)
        summary = stats.latency_summary(times)
        print(
            f"{self.workload.name}: {summary}, "
            f"fail_frac {len(self.failed)}/{len(times)}",
            file=sys.stderr,
        )
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": summary["p50"], "unit": "s"},
            "ops_per_s": {"value": completed / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    def per_layer(self, import_s: float) -> dict:
        from perfbench.layers import TraceResult, layer_metrics
        from perfbench.tracer import aggregate, stage_tree

        spans = self.tracer.spans
        tree = stage_tree(spans)
        queue_ops = {span[4] for span in spans if span[0] == "experiments.queue.submit"}
        queue: Counter = Counter()
        for index in queue_ops:
            coordinator, worker = self.cpu[index]
            queue["coordinator_cpu_s"] += coordinator
            queue["worker_cpu_s"] += worker
            queue["wait_s"] += self.op_s[index] - coordinator - worker
        totals = aggregate(spans)
        submit = totals.get("experiments.queue.submit")
        for backend in submit.notes if submit else ():
            for key in ("tasks", "recalled", "quarantined", "respawns"):
                queue[key] += backend.last_stats.get(key, 0)
        result = TraceResult(
            totals=totals,
            ops=len(self.traced_ops),
            import_s=import_s,
            traced_op_s=[self.op_s[i] for i in self.traced_ops],
            untraced_op_s=[t for i, t in self.op_s.items() if i not in self.traced_ops],
            attributed_s=sum(entry.busy_s for path, entry in tree.items() if len(path) == 1),
            put_bytes=self.put_bytes,
            queue=queue,
            serial_op_s=stats.percentile(getattr(self.workload, "serial_op_s", [0.0]), 0.5),
        )
        print_stage_table(tree, result.traced_op_s)
        return layer_metrics(result)


def print_stage_table(tree: dict, traced_op_s: list[float]) -> None:
    """The stage tree per traced op: calls, busy and self time, share of the op."""
    ops = len(traced_op_s)
    wall = sum(traced_op_s) / ops
    print(f"traced ops: {ops}, mean op {wall:.4f} s", file=sys.stderr)
    print(
        f"{'stage':52s} {'calls/op':>10s} {'busy s/op':>10s} {'share':>7s} {'self s/op':>10s}",
        file=sys.stderr,
    )
    children: dict[tuple, list[tuple]] = {}
    for path in tree:
        children.setdefault(path[:-1], []).append(path)

    def show(parent: tuple) -> None:
        for path in sorted(children.get(parent, ()), key=lambda p: -tree[p].busy_s):
            entry = tree[path]
            busy = entry.busy_s / ops
            label = "  " * (len(path) - 1) + path[-1]
            print(
                f"{label:52s} {entry.calls / ops:10.1f} {busy:10.4f} "
                f"{busy / wall:7.1%} {entry.self_s / ops:10.4f}",
                file=sys.stderr,
            )
            show(path)

    show(())


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    hermetic_environment(tmp)
    try:
        tmp.mkdir()
        import_program()
        reference = None
        if args.seed == REFERENCE_SEED:
            reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        workload = WORKLOADS[args.workload](tmp, args.seed, reference)
        workload.load()
        import_s = time.perf_counter() - _START

        setup_times = []
        for rep in range(workload.setup_reps):
            start = time.perf_counter()
            workload.setup(rep)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + stats.percentile(setup_times, 0.5)

        run = Run(workload, args.seconds, traced=bool(args.trace))
        run.loop()
        if args.trace:
            metrics = run.per_layer(import_s)
        else:
            metrics = run.end_to_end(setup_s)
        print(json.dumps({"provenance": provenance(workload, args)}))
        print(
            json.dumps(
                {
                    "correct": not run.failed,
                    "attempted": len(run.op_s),
                    "failed": len(run.failed),
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
