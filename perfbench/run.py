"""boxtrace benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload triage --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Inputs are built from ``--seed`` under
``.perfbench-work/`` and removed on exit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` builds the inputs five times and times passes of the workload
after each build, for ``--seconds`` in all, and reports the end-to-end
metrics. ``--trace 1`` spends half of ``--seconds`` on untraced
passes and half on traced ones, traces the workload's complement (the
layers its passes never call), runs the parser stress probes, and
reports the per-layer metrics; its spans, self times and tracing overhead
go to ``.perfbench-out/``. Workloads are described in `workloads.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# setup_s is the median of this many builds of the inputs. With --trace 0
# each build is followed by an equal share of the timed passes, so every
# run compares the outputs of passes over separately built inputs.
SETUP_REPEATS = 5
# BENCHMARK.json scores `triage` and `lodo`. `lodo-wide` runs by hand only:
# on a shared 2-vCPU host its 9 s passes left too few per run to be steady.
WORKLOADS = ("triage", "lodo", "lodo-wide")


class ProgramMissing(Exception):
    pass


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and insist that
    `boxtrace` comes from there, never from an installed copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    try:
        import boxtrace
    except ImportError as exc:
        raise ProgramMissing(f"cannot import boxtrace from {src}: {exc}")
    if src not in Path(boxtrace.__file__).resolve().parents:
        raise ProgramMissing(f"boxtrace was imported from {boxtrace.__file__}, "
                             f"not from {src}")


def pin_to_one_cpu() -> int | None:
    """Run this process, and every thread it starts later, on one CPU.

    The `classify` thread pool hands the interpreter lock between its
    threads; spread over the two vCPUs of a shared host, those hand-offs
    made `triage` passes vary from 330 to 910 files/s, and pinned from 750
    to 1300. So the benchmark measures the program on one CPU. Returns the
    CPU, or None where this process may not choose its CPUs."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def machine_facts(pinned_cpu: int | None) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"nproc": os.cpu_count(),
            "pinned_cpu": pinned_cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu": cpu or platform.processor(),
            "loadavg_at_start": load}


def measure(workload, seconds: float, min_passes: int, first: dict,
            tracer=None) -> list:
    """Run passes for `seconds`. The first pass of the run fills `first`
    with its outputs; every later pass must repeat them, and its own are
    then dropped, so memory does not grow with the number of passes."""
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        p = workload.run_pass(tracer)
        if first:
            for op, output in p.outputs.items():
                p.expect(first.get(op, output) == output, "output_stable", op,
                         "output changed between repeats")
        else:
            first.update(p.outputs)
        p.drop_outputs()
        passes.append(p)
    return passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None, smoke: bool = False) -> int:
    """Run one workload. `smoke` shrinks every input to its smallest size
    (96 files per workload) for the benchmark's own test."""
    args = parse_args(argv)
    # Before the program is imported, so numpy's threads are pinned too.
    pinned_cpu = pin_to_one_cpu()
    try:
        _import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    facts = machine_facts(pinned_cpu)
    sizes = workloads.SMOKE if smoke else workloads.FULL
    work = ROOT / ".perfbench-work" / str(os.getpid())
    out_dir = ROOT / ".perfbench-out"
    try:
        setup_s, generate_s, passes, first = [], [], [], {}
        measured = 0.0
        for i in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = workloads.make_workload(args.workload, args.seed, sizes)
            started = time.perf_counter()
            generate_s += workload.setup(work)
            setup_s.append(time.perf_counter() - started)
            if not args.trace:
                # Timed passes follow each set-up, so set-ups and passes
                # sample the same stretches of a shared host's speed.
                started = time.perf_counter()
                passes += measure(workload, args.seconds * (i + 1)
                                  / SETUP_REPEATS - measured, 1, first)
                measured += time.perf_counter() - started

        tracer = complement = None
        extra = []
        if args.trace:
            untraced = measure(workload, args.seconds / 2, 1, first)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = measure(workload, args.seconds / 2, 1, first, tracer)
            passes = untraced + traced
            # Traced apart, so that it fills only the layers the passes
            # never call and leaves the others as the workload uses them.
            complement = tracing.Tracer()
            with complement.installed():
                extra.append(workload.complement(work, complement))
            extra[0].drop_outputs()
            probes = workloads.probes(args.seed, work, sizes)
        models = workload.models()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes + extra)
    failed = sum(len(p.failed) for p in passes + extra)
    digest = hashlib.sha256("\n".join(first.values()).encode()).hexdigest()
    checked = set().union(*(p.checked for p in passes + extra))
    # Length of the sparse twins; less than 4 GiB where the file-size limit
    # or the file system does not allow that (see workloads.twin_bytes).
    twin = probes["twin_bytes"] if args.trace else getattr(workload, "twin_bytes", None)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "digest": digest, "checks": sorted(checked),
              "passes": [{"files": p.files, "seconds": p.seconds,
                          "failed": len(p.failed), "notes": p.notes,
                          "batch_s": p.batch_s}
                         for p in passes],
              "setup_s": setup_s, "twin_bytes": twin}

    if args.trace:
        ctx = {"models": models, "model_bytes": workloads.model_bytes(models),
               "generate_s": generate_s,
               "untraced_s": [p.seconds for p in untraced],
               "traced_s": [p.seconds for p in traced], **probes}
        metrics = tracing.layer_metrics(tracer, ctx, complement)
        report.update(absent_targets=tracer.absent,
                      deep_nesting_error=probes["deep_nesting_error"],
                      self_times=tracer.self_by_name(),
                      spans=[s.to_obj() for s in tracer.spans],
                      complement_self_times=complement.self_by_name(),
                      complement_failed=len(extra[0].failed))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "files_per_s": (statistics.median(p.files / p.seconds for p in passes), "1/s"),
            "balanced_accuracy": (statistics.median(p.balanced_accuracy for p in passes), "ratio"),
            "ok_rate": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(passes)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"digest {digest}")
    print(f"checks {' '.join(sorted(checked))}")
    if twin is not None:
        print(f"twin_bytes {twin}")
    for p in passes + extra:
        for note in p.notes:
            print(f"failed {note}")
    if args.trace:
        print(f"absent wrap targets: {', '.join(tracer.absent) or 'none'}")
        if probes["deep_nesting_error"]:
            print(f"deep nesting escaped as {probes['deep_nesting_error']}")
        for name, row in sorted(report["self_times"].items()):
            print(f"span {name:28} calls={row['calls']:<7} "
                  f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
    else:
        print(f"error_rate {failed / attempted} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:.6g} {unit}")
    print(f"report {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    # Turn a polite kill into SystemExit so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
