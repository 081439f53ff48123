"""The poswalk benchmark: the CLI as a user runs it, one fresh process per call.

    python3 perfbench/run.py --workload constants-deep --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the program is taken from
``src/`` as it stands (there is nothing to build).  See perfbench/README.md
for the metrics, the workloads and why they were chosen.

A run runs the workload's commands in rounds, one fresh process each,
while the next command is expected to end within ``--seconds`` of the
start.  Every untraced command also gives a set-up sample: the time from
its spawn to the end of its ``import poswalk.cli``.  With ``--trace 0`` a
fresh ``reference.py`` process is timed before any command that starts
``REFERENCE_EVERY_S`` or more after the previous reference sample began,
so the reference samples are spread over the whole run.  A pass is one run of every
command; its wall time is the sum over the commands of each command's
fastest sample (see ``fastest``), scaled to the machine's reference speed
(see ``speed_factor``).  Every artifact of every sample is checked and
hashed.  The human-readable table, the environment record and the
result file path go to stdout first; the last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).

Exit status: 0 when the run completed (whether or not the checks passed;
``correct`` says that), 2 when the program or its inputs are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
from walkgen import write_seed_walk

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = BENCH_DIR / "_runs"
DEFAULT_SEED = 1
REFERENCE_EVERY_S = 4.0
REFERENCE_ARGV = [sys.executable, str(BENCH_DIR / "reference.py")]
# fastest reference.py time on the reference machine (see README.md)
REFERENCE_S = 0.75
INVOCATION_TIMEOUT_S = 60.0
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DISTS = {"trinomial": "dists/trinomial.json", "skewed": "dists/skewed.json"}
# the console script's entry, plus one stderr line that marks the moment
# the import ended (perf_counter is the system-wide monotonic clock), so
# every command also gives a set-up sample
IMPORT_MARK = "perfbench: poswalk.cli imported at "
CLI_ENTRY = ("import sys, time; from poswalk.cli import main; "
             f"sys.stderr.write({IMPORT_MARK!r} + repr(time.perf_counter()) + '\\n'); "
             "sys.stderr.flush(); sys.exit(main())")

# (command, dist, options); dist "seed-walk" is generated from --seed
WORKLOADS = {
    "constants-deep": [
        ("constants", "trinomial", "--r 3 --kmax 16384"),
        ("constants", "skewed", "--r 3 --kmax 16384 --barrier weak"),
        ("constants", "seed-walk", "--r 3 --kmax 16384"),
    ],
    "verify-ladder": [
        ("verify", "skewed", "--r 3 --nmax 6400"),
        ("report", "trinomial", "--r 2 --barrier weak --nmax 6400"),
        ("verify", "seed-walk", "--r 2 --barrier weak --nmax 6400"),
    ],
    "quick-look": [
        ("integral-check", None, ""),
        ("polys", "skewed", "--r 4 --kmax 1024"),
        ("polys", "seed-walk", "--r 4 --kmax 1024"),
        ("verify", "trinomial", "--mode exact --nmax 64 --kmax 1024"),
        ("constants", "trinomial", "--barrier weak --kmax 1024"),
    ],
}



def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "POSWALK_THREADS"}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], env: dict, log_stem: Path, timeout: float = INVOCATION_TIMEOUT_S):
    """Run one child to completion.

    Returns (exit code or -signal, wall s, cpu s, max RSS MB, timed out,
    perf_counter at the spawn).

    The child is reaped with wait4 so its own rusage is read; a child that
    outlives ``timeout`` is killed through its pidfd and still reaped.
    """
    devnull = os.open(os.devnull, os.O_RDONLY)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_DUP2, devnull, 0),
               (os.POSIX_SPAWN_OPEN, 1, f"{log_stem}.out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, f"{log_stem}.err", flags, 0o644)]
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(devnull)
    pidfd = os.pidfd_open(pid)
    timed_out = False
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            timed_out = True
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        raise
    finally:
        _, status, ru = os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return (os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0, timed_out, t0)


def invocations(workload: str, seed_walk: Path) -> list[dict]:
    out = []
    for i, (command, dist, options) in enumerate(WORKLOADS[workload]):
        opts = options.split()
        args = [command]
        if dist is not None:
            args += ["--dist", str(seed_walk.relative_to(ROOT)) if dist == "seed-walk"
                     else DISTS[dist]]
        out.append({"id": f"{i}-{command}-{dist or 'none'}", "command": command, "dist": dist,
                    "args": args + opts, "opts": dict(zip(opts[::2], opts[1::2]))})
    return out


def run_invocation(inv: dict, out_dir: Path, traced: bool, env: dict) -> dict:
    """One sample of one command: timings, outcome checks, digests, and spans when traced."""
    out_dir.mkdir(parents=True)
    args = inv["args"] + ["--out", str(out_dir.relative_to(ROOT))]
    record = out_dir.with_suffix(".trace.json")
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(record)] + args
    else:
        argv = [sys.executable, "-c", CLI_ENTRY] + args
    code, wall, cpu, rss, timed_out, start = spawn(argv, env, out_dir)
    setup = None
    if not traced:
        with open(f"{out_dir}.err", encoding="utf-8", errors="replace") as err:
            first = err.readline()
        if first.startswith(IMPORT_MARK):
            setup = float(first[len(IMPORT_MARK):]) - start
    problems = []
    if timed_out:
        problems.append(f"timed out after {INVOCATION_TIMEOUT_S:.0f} s")
    elif code not in checks.VERDICT_CODES:
        problems.append(f"exit code {code}")
    elif not traced and setup is None:
        problems.append("no import mark on stderr")
    else:
        problems += checks.check_artifacts(out_dir, inv["command"], inv["opts"])
    refs = []
    if not problems and inv["dist"] == "trinomial":
        refs = checks.ref_errors(out_dir, inv["command"], inv["opts"])
        problems += [f"{label}: relative error {err:.3e} above {tol:g}"
                     for label, err, tol in refs if not err <= tol]
    layer = None
    if traced and not problems:
        try:
            layer = spans.invocation_metrics(json.loads(record.read_text(encoding="utf-8")))
            layer["trace.unattributed_s"] = wall - layer.pop("trace.spanned_s")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"trace record: {exc!r}")
    return {"traced": traced, "exit_code": code, "wall_s": wall, "setup_s": setup, "cpu_s": cpu,
            "max_rss_mb": rss, "problems": problems, "digests": checks.digests(out_dir),
            "ref_err": max((e for _, e, _ in refs), default=None), "layer": layer}


def mark_inconsistent(samples: list[dict]) -> None:
    """A digest or exit code that differs from the command's first sample is a failure."""
    first = samples[0]
    for r in samples[1:]:
        if r["exit_code"] != first["exit_code"]:
            r["problems"].append(f"exit code {r['exit_code']} != {first['exit_code']} "
                                 "in the first round")
        if r["digests"] != first["digests"]:
            r["problems"].append("artifact digests differ from the first round")


def check_import(env: dict, log_dir: Path) -> None:
    """One untimed warm-up import, which also proves poswalk comes from this checkout."""
    argv = [sys.executable, "-c",
            "import poswalk.cli, sys; sys.stdout.write(poswalk.cli.__file__)"]
    code, *_ = spawn(argv, env, log_dir / "warmup")
    where = (log_dir / "warmup.out").read_text(encoding="utf-8")
    if code != 0 or Path(where).resolve() != (ROOT / "src/poswalk/cli.py").resolve():
        fail(f"cannot import poswalk.cli from {ROOT / 'src'} (see {log_dir}/warmup.err)")


def timed(argv: list[str], env: dict, log_stem: Path) -> float:
    """Wall time of one fresh process that must exit 0."""
    code, wall, *_ = spawn(argv, env, log_stem)
    if code != 0:
        fail(f"{' '.join(argv[1:])} exited {code} (see {log_stem}.err)")
    return wall


def git_commit() -> str | None:
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


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(idx / 'level')} {read(idx / 'type')}"] = read(idx / "size")
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas_threads": BLAS_THREADS,
        # removed from the children's environment in any case
        "poswalk_threads_env": os.environ.get("POSWALK_THREADS"),
    }


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def fastest(xs):
    """The timing statistic of a run: the fastest of its samples.

    The machine the benchmark runs on is shared; other tenants' load only
    ever adds time, and it comes in stretches of seconds that cover
    several samples in a row, so a run's median moves with the load while
    its fastest sample stays with the program's own cost.
    """
    return min(xs) if xs else float("nan")


def speed_factor(reference: list[float]) -> float:
    """How much to scale a run's timings to the machine's reference speed.

    The slow stretches also outlast a run: the whole machine can run 30-50%
    slower for minutes.  ``reference.py`` is a fixed load, independent of
    the program, timed in the same run as the commands and with the same
    statistic; the ratio of its reference time to its fastest time in the
    run scales the run's timings to what they would read on the machine at
    its reference speed.  A change to the program leaves the factor alone.
    """
    return REFERENCE_S / fastest(reference) if reference else float("nan")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + seconds
    run_dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    seed_path = write_seed_walk(seed, run_dir / "seed-walk.json")
    invs = invocations(workload, seed_path)

    if not trace:
        check_import(env, run_dir)
    # rounds over the commands until the next command would end past the
    # deadline; a traced run alternates untraced and traced rounds and
    # always completes one of each; an untraced run times a reference
    # sample before a command whenever REFERENCE_EVERY_S have passed since
    # the last
    reference: list[float] = []
    reference_at = -math.inf
    samples: dict[str, list[dict]] = {inv["id"]: [] for inv in invs}
    took: dict[tuple[str, bool], float] = {}
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        for inv in invs:
            est = took.get((inv["id"], traced), took.get((inv["id"], not traced), 0.0))
            reference_due = (not trace
                             and time.perf_counter() - reference_at >= REFERENCE_EVERY_S)
            if reference_due and reference:
                est += reference[-1]
            if rounds >= (2 if trace else 1) and time.perf_counter() + est > deadline:
                break
            if reference_due:
                reference_at = time.perf_counter()
                reference.append(timed(REFERENCE_ARGV, env,
                                       run_dir / f"reference{len(reference)}"))
            t0 = time.perf_counter()
            samples[inv["id"]].append(
                run_invocation(inv, run_dir / f"round{rounds}" / inv["id"], traced, env))
            took[(inv["id"], traced)] = time.perf_counter() - t0
        else:
            rounds += 1
            continue
        break

    for inv_samples in samples.values():
        mark_inconsistent(inv_samples)
    flat = [r for inv_samples in samples.values() for r in inv_samples]
    attempted = len(flat)
    failed = sum(1 for r in flat if r["problems"])

    def per_command(key: str, stat, traced: bool = False) -> list[float]:
        """Each command's ``stat`` of ``key`` over its samples of one kind."""
        return [stat([r[key] for r in inv_samples if r["traced"] == traced])
                for inv_samples in samples.values()]

    refs = [r["ref_err"] for r in flat if r["ref_err"] is not None]
    setup = [r["setup_s"] for r in flat if r["setup_s"] is not None]
    raw = {
        "wall_s": sum(per_command("wall_s", fastest)),
        "setup_s": fastest(setup),
        "cpu_s": sum(per_command("cpu_s", fastest)),
    }
    speed = speed_factor(reference)
    e2e = {k: v * speed for k, v in raw.items()}
    e2e["peak_rss_mb"] = max(per_command("max_rss_mb", median))
    e2e["ref_err"] = max(refs) if refs else float("nan")
    # the same timings with medians in place of the fastest samples; they
    # show how loaded the machine was during the run
    e2e_medians = {
        "wall_s": sum(per_command("wall_s", median)),
        "setup_s": median(setup),
        "cpu_s": sum(per_command("cpu_s", median)),
    }
    layer = None
    if trace:
        medians = []
        for inv_samples in samples.values():
            layers = [r["layer"] for r in inv_samples if r["layer"]]
            if layers:
                medians.append({k: median([m[k] for m in layers]) for k in layers[0]})
        layer = spans.pass_metrics(medians)
        layer["trace.wall_s"] = sum(per_command("wall_s", fastest, traced=True))
        layer["trace.overhead_s"] = layer["trace.wall_s"] - raw["wall_s"]

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "seed_walk": json.loads(seed_path.read_text(encoding="utf-8")),
        "environment": environment(),
        "commands": [" ".join(["poswalk"] + inv["args"]) for inv in invs],
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted,
        "samples": {"setup": len(setup), "reference": len(reference),
                    "untraced": [sum(not r["traced"] for r in v) for v in samples.values()],
                    "traced": [sum(r["traced"] for r in v) for v in samples.values()]},
        "end_to_end": e2e, "speed_factor": speed, "end_to_end_unscaled": raw,
        "end_to_end_medians": e2e_medians, "per_layer": layer,
        "setup_samples_s": setup, "reference_samples_s": reference,
        "samples_by_command": samples,
        "elapsed_s": time.perf_counter() - start,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    # artifacts of rounds that checked clean are represented by their
    # digests; keep the first round and any round with a problem
    for i in range(1, rounds + 1):
        if not any(r["problems"] for v in samples.values() for r in v[i:i + 1]):
            shutil.rmtree(run_dir / f"round{i}", ignore_errors=True)
    result["result_path"] = str((run_dir / "result.json").relative_to(ROOT))
    return result


def finite(v):
    """The value, or None where no finite number was measured (strict JSON)."""
    return v if v is not None and math.isfinite(v) else None


def report(result: dict, contract: dict) -> dict:
    """Print the human-readable table; return the metrics ``contract`` lists, in its order."""
    w = result["workload"]
    env = result["environment"]
    print(f"# {w} seed={result['seed']} trace={int(result['trace'])} "
          f"elapsed={result['elapsed_s']:.1f}s result={result['result_path']}")
    print(f"# env: commit={env['git_commit']} src={env['src_sha256'][:12]} cpu={env['cpu_model']!r} "
          f"nproc={env['nproc']} caches={env['caches']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads=1 "
          f"POSWALK_THREADS={env['poswalk_threads_env']} (unset in children)")
    for cmd in result["commands"]:
        print(f"#   {cmd}")
    s = result["samples"]
    print(f"{'metric':<36} {'value':>14} {'unit':<6} better")
    if result["trace"]:
        listed, values = contract["per_layer"], result["per_layer"]
        print(f"# per command: traced samples={s['traced']} untraced samples={s['untraced']}; "
              "computed.* are from the dense-row model, not measured")
    else:
        listed, values = contract["end_to_end"], result["end_to_end"]
        print(f"# fastest sample per command over samples={s['untraced']}, "
              f"setup samples={s['setup']}, reference samples={s['reference']}; "
              f"times scaled by speed factor {result['speed_factor']:.4f}")
        for label, key in (("unscaled", "end_to_end_unscaled"),
                           ("unscaled medians", "end_to_end_medians")):
            print(f"# {label}: " + ", ".join(f"{k}={v:.6g}" for k, v in result[key].items()))
    metrics = {}
    for m in listed:
        v = finite(values.get(m["name"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{m['name']:<36} {shown:>14} {m['unit']:<6} {m['better']}")
    print(f"{'fail_rate':<36} {result['fail_rate']:>14.6g} {'ratio':<6} lower  "
          f"({result['failed']} failed of {result['attempted']} invocations)")
    for inv_id, inv_samples in result["samples_by_command"].items():
        for i, r in enumerate(inv_samples):
            for msg in r["problems"]:
                print(f"# FAILED {inv_id} sample {i}: {msg}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for needed in ["src/poswalk/cli.py"] + list(DISTS.values()):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}: run from a poswalk source checkout")
    os.chdir(ROOT)
    try:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    names = sorted(WORKLOADS) if a.workload == "all" else [a.workload]
    results = [run_workload(w, a.seed, a.seconds, bool(a.trace)) for w in names]
    metrics = {r["workload"]: report(r, contract) for r in results}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if a.workload == "all":
        line["workloads"] = metrics
    else:
        line["metrics"] = metrics[a.workload]
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
