"""leafnet benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-cnn --seed 1 --seconds 30 --trace 0

Run from the repository root; leafnet is imported from ./src. With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics from traced rounds (see
spans.py), plus the tracing overhead against untraced rounds in the same
process. Every run prints machine and code facts, one line per metric with
its unit, and as its last line the JSON result. It also writes the result
(and, traced, every span) under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import workloads as W  # noqa: E402
from spans import NAME, INFO, Tracer, TraceError  # noqa: E402

SETUPS = 3          # set-ups per run, at least ...
SETUP_BUDGET_S = 2.0  # ... and until this much set-up time has passed
MIN_ROUNDS = 2      # rounds of the main operation in an untraced window, at least
MODULES = ("tensor", "layers", "models", "training", "data", "metrics", "cli", "errors")


def _numbered(base: str, i: int) -> str:
    return base if i == 0 else f"{base}_{i}"


# Stock CNN layer names in model order, as models.summary_rows reports them.
CNN_LAYERS = [name for b in range(5) for name in
              (_numbered("conv2d", 2 * b), _numbered("conv2d", 2 * b + 1),
               _numbered("max_pooling2d", b))] + [
    "dropout", "flatten", "dense", "dropout_1", "dense_1"]

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("model_save_ms", "ms", "lower"),
    ("predict_ms", "ms", "lower"),
    ("predict_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [("tensor.matmul.calls", "count", "lower"), ("tensor.matmul.ms", "ms", "lower"),
            ("tensor.matmul.gflop", "GFLOP", "lower"), ("tensor.relu.ms", "ms", "lower"),
            ("tensor.relu_backward.ms", "ms", "lower")]
    for name in CNN_LAYERS:
        spec += [(f"layers.{name}.fwd_ms", "ms", "lower"), (f"layers.{name}.bwd_ms", "ms", "lower")]
    spec += [("layers.conv.col_mb", "MB", "lower")]
    spec += [(f"models.{m}", "ms", "lower") for m in
             ("forward_train.ms", "backward.ms", "forward_infer.ms", "dispatch.self_ms")]
    spec += [(f"training.{m}", "ms", "lower") for m in
             ("loss_and_grads.ms", "evaluate_loss_acc.ms", "adam_step.ms",
              "accumulate.self_ms", "batch_wait.ms")]
    spec += [(f"data.{m}", "ms", "lower") for m in
             ["scan_dataset.ms", "decode_image.png_ms", "decode_image.ppm_ms"]
             + [f"decode_png.f{f}_ms" for f in range(5)]
             + ["bilinear_resize.ms", "load_image.self_ms", "save_model.ms",
                "load_model.ms", "load_model.build_ms"]]
    spec += [("data.model_file_mb", "MB", "lower"),
             ("metrics.confusion_matrix.ms", "ms", "lower"), ("metrics.report.ms", "ms", "lower"),
             ("cli.eval.self_ms", "ms", "lower"), ("cli.predict.self_ms", "ms", "lower")]
    return spec


# ---------------------------------------------------------------------------
# facts


def blas_facts(np) -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "blas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    return info


def git_commit() -> str:
    """HEAD from .git without running git; the benchmark may run in an
    exported tree with no .git, where the commit is unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def facts(np) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "leafnet").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(np),
        "commit": git_commit(),
        "src_leafnet_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measurement


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        raise ValueError(f"{len(xs)} samples leave none with ten beyond")
    return xs[k], f"p{100 * (k + 1) / len(xs):g} of n={len(xs)}"


def measure(wl, seconds: float, min_rounds: int = MIN_ROUNDS) -> dict:
    """The measured window: rounds of the workload's main operation (each
    followed by one save) until `seconds` have passed, at least
    `min_rounds`. Each of the first `min_rounds` rounds starts with an equal
    share of the N_PREDICT predicts, so predicts sample more than one end
    of the window. After the window, the timed saves run in a fresh process."""
    start = time.perf_counter()
    predict_ms, rounds = [], []
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if len(rounds) < min_rounds:
            predict_ms += wl.predict_phase(W.N_PREDICT // min_rounds, len(predict_ms))
        rounds.append(wl.round())
        wl.verify_round()
    window_s = time.perf_counter() - start
    return {"predict_ms": predict_ms, "rounds": rounds, "window_s": window_s,
            "save_ms": wl.save_phase()}


def end_to_end(m: dict, setup_s: list[float]) -> tuple[dict, dict]:
    p_tail, p_label = tail(m["predict_ms"])
    samples = sum(r.samples for r in m["rounds"])
    wall_s = sum(r.wall_s for r in m["rounds"])
    saves = m["save_ms"]
    values = {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": samples / wall_s,
        "model_save_ms": statistics.median(saves),
        "predict_ms": statistics.median(m["predict_ms"]),
        "predict_tail_ms": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "samples_per_s": f"{samples} samples in {len(m['rounds'])} rounds, {wall_s:.3f} s",
        "model_save_ms": f"median of n={len(saves)} back-to-back saves in a fresh process",
        "predict_ms": f"median of n={len(m['predict_ms'])}",
        "predict_tail_ms": p_label,
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def layer_metrics(tracer: Tracer, wl, counts: dict, rounds: int) -> dict:
    """Per-layer figures of the traced rounds. ms are per sample (train
    samples for backward work, all samples through the model for forward
    work), per step where the name says so, and per call for data, metrics
    and cli. Counts are per round, which is fixed work, so they repeat
    exactly; sizes are computed from shapes and the saved file."""
    by_name, by_layer = tracer.totals()
    models = tracer.modules["models"]
    names = [r.name for r in models.summary_rows(wl.model)]
    if names != CNN_LAYERS:
        raise TraceError(f"layer names {names} are not the stock CNN's")

    def tot(name):
        return by_name[name][1] * 1e3 if name in by_name else 0.0

    def selfms(name):
        return by_name[name][2] * 1e3 if name in by_name else 0.0

    def calls(name):
        return by_name[name][0] if name in by_name else 0

    def per(x, n):
        return x / n if n else 0.0

    n_train, n_steps = counts["train"], counts["steps"]
    n_infer = counts["valid"] + counts["infer"]
    n_fwd = n_train + n_infer
    spans = tracer.spans
    fwd_train = sum((s[2] - s[1]) for s in spans if s[NAME] == "models._forward"
                    and s[INFO] == "train") * 1e3
    fwd_infer = tot("models._forward") - fwd_train

    def over(name, pred):
        sel = [(s[2] - s[1]) * 1e3 for s in spans if s[NAME] == name and pred(s[INFO])]
        return per(sum(sel), len(sel))

    v = {
        "tensor.matmul.calls": calls("tensor.matmul") / rounds,
        "tensor.matmul.ms": per(tot("tensor.matmul"), n_fwd),
        "tensor.matmul.gflop": sum(s[INFO] for s in spans
                                   if s[NAME] == "tensor.matmul") // rounds / 1e9,
        "tensor.relu.ms": per(tot("tensor.relu"), n_fwd),
        "tensor.relu_backward.ms": per(tot("tensor.relu_backward"), n_train),
    }
    for name in CNN_LAYERS:
        v[f"layers.{name}.fwd_ms"] = per(by_layer[(name, "fwd")][1] * 1e3, n_fwd) \
            if (name, "fwd") in by_layer else 0.0
        v[f"layers.{name}.bwd_ms"] = per(by_layer[(name, "bwd")][1] * 1e3, n_train) \
            if (name, "bwd") in by_layer else 0.0
    v["layers.conv.col_mb"] = max((s[INFO] for s in spans if s[NAME] == "layers._im2col"),
                                  default=0) / 1e6
    v["models.forward_train.ms"] = per(fwd_train, n_train)
    v["models.backward.ms"] = per(tot("models.backward"), n_train)
    v["models.forward_infer.ms"] = per(fwd_infer, n_infer)
    v["models.dispatch.self_ms"] = per(selfms("models._forward") + selfms("models.backward"), n_fwd)
    v["training.loss_and_grads.ms"] = per(tot("training.loss_and_grads"), n_train)
    v["training.evaluate_loss_acc.ms"] = per(tot("training.evaluate_loss_acc"), counts["valid"])
    v["training.adam_step.ms"] = per(tot("training.adam_step"), n_steps)
    v["training.accumulate.self_ms"] = per(selfms("training.train"), n_steps)
    v["training.batch_wait.ms"] = per(tot("training.batch_wait"), n_steps)
    v["data.scan_dataset.ms"] = per(tot("data.scan_dataset"), calls("data.scan_dataset"))
    v["data.decode_image.png_ms"] = over("data.decode_image", lambda p: p.endswith(".png"))
    v["data.decode_image.ppm_ms"] = over("data.decode_image", lambda p: p.endswith(".ppm"))
    for f in range(5):
        v[f"data.decode_png.f{f}_ms"] = over("data._decode_png",
                                              lambda p: wl.formats.get(p) == f"png-f{f}")
    for key, name in (("bilinear_resize.ms", "bilinear_resize"), ("save_model.ms", "save_model"),
                      ("load_model.ms", "load_model")):
        v[f"data.{key}"] = per(tot(f"data.{name}"), calls(f"data.{name}"))
    v["data.load_image.self_ms"] = per(selfms("data.load_image"), calls("data.load_image"))
    v["data.load_model.build_ms"] = per(tot("data._rebuild"), calls("data.load_model"))
    v["data.model_file_mb"] = wl.saved_file.stat().st_size / 1e6
    v["metrics.confusion_matrix.ms"] = per(tot("metrics.confusion_matrix"), counts["evals"])
    v["metrics.report.ms"] = per(tot("metrics.class_report") + tot("metrics.format_report")
                                 + tot("metrics.cm_to_csv"), counts["evals"])
    v["cli.eval.self_ms"] = per(selfms("cli.cmd_eval"), counts["eval_images"])
    v["cli.predict.self_ms"] = per(selfms("cli.cmd_predict"), calls("cli.cmd_predict"))
    return v


# ---------------------------------------------------------------------------


def load_leafnet() -> dict:
    if not (SRC / "leafnet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'leafnet'} not found; run from the repository root "
                 "of a leafnet checkout")
    sys.path.insert(0, str(SRC))
    return {m: importlib.import_module(f"leafnet.{m}") for m in MODULES}


def check_benchmark_json() -> None:
    """The metric names and units this file emits are those BENCHMARK.json lists."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", per_layer_spec())):
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if listed != spec:
            sys.exit(f"error: BENCHMARK.json {key} differs from perfbench/run.py")
    names = {w["name"] for w in declared["workloads"]}
    if names != set(W.WHY):
        sys.exit("error: BENCHMARK.json workloads differ from perfbench/workloads.py")


def emit(result: dict, lines: list[str], path: Path, extra: dict) -> None:
    for line in lines:
        print(line)
    path.write_text(json.dumps({**extra, "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    leafnet = load_leafnet()
    check_benchmark_json()
    import numpy as np
    run_facts = facts(np)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    lines = [f"workload: {args.workload} (seed {args.seed}): {W.WHY[args.workload]}",
             "loop: closed, one caller; facts: " + json.dumps(run_facts)]
    try:
        wl, setup_s = W.timed_setups(args.workload, args.seed, leafnet, work,
                                        SETUPS, SETUP_BUDGET_S)
        wl.warm_up()
        if not args.trace:
            m = measure(wl, args.seconds)
            wl.verify_decodes()
            values, notes = end_to_end(m, setup_s)
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
            lines += [f"{n} = {values[n]:.6g} {u} ({notes[n]})" for n, u, _ in END_TO_END]
            extra = {"facts": run_facts, "notes": notes}
        else:
            metrics, extra = traced_run(args, wl, leafnet, setup_s, lines)
            extra["facts"] = run_facts
        checks = wl.checks
        lines.append(f"fail_ratio = {checks.failed / checks.attempted:.6g} "
                     f"({checks.failed} failed of {checks.attempted} checks)")
        result = {"correct": checks.failed == 0, "attempted": checks.attempted,
                  "failed": checks.failed, "metrics": metrics}
        emit(result, lines, OUT / f"result-{tag}.json", extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def traced_run(args, wl, leafnet, setup_s, lines) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced iteration (each the predicts
    plus one main round) until --seconds have passed; the pairs measure the
    tracing overhead. Checks that call leafnet run untraced."""
    tracer = Tracer(leafnet, getattr(wl, "train_set", None))
    ref, traced = {"predict_ms": [], "rounds": []}, {"predict_ms": [], "rounds": []}
    t0 = time.perf_counter()
    while not traced["rounds"] or time.perf_counter() - t0 < args.seconds:
        for side in (ref, traced):
            if side is traced:
                tracer.install()
            try:
                side["predict_ms"] += wl.predict_phase(W.N_PREDICT)
                side["rounds"].append(wl.round())
            finally:
                tracer.remove()
            wl.verify_round()
    rounds, predict_ms = traced["rounds"], traced["predict_ms"]
    traced_s = time.perf_counter() - t0
    wl.verify_decodes()
    tracer.check_complete(args.workload)
    counts = {k: v * len(rounds) for k, v in wl.counts(W.N_PREDICT).items()}
    values = layer_metrics(tracer, wl, counts, len(rounds))
    spec = per_layer_spec()
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in spec}
    ref_rate = statistics.median(r.samples / r.wall_s for r in ref["rounds"])
    rate = statistics.median(r.samples / r.wall_s for r in rounds)
    overhead = {
        "samples_per_s": rate / ref_rate - 1.0,
        "predict_ms": statistics.median(predict_ms) / statistics.median(ref["predict_ms"]) - 1.0,
    }
    span_s = tracer.span_cost_s()
    overhead["estimated_from_spans"] = len(tracer.spans) * span_s / traced_s
    lines.append(f"traced: {len(rounds)} round(s) in {traced_s:.2f} s of {counts}; "
                 f"{len(tracer.spans)} spans at {span_s * 1e6:.2f} us each; "
                 f"set-up median {statistics.median(setup_s):.3f} s")
    lines.append(
        f"tracing overhead: {overhead['estimated_from_spans'] * 100:.2f}% of traced time "
        f"estimated from spans; measured against the untraced rounds: samples_per_s "
        f"{overhead['samples_per_s'] * 100:+.2f}% ({ref_rate:.6g} -> {rate:.6g}), predict_ms "
        f"{overhead['predict_ms'] * 100:+.2f}% ({statistics.median(ref['predict_ms']):.6g} -> "
        f"{statistics.median(predict_ms):.6g})")
    used = {n for n in values if values[n]}
    lines += [f"{n} = {values[n]:.6g} {u}" + ("" if n in used else "  (unused on this workload)")
              for n, u, _ in spec]
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    lines.append(f"spans: {spans_path.relative_to(ROOT)}")
    return metrics, {"overhead": overhead, "counts": counts, "values": values}


if __name__ == "__main__":
    sys.exit(main())
