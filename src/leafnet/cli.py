"""Command-line surface: leafnet <summary|train|eval|predict>.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure during
training. Defaults live in the config dataclasses, and checks in TrainConfig
and the spec builders; a flag not given is None and keeps its field's
default. A run whose configuration passes echoes it first; all randomness
derives from the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import data as D
from . import metrics as MET
from . import models as M
from . import training as TR
from .errors import LeafnetError, TrainingDiverged


def _parse_filters(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad filter list {text!r}; expected e.g. 32,64,128")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leafnet",
        description="Train and evaluate the leaf-disease CNN/LSTM classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def arch_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--arch", choices=("cnn", "lstm"), default="cnn")
        p.add_argument("--input", type=int, default=None,
                       help="square input image size (cnn: 128, lstm resize: 80)")
        p.add_argument("--filters", type=_parse_filters, default=None,
                       help="cnn filter progression, e.g. 8,16,32")
        p.add_argument("--dense", type=int, default=None, help="dense layer width")
        p.add_argument("--hidden", type=int, default=None, help="lstm memory units")
        p.add_argument("--timesteps", type=int, default=None, help="lstm sequence length")

    p = sub.add_parser("summary", help="print a model summary table")
    arch_flags(p)
    p.add_argument("--classes", type=int)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("data_root", type=Path)
    arch_flags(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("eval", help="write a classification report for a model")
    p.add_argument("model_file", type=Path)
    p.add_argument("data_root", type=Path)
    p.add_argument("--split", choices=D.SPLITS, default="valid")
    p.add_argument("--out", type=Path, default=Path("."))

    p = sub.add_parser("predict", help="classify one image")
    p.add_argument("model_file", type=Path)
    p.add_argument("image", type=Path)

    return parser


def _config(cls, **flags):
    """`cls` at its own defaults, but for each flag that was given (0
    included; a flag left out is None)."""
    return cls(**{field: v for field, v in flags.items() if v is not None})


# Per --arch: the spec builder, which checks a config, and the model builder.
_ARCHS = {"cnn": (M.cnn_spec, M.build_cnn), "lstm": (M.lstm_spec, M.build_lstm)}


def _model_config(args, classes: int | None = None) -> M.CnnConfig | M.LstmConfig:
    if args.arch == "cnn":
        return _config(M.CnnConfig, input_size=args.input, filters=args.filters,
                       dense_units=args.dense, classes=classes)
    # The one check made here: only the CLI knows the image side.
    base = M.LstmConfig()
    timesteps = base.timesteps if args.timesteps is None else args.timesteps
    side = (math.isqrt(base.timesteps * base.features // 3) if args.input is None
            else args.input)
    values = side * side * 3
    if side < 1 or timesteps < 1 or values % timesteps:
        raise LeafnetError(
            f"--input {side} with --timesteps {timesteps}: both must be >= 1 and "
            f"the {values} values must split into {timesteps} steps")
    return _config(M.LstmConfig, timesteps=timesteps, features=values // timesteps,
                   hidden=args.hidden, dense_units=args.dense, classes=classes)


def _loader_for(model: M.SequentialModel):
    return lambda p: D.load_image(p, model.spec.input_shape)


def _echo(command: str, **kv) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in kv.items())
    print(f"leafnet {command}: {pairs}")


def cmd_summary(args) -> int:
    model = _ARCHS[args.arch][1](_model_config(args, args.classes), seed=0)
    _echo("summary", arch=args.arch, classes=model.spec.classes)
    print(M.summary(model))
    return 0


def cmd_train(args) -> int:
    config = _config(TR.TrainConfig, epochs=args.epochs, batch_size=args.batch,
                     lr=args.lr, seed=args.seed)
    arch = _model_config(args)
    check, build = _ARCHS[args.arch]
    check(arch)     # before the dataset is read; build checks its class count
    _echo("train", arch=args.arch, data=args.data_root, epochs=config.epochs,
          batch=config.batch_size, lr=config.lr, seed=config.seed, out=args.out)
    index = D.scan_dataset(args.data_root)
    counts = index.counts()
    print(f"dataset: {counts['train']} train / {counts['valid']} valid / "
          f"{len(index.label_map)} classes")
    model = build(dataclasses.replace(arch, classes=len(index.label_map)), seed=config.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    model.label_map = list(index.label_map)
    loader = _loader_for(model)
    train_set = D.DiskDataset(index, "train", loader)
    valid_set = D.DiskDataset(index, "valid", loader)
    model, history = TR.train(model, train_set, valid_set, config)
    D.save_model(model, args.out / "model.leaf")
    D.write_atomic(args.out / "history.csv", [TR.history_to_csv(history).encode("utf-8")])
    last = history[-1]
    print(f"epoch {last.epoch}: train_loss={last.train_loss:.6f} "
          f"train_acc={last.train_acc:.4f} val_loss={last.val_loss:.6f} "
          f"val_acc={last.val_acc:.4f}")
    return 0


def cmd_eval(args) -> int:
    _echo("eval", model=args.model_file, data=args.data_root, split=args.split,
          out=args.out)
    model = D.load_model(args.model_file)
    index = D.scan_dataset(args.data_root)
    if list(index.label_map) != list(model.label_map):
        missing_model = sorted(set(index.label_map) - set(model.label_map))
        missing_data = sorted(set(model.label_map) - set(index.label_map))
        raise LeafnetError(
            "label maps differ between model and dataset; "
            f"missing from model: {missing_model}; missing from dataset: {missing_data}")
    dataset = D.DiskDataset(index, args.split, _loader_for(model))
    if len(dataset) == 0:
        raise LeafnetError(f"split {args.split!r} has no records")
    args.out.mkdir(parents=True, exist_ok=True)
    preds, labels = [], []
    for probs, y in TR.predictions(model, dataset):
        preds += probs.argmax(axis=-1).tolist()
        labels += y
    cm = MET.confusion_matrix(preds, labels, model.label_map)
    report = MET.class_report(cm)
    D.write_atomic(args.out / "report.txt", [MET.format_report(report).encode("utf-8")])
    D.write_atomic(args.out / "confusion.csv", [MET.cm_to_csv(cm).encode("utf-8")])
    print(f"accuracy: {report.accuracy:.4f} (n={report.total_support})")
    return 0


def cmd_predict(args) -> int:
    _echo("predict", model=args.model_file, image=args.image)
    model = D.load_model(args.model_file)
    name, confidence = M.predict(model, _loader_for(model)(args.image))
    print(f"{name}\t{confidence:.4f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"summary": cmd_summary, "train": cmd_train,
               "eval": cmd_eval, "predict": cmd_predict}[args.command]
    try:
        return handler(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LeafnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
