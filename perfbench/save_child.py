"""Times `data.save_model` in a fresh process.

    python3 perfbench/save_child.py SRC MODEL OUT COUNT

Imports leafnet from SRC, loads MODEL, saves it to OUT WARM times untimed
and then COUNT times timed, back to back, and prints the COUNT times in ms
as a JSON list on its last line. A fresh process gives every run the same
heap: in the long-lived workload process the same save reads 50-135 ms
depending on what the allocator holds from earlier rounds.
"""

import json
import sys
import time

WARM = 2


def main(argv: list[str]) -> int:
    src, model_path, out, count = argv[0], argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    from leafnet import data as D

    model = D.load_model(model_path)
    for _ in range(WARM):
        D.save_model(model, out)
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        D.save_model(model, out)
        times.append((time.perf_counter() - t0) * 1e3)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
