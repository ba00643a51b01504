"""Reference answers that do not come from the code under test.

Each function recomputes, in plain Python, the console transcript a
``bench/programs/*.jm`` program must print for a given seed. The jmini
compiler, verifier, interpreter, JIT and collector are what the benchmark
measures, so none of them may supply the expected output; these are
hand-written twins of the programs, kept statement-for-statement parallel
to the ``.jm`` sources so a reader can diff them by eye.

All values stay non-negative, so jmini's truncating ``/`` and ``%`` agree
with Python's ``//`` and ``%``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

M = 1_000_003
_LCG_MOD = 2_147_483_648


class _Rng:
    def __init__(self, seed: int):
        self.state = seed % _LCG_MOD

    def next(self) -> int:
        self.state = (self.state * 1103515245 + 12345) % _LCG_MOD
        return self.state


# ---------------------------------------------------------------------------
# mix.jm


class _Node:
    heavy = False

    def __init__(self, value: int, next_node, bias: int = 0):
        self.value = value
        self.next = next_node
        self.bias = bias

    def weigh(self, k: int) -> int:
        return (self.value * 3 + k) % 1009


class _Heavy(_Node):
    def weigh(self, k: int) -> int:
        return (self.value + self.bias * k) % 1013


def _arith(k: int, n: int) -> int:
    acc = k
    for i in range(1, n + 1):
        acc = (acc * 17 + i * k - acc // 3 + i % 7) % M
        if acc % 2 == 0 and i % 5 != 0:
            acc = acc + k
    return acc


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def mix_console(seed: int, rounds: int) -> List[str]:
    """The transcript of ``mix.jm`` for ``/bench/seed`` and
    ``/bench/rounds``."""
    rng = _Rng(seed)
    head = None
    for i in range(48):
        v = rng.next() % 997
        head = _Heavy(v, head, i % 11 + 1) if i % 3 == 0 else _Node(v, head)
    areas: List[Callable[[], int]] = []
    side = rng.next() % 13 + 1
    areas.append(lambda s=side: s)
    side = rng.next() % 13 + 1
    areas.append(lambda s=side: s * s)
    side = rng.next() % 13 + 1
    depth = rng.next() % 9 + 1
    areas.append(lambda s=side, d=depth: s * d)
    side = rng.next() % 13 + 2
    rise = rng.next() % 9 + 2
    areas.append(lambda s=side, r=rise: s * r // 2)
    cells = [0] * 96
    probe_b = rng.next() % 101
    checksum = seed % M
    console: List[str] = []
    for round_index in range(rounds):
        k = rng.next() % 17 + 1
        checksum = (checksum * 31 + _arith(k, 60)) % M
        # walk: GETFIELD/PUTFIELD over the list
        acc = 0
        p = head
        while p is not None:
            acc = (acc + p.value) % M
            p.value = (p.value + k) % 997
            p = p.next
        checksum = (checksum * 31 + acc) % M
        # weighAll: two receiver classes behind one call site
        acc = 0
        p = head
        while p is not None:
            acc = (acc + p.weigh(k)) % M
            p = p.next
        checksum = (checksum * 31 + acc) % M
        # mono: one receiver class
        acc = 0
        for i in range(40):
            acc = (acc + i + probe_b) % M
        checksum = (checksum * 31 + acc) % M
        # poly: four receiver classes
        acc = 0
        for i in range(40):
            acc = (acc + areas[i % 4]()) % M
        checksum = (checksum * 31 + acc) % M
        checksum = (checksum * 31 + _fib(9 + k % 3)) % M
        # sweep: int-array loop
        acc = 0
        for i in range(96):
            cells[i] = (cells[i] + i * k) % 251
            acc += cells[i]
        checksum = (checksum * 31 + acc % M) % M
        # churn: short-lived allocation
        acc = k
        for i in range(40):
            acc = ((i + acc) * 3 + 1) % M
        checksum = (checksum * 31 + acc) % M
        if round_index % 8 == 7:
            console.append(f"round {round_index} {checksum}")
    console.append(f"mix {checksum}")
    return console


# ---------------------------------------------------------------------------
# kernel_*.jm — one function per program, same name


def kernel_arith(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 17 + 1
        for i in range(1, 101):
            acc = (acc * 17 + i * k - acc // 3 + i % 7) % M
            if acc % 2 == 0 and i % 5 != 0:
                acc = acc + k
    return acc


def kernel_field(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    # the program prepends, so the walk visits the last-built cell first
    values = [rng.next() % 997 for _ in range(64)][::-1]
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 17 + 1
        for index, value in enumerate(values):
            acc = (acc + value) % M
            values[index] = (value + k) % 997
    return acc


def kernel_array(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    cells = [0] * 128
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 17 + 1
        for i in range(128):
            cells[i] = (cells[i] + i * k) % 251
            acc = (acc + cells[i]) % M
    return acc


def kernel_call(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 3
        acc = (acc * 31 + _fib(10 + k)) % M
        for i in range(20):
            acc = (acc * 31 + i) % M
    return acc


def kernel_virtual_mono(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    b = rng.next() % 101
    acc = seed % M
    for r in range(rounds):
        for i in range(100):
            acc = (acc + i + r + b) % M
    return acc


def kernel_virtual_poly(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    plain = rng.next() % 13 + 1
    square = rng.next() % 13 + 1
    slab = (rng.next() % 13 + 1, rng.next() % 9 + 1)
    wedge = (rng.next() % 13 + 2, rng.next() % 9 + 2)
    areas = [plain, square * square, slab[0] * slab[1],
             wedge[0] * wedge[1] // 2]
    acc = seed % M
    for r in range(rounds):
        for i in range(100):
            acc = (acc + areas[(i + r) % 4]) % M
    return acc


def kernel_alloc(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 17 + 1
        for i in range(100):
            acc = ((i + k + acc) * 3 + 1) % M
    return acc


def kernel_string(seed: int, rounds: int) -> int:
    rng = _Rng(seed)
    acc = seed % M
    for _ in range(rounds):
        k = rng.next() % 9973
        for i in range(25):
            line = f"key{k}:{acc};{i}"
            colon = line.index(":")
            tail = line[colon + 1:]
            acc = (acc * 31 + len(line) + colon * 7 + tail.index(";")) % M
            if tail.startswith("1") or line.endswith("4"):
                acc = acc + 1
    return acc


KERNELS: Dict[str, Callable[[int, int], int]] = {
    "arith": kernel_arith,
    "field": kernel_field,
    "array": kernel_array,
    "call": kernel_call,
    "virtual_mono": kernel_virtual_mono,
    "virtual_poly": kernel_virtual_poly,
    "alloc": kernel_alloc,
    "string": kernel_string,
}


def kernel_console(name: str, seed: int, rounds: int) -> List[str]:
    return [f"kernel {name} {KERNELS[name](seed, rounds)}"]
