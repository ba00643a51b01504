"""The pre-decoded, handler-table interpreter.

Three things are pinned here:

* the handler table covers exactly the instruction set;
* golden runs: a program that executes every opcode (a blocking native
  that re-executes on wake, ``Sys.yield``, collections triggered inside
  allocating instructions, a division-by-zero trap) and a lazy update
  whose open epoch is touched through all six barrier sites. Their
  instruction counts, simulated cycles, consoles and trap logs were
  recorded with the ``if/elif`` interpreter this one replaced. Counting
  dispatches shows that the first really runs every opcode and the
  second every armed barrier entry;
* arming: the lazy read barrier is a table swap, every way out of an
  epoch swaps the plain entries back, and a faulted eager update leaves
  the plain table in place.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.bytecode.instructions import OPCODES, Instr
from repro.compiler.compile import compile_source
from repro.dsu.faults import FaultInjector, FaultPlan
from repro.dsu.policy import UpdatePolicy
from repro.dsu.safepoint import RetryPolicy
from repro.vm.interpreter import (
    LAZY_BARRIER_SITES, OPCODE, OPCODE_NAMES, UNKNOWN, decode,
)
from repro.vm.vm import VM
from tests.dsu_helpers import UpdateFixture
from tests.test_dsu_advanced import FORCE_TRANSFORMERS, FORCE_V1, FORCE_V2
from tests.test_lazy_transform import SLEEPY_V1, SLEEPY_V2, disable_sweep

# ---------------------------------------------------------------------------
# golden run 1: every opcode

ALL_OPS_PROGRAM = """
class Cell {
    int v;
    Cell next;
    Cell(int v) { this.v = v; }
    int get() { return v; }
}
class Big extends Cell {
    int w;
    Big(int v, int w) { super(v); this.w = w; }
    int get() { return v + w; }
}
class Worker {
    int n;
    Worker(int n) { this.n = n; }
    void run() {
        for (int i = 0; i < n; i = i + 1) {
            Sys.sleep(3);
            Sys.yield();
            Main.total = Main.total + i;
        }
        Sys.print("worker:" + Main.total);
    }
}
class Main {
    static int total;
    // compiled from `a - b`, then rewritten to LOAD b; LOAD a; SWAP; SUB
    static int sub(int a, int b) { return a - b; }
    // compiled from `a == b`, then EQ rewritten to NE
    static bool differ(int a, int b) { return a == b; }
    static string describe(Object o) {
        if (o instanceof Big) { Big b = (Big) o; return "big" + b.w; }
        return "cell";
    }
    static void main() {
        Sys.spawn(new Worker(4));
        Cell[] cells = new Cell[8];
        bool flag = true;
        Cell prev = null;
        for (int round = 0; round < 30; round = round + 1) {
            prev = null;
            for (int i = 0; i < cells.length; i = i + 1) {
                Cell c;
                if (i % 3 == 0) { c = new Big(i, round); } else { c = new Cell(-i); }
                c.next = prev;
                prev = c;
                cells[i] = c;
            }
            Cell holder = new Cell(round);
            for (int k = 0; k < 40; k = k + 1) { holder.next = new Cell(k); }
            int acc = 0;
            for (int i = 0; i < cells.length; i = i + 1) {
                acc = acc + cells[i].get() * 2 / 3 % 7;
                cells[i].get();
                if (cells[i] == prev || acc >= 40 || acc <= -40) { acc = acc / 2; }
                if (acc > 1000 && acc < 2000) { acc = 0; }
            }
            string s = "r" + round + ":" + acc + ":" + flag + ":" + describe(cells[round % 8]);
            if (s == "r0:0:true:cell" || s.length() > 30) { Sys.print("odd " + s); }
            if (differ(acc, round)) { total = total + sub(acc, round); }
            flag = !flag;
            if (round % 5 == 0) { Sys.print(s); }
        }
        Sys.sleep(20);
        int zero = total - total;
        Sys.print("never " + (total / zero));
    }
}
"""


def _rewrite(classfiles, method, pattern, replacement):
    info = classfiles["Main"].methods[method]
    ops = [instr.op for instr in info.instructions]
    start = next(i for i in range(len(ops))
                 if ops[i:i + len(pattern)] == pattern)
    info.instructions[start:start + len(pattern)] = replacement


def all_ops_classfiles():
    """The program's class files, with the two opcodes jmini's code
    generator never emits (SWAP and NE) patched in."""
    classfiles = compile_source(ALL_OPS_PROGRAM)
    _rewrite(classfiles, ("sub", "(I,I)I"), ["LOAD", "LOAD", "SUB"],
             [Instr("LOAD", 1), Instr("LOAD", 0), Instr("SWAP"), Instr("SUB")])
    _rewrite(classfiles, ("differ", "(I,I)Z"), ["EQ"], [Instr("NE")])
    return classfiles


def count_dispatches(vm, counts: Counter) -> None:
    """Wrap every table entry in a counter of dispatches by opcode name,
    and each lazy barrier entry, when it is armed, in one counting under
    ``("armed", name)``. The wrappers touch no simulated state."""
    interpreter = vm.interpreter
    handlers = interpreter.handlers

    def counted(key, handler):
        def dispatch(*args):
            counts[key] += 1
            return handler(*args)
        return dispatch

    for index, name in enumerate(OPCODE_NAMES):
        handlers[index] = counted(name, handlers[index])
    arm = interpreter.arm_lazy_barrier

    def arm_counted(*args):
        arm(*args)
        for name in LAZY_BARRIER_SITES:
            index = OPCODE[name]
            handlers[index] = counted(("armed", name), handlers[index])

    interpreter.arm_lazy_barrier = arm_counted


def run_all_ops(counts=None) -> VM:
    vm = VM(heap_cells=1 << 11)
    if counts is not None:
        count_dispatches(vm, counts)
    vm.boot(all_ops_classfiles())
    vm.start_main("Main")
    vm.run(max_instructions=120_000)
    return vm


# ---------------------------------------------------------------------------
# golden run 2: an open lazy epoch touched through every barrier site

ARMED_V1 = """
class Item {
    int a;
    Item link;
    Item(int a) { this.a = a; }
    int val() { return a; }
    Item self() { return this; }
}
class Tally {
    int hits;
    int bump() { hits = hits + 1; return hits; }
}
class Pool {
    static Item[] items;
    static Object any;
    static Tally tally;
    static void init(int n) {
        Pool.items = new Item[n];
        for (int i = 0; i < n; i = i + 1) { Pool.items[i] = new Item(i + 1); }
        for (int i = 1; i < n; i = i + 1) { Pool.items[i].link = Pool.items[i - 1]; }
        Pool.any = Pool.items[0];
        Pool.tally = new Tally();
    }
    static int touch(int i) {
        Item it = Pool.items[i];
        int v = it.a + it.val();
        it.a = v % 1000 + 1;
        if (it.self() == it) { v = v + 7; }
        if (it.link == Pool.items[(i + 11) % 12]) { v = v + 100; }
        if (Pool.any instanceof Item) { Item first = (Item) Pool.any; v = v + first.a; }
        return v + Pool.tally.bump() % 3;
    }
    static string tag() { return "v1"; }
}
class Main {
    static int rounds;
    static int sum;
    static void main() {
        Pool.init(12);
        while (rounds < 4000) {
            sum = (sum + Pool.touch(rounds % 12)) % 100003;
            string s = "" + rounds;
            rounds = rounds + 1;
        }
        Sys.print("sum:" + sum + ":" + Pool.tag());
    }
}
"""
ARMED_V2 = ARMED_V1.replace(
    "    int a;\n    Item link;\n", "    int a;\n    int b;\n    Item link;\n"
).replace('return "v1";', 'return "v2";')

LAZY = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0), transform="lazy")


def run_armed(counts=None):
    """Stops while main still runs: the epoch is open and no idle stall
    has advanced the clock to an absolute time."""
    fixture = UpdateFixture(ARMED_V1, heap_cells=1 << 13).start()
    if counts is not None:
        count_dispatches(fixture.vm, counts)
    holder = fixture.update_at(2, ARMED_V2, policy=LAZY)
    fixture.run(max_instructions=300_000)
    return fixture, holder["result"]


# ---------------------------------------------------------------------------
# (a) the table


def test_the_table_covers_exactly_the_instruction_set():
    assert len(OPCODE_NAMES) == len(OPCODES)
    assert set(OPCODE_NAMES) == OPCODES
    interpreter = VM().interpreter
    # one handler per opcode, then the unknown-op trap
    assert len(interpreter.plain) == len(OPCODES) + 1 == UNKNOWN + 1
    assert all(callable(handler) for handler in interpreter.plain)
    assert interpreter.handlers == list(interpreter.plain)
    code = SimpleNamespace(
        instructions=[Instr(op, b=(0, "V") if op == "INVOKENATIVE" else None)
                      for op in sorted(OPCODES)] + [Instr("BOGUS")],
        decoded=None,
    )
    decoded = decode(code)
    assert code.decoded is decoded
    assert [OPCODE_NAMES[opcode] for opcode, _ in decoded[:-1]] == sorted(OPCODES)
    assert decoded[-1] == (UNKNOWN, "BOGUS")


def test_each_vm_owns_its_table():
    first, second = VM().interpreter, VM().interpreter
    assert first.handlers is not second.handlers
    assert not set(map(id, first.plain)) & set(map(id, second.plain))


# ---------------------------------------------------------------------------
# (b) golden pins, recorded with the if/elif interpreter


def test_every_opcode_golden_run():
    vm = run_all_ops()
    assert vm.interpreter.instructions_executed == 54419
    assert vm.clock.cycles == 469473
    assert vm.collector.collections == 7
    assert vm.jit.opt_compiles == 5
    assert vm.console == [
        "r0:-2:true:big0", "r5:-1:false:cell", "r10:0:true:cell",
        "r15:-1:false:cell", "r20:0:true:cell", "r25:1:false:cell",
        "worker:-442",
    ]
    assert vm.trap_log == ["main:Main: division by zero"]


def test_armed_epoch_golden_run():
    fixture, result = run_armed()
    vm, epoch = fixture.vm, fixture.engine.lazy_epoch
    assert result.status == "applied"
    assert epoch is not None
    assert vm.interpreter.instructions_executed == 300169
    assert vm.clock.cycles == 369050
    assert vm.collector.collections == 4
    assert epoch.touch_transforms == 12
    assert epoch.heals == 3913
    assert vm.console == []
    assert vm.trap_log == []


@pytest.fixture(scope="module")
def all_ops_dispatches():
    counts = Counter()
    vm = run_all_ops(counts)
    # the division-by-zero trap is dispatched but never completes
    assert sum(counts.values()) == vm.interpreter.instructions_executed + 1
    return counts


@pytest.mark.parametrize("name", OPCODE_NAMES)
def test_the_every_opcode_run_executes(name, all_ops_dispatches):
    assert all_ops_dispatches[name] > 0


@pytest.fixture(scope="module")
def armed_dispatches():
    counts = Counter()
    fixture, _ = run_armed(counts)
    assert fixture.vm.interpreter.instructions_executed == 300169
    return counts


@pytest.mark.parametrize("name", LAZY_BARRIER_SITES)
def test_the_armed_epoch_run_executes_the_armed_entry_at(name, armed_dispatches):
    assert armed_dispatches[("armed", name)] > 0


HALTING_TRANSFORMER = {"Item": """
    static void jvolveClass(Item unused) { }
    static void jvolveObject(Item to, v10_Item from) {
        to.a = from.a;
        to.link = from.link;
        Sys.halt();
    }
"""}


def test_a_transformer_that_halts_ends_the_touching_quantum():
    # The first touch is a GETFIELD whose barrier runs this transformer:
    # the touching thread stops right after that instruction.
    fixture = UpdateFixture(ARMED_V1, heap_cells=1 << 13).start()
    holder = fixture.update_at(2, ARMED_V2, policy=LAZY,
                               overrides=HALTING_TRANSFORMER)
    fixture.run(max_instructions=400_000)
    vm = fixture.vm
    assert holder["result"].status == "applied"
    assert vm.halted
    assert vm.interpreter.instructions_executed == 25713
    assert vm.clock.cycles == 44738
    [main] = vm.threads
    assert main.frames[-1].pc == 6


# ---------------------------------------------------------------------------
# unknown opcodes trap when they run, not when they are decoded

BOGUS_PROGRAM = """
class T {
    static int f() { Sys.print("in f"); return 7; }
}
class Main { static void main() { Sys.print("" + T.f()); } }
"""


def _vm_with_bogus_f(patch):
    vm = VM()
    vm.boot(compile_source(BOGUS_PROGRAM))
    code = vm.jit.ensure_compiled(vm.methods.lookup("T", "f", "()I"))
    patch(code.instructions)
    vm.start_main("Main")
    vm.run(max_instructions=10_000)
    return vm


def test_an_unknown_opcode_that_never_runs_is_harmless():
    vm = _vm_with_bogus_f(lambda code: code.append(Instr("BOGUS")))
    assert vm.console == ["in f", "7"]
    assert vm.trap_log == []


def test_an_unknown_opcode_traps_when_it_runs():
    def patch(code):
        code[[instr.op for instr in code].index("CONST_INT")] = Instr("BOGUS")

    vm = _vm_with_bogus_f(patch)
    assert vm.console == ["in f"]
    assert vm.trap_log == ["main:Main: unknown opcode BOGUS"]


# ---------------------------------------------------------------------------
# (c) arming is a table swap, and every way out swaps back


def is_plain(vm) -> bool:
    interpreter = vm.interpreter
    return (not interpreter.lazy_barrier_armed
            and len(interpreter.handlers) == len(interpreter.plain)
            and all(handler is plain for handler, plain
                    in zip(interpreter.handlers, interpreter.plain)))


def is_lazy_armed(vm) -> bool:
    interpreter = vm.interpreter
    sites = {OPCODE[name] for name in LAZY_BARRIER_SITES}
    return interpreter.lazy_barrier_armed and all(
        (handler is plain) == (index not in sites)
        for index, (handler, plain)
        in enumerate(zip(interpreter.handlers, interpreter.plain))
    )


LAZY_HOLD = UpdatePolicy(retry=RetryPolicy(timeout_ms=5_000.0),
                         transform="lazy", hold_transaction=True)


def open_epoch(policy=LAZY, n=24):
    fixture = UpdateFixture(SLEEPY_V1.replace("Pool.fill(40)", f"Pool.fill({n})"),
                            heap_cells=1 << 15).start()
    disable_sweep(fixture)
    fixture.run(until_ms=54)
    assert is_plain(fixture.vm)
    holder = fixture.update_at(
        55, SLEEPY_V2.replace("Pool.fill(40)", f"Pool.fill({n})"),
        policy=policy,
    )
    fixture.run(until_ms=120)
    result = holder["result"]
    assert result.succeeded, result.reason
    assert fixture.engine.lazy_epoch is not None
    assert is_lazy_armed(fixture.vm)
    return fixture, result


def test_epoch_close_disarms():
    fixture, _ = open_epoch()
    fixture.engine.drain_lazy_epoch()
    assert fixture.engine.lazy_epoch is None
    assert is_plain(fixture.vm)


def test_held_window_rollback_disarms():
    fixture, result = open_epoch(LAZY_HOLD)
    fixture.engine.rollback_applied(result)
    assert is_plain(fixture.vm)


def test_mid_sweep_rollback_disarms():
    fixture, result = open_epoch(LAZY_HOLD)
    assert 0 < fixture.engine.drain_lazy_epoch(max_objects=24) < 24
    fixture.engine.rollback_applied(result)
    assert is_plain(fixture.vm)
    fixture.run(until_ms=5_000)
    assert fixture.console == [f"sum:{24 * 25 // 2}:v1"]


@pytest.mark.parametrize("plan, rolled_back", [
    (FaultPlan(classload_fail_after=0), True),
    # no safe point within the retry budget: the apply never starts
    (FaultPlan(block_safepoint_forever=True), False),
], ids=["classload", "safepoint-timeout"])
def test_a_faulted_lazy_apply_never_arms(plan, rolled_back):
    fixture = UpdateFixture(SLEEPY_V1, heap_cells=1 << 15).start()
    fixture.engine.fault_injector = FaultInjector(plan)
    holder = fixture.update_at(55, SLEEPY_V2, policy=LAZY)
    fixture.run(until_ms=6_000)
    assert holder["result"].status == "aborted"
    assert holder["result"].rolled_back == rolled_back
    assert is_plain(fixture.vm)
    assert fixture.console == [f"sum:{40 * 41 // 2}:v1"]


def test_a_second_vm_is_never_armed():
    bystander = UpdateFixture(SLEEPY_V1, heap_cells=1 << 15).start()
    bystander.run(until_ms=54)
    fixture, _ = open_epoch()
    bystander.run(until_ms=120)
    assert is_plain(bystander.vm)
    assert not set(map(id, fixture.vm.interpreter.handlers)) & set(
        map(id, bystander.vm.interpreter.handlers))


@pytest.mark.parametrize("plan, phase", [
    (FaultPlan(transformer_raise_at=0), "transform"),
    (FaultPlan(transformer_raise_at=1), "transform"),
    (FaultPlan(transformer_cycle_at=1), "transform"),
    (FaultPlan(classload_fail_after=0), "classload"),
    (FaultPlan(classload_fail_after=1), "classload"),
], ids=["raise-first-object", "raise-second-object", "cycle",
        "classload-0", "classload-1"])
def test_an_eager_fault_keeps_the_plain_table(plan, phase):
    fixture = UpdateFixture(FORCE_V1, heap_cells=1 << 16)
    injector = FaultInjector(plan)
    fixture.engine.fault_injector = injector
    fixture.start()
    holder = fixture.update_at(55, FORCE_V2, overrides=FORCE_TRANSFORMERS)
    fixture.run(until_ms=3_000)
    result = holder["result"]
    assert result.status == "aborted" and result.rolled_back
    assert result.failed_phase == phase
    assert bool(injector.transforms_seen) == (phase == "transform")
    assert is_plain(fixture.vm)
