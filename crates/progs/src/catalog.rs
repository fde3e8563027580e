//! The workload catalog: the paper's example programs and classic
//! synchronization patterns, each with a named memory layout and a
//! ground-truth racy/race-free flag.

use wmrd_sim::{Program, Reg};
use wmrd_trace::{Location, Value};

use crate::ProcBuilder;

/// A catalog workload: a program plus ground truth about it.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Short identifier (also the program name).
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// `true` iff some sequentially consistent execution of the program
    /// exhibits a data race (i.e. the program is *not* data-race-free).
    pub racy: bool,
    /// One-line description.
    pub description: &'static str,
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Memory layout shared by the Figure 1 programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Layout {
    /// Data location `x`.
    pub x: Location,
    /// Data location `y`.
    pub y: Location,
    /// Synchronization location `s` (Test&Set / Unset).
    pub s: Location,
}

/// The Figure 1 layout: `x`, `y`, `s` at words 0, 1, 2.
pub fn fig1_layout() -> Fig1Layout {
    Fig1Layout { x: Location::new(0), y: Location::new(1), s: Location::new(2) }
}

/// Figure 1a: `P0: Write(x); Write(y)` and `P1: Read(y); Read(x)` with no
/// synchronization — both conflicting pairs form data races.
pub fn fig1a() -> CatalogEntry {
    let lay = fig1_layout();
    let mut program = Program::new("fig1a", 3);
    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.x).st(1, lay.y).halt();
    let mut p1 = ProcBuilder::new();
    p1.ld(r(0), lay.y).ld(r(1), lay.x).halt();
    program.push_proc(p0.assemble().expect("static program assembles"));
    program.push_proc(p1.assemble().expect("static program assembles"));
    CatalogEntry {
        name: "fig1a",
        program,
        racy: true,
        description: "paper Figure 1a: unsynchronized write/read pairs on x and y",
    }
}

/// Figure 1b: the same accesses ordered by an `Unset`/`Test&Set` pairing
/// — data-race-free.
pub fn fig1b() -> CatalogEntry {
    let lay = fig1_layout();
    let mut program = Program::new("fig1b", 3);
    program.set_init(lay.s, Value::new(1)); // "held" until P0 unsets
    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.x).st(1, lay.y).unset(lay.s).halt();
    let mut p1 = ProcBuilder::new();
    p1.lock(r(0), lay.s).ld(r(1), lay.y).ld(r(2), lay.x).halt();
    program.push_proc(p0.assemble().expect("static program assembles"));
    program.push_proc(p1.assemble().expect("static program assembles"));
    CatalogEntry {
        name: "fig1b",
        program,
        racy: false,
        description: "paper Figure 1b: accesses ordered through Unset -> Test&Set pairing",
    }
}

/// Memory layout of the Figure 2 work-queue programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkQueueLayout {
    /// The critical-section lock `S`.
    pub lock: Location,
    /// The `QEmpty` flag (1 = queue empty).
    pub q_empty: Location,
    /// The queue slot `Q` holding a region address.
    pub q: Location,
    /// First word of the shared work region.
    pub region_base: u32,
    /// Words in the region.
    pub region_len: u32,
    /// The (stale) address initially in `Q` — inside P3's working area,
    /// standing in for the paper's `37`.
    pub stale_addr: i64,
    /// The address P1 enqueues — clear of P3, standing in for the
    /// paper's `100`.
    pub fresh_addr: i64,
    /// Words P2 processes starting at the dequeued address.
    pub p2_chunk: u32,
}

/// The work-queue layout: lock/QEmpty/Q at 0/1/2, a 12-word region at
/// 10..22, stale address 14, fresh address 18.
pub fn work_queue_layout() -> WorkQueueLayout {
    WorkQueueLayout {
        lock: Location::new(0),
        q_empty: Location::new(1),
        q: Location::new(2),
        region_base: 10,
        region_len: 12,
        stale_addr: 14,
        fresh_addr: 18,
        p2_chunk: 4,
    }
}

fn work_queue_program(name: &'static str, with_test_set: bool) -> Program {
    let lay = work_queue_layout();
    let mut program = Program::new(name, lay.region_base + lay.region_len);
    program.set_init(lay.q_empty, Value::new(1)); // queue initially empty
    program.set_init(lay.q, Value::new(lay.stale_addr)); // stale leftover entry

    // P1: [Test&Set(S)]; Enqueue(fresh); QEmpty := False; Unset(S).
    let mut p1 = ProcBuilder::new();
    if with_test_set {
        p1.lock(r(0), lay.lock);
    }
    p1.li(r(1), lay.fresh_addr).st(r(1), lay.q).st(0, lay.q_empty).unset(lay.lock).halt();

    // P2: [Test&Set(S)]; if QEmpty = False then addr := Dequeue();
    // Unset(S); work on region addr..addr+chunk.
    let mut p2 = ProcBuilder::new();
    if with_test_set {
        p2.lock(r(0), lay.lock);
    }
    p2.ld(r(1), lay.q_empty).bnz(r(1), "empty").ld(r(2), lay.q).unset(lay.lock);
    for i in 0..lay.p2_chunk {
        p2.st_ind(1, r(2), i64::from(i));
    }
    p2.jmp("done");
    p2.label("empty").unset(lay.lock);
    p2.label("done").halt();

    // P3: works independently on the low half of the region (in the
    // corrected program this is a critical section; in the buggy one the
    // Test&Set is missing there too), Unsets S, then continues on the
    // next two words.
    let mut p3 = ProcBuilder::new();
    if with_test_set {
        p3.lock(r(0), lay.lock);
    }
    let base = i64::from(lay.region_base);
    for i in 0..6 {
        p3.st(7, Location::new((base + i) as u32));
    }
    p3.unset(lay.lock);
    p3.ld(r(3), Location::new((base + 6) as u32)).st(8, Location::new((base + 7) as u32)).halt();

    program.push_proc(p1.assemble().expect("static program assembles"));
    program.push_proc(p2.assemble().expect("static program assembles"));
    program.push_proc(p3.assemble().expect("static program assembles"));
    program
}

/// Figure 2's work-queue program with the `Test&Set` instructions
/// *omitted* — the paper's motivating bug. Racy on `QEmpty` and `Q`; on a
/// weak system P2 can dequeue the stale address and collide with P3's
/// region.
pub fn work_queue_buggy() -> CatalogEntry {
    CatalogEntry {
        name: "work-queue-buggy",
        program: work_queue_program("work-queue-buggy", false),
        racy: true,
        description: "paper Figure 2: work queue with missing Test&Set; races on QEmpty/Q",
    }
}

/// The corrected work queue: `Test&Set` present, queue accesses inside
/// the critical section — data-race-free.
pub fn work_queue_fixed() -> CatalogEntry {
    CatalogEntry {
        name: "work-queue-fixed",
        program: work_queue_program("work-queue-fixed", true),
        racy: false,
        description: "Figure 2's work queue with the missing Test&Set restored",
    }
}

/// Layout of the producer/consumer programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerConsumerLayout {
    /// The ready flag.
    pub flag: Location,
    /// The data word.
    pub data: Location,
    /// The value the producer writes.
    pub payload: i64,
}

/// Producer/consumer layout: flag at 0, data at 1, payload 42.
pub fn producer_consumer_layout() -> ProducerConsumerLayout {
    ProducerConsumerLayout { flag: Location::new(0), data: Location::new(1), payload: 42 }
}

fn producer_consumer_program(name: &'static str, synchronized: bool) -> Program {
    let lay = producer_consumer_layout();
    let mut program = Program::new(name, 2);
    let mut producer = ProcBuilder::new();
    producer.st(lay.payload, lay.data);
    if synchronized {
        producer.st_rel(1, lay.flag);
    } else {
        producer.st(1, lay.flag);
    }
    producer.halt();
    let mut consumer = ProcBuilder::new();
    consumer.label("spin");
    if synchronized {
        consumer.ld_acq(r(0), lay.flag);
    } else {
        consumer.ld(r(0), lay.flag);
    }
    consumer.bz(r(0), "spin").ld(r(1), lay.data).halt();
    program.push_proc(producer.assemble().expect("static program assembles"));
    program.push_proc(consumer.assemble().expect("static program assembles"));
    program
}

/// Flag-based handoff using release/acquire accesses — data-race-free.
pub fn producer_consumer() -> CatalogEntry {
    CatalogEntry {
        name: "producer-consumer",
        program: producer_consumer_program("producer-consumer", true),
        racy: false,
        description: "release/acquire flag handoff of one data word",
    }
}

/// The same handoff with ordinary loads/stores for the flag — races on
/// both the flag and the data word.
pub fn producer_consumer_racy() -> CatalogEntry {
    CatalogEntry {
        name: "producer-consumer-racy",
        program: producer_consumer_program("producer-consumer-racy", false),
        racy: true,
        description: "flag handoff with a data flag: races on flag and data",
    }
}

/// Layout of the mutual-exclusion-attempt programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutexLayout {
    /// P0's intent flag.
    pub flag0: Location,
    /// P1's intent flag.
    pub flag1: Location,
    /// The word written inside the "critical section".
    pub shared: Location,
}

/// Mutex-attempt layout: flags at 0 and 1, shared word at 2.
pub fn mutex_layout() -> MutexLayout {
    MutexLayout { flag0: Location::new(0), flag1: Location::new(1), shared: Location::new(2) }
}

fn mutex_program(name: &'static str, synchronized: bool) -> Program {
    let lay = mutex_layout();
    let mut program = Program::new(name, 3);
    for (own, other, val) in [(lay.flag0, lay.flag1, 1i64), (lay.flag1, lay.flag0, 2i64)] {
        let mut p = ProcBuilder::new();
        if synchronized {
            p.st_sync(1, own).ld_sync(r(0), other);
        } else {
            p.st(1, own).ld(r(0), other);
        }
        p.bnz(r(0), "skip").st(val, lay.shared).label("skip").halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    program
}

/// A Dekker-style entry protocol with hardware-recognized (sync) flag
/// accesses: under sequential consistency at most one processor enters,
/// so the shared word is never raced on. (The flag accesses conflict but
/// sync-sync conflicts are not data races.)
pub fn mutex_attempt_sync() -> CatalogEntry {
    CatalogEntry {
        name: "mutex-attempt-sync",
        program: mutex_program("mutex-attempt-sync", true),
        racy: false,
        description: "Dekker-style entry with sync flags; mutual exclusion holds under SC",
    }
}

/// The same protocol with ordinary data accesses for the flags — every
/// flag pair races.
pub fn mutex_attempt_racy() -> CatalogEntry {
    CatalogEntry {
        name: "mutex-attempt-racy",
        program: mutex_program("mutex-attempt-racy", false),
        racy: true,
        description: "Dekker-style entry with data flags: flag accesses race",
    }
}

/// Layout of the counter programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterLayout {
    /// The lock (locked variant only).
    pub lock: Location,
    /// The shared counter.
    pub counter: Location,
}

/// Counter layout: lock at 0, counter at 1.
pub fn counter_layout() -> CounterLayout {
    CounterLayout { lock: Location::new(0), counter: Location::new(1) }
}

fn counter_program(name: &'static str, procs: usize, increments: usize, locked: bool) -> Program {
    let lay = counter_layout();
    let mut program = Program::new(name, 2);
    for _ in 0..procs {
        let mut p = ProcBuilder::new();
        for _ in 0..increments {
            if locked {
                p.lock(r(0), lay.lock);
            }
            p.ld(r(1), lay.counter).add(r(1), r(1), 1).st(r(1), lay.counter);
            if locked {
                p.unset(lay.lock);
            }
        }
        p.halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    program
}

/// `procs` processors each increment a shared counter `increments` times
/// with no locking — the classic lost-update race.
pub fn counter_racy(procs: usize, increments: usize) -> CatalogEntry {
    CatalogEntry {
        name: "counter-racy",
        program: counter_program("counter-racy", procs, increments, false),
        racy: true,
        description: "unlocked read-modify-write increments of one counter",
    }
}

/// The same counter protected by a `Test&Set`/`Unset` spin lock —
/// data-race-free.
pub fn counter_locked(procs: usize, increments: usize) -> CatalogEntry {
    CatalogEntry {
        name: "counter-locked",
        program: counter_program("counter-locked", procs, increments, true),
        racy: false,
        description: "spin-lock protected increments of one counter",
    }
}

/// Layout of the barrier program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierLayout {
    /// The lock protecting the arrival counter.
    pub lock: Location,
    /// The arrival counter.
    pub count: Location,
    /// The generation flag released by the last arriver.
    pub flag: Location,
    /// First of the per-processor data slots.
    pub slots_base: u32,
}

/// Barrier layout: lock/count/flag at 0/1/2, slots from 3.
pub fn barrier_layout() -> BarrierLayout {
    BarrierLayout {
        lock: Location::new(0),
        count: Location::new(1),
        flag: Location::new(2),
        slots_base: 3,
    }
}

/// A centralized barrier: each of `procs` processors writes its slot,
/// arrives at the barrier (lock-protected counter; last arriver releases
/// the flag), then reads its neighbour's slot. Data-race-free: every
/// cross-processor slot access is separated by the barrier.
pub fn barrier(procs: usize) -> CatalogEntry {
    let lay = barrier_layout();
    let mut program = Program::new("barrier", lay.slots_base + procs as u32);
    for i in 0..procs {
        let my_slot = Location::new(lay.slots_base + i as u32);
        let neighbour = Location::new(lay.slots_base + ((i + 1) % procs) as u32);
        let mut p = ProcBuilder::new();
        p.st(i as i64 + 100, my_slot)
            .lock(r(0), lay.lock)
            .ld(r(1), lay.count)
            .add(r(1), r(1), 1)
            .st(r(1), lay.count)
            .cmpeq(r(2), r(1), procs as i64)
            .unset(lay.lock)
            .bz(r(2), "wait")
            .st_rel(1, lay.flag)
            .jmp("after")
            .label("wait")
            .label("spin")
            .ld_acq(r(3), lay.flag)
            .bz(r(3), "spin")
            .label("after")
            .ld(r(4), neighbour)
            .halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    CatalogEntry {
        name: "barrier",
        program,
        racy: false,
        description: "centralized barrier: write slot, arrive, read neighbour's slot",
    }
}

/// Layout of the Peterson mutual-exclusion programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PetersonLayout {
    /// P0's intent flag.
    pub flag0: Location,
    /// P1's intent flag.
    pub flag1: Location,
    /// The turn variable.
    pub turn: Location,
    /// The counter incremented inside the critical section.
    pub counter: Location,
}

/// Peterson layout: flags at 0/1, turn at 2, counter at 3.
pub fn peterson_layout() -> PetersonLayout {
    PetersonLayout {
        flag0: Location::new(0),
        flag1: Location::new(1),
        turn: Location::new(2),
        counter: Location::new(3),
    }
}

fn peterson_program(name: &'static str, synchronized: bool) -> Program {
    let lay = peterson_layout();
    let mut program = Program::new(name, 4);
    for (own, other, other_id) in [(lay.flag0, lay.flag1, 1i64), (lay.flag1, lay.flag0, 0i64)] {
        let mut p = ProcBuilder::new();
        // Entry: flag[me] := 1; turn := other; wait while (flag[other] && turn == other).
        if synchronized {
            p.st_rel(1, own).st_rel(other_id, lay.turn);
        } else {
            p.st(1, own).st(other_id, lay.turn);
        }
        p.label("wait");
        if synchronized {
            p.ld_acq(r(0), other).ld_acq(r(1), lay.turn);
        } else {
            p.ld(r(0), other).ld(r(1), lay.turn);
        }
        p.bz(r(0), "enter")
            .cmpeq(r(2), r(1), other_id)
            .bnz(r(2), "wait")
            .label("enter")
            // Critical section: counter++ with plain data accesses.
            .ld(r(3), lay.counter)
            .add(r(3), r(3), 1)
            .st(r(3), lay.counter);
        // Exit: flag[me] := 0 — the release the other side's entry pairs with.
        if synchronized {
            p.st_rel(0, own);
        } else {
            p.st(0, own);
        }
        p.halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    program
}

/// Peterson's algorithm with release stores and acquire loads for the
/// flags and turn. Mutual exclusion holds under sequential consistency,
/// and whichever condition lets the later processor enter (the other's
/// exit `flag := 0`, or a turn value that implies the other is still
/// waiting), the entry pairs with a release that orders the two critical
/// sections — so the counter accesses never race.
pub fn peterson_sync() -> CatalogEntry {
    CatalogEntry {
        name: "peterson-sync",
        program: peterson_program("peterson-sync", true),
        racy: false,
        description: "Peterson's algorithm with release/acquire flag and turn accesses",
    }
}

/// Peterson's algorithm with ordinary data accesses for flags and turn —
/// every flag/turn access races, and on weak hardware mutual exclusion
/// itself can break.
pub fn peterson_racy() -> CatalogEntry {
    CatalogEntry {
        name: "peterson-racy",
        program: peterson_program("peterson-racy", false),
        racy: true,
        description: "Peterson's algorithm with data flags: entry protocol races",
    }
}

/// Layout of the ticket-lock program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketLayout {
    /// Next ticket to hand out.
    pub next_ticket: Location,
    /// Ticket currently being served.
    pub now_serving: Location,
    /// The protected counter.
    pub counter: Location,
    /// An auxiliary Test&Set lock protecting ticket allocation.
    pub alloc_lock: Location,
}

/// Ticket-lock layout: next/serving/counter/alloc-lock at 0..=3.
pub fn ticket_layout() -> TicketLayout {
    TicketLayout {
        next_ticket: Location::new(0),
        now_serving: Location::new(1),
        counter: Location::new(2),
        alloc_lock: Location::new(3),
    }
}

/// A ticket lock: each processor takes a ticket (ticket allocation is
/// made atomic with a small Test&Set-protected section), spins with an
/// acquire load until `now_serving` reaches its ticket, increments the
/// protected counter, and releases by storing `ticket + 1` to
/// `now_serving` with a release store. Data-race-free and FIFO-fair.
pub fn ticket_lock(procs: usize, increments: usize) -> CatalogEntry {
    let lay = ticket_layout();
    let mut program = Program::new("ticket-lock", 4);
    for _ in 0..procs {
        let mut p = ProcBuilder::new();
        for _ in 0..increments {
            // take a ticket (atomically, via the allocation lock)
            p.lock(r(0), lay.alloc_lock)
                .ld(r(1), lay.next_ticket)
                .add(r(2), r(1), 1)
                .st(r(2), lay.next_ticket)
                .unset(lay.alloc_lock);
            // spin until served
            let spin = format!("spin{}", p.len());
            p.label(&spin)
                .ld_acq(r(3), lay.now_serving)
                .cmpeq(r(4), r(3), r(1))
                .bz(r(4), &spin)
                // critical section
                .ld(r(5), lay.counter)
                .add(r(5), r(5), 1)
                .st(r(5), lay.counter)
                // release: now_serving := ticket + 1
                .st_rel(r(2), lay.now_serving);
        }
        p.halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    CatalogEntry {
        name: "ticket-lock",
        program,
        racy: false,
        description: "FIFO ticket lock: acquire-spin on now_serving, release hands off",
    }
}

/// Layout of the double-checked initialization programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DclLayout {
    /// The "initialized" flag.
    pub init_flag: Location,
    /// The lock guarding initialization.
    pub lock: Location,
    /// The lazily initialized payload.
    pub payload: Location,
}

/// Double-checked-init layout: flag/lock/payload at 0/1/2.
pub fn dcl_layout() -> DclLayout {
    DclLayout { init_flag: Location::new(0), lock: Location::new(1), payload: Location::new(2) }
}

fn dcl_program(name: &'static str, synchronized: bool) -> Program {
    let lay = dcl_layout();
    let mut program = Program::new(name, 3);
    for _ in 0..2 {
        let mut p = ProcBuilder::new();
        // First check (the "double-checked" fast path).
        if synchronized {
            p.ld_acq(r(0), lay.init_flag);
        } else {
            p.ld(r(0), lay.init_flag);
        }
        p.bnz(r(0), "use")
            // Slow path: lock, re-check, initialize.
            .lock(r(1), lay.lock);
        if synchronized {
            p.ld_acq(r(0), lay.init_flag);
        } else {
            p.ld(r(0), lay.init_flag);
        }
        p.bnz(r(0), "unlock").st(42, lay.payload);
        if synchronized {
            p.st_rel(1, lay.init_flag);
        } else {
            p.st(1, lay.init_flag);
        }
        p.label("unlock").unset(lay.lock).label("use").ld(r(2), lay.payload).halt();
        program.push_proc(p.assemble().expect("static program assembles"));
    }
    program
}

/// Double-checked initialization done right: the flag is published with
/// a release store and consumed with acquire loads, ordering the payload
/// write before every fast-path read. Data-race-free.
pub fn double_checked_init() -> CatalogEntry {
    CatalogEntry {
        name: "double-checked-init",
        program: dcl_program("double-checked-init", true),
        racy: false,
        description: "double-checked lazy init with acquire/release flag",
    }
}

/// The classic double-checked-locking bug: the flag is a plain data
/// word, so a fast-path reader can see `init_flag = 1` yet a stale
/// payload — flag and payload accesses race.
pub fn double_checked_init_racy() -> CatalogEntry {
    CatalogEntry {
        name: "double-checked-init-racy",
        program: dcl_program("double-checked-init-racy", false),
        racy: true,
        description: "double-checked lazy init with a data flag: the textbook DCL bug",
    }
}

/// Layout of the ping-pong program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingPongLayout {
    /// The shared data word, written in both rounds.
    pub data: Location,
    /// Round-1 flag (P0 → P1).
    pub flag1: Location,
    /// Round-2 flag (P1 → P0).
    pub flag2: Location,
    /// Round-3 flag (P0 → P1).
    pub flag3: Location,
}

/// Ping-pong layout: data at 0, flags at 1/2/3.
pub fn ping_pong_layout() -> PingPongLayout {
    PingPongLayout {
        data: Location::new(0),
        flag1: Location::new(1),
        flag2: Location::new(2),
        flag3: Location::new(3),
    }
}

/// A two-round release/acquire ping-pong: P0 publishes `data = 1`, P1
/// reads it and answers, P0 publishes `data = 2`, P1 reads it again.
/// Every cross-processor access is ordered by a flag handshake —
/// data-race-free. On *raw* (Condition-3.4-violating) hardware, P1's
/// second read can return the stale `1`: on the invalidation-queue
/// machine because P1's cached copy from round one never gets
/// invalidated, on the store-buffer machine because P0's second write
/// may still be buffered — the same observable anomaly from two
/// different mechanisms.
pub fn ping_pong() -> CatalogEntry {
    let lay = ping_pong_layout();
    let mut program = Program::new("ping-pong", 4);

    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.data)
        .st_rel(1, lay.flag1)
        .label("wait2")
        .ld_acq(r(0), lay.flag2)
        .bz(r(0), "wait2")
        .st(2, lay.data)
        .st_rel(1, lay.flag3)
        .halt();
    program.push_proc(p0.assemble().expect("static program assembles"));

    let mut p1 = ProcBuilder::new();
    p1.label("wait1")
        .ld_acq(r(0), lay.flag1)
        .bz(r(0), "wait1")
        .ld(r(1), lay.data) // round 1: must read 1 (and caches the copy)
        .st_rel(1, lay.flag2)
        .label("wait3")
        .ld_acq(r(0), lay.flag3)
        .bz(r(0), "wait3")
        .ld(r(2), lay.data) // round 2: must read 2
        .halt();
    program.push_proc(p1.assemble().expect("static program assembles"));

    CatalogEntry {
        name: "ping-pong",
        program,
        racy: false,
        description: "two-round release/acquire data handoff (DRF; stale on raw hardware)",
    }
}

/// A weak-machine schedule that reproduces the paper's Figure 2b on
/// [`work_queue_buggy`] under WO: P1's buffered write of `QEmpty` drains
/// *before* its program-order-earlier write of `Q`, so P2 sees the queue
/// flagged non-empty but dequeues the stale address and collides with
/// P3's region.
///
/// Feed this to [`wmrd_sim::WeakScript`] and run with
/// [`wmrd_sim::run_weak_hw`] on [`wmrd_sim::HwImpl::StoreBuffer`] under
/// [`wmrd_sim::MemoryModel::Wo`]; the script's
/// fallback completes the run after the interesting prefix.
pub fn work_queue_weak_script() -> Vec<wmrd_sim::WeakAction> {
    use wmrd_sim::WeakAction::{Drain, Step};
    use wmrd_trace::ProcId;
    let p1 = ProcId::new(0);
    let p2 = ProcId::new(1);
    let p3 = ProcId::new(2);
    vec![
        // P3 does its independent region work first (as in Figure 2b).
        Step(p3),
        Step(p3),
        Step(p3),
        Step(p3),
        Step(p3),
        Step(p3), // six region writes (buffered)
        // P1: compute addr, enqueue, clear the flag — both writes buffered.
        Step(p1), // li addr
        Step(p1), // st Q (buffered)
        Step(p1), // st QEmpty (buffered)
        // The weak reordering: QEmpty's write (buffer index 1) drains
        // ahead of Q's.
        Drain(p1, 1),
        // P2 now reads QEmpty = 0 but the *stale* Q.
        Step(p2), // ld QEmpty -> 0
        Step(p2), // bnz (not taken)
        Step(p2), // ld Q -> stale address
        Step(p2), // unset S (flush: buffer empty)
        Step(p2),
        Step(p2),
        Step(p2),
        Step(p2), // work on the stale region
                  // The rest (P1's Unset flushes Q; P3's Unset + second phase)
                  // completes via the script fallback.
    ]
}

/// Memory layout shared by the lock-courier entries: a spin lock and
/// per-processor slots each critical section touches privately, plus an
/// unprotected datum `x` outside the sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CourierLayout {
    /// The `Test&Set`/`Unset` spin lock.
    pub lock: Location,
    /// Slot written only inside P0's critical section.
    pub a: Location,
    /// Slot written only inside P1's critical section.
    pub b: Location,
    /// Slot written only inside P2's critical section (chain variant).
    pub c: Location,
    /// The datum accessed *outside* any critical section.
    pub x: Location,
}

/// The lock-courier layout: `lock`, `a`, `b`, `c`, `x` at words 0-4.
pub fn courier_layout() -> CourierLayout {
    CourierLayout {
        lock: Location::new(0),
        a: Location::new(1),
        b: Location::new(2),
        c: Location::new(3),
        x: Location::new(4),
    }
}

/// P0 publishes `x` before entering a critical section; P1 reads `x`
/// after leaving its own. The two sections touch disjoint slots, so the
/// lock orders the `x` accesses only by scheduling accident: when P1
/// happens to acquire after P0's release, an ≡hb1 detector sees the
/// pair as ordered and stays silent, while a weaker sound order (WCP)
/// drops the incidental release→acquire edge and predicts the race from
/// that same trace. The opposite handoff order exhibits it directly.
pub fn lazy_publish_racy() -> CatalogEntry {
    let lay = courier_layout();
    let mut program = Program::new("lazy-publish-racy", 5);

    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.x).lock(r(0), lay.lock).st(1, lay.a).unset(lay.lock).halt();
    program.push_proc(p0.assemble().expect("static program assembles"));

    let mut p1 = ProcBuilder::new();
    p1.lock(r(0), lay.lock).st(1, lay.b).unset(lay.lock).ld(r(1), lay.x).halt();
    program.push_proc(p1.assemble().expect("static program assembles"));

    CatalogEntry {
        name: "lazy-publish-racy",
        program,
        racy: true,
        description: "unprotected publish/read around disjoint critical sections (WCP-predictable)",
    }
}

/// The write/write sibling of [`lazy_publish_racy`]: P0 stores `x`
/// before its critical section, P1 stores `x` after its own. Same
/// structure — disjoint section bodies, so the only hb1 order between
/// the conflicting stores is the incidental lock handoff.
pub fn disjoint_update_racy() -> CatalogEntry {
    let lay = courier_layout();
    let mut program = Program::new("disjoint-update-racy", 5);

    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.x).lock(r(0), lay.lock).st(1, lay.a).unset(lay.lock).halt();
    program.push_proc(p0.assemble().expect("static program assembles"));

    let mut p1 = ProcBuilder::new();
    p1.lock(r(0), lay.lock).st(1, lay.b).unset(lay.lock).st(2, lay.x).halt();
    program.push_proc(p1.assemble().expect("static program assembles"));

    CatalogEntry {
        name: "disjoint-update-racy",
        program,
        racy: true,
        description: "conflicting stores around disjoint critical sections (WCP-predictable)",
    }
}

/// Three processors take the same lock for disjoint section bodies;
/// P0 publishes `x` before its section and P2 reads `x` after its own.
/// When the sections happen to run P0 → P1 → P2, hb1 orders the `x`
/// pair only through a *chain* of two incidental release→acquire edges
/// — both dropped by WCP, so the race is predicted across the chain.
pub fn section_chain_racy() -> CatalogEntry {
    let lay = courier_layout();
    let mut program = Program::new("section-chain-racy", 5);

    let mut p0 = ProcBuilder::new();
    p0.st(1, lay.x).lock(r(0), lay.lock).st(1, lay.a).unset(lay.lock).halt();
    program.push_proc(p0.assemble().expect("static program assembles"));

    let mut p1 = ProcBuilder::new();
    p1.lock(r(0), lay.lock).st(1, lay.b).unset(lay.lock).halt();
    program.push_proc(p1.assemble().expect("static program assembles"));

    let mut p2 = ProcBuilder::new();
    p2.lock(r(0), lay.lock).st(1, lay.c).unset(lay.lock).ld(r(1), lay.x).halt();
    program.push_proc(p2.assemble().expect("static program assembles"));

    CatalogEntry {
        name: "section-chain-racy",
        program,
        racy: true,
        description: "publish/read ordered only via a chain of disjoint critical sections",
    }
}

/// Every catalog entry, with small default sizes for parameterized
/// workloads.
pub fn all() -> Vec<CatalogEntry> {
    vec![
        fig1a(),
        fig1b(),
        work_queue_buggy(),
        work_queue_fixed(),
        producer_consumer(),
        producer_consumer_racy(),
        mutex_attempt_sync(),
        mutex_attempt_racy(),
        counter_racy(2, 2),
        counter_locked(2, 2),
        barrier(3),
        peterson_sync(),
        peterson_racy(),
        ticket_lock(3, 2),
        double_checked_init(),
        double_checked_init_racy(),
        ping_pong(),
        lazy_publish_racy(),
        disjoint_update_racy(),
        section_chain_racy(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmrd_sim::{run_sc, run_weak_hw, Fidelity, HwImpl, MemoryModel, RunConfig, WeakRoundRobin};
    use wmrd_trace::{NullSink, TraceBuilder};

    #[test]
    fn all_programs_validate() {
        for entry in all() {
            entry.program.validate().unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(!entry.description.is_empty());
            assert_eq!(entry.name, entry.program.name());
        }
    }

    #[test]
    fn all_programs_run_to_completion_on_sc() {
        for entry in all() {
            let mut sink = TraceBuilder::new(entry.program.num_procs());
            let out =
                run_sc(&entry.program, &mut WeakRoundRobin::new(), &mut sink, RunConfig::uniform())
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(out.halted, "{} did not halt", entry.name);
            assert!(sink.finish().validate().is_ok());
        }
    }

    #[test]
    fn all_programs_run_to_completion_on_weak_models() {
        for entry in all() {
            for model in MemoryModel::WEAK {
                let mut sink = NullSink::new();
                let out = run_weak_hw(
                    HwImpl::StoreBuffer,
                    &entry.program,
                    model,
                    Fidelity::Conditioned,
                    &mut WeakRoundRobin::new(),
                    &mut sink,
                    RunConfig::uniform(),
                )
                .unwrap_or_else(|e| panic!("{} on {model}: {e}", entry.name));
                assert!(out.halted, "{} on {model} did not halt", entry.name);
            }
        }
    }

    #[test]
    fn capacity_zero_round_robin_runs_to_completion() {
        // Capacity 0 drains whatever the picked processor has pending
        // before it steps, and steps it when nothing is pending: on the
        // store-buffer machine and on the SC machine alike.
        let entry = producer_consumer();
        for model in [MemoryModel::Wo, MemoryModel::RCsc] {
            let out = run_weak_hw(
                HwImpl::StoreBuffer,
                &entry.program,
                model,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::with_capacity(0),
                &mut NullSink::new(),
                RunConfig::uniform(),
            )
            .unwrap();
            assert!(out.halted, "{model}");
        }
        let mut sched = WeakRoundRobin::with_capacity(0);
        let out = run_sc(&entry.program, &mut sched, &mut NullSink::new(), RunConfig::uniform());
        assert!(out.unwrap().halted);
    }

    #[test]
    fn counter_locked_counts_correctly_everywhere() {
        let entry = counter_locked(3, 2);
        let lay = counter_layout();
        for model in MemoryModel::ALL {
            let mut sink = NullSink::new();
            let out = run_weak_hw(
                HwImpl::StoreBuffer,
                &entry.program,
                model,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::new(),
                &mut sink,
                RunConfig::uniform(),
            )
            .unwrap();
            assert_eq!(
                out.final_memory[lay.counter.index()],
                wmrd_trace::Value::new(6),
                "model {model}"
            );
        }
    }

    #[test]
    fn producer_consumer_delivers_payload() {
        let entry = producer_consumer();
        let lay = producer_consumer_layout();
        for model in MemoryModel::WEAK {
            let mut sink = NullSink::new();
            let out = run_weak_hw(
                HwImpl::StoreBuffer,
                &entry.program,
                model,
                Fidelity::Conditioned,
                &mut WeakRoundRobin::new(),
                &mut sink,
                RunConfig::uniform(),
            )
            .unwrap();
            assert_eq!(out.final_memory[lay.data.index()], wmrd_trace::Value::new(lay.payload));
        }
    }

    #[test]
    fn barrier_slots_all_written() {
        let entry = barrier(3);
        let lay = barrier_layout();
        let mut sink = NullSink::new();
        let out =
            run_sc(&entry.program, &mut WeakRoundRobin::new(), &mut sink, RunConfig::uniform())
                .unwrap();
        for i in 0..3 {
            assert_eq!(
                out.final_memory[(lay.slots_base + i) as usize],
                wmrd_trace::Value::new(i64::from(i) + 100)
            );
        }
        assert_eq!(out.final_memory[lay.count.index()], wmrd_trace::Value::new(3));
    }

    #[test]
    fn work_queue_layout_is_consistent() {
        let lay = work_queue_layout();
        let prog = work_queue_buggy().program;
        assert!(u32::try_from(lay.stale_addr).unwrap() >= lay.region_base);
        assert!(
            u32::try_from(lay.fresh_addr).unwrap() + lay.p2_chunk
                <= lay.region_base + lay.region_len
        );
        assert_eq!(prog.num_locations(), lay.region_base + lay.region_len);
        // The stale chunk overlaps P3's working area; the fresh one is clear.
        assert!(lay.stale_addr < i64::from(lay.region_base) + 8);
        assert!(lay.fresh_addr >= i64::from(lay.region_base) + 8);
    }

    #[test]
    fn weak_script_reproduces_stale_dequeue() {
        use wmrd_sim::WeakScript;
        use wmrd_trace::{OpRecorder, ProcId};
        let entry = work_queue_buggy();
        let lay = work_queue_layout();
        let mut sink = OpRecorder::new(3);
        let mut sched = WeakScript::new(work_queue_weak_script());
        let out = run_weak_hw(
            HwImpl::StoreBuffer,
            &entry.program,
            MemoryModel::Wo,
            Fidelity::Conditioned,
            &mut sched,
            &mut sink,
            RunConfig::uniform(),
        )
        .unwrap();
        assert!(out.halted);
        let ops = sink.finish();
        let p2_ops = ops.proc_ops(ProcId::new(1)).unwrap();
        // P2's reads: QEmpty (sees 0, the *new* value) then Q (sees the
        // *stale* address) — the paper's Figure 2b anomaly.
        let q_empty_read = p2_ops.iter().find(|o| o.loc == lay.q_empty).unwrap();
        assert_eq!(q_empty_read.value, wmrd_trace::Value::new(0));
        let q_read = p2_ops.iter().find(|o| o.loc == lay.q).unwrap();
        assert_eq!(q_read.value, wmrd_trace::Value::new(lay.stale_addr));
        // And P2 worked on the stale region, overlapping P3.
        let p2_writes: Vec<u32> = p2_ops
            .iter()
            .filter(|o| o.kind == wmrd_trace::AccessKind::Write && o.is_data())
            .map(|o| o.loc.addr())
            .collect();
        assert_eq!(p2_writes, vec![14, 15, 16, 17]);
    }

    #[test]
    fn mutex_sync_variant_has_sync_flags() {
        let sync_prog = mutex_attempt_sync().program;
        let racy_prog = mutex_attempt_racy().program;
        let sync_count = |p: &Program| p.procs().iter().flatten().filter(|i| i.is_sync()).count();
        assert_eq!(sync_count(&sync_prog), 4, "two sync flag ops per processor");
        assert_eq!(sync_count(&racy_prog), 0);
    }

    #[test]
    fn racy_flags_match_declared_intent() {
        // Sanity: every racy entry contains at least two processors
        // touching a common location with a write and without full
        // locking. (The precise check lives in the verify crate's
        // enumeration tests; this is a smoke test of the flags.)
        let racy: Vec<_> = all().into_iter().filter(|e| e.racy).map(|e| e.name).collect();
        assert_eq!(
            racy,
            vec![
                "fig1a",
                "work-queue-buggy",
                "producer-consumer-racy",
                "mutex-attempt-racy",
                "counter-racy",
                "peterson-racy",
                "double-checked-init-racy",
                "lazy-publish-racy",
                "disjoint-update-racy",
                "section-chain-racy",
            ]
        );
    }

    #[test]
    fn peterson_sync_counts_correctly_and_is_race_free() {
        use wmrd_core::PostMortem;
        let entry = peterson_sync();
        let lay = peterson_layout();
        for seed in 0..15 {
            let mut sink = wmrd_trace::MultiSink::new(
                wmrd_trace::TraceBuilder::new(2),
                wmrd_trace::NullSink::new(),
            );
            let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.0);
            let out = run_sc(&entry.program, &mut sched, &mut sink, RunConfig::uniform()).unwrap();
            assert_eq!(
                out.final_memory[lay.counter.index()],
                wmrd_trace::Value::new(2),
                "seed {seed}: both increments must land (mutual exclusion)"
            );
            let (builder, _) = sink.into_inner();
            let report = PostMortem::new(&builder.finish()).analyze().unwrap();
            assert!(report.is_race_free(), "seed {seed}:\n{report}");
        }
    }

    #[test]
    fn ticket_lock_is_fifo_and_race_free() {
        use wmrd_core::PostMortem;
        let entry = ticket_lock(3, 2);
        let lay = ticket_layout();
        for seed in 0..8 {
            let mut sink = wmrd_trace::TraceBuilder::new(3);
            let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.0);
            let out = run_sc(&entry.program, &mut sched, &mut sink, RunConfig::uniform()).unwrap();
            assert_eq!(out.final_memory[lay.counter.index()], wmrd_trace::Value::new(6));
            assert_eq!(out.final_memory[lay.next_ticket.index()], wmrd_trace::Value::new(6));
            assert_eq!(out.final_memory[lay.now_serving.index()], wmrd_trace::Value::new(6));
            let report = PostMortem::new(&sink.finish()).analyze().unwrap();
            assert!(report.is_race_free(), "seed {seed}:\n{report}");
        }
    }

    #[test]
    fn double_checked_init_initializes_once_and_never_races() {
        use wmrd_core::PostMortem;
        let entry = double_checked_init();
        let lay = dcl_layout();
        for seed in 0..10 {
            let mut sink = wmrd_trace::TraceBuilder::new(2);
            let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.0);
            let out = run_sc(&entry.program, &mut sched, &mut sink, RunConfig::uniform()).unwrap();
            assert_eq!(out.final_memory[lay.payload.index()], wmrd_trace::Value::new(42));
            assert_eq!(out.final_memory[lay.init_flag.index()], wmrd_trace::Value::new(1));
            let report = PostMortem::new(&sink.finish()).analyze().unwrap();
            assert!(report.is_race_free(), "seed {seed}:\n{report}");
        }
    }

    #[test]
    fn double_checked_init_racy_races_when_fast_path_taken() {
        use wmrd_core::PostMortem;
        let entry = double_checked_init_racy();
        let mut any_race = false;
        for seed in 0..20 {
            let mut sink = wmrd_trace::TraceBuilder::new(2);
            let mut sched = wmrd_sim::RandomWeakSched::new(seed, 0.0);
            run_sc(&entry.program, &mut sched, &mut sink, RunConfig::uniform()).unwrap();
            let report = PostMortem::new(&sink.finish()).analyze().unwrap();
            if !report.is_race_free() {
                any_race = true;
            }
        }
        assert!(any_race, "the DCL bug must surface under some schedule");
    }
}
