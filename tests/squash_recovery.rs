//! Adversarial recovery tests: programs engineered to force control
//! mispredictions, memory-order violations, ARB capacity stalls and deep
//! call/return chains must still produce exactly the sequential results.

use ms_asm::{assemble, AsmMode};
use ms_isa::Reg;
use multiscalar::trace::NullSink;
use multiscalar::{FaultInjector, NoAccounting, Processor, ScalarProcessor, SimConfig};

fn run_both(src: &str, units: usize) -> (Processor, ScalarProcessor) {
    let ms = assemble(src, AsmMode::Multiscalar).expect("ms assembles");
    let sc = assemble(src, AsmMode::Scalar).expect("scalar assembles");
    let mut p =
        Processor::new(ms, SimConfig::multiscalar(units).max_cycles(20_000_000)).expect("build ms");
    p.run().expect("ms run");
    let mut s =
        ScalarProcessor::new(sc, SimConfig::scalar().max_cycles(20_000_000)).expect("build sc");
    s.run().expect("scalar run");
    (p, s)
}

#[test]
fn alternating_task_successors_force_mispredicts_and_recover() {
    // The loop alternates between two continuation tasks based on parity:
    // the pattern is learnable, but the cold predictor mispredicts first.
    let src = "
.data
tally: .word 0, 0
.text
main:
.task targets=STEP create=$16,$20
INIT:
    li!f $16, 64
    li!f $20, 0
    b!s  STEP
.task targets=EVEN,ODD create=$20
STEP:
    addiu!f $20, $20, 1
    andi $9, $20, 1
    bne!st $9, $0, ODD
    j!s  EVEN
.task targets=STEP,FIN create=
EVEN:
    la  $10, tally
    lw  $11, 0($10)
    addiu $11, $11, 1
    sw  $11, 0($10)
    bne!st $20, $16, STEP
    j!s FIN
.task targets=STEP,FIN create=
ODD:
    la  $10, tally
    lw  $11, 4($10)
    addiu $11, $11, 2
    sw  $11, 4($10)
    bne!st $20, $16, STEP
    j!s FIN
.task targets=halt create=
FIN:
    halt
";
    let (p, s) = run_both(src, 4);
    let tally = p.program().symbol("tally").unwrap();
    assert_eq!(p.memory().read_le(tally, 4), 32); // evens
    assert_eq!(p.memory().read_le(tally + 4, 4), 64); // odds * 2
    assert_eq!(s.memory().read_le(tally, 4), 32);
    assert_eq!(s.memory().read_le(tally + 4, 4), 64);
}

#[test]
fn serial_memory_chain_recovers_through_violations() {
    // Every task increments the same cell: maximal memory-order hazard.
    let src = "
.data
cell: .word 0
.text
main:
.task targets=LOOP create=$16,$20
INIT:
    li!f $16, 100
    li!f $20, 0
    b!s  LOOP
.task targets=LOOP,FIN create=$20
LOOP:
    addiu!f $20, $20, 1
    la  $9, cell
    lw  $10, 0($9)
    addiu $10, $10, 1
    sw  $10, 0($9)
    bne!s $20, $16, LOOP
.task targets=halt create=
FIN:
    halt
";
    for units in [2usize, 4, 8] {
        let (p, _) = run_both(src, units);
        let cell = p.program().symbol("cell").unwrap();
        assert_eq!(p.memory().read_le(cell, 4), 100, "@{units} units");
    }
}

#[test]
fn tiny_arb_forces_capacity_stalls_but_stays_correct() {
    // Each task writes a wide swath of memory; an ARB with very few lines
    // per bank must stall speculative units (never the head) and still
    // finish correctly.
    let src = "
.data
buf: .space 4096
.text
main:
.task targets=LOOP create=$16,$20,$22
INIT:
    li!f $16, 16
    li!f $20, 0
    la!f $22, buf
    b!s  LOOP
.task targets=LOOP,FIN create=$20,$22
LOOP:
    addiu!f $20, $20, 1
    move    $8, $22          ; local copy (paper Section 3.2.2), then
    addiu!f $22, $22, 256    ; forward the cursor early so tasks overlap
    li   $9, 0
FILL:
    addu $10, $8, $9
    sw   $20, 0($10)
    addiu $9, $9, 4
    slti $11, $9, 256
    bne  $11, $0, FILL
    bne!s $20, $16, LOOP
.task targets=halt create=
FIN:
    halt
";
    let ms = assemble(src, AsmMode::Multiscalar).unwrap();
    let mut cfg = SimConfig::multiscalar(4);
    cfg.arb_capacity = 4; // 4 lines per bank: pathologically small
    let mut p = Processor::new(ms, cfg).unwrap();
    let stats = p.run().expect("run with tiny ARB");
    let buf = p.program().symbol("buf").unwrap();
    for i in 0..16u64 {
        for off in (0..256u32).step_by(4) {
            assert_eq!(p.memory().read_le(buf + i as u32 * 256 + off, 4), i + 1);
        }
    }
    assert!(stats.arb.full_events > 0, "expected ARB capacity pressure");
    assert!(stats.breakdown.no_comp_arb > 0, "expected ARB stall cycles in the breakdown");
}

#[test]
fn call_return_task_chains_use_the_ras() {
    // A chain of call tasks: main -> f -> g, with returns predicted
    // through the sequencer's return-address stack.
    let src = "
.data
res: .word 0
.text
main:
.task targets=F create=$4,$31
    li!f $4, 5
    jal!f!s F
.task targets=halt create=
BACK:
    la  $9, res
    sw  $2, 0($9)
    halt
.task targets=G create=$4,$29,$31
F:
    addiu!f $29, $29, -8     ; non-leaf: save the caller's return address
    sd      $31, 0($29)
    addiu!f $4, $4, 1
    jal!f!s G
.task targets=ret create=$2,$29
FBACK:
    addiu!f $2, $2, 100
    ld      $31, 0($29)      ; restore the caller's return address
    addiu!f $29, $29, 8
    jr!s $31
.task targets=ret create=$2
G:
    mul!f $2, $4, $4
    jr!s $31
";
    let (p, s) = run_both(src, 4);
    let res = p.program().symbol("res").unwrap();
    // g computes (5+1)^2 = 36; fback adds 100 -> 136.
    assert_eq!(p.memory().read_le(res, 4), 136);
    assert_eq!(s.memory().read_le(res, 4), 136);
    assert_eq!(p.final_regs().unwrap()[2], s.reg(Reg::int(2)));
}

#[test]
fn store_load_forwarding_across_tasks_is_exact() {
    // Producer task stores a pattern; consumer tasks load with different
    // widths and alignments — the ARB must forward bytes exactly.
    let src = "
.data
slot: .dword 0
out:  .space 64
.text
main:
.task targets=PROD create=$22
INIT:
    la!f $22, out
    b!s  PROD
.task targets=CONS create=
PROD:
    la  $9, slot
    li  $10, 0x1234
    sll $10, $10, 16
    li  $11, 0x5678
    or  $10, $10, $11       ; 0x12345678
    sw  $10, 0($9)
    li  $11, -2
    sb  $11, 5($9)
    b!s CONS
.task targets=halt create=
CONS:
    la  $9, slot
    lw  $12, 0($9)
    sw  $12, 0($22)
    lbu $12, 1($9)
    sw  $12, 4($22)
    lh  $12, 4($9)
    sw  $12, 8($22)
    ld  $12, 0($9)
    sd  $12, 16($22)
    halt
";
    let (p, s) = run_both(src, 4);
    let out = p.program().symbol("out").unwrap();
    for off in [0u32, 4, 8, 16] {
        assert_eq!(
            p.memory().read_le(out + off, 8),
            s.memory().read_le(out + off, 8),
            "offset {off}"
        );
    }
    assert_eq!(p.memory().read_le(out, 4), 0x1234_5678);
    assert_eq!(p.memory().read_le(out + 4, 4), 0x56);
    // lh at 4: bytes are [00, fe] -> sign-extended 0xfffffe00 truncated to u32.
    assert_eq!(p.memory().read_le(out + 8, 4), 0xffff_fe00);
}

/// Forces the sequencer wrong at *every* task boundary with a choice:
/// whatever the predictor says, pick the next target instead.
struct AlwaysWrong;

impl FaultInjector for AlwaysWrong {
    fn override_prediction(
        &mut self,
        _now: u64,
        _order: u64,
        _entry: u32,
        ntargets: usize,
        predicted: usize,
    ) -> usize {
        if ntargets > 1 {
            (predicted + 1) % ntargets
        } else {
            predicted
        }
    }
}

#[test]
fn forced_mispredict_at_every_boundary_still_sequential() {
    // The worst case for control speculation: every multi-target boundary
    // is predicted wrong, so every such task is squashed and re-dispatched
    // down the resolved path. Architectural results must be untouched, at
    // any unit count.
    let src = "
.data
tally: .word 0, 0
.text
main:
.task targets=STEP create=$16,$20
INIT:
    li!f $16, 24
    li!f $20, 0
    b!s  STEP
.task targets=EVEN,ODD create=$20
STEP:
    addiu!f $20, $20, 1
    andi $9, $20, 1
    bne!st $9, $0, ODD
    j!s  EVEN
.task targets=STEP,FIN create=
EVEN:
    la  $10, tally
    lw  $11, 0($10)
    addiu $11, $11, 1
    sw  $11, 0($10)
    bne!st $20, $16, STEP
    j!s FIN
.task targets=STEP,FIN create=
ODD:
    la  $10, tally
    lw  $11, 4($10)
    addiu $11, $11, 2
    sw  $11, 4($10)
    bne!st $20, $16, STEP
    j!s FIN
.task targets=halt create=
FIN:
    halt
";
    let sc = assemble(src, AsmMode::Scalar).unwrap();
    let mut s = ScalarProcessor::new(sc, SimConfig::scalar().max_cycles(20_000_000)).unwrap();
    s.run().expect("scalar run");

    for units in [2usize, 4, 8] {
        let ms = assemble(src, AsmMode::Multiscalar).unwrap();
        let cfg = SimConfig::multiscalar(units).max_cycles(20_000_000);
        let mut p = Processor::with_parts(ms, cfg, NullSink, AlwaysWrong, NoAccounting).unwrap();
        let stats = p.run().expect("ms run under forced mispredicts");
        assert!(stats.tasks_squashed > 0, "@{units}: the sweep must actually squash");
        let tally = p.program().symbol("tally").unwrap();
        for off in [0u32, 4] {
            assert_eq!(
                p.memory().read_le(tally + off, 4),
                s.memory().read_le(tally + off, 4),
                "@{units} units, offset {off}"
            );
        }
    }
}
