//! Golden test for the Section 6 synchronization argument: an APS2-style
//! system runs its modules in lock step behind a daisy-chained trigger,
//! so every round costs each module the trigger's hop latency to reach
//! it, and the total stall grows faster than the module count. (QuMA
//! has no such stall: all channels share one deterministic timeline.)

use quma_baseline::prelude::*;
use quma_qsim::gates::PrimitiveGate;

const ROUNDS: usize = 10;
const HOP_SAMPLES: u64 = 8;

/// `n_modules` identical modules, each playing one `X180` waveform per
/// trigger for `ROUNDS` lock-step rounds.
fn lock_step_system(n_modules: usize) -> Aps2System {
    let compiler = SequenceCompiler::paper_default();
    let mut program = Vec::new();
    for _ in 0..ROUNDS {
        program.push(OutputInstruction::WaitTrigger);
        program.push(OutputInstruction::Play { waveform: 0 });
        program.push(OutputInstruction::Idle { samples: 380 });
    }
    program.push(OutputInstruction::Halt);
    let modules = (0..n_modules)
        .map(|_| {
            let mut bank = WaveformBank::new();
            bank.add(compiler.compile(&[PrimitiveGate::X180]));
            Aps2Module::new(program.clone(), bank)
        })
        .collect();
    Aps2System::new(modules, HOP_SAMPLES)
}

#[test]
fn lock_step_stalls_grow_faster_than_the_module_count() {
    for (n_modules, want) in [(2, 312), (4, 1232), (8, 4896)] {
        let stats = lock_step_system(n_modules).run().expect("runs");
        assert_eq!(stats.triggers_sent, ROUNDS as u64, "{n_modules} modules");
        assert!(stats.modules.iter().all(|m| m.plays == ROUNDS as u64));
        let total: u64 = stats.modules.iter().map(|m| m.stall_samples).sum();
        assert_eq!(total, want, "stall samples across {n_modules} modules");
    }
}
