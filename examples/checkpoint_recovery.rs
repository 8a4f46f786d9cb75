//! Checkpoint, crash, roll back, finish anyway: the recovery subsystem
//! live. An engine run loses its sink to an outage mid-flight and is
//! replayed to the clean completion time by the supervisor; a
//! word-level SORT batch laced with erasures retries failed problems
//! from inter-problem checkpoints; and the replayed windows land as
//! `RECOVERY` spans in a Perfetto trace.
//!
//! Run with: `cargo run -p orthotrees-bench --example checkpoint_recovery`

use orthotrees::obs::chrome::chrome_trace_with_flows;
use orthotrees::otn::{self, Otn};
use orthotrees::FaultPlan;
use orthotrees_analysis::recovery;
use orthotrees_sim::Snapshot;
use std::fs;

fn main() {
    let seed = 2026;

    // -----------------------------------------------------------------
    // 1) A checkpoint is a document: cut a run mid-flight, render the
    //    snapshot to JSON text, restore it into a fresh engine.
    // -----------------------------------------------------------------
    println!("checkpointing a word-level OTN between sorting problems…\n");
    let mut net = Otn::for_sorting(16).expect("power-of-two sort size");
    let xs: Vec<i64> = (0..16).rev().collect();
    let _ = otn::sort::sort(&mut net, &xs).expect("matched input length");
    let text = net.checkpoint_text();
    println!(
        "  {}, {} bytes of JSON at t = {}",
        orthotrees::checkpoint::SCHEMA,
        text.len(),
        net.clock().now()
    );
    let snap = orthotrees::checkpoint::Snapshot::parse(&text).expect("own render must parse");
    let mut replica = Otn::for_sorting(16).expect("power-of-two sort size");
    let _ = otn::sort::sort(&mut replica, &(0..16).collect::<Vec<i64>>()).unwrap();
    replica.restore(&snap).expect("matching shape restores");
    println!("  restored into a diverged replica: clocks now agree = {}", {
        replica.clock() == net.clock()
    });

    // -----------------------------------------------------------------
    // 2) Supervised engine recovery: an outage swallows every delivery
    //    to the sink; the supervisor detects the incomplete quiescence,
    //    rolls back, heals, and replays to the clean completion time.
    // -----------------------------------------------------------------
    println!("\nrunning SUM-LEAFTOROOT with its root sink unplugged mid-run…\n");
    match recovery::engine_outage_recovery(16, seed) {
        Ok((report, rec)) => {
            print!("{}", recovery::recovery_table(&[("SUM-OUTAGE", 16, report)]));
            let trace = chrome_trace_with_flows(&rec).render();
            let path = "target/checkpoint_recovery.trace.json";
            match fs::write(path, trace) {
                Ok(()) => {
                    println!("\n  Perfetto trace with the RECOVERY span(s) written to {path}");
                }
                Err(e) => println!("\n  could not write {path}: {e}"),
            }
        }
        Err(e) => println!("  supervision failed: {e}"),
    }

    // -----------------------------------------------------------------
    // 3) Chaos soak at the word level: a 12-problem SORT batch under an
    //    erasure-dense fault plan, each failed problem retried from the
    //    inter-problem checkpoint with a fresh fault epoch.
    // -----------------------------------------------------------------
    println!("\nsoaking a 12-problem SORT batch in word faults…\n");
    match recovery::otn_soak_recovery(16, 12, seed) {
        Ok(report) => {
            print!("{}", recovery::recovery_table(&[("SOAK-OTN", 16, report)]));
            println!(
                "\n  every problem came out sorted; replayed bits are the wall-clock price,\n\
                 \x20 the simulated completion time is identical to a crash-free batch."
            );
        }
        Err(e) => println!("  soak failed: {e}"),
    }

    // -----------------------------------------------------------------
    // 4) Snapshots police their own format: tampering is rejected with
    //    a typed error, never a mangled engine.
    // -----------------------------------------------------------------
    println!("\ntampering with an engine snapshot…");
    let mut sacrifice = orthotrees_sim::Engine::new(orthotrees_vlsi::DelayModel::Logarithmic)
        .with_fault_plan(FaultPlan::new(seed));
    let _ = sacrifice.add_node(Box::new(Idle));
    let bad =
        sacrifice.snapshot().render().replace("orthotrees-snapshot/v1", "orthotrees-snapshot/v9");
    match Snapshot::parse(&bad) {
        Err(e) => println!("  caught: {e}"),
        Ok(_) => println!("  unexpectedly accepted a wrong schema tag"),
    }
}

/// A node that does nothing (shape filler for the tamper demo).
struct Idle;
impl orthotrees_sim::NodeBehavior for Idle {
    fn on_bit(
        &mut self,
        _: orthotrees_vlsi::BitTime,
        _: orthotrees_sim::PortId,
        _: orthotrees_sim::Bit,
        _: &mut orthotrees_sim::Outbox,
    ) {
    }
}
