//! Fault injection, detection, retry and graceful degradation, live: a
//! degradation table for SORT under rising word-fault rates, a dead-IP
//! reroute, and the run watchdog catching a wired-in feedback loop.
//!
//! Run with: `cargo run -p orthotrees-bench --example fault_tolerance`

use orthotrees::otn::{self, Otn};
use orthotrees::wordnet::{Cycles, Tree};
use orthotrees::{FaultPlan, TreeAxis};
use orthotrees_analysis::faults;
use orthotrees_sim::{Bit, Engine, NodeBehavior, Outbox, PortId, RunBudget};
use orthotrees_vlsi::{BitTime, DelayModel};

fn main() {
    let seed = 2026;
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];

    // -----------------------------------------------------------------
    // 1) Degradation tables: accuracy and slowdown vs word-fault rate.
    // -----------------------------------------------------------------
    println!("sweeping SORT under seeded word faults…\n");
    print!("{}", faults::sort_faults::<Tree>(64, seed, &rates).render());
    println!();
    print!("{}", faults::sort_faults::<Cycles>(64, seed, &rates).render());
    println!(
        "\nreading: single flips and drops are caught by parity/framing and repaired by\n\
         retransmission (the slowdown column); double flips balance the parity and get\n\
         through silently (the accuracy column); words still faulty after every retry\n\
         are erased, never delivered corrupt (the missing column)."
    );

    // -----------------------------------------------------------------
    // 2) Graceful degradation around dead internal processors.
    // -----------------------------------------------------------------
    println!("\nkilling internal processors of a 16x16 OTN…\n");
    let xs: Vec<i64> = (0..16).rev().collect();

    // One dead IP whose sibling is alive: traffic reroutes laterally.
    let mut net = Otn::for_sorting(16).unwrap();
    let report = net.install_fault_plan(FaultPlan::new(seed).with_dead_ip(TreeAxis::Rows, 3, 1, 0));
    println!(
        "  dead IP (row tree 3, level 1, subtree 0): rerouted through {} sibling(s), {} dark leaves",
        report.rerouted.len(),
        report.dark.len()
    );
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    println!("  sort under reroute: output {:?}, missing {:?}", out.sorted, out.missing);

    // A dead sibling *pair* cannot reroute: their leaves go dark, and the
    // sort reports which output positions never received a word.
    let mut net = Otn::for_sorting(16).unwrap();
    let report = net.install_fault_plan(
        FaultPlan::new(seed).with_dead_ip(TreeAxis::Rows, 3, 1, 0).with_dead_ip(
            TreeAxis::Rows,
            3,
            1,
            1,
        ),
    );
    let dark: Vec<_> = report.dark.iter().map(|d| (d.tree, d.leaf)).collect();
    println!("\n  dead sibling pair (row tree 3, level 1): dark (tree, leaf) = {dark:?}");
    let out = otn::sort::sort(&mut net, &xs).unwrap();
    println!("  sort degrades instead of aborting: missing output ranks {:?}", out.missing);

    // -----------------------------------------------------------------
    // 3) The run watchdog: a feedback loop trips the event budget
    //    instead of hanging the simulation.
    // -----------------------------------------------------------------
    println!("\nwiring two repeaters into a loop and running with a 10_000-event budget…");
    let mut e = Engine::new(DelayModel::Constant);
    let src = e.add_node(Box::new(OneShot));
    let a = e.add_node(Box::new(Echo));
    let b = e.add_node(Box::new(Echo));
    e.connect(src, PortId(0), a, PortId(0), 1);
    e.connect(a, PortId(0), b, PortId(0), 1);
    e.connect(b, PortId(0), a, PortId(0), 1);
    let mut e = e.with_budget(RunBudget::events(10_000));
    match e.try_run() {
        Err(err) => println!("  caught: {err}"),
        Ok(t) => println!("  unexpectedly quiescent at t = {t}"),
    }
}

/// Emits a single bit at start.
struct OneShot;
impl NodeBehavior for OneShot {
    fn on_start(&mut self, out: &mut Outbox) {
        out.send(PortId(0), Bit { value: true, index: 0 });
    }
    fn on_bit(&mut self, _: BitTime, _: PortId, _: Bit, _: &mut Outbox) {}
}

/// Forwards every arriving bit — two of these in a cycle never quiesce.
struct Echo;
impl NodeBehavior for Echo {
    fn on_bit(&mut self, _: BitTime, _: PortId, bit: Bit, out: &mut Outbox) {
        out.send(PortId(0), bit);
    }
}
