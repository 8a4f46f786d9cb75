//! The Table I face-off, live: sort the same inputs on all five networks
//! under the same cost model and watch area, time and AT² diverge exactly
//! the way the paper's asymptotics say they should.
//!
//! Run with: `cargo run -p orthotrees-bench --example network_faceoff`
//!
//! Pass `--trace <path>` to also write a Chrome-trace of the instrumented
//! `SORT-OTN` run at the largest size — open the file at
//! <https://ui.perfetto.dev> to see the paper's primitives as nested
//! spans on the simulated clock (1 τ rendered as 1 µs).

use orthotrees::obs::chrome::chrome_trace;
use orthotrees::wordnet::Tree;
use orthotrees_analysis::tables::{paper, ReproTable};
use orthotrees_analysis::{obsreport, sweep};

/// The `--trace <path>` argument, if present.
fn trace_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("--trace needs a path argument");
                std::process::exit(2);
            }));
        }
    }
    None
}

fn main() {
    let ns = [16usize, 64, 256];
    let seed = 2026;

    println!("sorting the same {} workloads on every network…\n", ns.len());
    let sweeps = vec![
        sweep::sort_mesh(&ns, seed, false),
        sweep::sort_psn(&ns, seed, false),
        sweep::sort_ccc(&ns, seed, false),
        sweep::sort_otn(&ns, seed, false),
        sweep::sort_otc(&ns, seed),
    ];
    let table =
        ReproTable::build("Table I", "sorting (logarithmic-delay model)", paper::table1(), sweeps);
    print!("{}", table.render());

    println!("\npaper's asymptotic AT² ranking: {:?}", table.paper_ranking());
    println!("measured AT² ranking at N = {}:", ns.last().unwrap());
    for (rank, (name, at2)) in table.measured_ranking().into_iter().enumerate() {
        println!("  {}. {name:<5} {at2:.3e}", rank + 1);
    }
    println!(
        "\nreading: the mesh wins sorting outright (its optimal N² log² N is the paper's \
         point of reference); among the fast networks the OTC matches the PSN/CCC's \
         N² log⁴ N while the plain OTN pays N² log⁶ N for its simplicity."
    );

    if let Some(path) = trace_path() {
        let n = *ns.last().unwrap();
        let (out, rec) = obsreport::sort_observed::<Tree>(n, seed);
        match std::fs::write(&path, chrome_trace(&rec).render()) {
            Ok(()) => println!(
                "\nChrome-trace of SORT-OTN (N = {n}, completion {} bit-times) written to \
                 {path};\nopen it at https://ui.perfetto.dev",
                out.time.get()
            ),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
