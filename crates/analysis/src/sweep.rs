//! Measured `(N, area, time)` sweeps — one per network × problem cell of
//! the paper's tables.
//!
//! Times come from the simulators' clocks; areas from the layout crate's
//! closed forms (verified against the constructed layouts in that crate's
//! tests). Each sweep records its *provenance*:
//!
//! * `Measured` — algorithm simulated step by step under the cost model;
//! * `Emulated` — OTN run re-priced on the OTC by the §V simulation
//!   argument (`orthotrees::otc::emulate`);
//! * `Analytic` — the paper's closed form evaluated (used only for the
//!   PSN/CCC matrix & graph rows, whose `N³`-processor constructions are
//!   out of scope per DESIGN.md; tables label these rows).

use crate::workloads::{self, Word};
use orthotrees::otc::{self, Otc};
use orthotrees::otn::{self, Otn};
use orthotrees::{BitTime, CostModel};
use orthotrees_baselines::{ccc::Ccc, mesh, psn::Psn};
use orthotrees_layout::mesh::MeshLayout;
use orthotrees_layout::modeled::{ModeledLayout, ModeledNetwork};
use orthotrees_layout::otc::OtcLayout;
use orthotrees_layout::otn::OtnLayout;
use orthotrees_vlsi::{log2_ceil, Area, Complexity};

/// One measured point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Problem size.
    pub n: usize,
    /// Simulated time.
    pub time: BitTime,
    /// Chip area.
    pub area: Area,
}

impl Sample {
    /// The `area · time²` figure of merit.
    pub fn at2(&self) -> f64 {
        self.area.at2(self.time)
    }
}

/// Where a sweep's numbers come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Simulated step by step under the cost model.
    Measured,
    /// OTN run re-priced on the OTC (§V argument).
    Emulated,
    /// Paper's closed form evaluated.
    Analytic,
}

impl Provenance {
    /// Short tag for table rendering.
    pub fn tag(self) -> &'static str {
        match self {
            Provenance::Measured => "measured",
            Provenance::Emulated => "emulated",
            Provenance::Analytic => "analytic",
        }
    }
}

/// A `(N, area, time)` series for one network on one problem.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Network name as the paper's tables write it.
    pub network: String,
    /// Problem name.
    pub problem: String,
    /// Number provenance.
    pub provenance: Provenance,
    /// The measured points, ascending in `n`.
    pub samples: Vec<Sample>,
}

impl Sweep {
    /// The sweep of `network` on `problem` with one `sample(n)` per
    /// problem size in `ns`, in order.
    pub(crate) fn new(
        network: &str,
        problem: &str,
        provenance: Provenance,
        ns: &[usize],
        sample: impl FnMut(usize) -> Sample,
    ) -> Sweep {
        Sweep {
            network: network.into(),
            problem: problem.into(),
            provenance,
            samples: ns.iter().copied().map(sample).collect(),
        }
    }

    /// Fitted time exponents, if the sweep has enough points.
    pub fn fit_time(&self) -> Option<crate::fit::Fit> {
        crate::fit::fit_poly_log(&self.samples)
    }

    /// Fitted AT² exponents.
    pub fn fit_at2(&self) -> Option<crate::fit::Fit> {
        crate::fit::fit_at2(&self.samples)
    }

    /// The sample at problem size `n`, if present.
    pub fn at(&self, n: usize) -> Option<&Sample> {
        self.samples.iter().find(|s| s.n == n)
    }

    /// The largest-`n` sample.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.last()
    }
}

fn graph_word_bits(n: usize) -> u32 {
    2 * log2_ceil(n as u64).max(1) + 2
}

/// The sorting problem label; `unit` marks the §VII.D unit-cost model.
fn sorting(unit: bool) -> &'static str {
    if unit {
        "sorting (unit-cost)"
    } else {
        "sorting"
    }
}

// ---------------------------------------------------------------------
// Sorting sweeps (Tables I and IV).
// ---------------------------------------------------------------------

/// SORT-OTN over `ns`; `unit` switches to the §VII.D unit-cost model
/// (Table IV).
pub fn sort_otn(ns: &[usize], seed: u64, unit: bool) -> Sweep {
    Sweep::new("OTN", sorting(unit), Provenance::Measured, ns, |n| {
        let model = if unit { CostModel::unit_delay(n) } else { CostModel::thompson(n) };
        let mut net = Otn::new(n, n, model).expect("power-of-two n");
        let xs = workloads::distinct_words(n, seed);
        let out = otn::sort::sort(&mut net, &xs).expect("matched size");
        debug_assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        Sample { n, time: out.time, area: OtnLayout::predicted_area_default(n) }
    })
}

/// SORT-OTC over `ns` (Thompson model; the OTC row of Table I).
pub fn sort_otc(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTC", sorting(false), Provenance::Measured, ns, |n| {
        let mut net = Otc::for_sorting(n).expect("n >= 4 power of two");
        let xs = workloads::distinct_words(n, seed);
        let out = otc::sort::sort(&mut net, &xs).expect("matched size");
        debug_assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        let (m, l) = Otc::dims_for(n).expect("validated");
        let w = log2_ceil(n as u64).max(1);
        Sample { n, time: out.time, area: OtcLayout::predicted_area(m, l, w) }
    })
}

/// Mesh shear sort over the even powers of two in `ns`; `unit` switches to
/// the §VII.D unit-cost model (the mesh's short wires make the *delay*
/// model irrelevant, but unit-cost word ops still drop the `w` factor).
pub fn sort_mesh(ns: &[usize], seed: u64, unit: bool) -> Sweep {
    let square: Vec<usize> =
        ns.iter().copied().filter(|&n| log2_ceil(n as u64).is_multiple_of(2)).collect();
    Sweep::new("Mesh", sorting(unit), Provenance::Measured, &square, |n| {
        let side = 1usize << (log2_ceil(n as u64) / 2);
        let model = if unit { CostModel::unit_delay(n) } else { CostModel::thompson(n) };
        let mut net = mesh::Mesh::new(side, side, model).expect("positive side");
        let xs = workloads::distinct_words(n, seed);
        let out = mesh::sort::shear_sort(&mut net, &xs).expect("matched size");
        debug_assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        let w = log2_ceil(n as u64).max(1);
        Sample { n, time: out.time, area: MeshLayout::predicted_area(side, side, w) }
    })
}

/// PSN shuffle-exchange bitonic sort over `ns`.
pub fn sort_psn(ns: &[usize], seed: u64, unit: bool) -> Sweep {
    Sweep::new("PSN", sorting(unit), Provenance::Measured, ns, |n| {
        let mut net = Psn::new(n).expect("power of two >= 4");
        if unit {
            net.set_model(CostModel::unit_delay(n));
        }
        let xs = workloads::distinct_words(n, seed);
        let out = net.sort(&xs).expect("matched size");
        debug_assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        let area = ModeledLayout::new(ModeledNetwork::PerfectShuffle, n).expect("validated").area();
        Sample { n, time: out.time, area }
    })
}

/// CCC (hypercube-emulation) bitonic sort over `ns`.
pub fn sort_ccc(ns: &[usize], seed: u64, unit: bool) -> Sweep {
    Sweep::new("CCC", sorting(unit), Provenance::Measured, ns, |n| {
        let mut net = Ccc::new(n).expect("power of two >= 4");
        if unit {
            net.set_model(CostModel::unit_delay(n));
        }
        let xs = workloads::distinct_words(n, seed);
        let out = net.sort(&xs).expect("matched size");
        debug_assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        let area =
            ModeledLayout::new(ModeledNetwork::CubeConnectedCycles, n).expect("validated").area();
        Sample { n, time: out.time, area }
    })
}

// ---------------------------------------------------------------------
// Boolean matrix multiplication sweeps (Table II). `ns` are matrix sides.
// ---------------------------------------------------------------------

/// Boolean Cannon on the mesh over matrix sides `ns`.
pub fn boolmm_mesh(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("Mesh", "boolean matmul", Provenance::Measured, ns, |n| {
        let a = workloads::grid_to_rows(&workloads::random_bool_matrix(n, 0.3, seed));
        let b = workloads::grid_to_rows(&workloads::random_bool_matrix(n, 0.3, seed ^ 1));
        let out = mesh::matmul::cannon_bool_matmul(&a, &b).expect("square");
        Sample { n, time: out.time, area: MeshLayout::predicted_area(n, n, 1) }
    })
}

/// Boolean multiplication on the wide `(N²×N)` OTN over matrix sides `ns`.
pub fn boolmm_otn(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTN", "boolean matmul", Provenance::Measured, ns, |n| {
        let a = workloads::random_bool_matrix(n, 0.3, seed);
        let b = workloads::random_bool_matrix(n, 0.3, seed ^ 1);
        let out = otn::matmul::bool_matmul_wide(&a, &b).expect("power-of-two side");
        let w = log2_ceil((n * n) as u64).max(1);
        Sample { n, time: out.time, area: OtnLayout::predicted_area_rect(n * n, n, w) }
    })
}

/// The OTC row of Table II: the wide-OTN run re-priced at the OTC's area
/// (same time by the §V argument; `(N²/log N²)`-per-side cycles).
pub fn boolmm_otc(ns: &[usize], seed: u64) -> Sweep {
    boolmm_otc_of(&boolmm_otn(ns, seed))
}

/// [`boolmm_otc`] from the [`boolmm_otn`] sweep `otn` already measured:
/// each of its samples keeps its time and takes the OTC's area.
pub(crate) fn boolmm_otc_of(otn: &Sweep) -> Sweep {
    let ns: Vec<usize> = otn.samples.iter().map(|s| s.n).collect();
    Sweep::new("OTC", "boolean matmul", Provenance::Emulated, &ns, |n| {
        let time = otn.at(n).expect("one of the sweep's own sizes").time;
        let (m, l) = Otc::dims_for((n * n).max(4)).expect("validated");
        let w = log2_ceil((n * n) as u64).max(1);
        Sample { n, time, area: OtcLayout::predicted_area(m, l, w) }
    })
}

/// Integer multiplication on Leighton's 3-D mesh of trees (paper §VII.B):
/// unpipelined Θ(polylog) time on a modeled Θ(N⁴) layout.
pub fn matmul_mot3d(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("3D-MOT", "boolean matmul", Provenance::Measured, ns, |n| {
        let a = workloads::random_bool_matrix(n, 0.3, seed);
        let b = workloads::random_bool_matrix(n, 0.3, seed ^ 1);
        let out = orthotrees::mot3d::matmul(&a, &b).expect("power-of-two side");
        Sample { n, time: out.time, area: orthotrees::mot3d::Mot3d::predicted_area(n) }
    })
}

// ---------------------------------------------------------------------
// Graph sweeps (Table III).
// ---------------------------------------------------------------------

/// Connected components on the OTN over vertex counts `ns` (random
/// `G(n, p)` with `p` scaled to keep ~2 edges per vertex, a hard regime
/// with many merges).
pub fn cc_otn(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTN", "connected components", Provenance::Measured, ns, |n| {
        let adj = workloads::gnp_adjacency(n, (2.0 / n as f64).min(0.5), seed);
        let out = otn::graph::cc::connected_components(&adj).expect("power-of-two n");
        debug_assert_eq!(out.labels, otn::graph::cc::reference_components(&adj));
        Sample { n, time: out.time, area: OtnLayout::predicted_area(n, graph_word_bits(n)) }
    })
}

/// The OTC row of Table III: the §VI.B *direct* OTC implementation
/// (`orthotrees::otc::cc`), measured operation by operation.
pub fn cc_otc(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTC", "connected components", Provenance::Measured, ns, |n| {
        let adj = workloads::gnp_adjacency(n, (2.0 / n as f64).min(0.5), seed);
        let out = otc::cc::connected_components(&adj).expect("power-of-two n >= 4");
        let (m, l) = Otc::dims_for(n).expect("validated");
        Sample { n, time: out.time, area: OtcLayout::predicted_area(m, l, graph_word_bits(n)) }
    })
}

/// Connected components on the mesh (GKT timing) over `ns`.
pub fn cc_mesh(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("Mesh", "connected components", Provenance::Measured, ns, |n| {
        let adj = workloads::gnp_adjacency(n, (2.0 / n as f64).min(0.5), seed);
        let rows = workloads::grid_to_rows(&adj);
        let out = mesh::closure::connected_components(&rows).expect("square");
        let w = log2_ceil(n as u64).max(1);
        Sample { n, time: out.time, area: MeshLayout::predicted_area(n, n, w) }
    })
}

/// MST on the OTN over vertex counts `ns`.
pub fn mst_otn(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTN", "minimum spanning tree", Provenance::Measured, ns, |n| {
        let weights = workloads::random_weights(n, (4.0 / n as f64).min(0.5), 1000, seed);
        let out = otn::graph::mst::minimum_spanning_tree(&weights).expect("power-of-two n");
        let wbits = log2_ceil(1001).max(1) + graph_word_bits(n);
        Sample { n, time: out.time, area: OtnLayout::predicted_area(n, wbits) }
    })
}

/// The OTC MST row: the §VI.B *direct* OTC Borůvka (`orthotrees::otc::mst`)
/// with the weight matrix stored on chip (area `Θ(N² log N)`).
pub fn mst_otc(ns: &[usize], seed: u64) -> Sweep {
    Sweep::new("OTC", "minimum spanning tree", Provenance::Measured, ns, |n| {
        let weights = workloads::random_weights(n, (4.0 / n as f64).min(0.5), 1000, seed);
        let out = otc::mst::minimum_spanning_tree(&weights).expect("power-of-two n >= 4");
        let (m, l) = Otc::dims_for(n).expect("validated");
        let wbits = log2_ceil(1001).max(1) + graph_word_bits(n);
        Sample { n, time: out.time, area: OtcLayout::predicted_area(m, l, wbits) }
    })
}

/// §VIII pipelined-throughput sweep: per-problem sorting time on the OTN
/// with `k` problems in flight. The paper's claim is that the per-problem
/// AT² drops to the OTC's `N² log⁴ N` class because a result emerges every
/// `Θ(log N)` bit-times.
pub fn pipelined_sort_throughput(ns: &[usize], problems: usize, seed: u64) -> Sweep {
    let problem = format!("pipelined sorting (k={problems})");
    Sweep::new("OTN", &problem, Provenance::Measured, ns, |n| {
        let net = Otn::for_sorting(n).expect("power-of-two n");
        let batch: Vec<Vec<Word>> =
            (0..problems).map(|p| workloads::distinct_words(n, seed + p as u64)).collect();
        let out = otn::pipeline::pipelined_sorts(&net, &batch).expect("sized batch");
        Sample {
            n,
            time: BitTime::new(out.per_problem_time().ceil() as u64),
            area: OtnLayout::predicted_area_default(n),
        }
    })
}

// ---------------------------------------------------------------------
// Analytic rows (PSN/CCC matrix & graph entries).
// ---------------------------------------------------------------------

/// Evaluates a paper `(area, time)` pair over `ns` — used for the PSN/CCC
/// rows of Tables II–III, whose `N³`-processor constructions are cited,
/// not built (see DESIGN.md).
pub fn analytic(
    network: &str,
    problem: &str,
    area: Complexity,
    time: Complexity,
    ns: &[usize],
) -> Sweep {
    Sweep::new(network, problem, Provenance::Analytic, ns, |n| Sample {
        n,
        time: BitTime::new(time.eval(n as u64).round().max(1.0) as u64),
        area: Area::new(area.eval(n as u64).round().max(1.0) as u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SORT_NS: [usize; 3] = [16, 64, 256];

    #[test]
    fn sort_sweeps_produce_monotone_times() {
        for sweep in [
            sort_otn(&SORT_NS, 1, false),
            sort_otc(&SORT_NS, 1),
            sort_mesh(&SORT_NS, 1, false),
            sort_psn(&SORT_NS, 1, false),
            sort_ccc(&SORT_NS, 1, false),
        ] {
            assert!(!sweep.samples.is_empty(), "{}", sweep.network);
            assert!(
                sweep.samples.windows(2).all(|w| w[0].time <= w[1].time),
                "{} times not monotone",
                sweep.network
            );
            assert!(
                sweep.samples.windows(2).all(|w| w[0].area < w[1].area),
                "{} areas not monotone",
                sweep.network
            );
        }
    }

    #[test]
    fn mesh_sweep_skips_odd_powers() {
        let sweep = sort_mesh(&[16, 32, 64], 1, false);
        assert_eq!(sweep.samples.len(), 2, "32 has no square mesh");
    }

    #[test]
    fn otc_beats_otn_in_at2_for_sorting() {
        // Table I headline: same time Θ, smaller area ⇒ better AT².
        let otn = sort_otn(&[256, 1024], 2, false);
        let otc = sort_otc(&[256, 1024], 2);
        for (a, b) in otn.samples.iter().zip(&otc.samples) {
            assert!(b.at2() < a.at2(), "n={}: OTC {} !< OTN {}", a.n, b.at2(), a.at2());
        }
    }

    #[test]
    fn unit_cost_sorting_is_faster_for_everyone() {
        let ns = [64usize, 256];
        for (log_sweep, unit_sweep) in [
            (sort_otn(&ns, 3, false), sort_otn(&ns, 3, true)),
            (sort_psn(&ns, 3, false), sort_psn(&ns, 3, true)),
            (sort_ccc(&ns, 3, false), sort_ccc(&ns, 3, true)),
        ] {
            for (a, b) in log_sweep.samples.iter().zip(&unit_sweep.samples) {
                assert!(b.time < a.time, "{}: {} !< {}", log_sweep.network, b.time, a.time);
            }
        }
    }

    #[test]
    fn boolmm_sweeps_run_and_otc_area_is_smallest_of_the_trees() {
        let ns = [4usize, 8];
        let otn = boolmm_otn(&ns, 5);
        let otc = boolmm_otc(&ns, 5);
        let mesh = boolmm_mesh(&ns, 5);
        assert_eq!(otn.samples.len(), 2);
        for ((a, b), c) in otn.samples.iter().zip(&otc.samples).zip(&mesh.samples) {
            assert!(b.area < a.area, "OTC wide area < OTN wide area");
            assert!(c.area < b.area, "mesh is the smallest at tiny n");
        }
    }

    #[test]
    fn cc_sweeps_agree_on_provenance_and_run() {
        let ns = [16usize, 32];
        let otn = cc_otn(&ns, 7);
        let otc = cc_otc(&ns, 7);
        let mesh = cc_mesh(&ns, 7);
        assert_eq!(otn.provenance, Provenance::Measured);
        assert_eq!(otc.provenance, Provenance::Measured, "direct §VI.B implementation");
        assert_eq!(mesh.samples.len(), 2);
        // OTC CC area ≈ Θ(N²) is below OTN's Θ(N² log² N).
        for (a, b) in otn.samples.iter().zip(&otc.samples) {
            assert!(b.area < a.area);
        }
    }

    #[test]
    fn mst_sweeps_run() {
        let ns = [8usize, 16];
        let otn = mst_otn(&ns, 9);
        let otc = mst_otc(&ns, 9);
        assert_eq!(otn.samples.len(), 2);
        assert_eq!(otc.samples.len(), 2);
    }

    #[test]
    fn analytic_sweep_evaluates_the_complexity() {
        let sweep = analytic(
            "PSN",
            "connected components",
            Complexity::new(4.0, -4),
            Complexity::polylog(4),
            &[16, 256],
        );
        assert_eq!(sweep.provenance, Provenance::Analytic);
        let s = sweep.at(256).unwrap();
        assert_eq!(s.time.get(), 4096, "log⁴ 256 = 8⁴");
    }

    #[test]
    fn fits_are_available_for_long_sweeps() {
        let sweep = sort_otn(&[16, 32, 64, 128, 256], 11, false);
        let fit = sweep.fit_time().expect("5 points");
        // Θ(log² N): polynomial part near zero.
        assert!(fit.a.abs() < 0.35, "{fit}");
    }
}

#[cfg(test)]
mod pipeline_sweep_tests {
    use super::*;

    #[test]
    fn pipelined_throughput_tracks_theta_log_n() {
        let s = pipelined_sort_throughput(&[16, 64, 256], 8, 3);
        assert_eq!(s.samples.len(), 3);
        // Per-problem time ≈ single_latency/k + 3w·(k−1)/k: with k=8 it is
        // dominated by the latency share at small N but already well below
        // the full sort latency.
        for p in &s.samples {
            let mut net = Otn::for_sorting(p.n).unwrap();
            let xs = workloads::distinct_words(p.n, 3);
            let full = otn::sort::sort(&mut net, &xs).unwrap().time;
            assert!(p.time < full, "n={}: pipelined {} !< single {}", p.n, p.time, full);
        }
    }

    #[test]
    fn more_problems_in_flight_lower_the_per_problem_time() {
        let few = pipelined_sort_throughput(&[128], 2, 5);
        let many = pipelined_sort_throughput(&[128], 32, 5);
        assert!(many.samples[0].time < few.samples[0].time);
    }
}
