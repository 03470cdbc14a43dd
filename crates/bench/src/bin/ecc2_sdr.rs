//! §VII-G enhancement, functionally: SDR strength with ECC-2 per line
//! versus the paper's ECC-1 design, on the fault patterns that separate
//! them — plus the analytic FIT impact at low ∆ (ties into Table X).

use sudoku_bench::{flag, header, sci, write_bench_reports, Args};
use sudoku_core::Scheme;
use sudoku_fault::ThermalModel;
use sudoku_reliability::analytic::{ecc_fit, z_fit_paper_style, Params};
use sudoku_reliability::ecc2::{run_ecc2_campaign_with_repairs, Ecc2Scenario};
use sudoku_reliability::montecarlo::{run_group_campaign_timed, GroupScenario, ThroughputReport};

fn main() {
    let args = Args::parse(2000, 0);
    header("§VII-G — replacing ECC-1 with ECC-2 (functional + analytic)");

    println!(
        "single-hash SDR success rates ({} trials per cell, seed {}); the last\n\
         column is the ECC-2 design's SDR and RAID-4 repairs per trial:\n",
        args.trials, args.seed
    );
    println!(
        "{:<26} {:>14} {:>14} {:>16}",
        "pattern (faults per line)", "ECC-1 design", "ECC-2 design", "ECC-2 SDR/RAID-4"
    );
    let mut reports: Vec<(String, ThroughputReport)> = Vec::new();
    let patterns: Vec<(&str, Vec<u32>)> = vec![
        ("two × 2", vec![2, 2]),
        ("two × 3", vec![3, 3]),
        ("three × 2", vec![2, 2, 2]),
        ("2 + 3", vec![2, 3]),
        ("two × 4", vec![4, 4]),
    ];
    for (label, counts) in patterns {
        let (ecc1, report) = run_group_campaign_timed(
            &GroupScenario {
                scheme: Scheme::Y,
                group: 64,
                fault_counts: counts.clone(),
                pair_sdr: false,
            },
            args.trials,
            args.seed,
            args.threads,
        );
        reports.push((label.to_string(), report));
        let scenario = Ecc2Scenario {
            group: 64,
            fault_counts: counts,
            max_mismatches: 6,
        };
        let (ecc2, sdr, raid4) = run_ecc2_campaign_with_repairs(&scenario, args.trials, args.seed);
        println!(
            "{label:<26} {:>13.2}% {:>13.2}% {:>7.2} / {:<6.2}",
            ecc1.success_rate() * 100.0,
            ecc2.success_rate() * 100.0,
            sdr as f64 / args.trials as f64,
            raid4 as f64 / args.trials as f64
        );
    }

    println!("\nanalytic FIT at low ∆ (64 MB, 20 ms):");
    println!(
        "{:<6} {:>12} {:>14} {:>14}",
        "∆", "ECC-6", "SuDoku(ECC-1)", "SuDoku(ECC-2)"
    );
    for delta in [34.0, 33.0, 32.0] {
        let ber = ThermalModel::new(delta, 0.10).ber(20e-3);
        let params = Params::paper_default().with_ber(ber);
        println!(
            "{delta:<6} {:>12} {:>14} {:>14}",
            sci(ecc_fit(&params, 6)),
            sci(z_fit_paper_style(&params)),
            sci(z_fit_paper_style(&params.with_line_ecc(2))),
        );
    }
    println!(
        "\nECC-2 turns the (3,3) pattern — the dominant Y killer — into a\n\
         locally resurrectable case, buying ~10 orders of magnitude of FIT at\n\
         ∆ = 32–33 for 10 extra bits per line. Exactly the §VII-G suggestion."
    );
    println!("\nECC-1 campaign throughput:");
    for (label, report) in &reports {
        report.println(label);
    }
    if flag("--json") {
        write_bench_reports("ecc2_sdr", &reports);
    }
}
