//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale SF] [--runs N] [--batch N] [--bps BYTES_PER_SEC] <cmd>
//!
//!   fig2     Figure 2  (static vs corrective vs plan partitioning, local)
//!   table1   Table 1   (phases / stitch-up / reuse breakdown, local)
//!   fig3     Figure 3  (same comparison over the bursty wireless model)
//!   table2   Table 2   (phase breakdown, wireless)
//!   fig5     Figure 5  (pipelined hash join vs complementary joins)
//!   table3   Table 3   (hash/merge/stitch processing distribution)
//!   fig6     Figure 6  (pre-aggregation strategies)
//!   sec45    §4.5      (join-size predictability + histogram overhead)
//!   ablation stitch-up reuse on/off; polling-interval sweep
//!   mirrors  federated mirror failover (online source-permutation scheduling)
//!   mirrors-wall  the same mirrors racing on real threads (wall clock)
//!   fragments-wall  threaded plan fragments vs the sequential plan (wall clock)
//!                   (--sweep-cuts additionally sweeps cut placements and reports
//!                    model-predicted vs observed win per placement)
//!   corrective-wall threaded corrective execution with a forced mid-stream switch
//!                   (the quiesce protocol) over slow federated mirrors; asserts
//!                   byte-identical answers vs the virtual clock + its golden
//!   serve    multi-query serving: N queries over one shared learning catalog
//!            (virtual anchor + cold-per-query baseline + threaded wall run);
//!            diffs answers-serve-q*.txt and trace-summary-serve.txt goldens
//!   smoke    virtual-clock answer regression vs results/answers-*.txt (CI gate)
//!   all      everything above
//! ```
//!
//! `--trace` turns on the adaptivity journal for the scenarios that
//! support it: `mirrors` additionally prints the decision rollup and
//! writes `results/trace-mirrors.jsonl`, `corrective-wall` journals the
//! threaded quiesce protocol into `results/trace-corrective.jsonl`, and
//! `smoke` diffs the combined decision-count rollup against the
//! `results/trace-summary.txt` golden (exit 1 on mismatch) next to
//! `results/trace-smoke.jsonl`.
//!
//! Results are printed and mirrored into `results/` next to the manifest.

use std::io::Write;

use tukwila_bench::experiments;
use tukwila_bench::ExpConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale SF] [--runs N] [--batch N] [--bps B] [--sweep-cuts] [--trace] \
         <fig2|table1|fig3|table2|fig5|table3|fig6|sec45|ablation|mirrors|mirrors-wall|\
         fragments-wall|corrective-wall|serve|smoke|all>"
    );
    std::process::exit(2);
}

fn save(name: &str, content: &str) {
    save_as(&format!("{name}.txt"), content);
}

fn save_as(file: &str, content: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(file);
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(content.as_bytes());
        }
    }
}

fn main() {
    const KNOWN: [&str; 16] = [
        "fig2",
        "table1",
        "fig3",
        "table2",
        "fig5",
        "table3",
        "fig6",
        "sec45",
        "ablation",
        "mirrors",
        "mirrors-wall",
        "fragments-wall",
        "corrective-wall",
        "serve",
        "smoke",
        "all",
    ];
    let mut cfg = ExpConfig::default();
    let mut cmds: Vec<String> = Vec::new();
    let mut sweep_cuts = false;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sweep-cuts" => sweep_cuts = true,
            "--trace" => trace = true,
            "--scale" => {
                cfg.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--runs" => {
                cfg.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--batch" => {
                cfg.batch_size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--bps" => {
                cfg.wireless_bps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            other if KNOWN.contains(&other) => cmds.push(other.to_string()),
            _ => usage(),
        }
    }
    if cmds.is_empty() {
        usage();
    }

    println!(
        "# tukwila repro — scale factor {}, {} runs, batch {}\n",
        cfg.scale, cfg.runs, cfg.batch_size
    );

    let all = cmds.iter().any(|c| c == "all");
    let want = |x: &str| all || cmds.iter().any(|c| c == x);

    if want("fig2") || want("table1") {
        println!("== Figure 2 / Table 1: corrective query processing, local sources ==");
        println!("   (running times in seconds; lower is better)\n");
        let (fig, tab) = experiments::corrective_suite(&cfg, false);
        if want("fig2") {
            println!("Figure 2:\n{fig}");
            save("fig2", &fig);
        }
        if want("table1") {
            println!("Table 1:\n{tab}");
            save("table1", &tab);
        }
    }
    if want("fig3") || want("table2") {
        println!("== Figure 3 / Table 2: corrective query processing, bursty wireless ==");
        println!("   (virtual completion times in seconds)\n");
        let (fig, tab) = experiments::corrective_suite(&cfg, true);
        if want("fig3") {
            println!("Figure 3:\n{fig}");
            save("fig3", &fig);
        }
        if want("table2") {
            println!("Table 2:\n{tab}");
            save("table2", &tab);
        }
    }
    if want("fig5") || want("table3") {
        println!("== Figure 5 / Table 3: complementary join pairs, LINEITEM ⋈ ORDERS ==\n");
        let (fig, tab) = experiments::complementary_suite(&cfg);
        if want("fig5") {
            println!("Figure 5:\n{fig}");
            save("fig5", &fig);
        }
        if want("table3") {
            println!("Table 3:\n{tab}");
            save("table3", &tab);
        }
    }
    if want("fig6") {
        println!("== Figure 6: pre-aggregation strategies ==\n");
        let fig = experiments::preagg_suite(&cfg);
        println!("Figure 6:\n{fig}");
        save("fig6", &fig);
    }
    if want("ablation") {
        println!("== Ablations: stitch-up reuse, polling interval ==\n");
        let out = experiments::ablation_suite(&cfg);
        println!("{out}");
        save("ablation", &out);
    }
    if want("sec45") {
        println!("== §4.5: evidence that selectivity is predictable ==\n");
        let out = experiments::selectivity_suite(&cfg);
        println!("{out}");
        save("sec45", &out);
    }
    if want("mirrors") {
        println!("== Federated mirrors: online source-permutation scheduling ==\n");
        let out = experiments::mirror_failover_suite(&cfg);
        println!("{out}");
        save("mirrors", &out);
        if trace {
            let (rollup, jsonl) = experiments::mirrors_trace_suite(&cfg);
            println!("{rollup}");
            save("trace-mirrors", &rollup);
            save_as("trace-mirrors.jsonl", &jsonl);
            println!("journal: results/trace-mirrors.jsonl\n");
        }
    }
    if want("mirrors-wall") {
        println!("== Federated mirrors on real threads: wall-clock hedging ==\n");
        let out = experiments::mirror_failover_wall_suite(&cfg);
        println!("{out}");
        save("mirrors-wall", &out);
    }
    if want("fragments-wall") {
        println!("== Threaded plan fragments: parallel subplans over queue_pair ==\n");
        let out = experiments::fragments_wall_suite(&cfg);
        println!("{out}");
        save("fragments-wall", &out);
        if sweep_cuts {
            println!("== Cut-placement sweep: model-predicted vs observed win ==\n");
            let out = experiments::fragments_sweep_suite(&cfg);
            println!("{out}");
            save("fragments-sweep", &out);
        }
    }
    if want("corrective-wall") {
        println!("== Threaded corrective execution: the quiesce protocol on real threads ==\n");
        let (out, ok) = experiments::corrective_wall_suite(&cfg);
        println!("{out}");
        save("corrective-wall", &out);
        if trace {
            let (rollup, jsonl) = experiments::corrective_trace_suite(&cfg);
            println!("{rollup}");
            save("trace-corrective", &rollup);
            save_as("trace-corrective.jsonl", &jsonl);
            println!("journal: results/trace-corrective.jsonl\n");
        }
        if !ok {
            eprintln!("corrective-wall: canonical answers diverged from the committed golden");
            std::process::exit(1);
        }
    }
    if want("serve") {
        println!("== Serve: multi-query front end over the shared learning catalog ==\n");
        let (out, ok) = experiments::serve_suite(&cfg);
        println!("{out}");
        save("serve", &out);
        if !ok {
            eprintln!("serve: answers or decision counts diverged from the committed goldens");
            std::process::exit(1);
        }
    }
    if want("smoke") {
        println!("== Smoke: virtual-clock answer regression vs results/ goldens ==\n");
        let (out, ok) = experiments::smoke_suite(&cfg);
        println!("{out}");
        save("smoke", &out);
        let trace_ok = if trace {
            println!(
                "== Smoke --trace: decision-count regression vs results/trace-summary.txt ==\n"
            );
            let (tout, jsonl, tok) = experiments::smoke_trace_suite(&cfg);
            println!("{tout}");
            save("trace-smoke", &tout);
            save_as("trace-smoke.jsonl", &jsonl);
            println!("journal: results/trace-smoke.jsonl\n");
            tok
        } else {
            true
        };
        if !ok {
            eprintln!("smoke: canonical answers diverged from the committed goldens");
            std::process::exit(1);
        }
        if !trace_ok {
            eprintln!("smoke --trace: adaptivity decisions diverged from the committed rollup");
            std::process::exit(1);
        }
    }
    if all {
        println!("== Example 2.1 sanity run ==\n");
        print!("{}", experiments::flights_recovery(&cfg));
    }
}
