//! Regenerates the paper's evaluation figures as plain-text tables.
//!
//! ```text
//! cargo run --release -p vaq-bench --bin figures -- --fig all
//! cargo run --release -p vaq-bench --bin figures -- --fig 5a
//! cargo run --release -p vaq-bench --bin figures -- --fig 7d --scale small
//! ```
//!
//! Figure ids: 5a 5b 5c 6a 6b 6c 6d 7a 7b 7c 7d 8a 8b, a digit 5–8 for
//! all of that figure's panels, `all`, and `scale` — the owner-build scaling
//! curve at its own explicit sizes (n = 32…512, d = 2), which `all` leaves
//! out. An unknown id, scale or seed exits with status 2.

use vaq_bench::report::{fmt_ms, print_table};
use vaq_bench::{
    fig5_owner, fig6_server_vs_n, fig6d_server_vs_result_len, fig7_user, fig7c_rsa_vs_dsa,
    fig8a_vo_size_vs_result_len, fig8b_vo_size_vs_n, fitted_exponent, scaling_curve, Scale,
    ServerQueryKind, DEFAULT_SEED,
};

const USAGE: &str =
    "usage: figures [--fig 5|6|7|8|5a|5b|5c|6a|6b|6c|6d|7a|7b|7c|7d|8a|8b|all|scale] \
                     [--scale small|paper] [--seed N]";

/// Every panel the binary prints, each selected by its own id or its digit.
const FIGURES: [&str; 13] = [
    "5a", "5b", "5c", "6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d", "8a", "8b",
];

#[derive(Debug, PartialEq)]
struct Args {
    fig: String,
    scale: Scale,
    seed: Option<u64>,
}

/// Parses the arguments after the program name; `Err` names the first one
/// that is unknown, lacks its value or has a value that selects nothing.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        fig: "all".to_string(),
        scale: Scale::Small,
        seed: None,
    };
    let mut argv = argv.iter().map(String::as_str);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--fig" => {
                let fig = value()?;
                let known = fig == "scale" || FIGURES.iter().any(|id| wants(fig, id));
                if !known {
                    return Err(format!("unknown figure id: {fig}"));
                }
                args.fig = fig.to_string();
            }
            "--scale" => {
                args.scale = match value()? {
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale: {other}")),
                };
            }
            "--seed" => {
                let seed = value()?;
                let parsed = seed.parse().map_err(|_| format!("bad seed: {seed}"));
                args.seed = Some(parsed?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn wants(fig: &str, id: &str) -> bool {
    fig == "all" || fig == id || (id.len() == 2 && fig == &id[..1])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|message| {
        eprintln!("{message}\n{USAGE}");
        std::process::exit(2);
    });
    let fig = args.fig.as_str();
    let scale = args.scale;
    // The scaling curve is ROADMAP item 5's table, which was taken at seed 1.
    let scale_curve = fig == "scale";
    let seed = args
        .seed
        .unwrap_or(if scale_curve { 1 } else { DEFAULT_SEED });

    println!("# Verifying the Correctness of Analytic Query Results — figure reproduction");
    println!("# scale = {scale:?}, seed = {seed}");

    // ---- Fig. 5 -----------------------------------------------------------
    if wants(fig, "5a") || wants(fig, "5b") || wants(fig, "5c") {
        let rows = fig5_owner(scale, seed);
        if wants(fig, "5a") {
            print_table(
                "Fig. 5a — signatures needed to create the structure",
                &["n", "subdomains", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            r.subdomains.to_string(),
                            r.one_sig_signatures.to_string(),
                            r.multi_sig_signatures.to_string(),
                            r.mesh_signatures.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
        if wants(fig, "5b") {
            print_table(
                "Fig. 5b — construction time (ms)",
                &["n", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            fmt_ms(r.one_sig_build_ms),
                            fmt_ms(r.multi_sig_build_ms),
                            fmt_ms(r.mesh_build_ms),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
        if wants(fig, "5c") {
            print_table(
                "Fig. 5c — structure size (bytes)",
                &["n", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            r.one_sig_bytes.to_string(),
                            r.multi_sig_bytes.to_string(),
                            r.mesh_bytes.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    }

    // ---- Fig. 6a-c --------------------------------------------------------
    let fig6_cases = [
        ("6a", ServerQueryKind::Top3),
        ("6b", ServerQueryKind::Knn3),
        ("6c", ServerQueryKind::Range3),
    ];
    for (id, kind) in fig6_cases {
        if wants(fig, id) {
            let rows = fig6_server_vs_n(scale, kind, 5, seed);
            print_table(
                &format!(
                    "Fig. {id} — server nodes/cells traversed, {} queries",
                    kind.label()
                ),
                &["n", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            format!("{:.1}", r.one_sig_nodes),
                            format!("{:.1}", r.multi_sig_nodes),
                            format!("{:.1}", r.mesh_nodes),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    }

    // ---- Fig. 6d ----------------------------------------------------------
    if wants(fig, "6d") {
        let rows = fig6d_server_vs_result_len(scale, seed);
        print_table(
            "Fig. 6d — server nodes traversed vs result length",
            &["|q|", "one-sig", "multi-sig", "sig-mesh"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.result_len.to_string(),
                        r.one_sig_nodes.to_string(),
                        r.multi_sig_nodes.to_string(),
                        r.mesh_nodes.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- Fig. 7a/7b/7d ----------------------------------------------------
    if wants(fig, "7a") || wants(fig, "7b") || wants(fig, "7d") {
        let rows = fig7_user(scale, seed);
        if wants(fig, "7a") {
            print_table(
                "Fig. 7a — hash operations during verification",
                &["|q|", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.result_len.to_string(),
                            r.one_sig_hash_ops.to_string(),
                            r.multi_sig_hash_ops.to_string(),
                            r.mesh_hash_ops.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
        if wants(fig, "7b") {
            print_table(
                "Fig. 7b — hashing time during verification (ms)",
                &["|q|", "one-sig", "multi-sig", "sig-mesh"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.result_len.to_string(),
                            fmt_ms(r.one_sig_hash_ms),
                            fmt_ms(r.multi_sig_hash_ms),
                            fmt_ms(r.mesh_hash_ms),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
        if wants(fig, "7d") {
            print_table(
                "Fig. 7d — total verification time (ms)",
                &["|q|", "one-sig", "multi-sig", "sig-mesh", "sig-ops(mesh)"],
                &rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.result_len.to_string(),
                            fmt_ms(r.one_sig_total_ms),
                            fmt_ms(r.multi_sig_total_ms),
                            fmt_ms(r.mesh_total_ms),
                            r.mesh_sig_ops.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    }

    // ---- Fig. 7c ----------------------------------------------------------
    if wants(fig, "7c") {
        let rows = fig7c_rsa_vs_dsa(scale, seed);
        print_table(
            "Fig. 7c — signature decryption time, RSA vs DSA (ms)",
            &["|q|", "mesh RSA", "mesh DSA", "IFMH RSA", "IFMH DSA"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.result_len.to_string(),
                        fmt_ms(r.mesh_rsa_ms),
                        fmt_ms(r.mesh_dsa_ms),
                        fmt_ms(r.ifmh_rsa_ms),
                        fmt_ms(r.ifmh_dsa_ms),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- Fig. 8a ----------------------------------------------------------
    if wants(fig, "8a") {
        let rows = fig8a_vo_size_vs_result_len(scale, seed);
        print_table(
            "Fig. 8a — verification-object size vs result length (bytes)",
            &["|q|", "one-sig", "multi-sig", "sig-mesh"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.x.to_string(),
                        r.one_sig_vo_bytes.to_string(),
                        r.multi_sig_vo_bytes.to_string(),
                        r.mesh_vo_bytes.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- Fig. 8b ----------------------------------------------------------
    if wants(fig, "8b") {
        let rows = fig8b_vo_size_vs_n(scale, 3, seed);
        print_table(
            "Fig. 8b — verification-object size vs database size (bytes, |q| = 3)",
            &["n", "one-sig", "multi-sig", "sig-mesh"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.x.to_string(),
                        r.one_sig_vo_bytes.to_string(),
                        r.multi_sig_vo_bytes.to_string(),
                        r.mesh_vo_bytes.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- Owner-build scaling curve ------------------------------------------
    if scale_curve {
        let rows = scaling_curve(&[32, 64, 128, 256, 512], seed);
        print_table(
            "Owner build vs n (d = 2, one-signature, 256-bit key)",
            &[
                "n",
                "subdomains",
                "pairs refused",
                "visits",
                "LP-decided",
                "I-tree ms",
                "order+forest ms",
                "build ms",
                "hash ops",
                "structure bytes",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.n.to_string(),
                        r.subdomains.to_string(),
                        r.pairs_refused.to_string(),
                        r.visits.to_string(),
                        r.lp_visits.to_string(),
                        fmt_ms(r.itree_ms),
                        fmt_ms(r.forest_ms),
                        fmt_ms(r.build_ms),
                        r.hash_ops.to_string(),
                        r.structure_bytes.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let fit = |y: fn(&vaq_bench::ScaleRow) -> usize| {
            let tail = rows.iter().filter(|r| r.n >= 64);
            fitted_exponent(&tail.map(|r| (r.n as f64, y(r) as f64)).collect::<Vec<_>>())
        };
        println!(
            "fitted exponent in n over n >= 64: subdomains {:.2}, hash ops {:.2}, structure bytes {:.2}",
            fit(|r| r.subdomains),
            fit(|r| r.hash_ops),
            fit(|r| r.structure_bytes),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ids_that_select_no_figure_are_errors() {
        for argv in [
            &["--fig", "ablation"][..],
            &["--fig", "9"],
            &["--fig", "5d"],
            &["--scale", "huge"],
            &["--seed", "x"],
            &["--fig"],
            &["--verbose"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn figure_ids_digits_and_the_scaling_curve_parse() {
        for fig in ["7", "8b", "scale", "all", "5"] {
            let args = parse(&["--fig", fig]).unwrap();
            assert_eq!(args.fig, fig);
        }
        let args = parse(&["--scale", "paper", "--seed", "7", "--fig", "6d"]).unwrap();
        assert_eq!(
            args,
            Args {
                fig: "6d".to_string(),
                scale: Scale::Paper,
                seed: Some(7),
            }
        );
        assert_eq!(parse(&[]).unwrap().fig, "all");
    }
}
