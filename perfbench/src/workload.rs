//! The workloads: which generated inputs each one compresses and serves,
//! and at what rates. Every generator gets a seed derived from the run's
//! `--seed`; the program only ever sees the generated inputs.

use grepair_datasets::network::{co_authorship, hub_network, web_copy};
use grepair_datasets::rdf::types_star;
use grepair_datasets::version::{chess_like, CoauthorshipHistory};

use crate::compress::Input;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compress the Table I analogs (the replacement loop dominates), then
    /// serve reads from a CA-GrQc and a Types-ru tenant; versioning is only
    /// touched by a short patch phase on a flat log.
    NetworkRead,
    /// Compress the Table III analogs (prune and finish dominate, the
    /// virtual-edge pass runs), then stream year-over-year co-author
    /// patches into a served base with reads interleaved: the patch log
    /// grows for the whole run.
    VersionWrite,
}

/// Per-workload serving parameters.
pub struct Rates {
    /// Offered rate of the reference phase and of the write stream
    /// (requests/s).
    pub rate: f64,
    /// Share of `reach`/`rpq` among reads.
    pub traversal: f64,
    /// The ladder's first rung (reads/s).
    pub ladder_start: f64,
    /// Share of head `reach` queries in the write stream.
    pub head_reach: f64,
    /// Share of patches in the write stream.
    pub patch_share: f64,
}

/// The patch-feed history of `version-write`: year 0 is the served base,
/// later years feed the patch stream.
pub const WRITE_YEARS: usize = 3;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::NetworkRead, Workload::VersionWrite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetworkRead => "network-read",
            Workload::VersionWrite => "version-write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn rates(self) -> Rates {
        match self {
            Workload::NetworkRead => Rates {
                rate: 1000.0,
                traversal: 0.1,
                ladder_start: 3_000.0,
                head_reach: 0.01,
                patch_share: 0.5,
            },
            Workload::VersionWrite => Rates {
                rate: 800.0,
                traversal: 0.1,
                ladder_start: 4_000.0,
                head_reach: 0.02,
                patch_share: 0.45,
            },
        }
    }

    /// The graphs this workload compresses; the first [`Workload::served`]
    /// of them are also served, under these namespaces (the first is the
    /// server's `default`).
    pub fn corpus(self, seed: u64) -> Vec<(&'static str, Input)> {
        let s = |k: u64| seed.wrapping_mul(1_000_003).wrapping_add(k);
        let input = |name, graph| Input { name, graph };
        match self {
            // The two served tenants, then the Table I analogs at a quarter
            // of the `repro` sizes: each graph compresses in well under a
            // second, so a run times every graph a dozen times or more and
            // its best time is not one slow stretch of the host.
            Workload::NetworkRead => vec![
                (
                    "default",
                    input("CA-GrQc", co_authorship(5_242, 3_200, 5, s(1))),
                ),
                ("types", input("Types-ru", types_star(64_000, 24, s(2)))),
                (
                    "astroph",
                    input("CA-AstroPh", co_authorship(2_250, 2_500, 9, s(3))),
                ),
                (
                    "euall",
                    input("Email-EuAll", hub_network(13_250, 24, 1, s(4))),
                ),
                (
                    "notredame",
                    input("NotreDame", web_copy(8_250, 5, 0.65, s(5))),
                ),
            ],
            // The served base, then the Table III analogs; both DBLP graphs
            // share one history, as in `repro`. Chess is at half and the
            // history at a quarter of the `repro` sizes (years unchanged),
            // for the same reason as above.
            Workload::VersionWrite => {
                let dblp = |years| CoauthorshipHistory::generate(years, 55, 600, 40, s(3));
                vec![
                    (
                        "default",
                        input("DBLP-year0", write_history(seed).snapshot(0)),
                    ),
                    ("chess", input("Chess", chess_like(13_000, 12, s(2)))),
                    ("dblp70", input("DBLP60-70", dblp(11).version_graph(10))),
                    ("dblp90", input("DBLP60-90", dblp(19).version_graph(18))),
                ]
            }
        }
    }

    /// How many corpus graphs, from the front, the server holds.
    pub fn served(self) -> usize {
        match self {
            Workload::NetworkRead => 2,
            Workload::VersionWrite => 1,
        }
    }
}

/// The co-authorship history behind `version-write`'s patch feed: a
/// CA-GrQc-sized author population, ~2000 papers a year.
pub fn write_history(seed: u64) -> CoauthorshipHistory {
    CoauthorshipHistory::generate(
        WRITE_YEARS,
        2_000,
        5_242,
        300,
        seed.wrapping_mul(1_000_003).wrapping_add(1),
    )
}
