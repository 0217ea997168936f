//! Pins what every generated AS's IGP answers: each domain's ordered
//! ECMP first hops for every member pair, its slot queries, and the
//! distances and primary paths from a sample of sources (see
//! `common::igp_digest`). The domains are each AS's routers and its
//! LDP and SR subsets, the member sets the deploy step computes.
//!
//! A change to how `DomainSpf` stores or computes its answers must
//! leave these digests as they are; `-- --nocapture` prints them.

mod common;

use arest_netgen::internet::{generate_pooled, GenConfig};
use arest_obs::SpanContext;
use common::igp_digest;

fn digest(config: &GenConfig, mask: Option<&[bool]>) -> u64 {
    let workers = arest_tnt::pool::worker_count();
    let internet = generate_pooled(config, mask, workers, SpanContext::NONE);
    let digest = igp_digest(&internet);
    println!("IGP digest at {workers} worker(s): {digest:#018x}");
    digest
}

#[test]
fn tiny_igp_answers_are_pinned() {
    assert_eq!(digest(&GenConfig::tiny(), None), 0xa8eb_eb15_f330_4423);
}

#[test]
fn sliced_scaled_igp_answers_are_pinned() {
    let config = GenConfig { catalog_scale: 2, ..GenConfig::tiny() };
    let mask: Vec<bool> = (0..120).map(|i| i % 3 == 0).collect();
    assert_eq!(digest(&config, Some(&mask)), 0x88cc_ae03_916f_b4cf);
}
