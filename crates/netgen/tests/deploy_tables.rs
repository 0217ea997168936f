//! Pins every deployed MPLS table: the LFIB (entries and collisions),
//! the FTN and the protection map of every router, and every AS's
//! label record. Any change to label allocation order, install order
//! or later-wins outcomes moves a digest.
//!
//! A deliberate change to what the generator deploys reruns this with
//! `--nocapture`, reviews the printed digests and updates the pins.

mod common;

use arest_netgen::internet::{generate_pooled, GenConfig};
use arest_obs::SpanContext;
use common::tables_digest;

fn digest(config: &GenConfig, mask: Option<&[bool]>) -> u64 {
    let workers = arest_tnt::pool::worker_count();
    let internet = generate_pooled(config, mask, workers, SpanContext::NONE);
    let digest = tables_digest(&internet);
    println!("tables digest at {workers} worker(s): {digest:#018x}");
    digest
}

#[test]
fn tiny_tables_are_pinned() {
    assert_eq!(digest(&GenConfig::tiny(), None), 0xfde3_18d2_d483_230d);
}

#[test]
fn sliced_scaled_tables_are_pinned() {
    let config = GenConfig { catalog_scale: 2, ..GenConfig::tiny() };
    let mask: Vec<bool> = (0..120).map(|i| i % 3 == 0).collect();
    assert_eq!(digest(&config, Some(&mask)), 0xb047_7aaf_48e8_c7fa);
}
