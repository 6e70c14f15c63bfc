//! City-scale sharded campaigns: spatial cells, parallel per-cell engines,
//! streaming aggregation.
//!
//! The room-scale network layer serves every node from one sector scene and
//! one AP actor; campaigns over 10⁴–10⁶ nodes need neither one shared
//! engine nor O(nodes) report memory. This module shards a scene into
//! spatially contiguous **cells** — each cell a self-contained [`Scene`]
//! with its own AP — and runs one deterministic [`Engine`](crate::Engine)
//! campaign per cell, in parallel over
//! [`parallel::for_each_chunk_with`], folding each cell into a streaming
//! [`CampaignAggregate`] and merging the per-cell aggregates **in cell
//! index order**.
//!
//! # Determinism
//!
//! Three ingredients make a sharded campaign bit-identical at any
//! `MILBACK_THREADS` setting:
//!
//! 1. **Per-cell RNG streams.** Cell `i` draws from
//!    `GaussianSource::new(cell_seed(campaign_seed, i))`, the same
//!    SplitMix64 golden-ratio mix the trial runner uses for per-trial
//!    streams, so a cell's noise is a pure function of the campaign seed
//!    and its index — never of scheduling.
//! 2. **One result slot per cell.** Workers write only their own cell's
//!    slot; the chunk→worker assignment cannot reorder anything.
//! 3. **Serial in-order merge.** Per-cell aggregates are folded into the
//!    campaign total in cell index order on the calling thread, so even
//!    the non-associative f64 sums see one fixed fold order.
//!
//! `cell_seed(seed, 0) == seed`, so a 1-cell sharded campaign reproduces a
//! plain [`Network::run_mac`] over the same scene bit-for-bit — the parity
//! suite proves it by `==` and `to_bits`.
//!
//! # Memory
//!
//! The sharded aggregate path never materializes a per-node report `Vec`:
//! peak report memory is O(cells + histogram buckets), with the per-cell
//! ledger vectors (O(largest cell)) recycled per worker through
//! [`CampaignScratch`].

use crate::error::{MilbackError, Result};
use crate::network::{CampaignAggregate, CampaignScratch, MacPolicy, Network, SlottedRunReport};
use crate::pipeline::ApServiceConfig;
use crate::protocol::SlotPlan;
use crate::relay::RelayConfig;
use crate::scene::Scene;
use mmwave_sigproc::parallel;
use mmwave_sigproc::random::GaussianSource;

/// The RNG seed for one cell's campaign stream: the campaign seed XOR'd
/// with the cell index spread by the SplitMix64 golden-ratio increment —
/// the same mixing discipline the trial runner applies per trial, so cell
/// streams decorrelate the same way trial streams do. Cell 0's seed *is*
/// the campaign seed, which is what makes 1-cell parity exact.
pub fn cell_seed(campaign_seed: u64, cell_idx: usize) -> u64 {
    campaign_seed ^ (cell_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Partitions a scene into `n_cells` spatially contiguous cells: contiguous
/// runs of the scene's node order (balanced to within one node), each cell
/// a self-contained scene with its own AP frontend and the shared clutter.
/// Scenes built in azimuth order (e.g. a sector sweep) therefore shard into
/// azimuth-contiguous spatial cells.
///
/// `n_cells` is clamped to `[1, nodes]` so no cell is ever empty. With one
/// cell the partition is an identity clone of the scene — node order,
/// boresight, and clutter untouched — so a 1-cell sharded campaign is the
/// plain campaign.
///
/// A partition that fails to cover every node exactly once is a
/// [`MilbackError::Protocol`] — checked in release builds too, not just a
/// `debug_assert` (a malformed partition used to pass silently in release
/// and quietly drop nodes from the campaign).
pub fn partition_cells(scene: &Scene, n_cells: usize) -> Result<Vec<Scene>> {
    let cells = n_cells.clamp(1, scene.nodes.len().max(1));
    if cells <= 1 {
        return Ok(vec![scene.clone()]);
    }
    let n = scene.nodes.len();
    let base = n / cells;
    let rem = n % cells;
    let mut out = Vec::with_capacity(cells);
    let mut start = 0usize;
    for c in 0..cells {
        let len = base + usize::from(c < rem);
        out.push(Scene {
            ap: scene.ap,
            nodes: scene.nodes[start..start + len].to_vec(),
            clutter: scene.clutter.clone(),
        });
        start += len;
    }
    if start != n {
        return Err(MilbackError::Protocol(format!(
            "cell partition covered {start} of {n} nodes across {cells} cells"
        )));
    }
    Ok(out)
}

/// Runs `run_cell` over every cell of `net`'s scene, one result slot per
/// cell, fanned over `threads` workers with one [`CampaignScratch`] per
/// worker. Results come back in cell index order; the first cell error (in
/// cell order) aborts the campaign.
fn run_cells<T, F>(net: &Network, n_cells: usize, threads: usize, run_cell: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut CampaignScratch, usize, &Network) -> Result<T> + Sync,
{
    let mut slots: Vec<(Network, Option<Result<T>>)> = partition_cells(&net.scene, n_cells)?
        .into_iter()
        .map(|scene| {
            (
                Network {
                    config: net.config.clone(),
                    scene,
                },
                None,
            )
        })
        .collect();
    parallel::for_each_chunk_with(
        &mut slots,
        1,
        threads,
        CampaignScratch::new,
        |scratch, idx, chunk| {
            let (cell_net, out) = &mut chunk[0];
            *out = Some(run_cell(scratch, idx, cell_net));
        },
    );
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, (_, out))| {
            out.unwrap_or_else(|| Err(MilbackError::Engine(format!("cell {idx} was never run"))))
        })
        .collect()
}

impl Network {
    /// Runs a sharded MAC campaign: the scene splits into `n_cells` spatial
    /// cells ([`partition_cells`]), each cell runs its own deterministic
    /// engine campaign under a policy built by
    /// `policy_for_cell(cell_idx, cell_seed)` with its own
    /// [`cell_seed`]-derived RNG stream, cells fan out over `threads`
    /// workers, and the per-cell streaming aggregates merge in cell index
    /// order. The result is bit-identical at any thread count, and peak
    /// report memory is O(cells + buckets) — no per-node `Vec` exists on
    /// this path.
    ///
    /// Every cell's AP runs its own staged **Capture → Plan → Transmit**
    /// pipeline under `service` (stage queues are per-cell — cells are
    /// independent APs), and the per-cell
    /// [`ApServiceStats`](crate::pipeline::ApServiceStats) ledgers fold
    /// into the aggregate's `service` counters in cell index order, exact
    /// u64 adds all the way up. Every cell classifies its nodes against
    /// `relay.coverage` and runs relay chains for its gap nodes (routes
    /// are per-cell — relays never cross a cell boundary, because cells
    /// are independent engines). [`ApServiceConfig::instantaneous`] and
    /// [`RelayConfig::disabled`] give the plain slotted campaign. A cell
    /// whose packet ledger fails the conservation audit fails the
    /// campaign with [`MilbackError::Conservation`] before it is merged.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_mac_relay<F>(
        &self,
        n_cells: usize,
        threads: usize,
        campaign_seed: u64,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        service: &ApServiceConfig,
        relay: &RelayConfig,
        policy_for_cell: F,
    ) -> Result<CampaignAggregate>
    where
        F: Fn(usize, u64) -> Box<dyn MacPolicy> + Sync,
    {
        let per_cell = run_cells(self, n_cells, threads, |scratch, idx, cell| {
            let seed = cell_seed(campaign_seed, idx);
            let mut rng = GaussianSource::new(seed);
            let mut agg = CampaignAggregate::new();
            cell.run_mac_streaming_relay_service(
                policy_for_cell(idx, seed),
                frames,
                payload,
                plan,
                sdm_threshold_db,
                &mut rng,
                service,
                relay,
                scratch,
                &mut agg,
            )?;
            Ok(agg)
        })?;
        let mut total = CampaignAggregate::new();
        for cell_agg in &per_cell {
            total.merge_from(cell_agg);
        }
        Ok(total)
    }

    /// The report-materializing counterpart of
    /// [`run_sharded_mac_relay`](Self::run_sharded_mac_relay) under an
    /// instantaneous AP with relaying disabled: every cell runs the same
    /// seeding/partition/scheduling, but returns its full per-node
    /// [`SlottedRunReport`] (node indices cell-local). O(nodes) memory —
    /// for tests and room-scale use; the parity suite uses it to prove a
    /// 1-cell sharded run reproduces [`Network::run_mac`] bit-for-bit and
    /// that [`CampaignAggregate::from_report`] folds to the exact streaming
    /// aggregate.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_mac_reports<F>(
        &self,
        n_cells: usize,
        threads: usize,
        campaign_seed: u64,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        policy_for_cell: F,
    ) -> Result<Vec<SlottedRunReport>>
    where
        F: Fn(usize, u64) -> Box<dyn MacPolicy> + Sync,
    {
        run_cells(self, n_cells, threads, |_scratch, idx, cell| {
            let seed = cell_seed(campaign_seed, idx);
            let mut rng = GaussianSource::new(seed);
            cell.run_mac(
                policy_for_cell(idx, seed),
                frames,
                payload,
                plan,
                sdm_threshold_db,
                &mut rng,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::network::SlottedAloha;
    use crate::protocol::Packet;

    /// A nine-node ±40° arc at 4 m — node order is azimuth order, so the
    /// partition's contiguous runs are spatial cells. Built on the shared
    /// guarded constructor, so `n == 1` stays finite.
    fn arc_scene(n: usize) -> Scene {
        Scene::arc(n, 4.0, 80f64.to_radians(), 12f64.to_radians())
    }

    fn plan_for(net: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
        SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.to_vec()),
            &net.config.fmcw,
            net.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap()
    }

    #[test]
    fn cell_zero_seed_is_the_campaign_seed() {
        assert_eq!(cell_seed(0xFACE, 0), 0xFACE);
        let seeds: Vec<u64> = (0..32).map(|i| cell_seed(0xFACE, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 32, "cell seed collision");
    }

    #[test]
    fn partition_covers_every_node_in_order() {
        let scene = arc_scene(10);
        for cells in [1usize, 2, 3, 4, 7, 10, 25] {
            let parts = partition_cells(&scene, cells).unwrap();
            assert_eq!(parts.len(), cells.clamp(1, 10));
            let flattened: Vec<_> = parts.iter().flat_map(|c| c.nodes.iter()).collect();
            assert_eq!(flattened.len(), 10, "{cells} cells");
            for (a, b) in flattened.iter().zip(&scene.nodes) {
                assert_eq!(**a, *b);
            }
            // Balanced to within one node, nothing empty.
            let sizes: Vec<usize> = parts.iter().map(|c| c.nodes.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(*min >= 1 && max - min <= 1, "unbalanced: {sizes:?}");
            for p in &parts {
                assert_eq!(p.clutter.len(), scene.clutter.len());
            }
        }
    }

    #[test]
    fn partition_coverage_is_checked_in_release() {
        // Regression for the old `debug_assert_eq!` coverage check: the
        // exactly-once property is now a typed-`Result` invariant, so it
        // holds (and would surface as an error, not silence) in release
        // builds too. Sweep enough shapes to hit every base/rem split.
        for n in [1usize, 2, 3, 5, 9, 16, 31] {
            let scene = arc_scene(n);
            for cells in 1..=n + 2 {
                let parts = partition_cells(&scene, cells)
                    .unwrap_or_else(|e| panic!("{n} nodes / {cells} cells: {e}"));
                let covered: usize = parts.iter().map(|c| c.nodes.len()).sum();
                assert_eq!(covered, n, "{n} nodes / {cells} cells");
            }
        }
    }

    #[test]
    fn one_cell_partition_is_an_identity_clone() {
        let scene = arc_scene(5);
        let parts = partition_cells(&scene, 1).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].nodes, scene.nodes);
        assert_eq!(
            parts[0].ap.boresight_rad.to_bits(),
            scene.ap.boresight_rad.to_bits()
        );
    }

    #[test]
    fn one_cell_sharded_run_reproduces_run_mac_bit_for_bit() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(5)).unwrap();
        let payload = [0x42u8; 8];
        let plan = plan_for(&net, 4, &payload);
        let seed = 0xC17Fu64;
        let reports = net
            .run_sharded_mac_reports(1, 4, seed, 5, &payload, &plan, 20.0, |_, s| {
                Box::new(SlottedAloha::new(s))
            })
            .unwrap();
        assert_eq!(reports.len(), 1);
        let mut rng = GaussianSource::new(seed);
        let plain = net
            .run_mac(
                Box::new(SlottedAloha::new(seed)),
                5,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        assert_eq!(reports[0], plain);
        for (a, b) in reports[0].nodes.iter().zip(&plain.nodes) {
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(
                a.mean_snr_db.map(f64::to_bits),
                b.mean_snr_db.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn sharded_aggregate_is_thread_count_invariant() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(9)).unwrap();
        let payload = [0x42u8; 8];
        let plan = plan_for(&net, 4, &payload);
        let run = |threads: usize| {
            net.run_sharded_mac_relay(
                3,
                threads,
                0xBEEF,
                4,
                &payload,
                &plan,
                20.0,
                &ApServiceConfig::instantaneous(),
                &RelayConfig::disabled(),
                |_, s| Box::new(SlottedAloha::new(s)),
            )
            .unwrap()
        };
        let baseline = run(1);
        assert_eq!(baseline.cells, 3);
        assert_eq!(baseline.nodes, 9);
        for threads in [2usize, 4, 8] {
            let agg = run(threads);
            assert_eq!(agg, baseline, "{threads} threads");
            assert_eq!(agg.energy_j.to_bits(), baseline.energy_j.to_bits());
            assert_eq!(agg.snr_sum_db.to_bits(), baseline.snr_sum_db.to_bits());
        }
    }

    #[test]
    fn streaming_aggregate_matches_report_fold_exactly() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(8)).unwrap();
        let payload = [0x42u8; 8];
        let plan = plan_for(&net, 4, &payload);
        let factory = |_: usize, s: u64| Box::new(SlottedAloha::new(s)) as Box<dyn MacPolicy>;
        let streamed = net
            .run_sharded_mac_relay(
                4,
                2,
                0xA66,
                3,
                &payload,
                &plan,
                20.0,
                &ApServiceConfig::instantaneous(),
                &RelayConfig::disabled(),
                factory,
            )
            .unwrap();
        let reports = net
            .run_sharded_mac_reports(4, 2, 0xA66, 3, &payload, &plan, 20.0, factory)
            .unwrap();
        let mut folded = CampaignAggregate::new();
        for r in &reports {
            folded.merge_from(&CampaignAggregate::from_report(r));
        }
        assert_eq!(streamed, folded);
        assert_eq!(streamed.energy_j.to_bits(), folded.energy_j.to_bits());
        assert_eq!(streamed.snr_sum_db.to_bits(), folded.snr_sum_db.to_bits());
    }

    #[test]
    fn sharded_service_ledger_folds_and_is_thread_invariant() {
        // A backlogged Defer pipeline (capacity 0, capture slower than the
        // slot width) serves every grant late but in FIFO order, so the
        // trial RNG stream is consumed exactly as in the instantaneous
        // campaign: the node ledgers match bit-for-bit, only the service
        // counters differ — and the whole aggregate is thread invariant.
        let net = Network::new(SystemConfig::milback_default(), arc_scene(9)).unwrap();
        let payload = [0x42u8; 8];
        let plan = plan_for(&net, 4, &payload);
        let service = ApServiceConfig::instantaneous()
            .with_stage_latencies(3 * plan.slot_ps, 0, 0)
            .with_queue(0, crate::pipeline::OverflowPolicy::Defer);
        let run = |threads: usize| {
            net.run_sharded_mac_relay(
                3,
                threads,
                0xBEEF,
                4,
                &payload,
                &plan,
                20.0,
                &service,
                &RelayConfig::disabled(),
                |_, s| Box::new(SlottedAloha::new(s)),
            )
            .unwrap()
        };
        let deferred = run(1);
        assert!(deferred.service.offered > 0);
        assert_eq!(deferred.service.served, deferred.service.offered);
        assert!(deferred.service.deferred > 0, "capacity 0 must spill");
        assert_eq!(deferred.service.dropped, 0);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), deferred, "{threads} threads");
        }
        let instant = net
            .run_sharded_mac_relay(
                3,
                1,
                0xBEEF,
                4,
                &payload,
                &plan,
                20.0,
                &ApServiceConfig::instantaneous(),
                &RelayConfig::disabled(),
                |_, s| Box::new(SlottedAloha::new(s)),
            )
            .unwrap();
        assert_eq!(instant.service.deferred, 0);
        assert_eq!(deferred.attempts, instant.attempts);
        assert_eq!(deferred.delivered, instant.delivered);
        assert_eq!(deferred.collisions, instant.collisions);
        assert_eq!(deferred.energy_j.to_bits(), instant.energy_j.to_bits());
        assert_eq!(deferred.snr_sum_db.to_bits(), instant.snr_sum_db.to_bits());
    }

    #[test]
    fn aggregate_footprint_is_node_count_independent() {
        let payload = [0x42u8; 8];
        let run = |n: usize| {
            let net = Network::new(SystemConfig::milback_default(), arc_scene(n)).unwrap();
            let plan = plan_for(&net, 4, &payload);
            net.run_sharded_mac_relay(
                2,
                2,
                7,
                2,
                &payload,
                &plan,
                20.0,
                &ApServiceConfig::instantaneous(),
                &RelayConfig::disabled(),
                |_, s| Box::new(SlottedAloha::new(s)),
            )
            .unwrap()
        };
        let small = run(4);
        let big = run(16);
        assert_eq!(small.bucket_footprint(), big.bucket_footprint());
        assert_eq!(big.nodes, 16, "the campaign still covered every node");
    }

    #[test]
    fn sharded_run_rejects_oversized_packets_per_cell() {
        let net = Network::new(SystemConfig::milback_default(), arc_scene(4)).unwrap();
        let small = [0u8; 2];
        let plan = plan_for(&net, 2, &small);
        let err = net.run_sharded_mac_relay(
            2,
            1,
            1,
            1,
            &[0u8; 4096],
            &plan,
            20.0,
            &ApServiceConfig::instantaneous(),
            &RelayConfig::disabled(),
            |_, s| Box::new(SlottedAloha::new(s)),
        );
        assert!(err.is_err());
    }
}
