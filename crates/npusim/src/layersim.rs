//! Per-layer cycle simulation.

use dnn_models::{Layer, LayerKind};
use sfq_estimator::units::pe_pipeline_depth;

use crate::config::SimConfig;
use crate::faults::PulseFaults;
use crate::mapping::enumerate_mappings;
use crate::memory::DramModel;
use crate::stats::{EnergyBreakdown, FaultCounts, LayerStats};

/// Simulate one layer at the given batch.
///
/// `ifmap_resident` says whether the layer's input is already on chip
/// (produced by the previous layer and small enough to have stayed);
/// when false the ifmap is fetched from DRAM.
pub fn simulate_layer(
    cfg: &SimConfig,
    layer: &Layer,
    batch: u32,
    ifmap_resident: bool,
) -> LayerStats {
    simulate_layer_with_faults(cfg, layer, batch, ifmap_resident, &PulseFaults::none())
}

/// Simulate one layer under an injected pulse-fault description.
///
/// Timing and energy are charged exactly as in the fault-free run (a
/// dropped pulse still consumed its clock edges); the returned
/// [`LayerStats::faults`] reports the deterministic expected number of
/// corrupted MACs so the caller can judge the degradation instead of
/// the simulator aborting.
pub fn simulate_layer_with_faults(
    cfg: &SimConfig,
    layer: &Layer,
    batch: u32,
    ifmap_resident: bool,
    faults: &PulseFaults,
) -> LayerStats {
    let _layer = sfq_obs::region(match layer.kind() {
        LayerKind::Conv => "npusim.layer.conv",
        LayerKind::Depthwise => "npusim.layer.depthwise",
        LayerKind::FullyConnected => "npusim.layer.fc",
    });
    let npu = &cfg.npu;
    let dram = DramModel::new(cfg.mem_bandwidth_gbs, cfg.frequency_ghz);
    let mappings = enumerate_mappings(layer, npu);
    let out_px = layer.output_pixels();

    let height = u64::from(npu.array_height);
    let width = u64::from(npu.array_width);
    let fill = height + width + u64::from(pe_pipeline_depth(npu.bits));

    // Shift distances (entries; one entry shifts per row per cycle).
    let monolithic = npu.division <= 1;
    let ifmap_shift_per_map: u64 = if monolithic {
        // Full row pass: the whole (row-dedicated) register must rotate
        // tail-to-head before the next mapping can stream (Fig. 16 ②).
        npu.ifmap_buf_bytes / height
    } else {
        npu.ifmap_buffer().chunk_entries()
    };
    let psum_move: u64 = if npu.integrated_output {
        // Chunk-pointer swap (Fig. 19 ①): free.
        0
    } else {
        // Drain ofmap buffer into psum buffer through their full
        // lengths (the paper's 65,536-cycle example, Fig. 16 ①).
        (npu.output_buf_bytes + npu.psum_buf_bytes) / width
    };

    let mut prep_cycles = 0u64;
    let mut compute_cycles = 0u64;
    let mut macs_total = 0u64;
    let mut dram_bytes = 0u64;
    let mut energy = EnergyBreakdown::default();

    let b = u64::from(batch);
    let col_groups = mappings.iter().map(|m| m.col_group).max().unwrap_or(0) + 1;

    for m in &mappings {
        let stream = b * out_px * u64::from(m.reuse_per_pe);
        compute_cycles += stream + fill;

        let weight_load = u64::from(m.active_rows) * u64::from(m.reuse_per_pe);
        let psum = if m.accumulates { psum_move } else { 0 };
        prep_cycles += weight_load + ifmap_shift_per_map + psum;

        // Weights always stream from DRAM, once per mapping.
        let weight_bytes = u64::from(m.active_rows) * u64::from(m.active_filters);
        dram_bytes += weight_bytes;

        // Monolithic output buffers flush between column groups
        // (Fig. 18(a)): the partial ofmap goes out and comes back.
        if monolithic && col_groups > 1 {
            let of_bytes = b * out_px * u64::from(m.active_filters);
            dram_bytes += of_bytes;
        }

        let macs = m.macs(out_px, batch);
        macs_total += macs;

        // Dynamic energy.
        let e = &cfg.energy;
        energy.pe_j += macs as f64 * e.pe_mac_j;
        energy.nw_j += macs as f64 * e.nw_hop_j;
        energy.dau_j += (stream * u64::from(m.active_rows)) as f64 * e.dau_j;
        let shift_events = ifmap_shift_per_map * height
            + psum * 2 * width
            + stream * (u64::from(m.active_rows) + u64::from(m.active_cols))
            + weight_load * u64::from(m.active_cols);
        energy.buffer_j += shift_events as f64 * e.buffer_shift_j;
    }

    // Layer-level ifmap traffic.
    let if_bytes = layer.ifmap_bytes(batch);
    if !ifmap_resident || if_bytes > npu.ifmap_buf_bytes {
        dram_bytes += if_bytes;
    }
    // Ofmap writeback when it cannot stay on chip.
    let of_bytes = layer.ofmap_bytes(batch);
    let out_cap = npu.output_buf_bytes + npu.psum_buf_bytes;
    if of_bytes > out_cap {
        dram_bytes += of_bytes;
    }

    // DRAM transfers overlap with on-chip shifting; any excess stalls.
    let dram_cycles = dram.cycles_for(dram_bytes);
    let stall_cycles = dram_cycles.saturating_sub(prep_cycles);

    // The clock tree fires every cycle the chip is active, gated or
    // not (SFQ gates have no clock gating).
    energy.clock_j +=
        (prep_cycles + compute_cycles + stall_cycles) as f64 * cfg.energy.clock_per_cycle_j;

    // Pulse-level fault accounting: deterministic expected values over
    // the layer's MAC total, independent of schedule or sampling.
    let fault_counts = if faults.is_clean() {
        FaultCounts::default()
    } else {
        faults.counts_for(macs_total, npu.array_height, npu.array_width)
    };

    // One gated flush per layer: where this layer's time and traffic
    // went, funneled into the shared registry.
    if sfq_obs::prof::enabled() {
        sfq_obs::prof::count("prep_cycles", prep_cycles);
        sfq_obs::prof::count("compute_cycles", compute_cycles);
        sfq_obs::prof::count("stall_cycles", stall_cycles);
        sfq_obs::prof::count("macs", macs_total);
        sfq_obs::prof::count("dram_bytes", dram_bytes);
    }
    if sfq_obs::enabled() {
        sfq_obs::inc("npusim.layer.count");
        sfq_obs::add("npusim.layer.prep_cycles", prep_cycles);
        sfq_obs::add("npusim.layer.compute_cycles", compute_cycles);
        sfq_obs::add("npusim.layer.stall_cycles", stall_cycles);
        sfq_obs::add("npusim.layer.dram_bytes", dram_bytes);
        sfq_obs::add("npusim.layer.macs", macs_total);
        sfq_obs::add("npusim.layer.mappings", mappings.len() as u64);
        if fault_counts.total() > 0 {
            sfq_obs::add("npusim.faults.dropped_pulses", fault_counts.dropped_pulses);
            sfq_obs::add(
                "npusim.faults.timing_violations",
                fault_counts.timing_violations,
            );
            sfq_obs::add("npusim.faults.stuck_macs", fault_counts.stuck_macs);
        }
    }

    LayerStats {
        name: layer.name().to_owned(),
        prep_cycles,
        compute_cycles,
        stall_cycles,
        macs: macs_total,
        dram_bytes,
        mappings: mappings.len() as u64,
        energy,
        faults: fault_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::Layer;

    fn conv() -> Layer {
        Layer::conv("c", (56, 56), 64, 64, 3, 1, 1)
    }

    #[test]
    fn macs_match_layer_accounting() {
        let cfg = SimConfig::paper_baseline();
        let l = conv();
        let s = simulate_layer(&cfg, &l, 4, true);
        assert_eq!(s.macs, l.macs(4));
    }

    #[test]
    fn baseline_is_prep_dominated() {
        // Fig. 15: >90% of Baseline cycles are preparation.
        let cfg = SimConfig::paper_baseline();
        let s = simulate_layer(&cfg, &conv(), 1, true);
        let prep = s.prep_cycles + s.stall_cycles;
        assert!(
            prep as f64 / s.total_cycles() as f64 > 0.8,
            "prep fraction {:.2}",
            prep as f64 / s.total_cycles() as f64
        );
    }

    #[test]
    fn chunked_design_slashes_prep() {
        let base = SimConfig::paper_baseline();
        let opt = SimConfig::paper_buffer_opt();
        let l = conv();
        let s0 = simulate_layer(&base, &l, 1, true);
        let s1 = simulate_layer(&opt, &l, 1, true);
        assert!(
            s1.prep_cycles * 4 < s0.prep_cycles,
            "chunked prep {} vs monolithic {}",
            s1.prep_cycles,
            s0.prep_cycles
        );
    }

    #[test]
    fn nonresident_ifmap_adds_traffic() {
        let cfg = SimConfig::paper_supernpu();
        let l = conv();
        let resident = simulate_layer(&cfg, &l, 1, true);
        let cold = simulate_layer(&cfg, &l, 1, false);
        assert_eq!(cold.dram_bytes - resident.dram_bytes, l.ifmap_bytes(1));
    }

    #[test]
    fn fc_layers_stall_on_weights() {
        // FC weights dwarf on-chip prep: stalls dominate.
        let cfg = SimConfig::paper_supernpu();
        let l = Layer::fully_connected("fc", 9216, 4096);
        let s = simulate_layer(&cfg, &l, 1, true);
        assert!(
            s.stall_cycles > s.prep_cycles,
            "stall {} prep {}",
            s.stall_cycles,
            s.prep_cycles
        );
        assert!(s.dram_bytes >= l.weight_bytes());
    }

    #[test]
    fn batch_amortizes_prep() {
        let cfg = SimConfig::paper_supernpu();
        let l = conv();
        let s1 = simulate_layer(&cfg, &l, 1, true);
        let s30 = simulate_layer(&cfg, &l, 30, true);
        // Compute scales ~30x, prep is constant per mapping.
        assert!(s30.compute_cycles > 25 * s1.compute_cycles);
        assert_eq!(s30.prep_cycles, s1.prep_cycles);
    }

    #[test]
    fn energy_positive_and_pe_dominated_for_conv() {
        let cfg = SimConfig::paper_supernpu();
        let s = simulate_layer(&cfg, &conv(), 8, true);
        let e = s.energy;
        assert!(e.pe_j > 0.0 && e.buffer_j > 0.0 && e.dau_j > 0.0 && e.nw_j > 0.0);
        assert!(e.pe_j > e.nw_j, "MAC energy should dominate NW hops");
    }
}
