//! Golden output bits of the transient engine.
//!
//! Every `SimResult` field — pulse times, final phases, dissipated
//! energies, every node's voltage trace and its sample times, and the
//! accepted/rejected step counts — is folded as raw `f64::to_bits`
//! words into one FNV-1a digest per run and compared with a digest
//! committed alongside this file. The runs cover every testbench that
//! `extract`, `margins` and `sfq_faults`' Monte-Carlo yield build, under
//! both fixed and adaptive stepping, the 40-stage JTL that takes the
//! banded LU, and lane batches with a lone tail and an injected Newton
//! retirement.
//!
//! The digests were captured once and are never edited: a change to
//! the solver that moves any output bit fails here. They are the
//! independent reference for the one-lane (`Solver`) and lane-batched
//! (`BatchedTransient`) instantiations of the shared step loop.

use jjsim::stdlib::{
    clocked_and, dff, jtl_chain, shift_register, splitter, AndParams, DffParams, JtlParams,
};
use jjsim::{
    BatchedTransient, Circuit, ElementId, JjParams, NodeId, SimOptions, SimResult, Solver, LANES,
};

/// Committed digests, by run name.
const GOLDEN: &[(&str, u64)] = &[
    ("and_both_170/adaptive", 0xd8f0_16b6_5a50_c0ae),
    ("and_both_170/fixed", 0xe447_06bf_cfff_deb1),
    ("and_one_170/adaptive", 0xa931_eab1_d1d0_2bf0),
    ("and_one_170/fixed", 0x6590_dd07_9fe2_b02c),
    ("batch5/adaptive/0", 0x2d61_b513_04db_c57f),
    ("batch5/adaptive/1", 0xda7c_c1d6_0e9d_86d2),
    ("batch5/adaptive/2", 0x6cb4_36af_79c7_5be4),
    ("batch5/adaptive/3", 0x7dcb_244e_f6d6_409d),
    ("batch5/adaptive/4", 0x3150_015d_c9cc_3882),
    ("batch5/fixed/0", 0x039a_8b15_cefc_8cf8),
    ("batch5/fixed/1", 0x2ca7_35b1_eae6_c2d4),
    ("batch5/fixed/2", 0xefc4_b665_dd33_1e29),
    ("batch5/fixed/3", 0x09aa_dfb9_fc34_1ff8),
    ("batch5/fixed/4", 0x236d_9f8b_2bf7_e8ad),
    ("dff_160/adaptive", 0xef24_90ad_0b2e_5a40),
    ("dff_160/fixed", 0x3130_2d30_a1c9_2108),
    ("dff_170/adaptive", 0x6c46_158f_2e8c_6e16),
    ("dff_170/fixed", 0xc7b2_bc35_28c2_56d9),
    ("dff_quiet_160/adaptive", 0x32ab_7129_4edf_8b4b),
    ("dff_quiet_160/fixed", 0x214f_d35d_9050_5396),
    ("jtl4/adaptive", 0x0117_ed53_fb67_edaf),
    ("jtl4/fixed", 0x7bc8_34cc_ad11_86b7),
    ("jtl40/adaptive", 0xe4b3_07d1_69ed_6b93),
    ("jtl40/fixed", 0x7099_e65f_d955_f88b),
    ("jtl8/adaptive", 0x9196_4ed0_4fa5_6775),
    ("jtl8/fixed", 0xf0e6_254e_dec3_3b2c),
    ("shift3_12ps/adaptive", 0xf4fc_5c2d_2009_1874),
    ("shift3_12ps/fixed", 0x6074_a7c0_1eab_d7d4),
    ("shift3_50ps/adaptive", 0x51ce_c26a_861e_cdd5),
    ("shift3_50ps/fixed", 0xb1e1_1813_e485_1a21),
    ("splitter/adaptive", 0x4735_87d8_2f23_3fa9),
    ("splitter/fixed", 0xd5ed_837a_8a07_5c97),
];

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent sequences cannot alias.
    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Junction ids `0..n`. An id is a plain index within its family, so
/// a scratch circuit mints the ids of any circuit's junctions.
fn jj_ids(n: usize) -> Vec<ElementId> {
    let mut c = Circuit::new();
    let node = c.node();
    (0..n)
        .map(|_| {
            c.add_jj(node, NodeId::GROUND, JjParams::default())
                .expect("valid junction")
        })
        .collect()
}

/// Options that record the voltage of every non-ground node of `ckt`.
fn recording(base: SimOptions, ckt: &Circuit) -> SimOptions {
    let mut scratch = Circuit::new();
    SimOptions {
        record_nodes: (1..ckt.node_count()).map(|_| scratch.node()).collect(),
        ..base
    }
}

fn digest(out: &SimResult) -> u64 {
    let mut h = Fnv::new();
    h.word(out.dt.to_bits());
    h.word(out.t_end.to_bits());
    for jj in jj_ids(out.jj_dissipated_j.len()) {
        h.f64s(out.pulse_times(jj));
        h.word(out.final_phase(jj).to_bits());
    }
    h.word(out.dissipated_j.to_bits());
    h.f64s(&out.jj_dissipated_j);
    h.word(out.traces.len() as u64);
    for trace in &out.traces {
        h.f64s(trace);
    }
    h.f64s(&out.trace_times);
    h.word(out.accepted_steps);
    h.word(out.rejected_steps);
    h.0
}

fn solve(ckt: Circuit, base: SimOptions, t_end: f64) -> u64 {
    let opts = recording(base, &ckt);
    let out = Solver::new(ckt, opts)
        .expect("valid testbench")
        .try_run(t_end)
        .expect("testbench converges");
    digest(&out)
}

/// Compare computed digests with [`GOLDEN`], reporting every run at
/// once (as table rows) when any differs or is missing.
fn check(got: &[(String, u64)]) {
    let bad: Vec<String> = got
        .iter()
        .filter(|(name, d)| !GOLDEN.iter().any(|(n, g)| n == name && g == d))
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),"))
        .collect();
    assert!(
        bad.is_empty(),
        "solver output bits moved; runs that differ from GOLDEN:\n{}",
        bad.join("\n")
    );
}

/// The transients of `extract` (JTL-8, splitter, DFF and AND at
/// 170 ps, shift-register trials), `margins` (JTL-4, DFF store and
/// quiet at 160 ps) and `sfq_faults`' Monte-Carlo phases (those plus
/// the one-input AND), at default parameters.
fn testbenches() -> Vec<(&'static str, Circuit, f64)> {
    let jtl = JtlParams::default();
    let dff_p = DffParams::default();
    let and_p = AndParams::default();
    let shift = |period: f64| {
        let clocks: Vec<f64> = (0..3).map(|k| 80e-12 + period * k as f64).collect();
        let t_end = clocks[2] + 60e-12;
        (shift_register(3, 60e-12, &clocks, 0.0, &dff_p).0, t_end)
    };
    let (shift_slow, t_slow) = shift(50e-12);
    let (shift_fast, t_fast) = shift(12e-12);
    vec![
        ("jtl8", jtl_chain(8, &jtl).0, jtl.input_time + 320e-12),
        ("splitter", splitter(&jtl).0, jtl.input_time + 80e-12),
        ("dff_170", dff(&[60e-12], &[100e-12], &dff_p).0, 170e-12),
        (
            "and_both_170",
            clocked_and(&[60e-12], &[60e-12], &[100e-12], &and_p).0,
            170e-12,
        ),
        ("shift3_50ps", shift_slow, t_slow),
        ("shift3_12ps", shift_fast, t_fast),
        ("jtl4", jtl_chain(4, &jtl).0, 200e-12),
        ("dff_160", dff(&[60e-12], &[100e-12], &dff_p).0, 160e-12),
        ("dff_quiet_160", dff(&[], &[100e-12], &dff_p).0, 160e-12),
        (
            "and_one_170",
            clocked_and(&[60e-12], &[], &[100e-12], &and_p).0,
            170e-12,
        ),
    ]
}

#[test]
fn cell_testbenches_keep_their_bits() {
    let mut got = Vec::new();
    for (name, ckt, t_end) in testbenches() {
        got.push((
            format!("{name}/fixed"),
            solve(ckt.clone(), SimOptions::default(), t_end),
        ));
        got.push((
            format!("{name}/adaptive"),
            solve(ckt, SimOptions::adaptive(), t_end),
        ));
    }
    check(&got);
}

#[test]
fn banded_jtl40_keeps_its_bits() {
    let (ckt, _) = jtl_chain(40, &JtlParams::default());
    check(&[
        (
            "jtl40/fixed".to_owned(),
            solve(ckt.clone(), SimOptions::default(), 400e-12),
        ),
        (
            "jtl40/adaptive".to_owned(),
            solve(ckt, SimOptions::adaptive(), 400e-12),
        ),
    ]);
}

/// Five JTL-4 instances with perturbed critical currents: one full
/// lane group plus a lone tail, adaptive with a Newton retirement
/// injected into instance 1 (rerun alone), and fixed-step.
#[test]
fn lane_batches_keep_their_bits() {
    let circuits: Vec<Circuit> = [1.0, 0.97, 1.03, 0.95, 1.06]
        .iter()
        .map(|s| {
            let p = JtlParams {
                ic: 1.0e-4 * s,
                ..JtlParams::default()
            };
            jtl_chain(4, &p).0
        })
        .collect();
    assert_eq!(circuits.len(), LANES + 1, "one group plus a lone tail");
    jjsim::set_batch_width(Some(LANES));
    let mut got = Vec::new();
    for (mode, base) in [
        ("adaptive", SimOptions::adaptive()),
        ("fixed", SimOptions::default()),
    ] {
        let opts = recording(base, &circuits[0]);
        let mut batch = BatchedTransient::new(circuits.clone(), opts).expect("valid batch");
        if mode == "adaptive" {
            batch.inject_newton_failure(1, 60e-12);
        }
        for (i, out) in batch.try_run(200e-12).iter().enumerate() {
            let out = out.as_ref().expect("batched instance converges");
            got.push((format!("batch5/{mode}/{i}"), digest(out)));
        }
    }
    jjsim::set_batch_width(None);
    check(&got);
}
