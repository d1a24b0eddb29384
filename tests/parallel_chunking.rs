//! Property tests of the granularity-aware scheduler in `sfq-par`:
//! whatever the chunk size or thread count, `par_map` must return
//! exactly what a serial loop returns — bit-for-bit — and
//! `par_map_deadline` must poison exactly the panicking items. The
//! scheduler is free to merge tasks into chunks, steal across
//! workers, or fall back to serial; none of that may be observable in
//! the output.

use proptest::prelude::*;
use sfq_guard::RunBudget;
use sfq_par::{par_map, par_map_deadline, set_chunk, set_threads, TaskOutcome};

/// Serialize the tests: they all reconfigure the process-global
/// worker pool and chunk override (and one swaps the panic hook).
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Restores the pool and chunk configuration even when a
/// `prop_assert!` unwinds mid-case.
struct PoolReset;
impl Drop for PoolReset {
    fn drop(&mut self) {
        sfq_par::clear_threads();
        set_chunk(0);
    }
}

/// A deliberately non-associative float chain: any reordering or
/// re-bracketing of the per-item work would move bits.
fn crunch(x: u64) -> f64 {
    let mut acc = x as f64 + 0.1;
    for i in 1..40u64 {
        acc = acc.mul_add(1.000_000_3, (x.wrapping_mul(i) % 1021) as f64 * 1e-7);
        acc = acc.sin() + acc;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identity under every scheduling configuration: thread
    /// counts beyond the physical cores, pinned chunk sizes from 1 to
    /// far-larger-than-the-input, and the auto chunker (chunk = 0).
    #[test]
    fn par_map_is_bit_identical_for_any_chunking(
        items in prop::collection::vec(any::<u64>(), 0..300),
        threads in 1usize..=8,
        chunk in 0usize..=64,
    ) {
        let _guard = GLOBAL.lock().unwrap();
        let _reset = PoolReset;
        let expected: Vec<u64> = items.iter().map(|&x| crunch(x).to_bits()).collect();

        set_threads(threads);
        set_chunk(chunk);
        let got: Vec<u64> = par_map(&items, |&x| crunch(x).to_bits());
        prop_assert_eq!(&got, &expected);
    }

    /// Panic isolation composes with chunking: a chunk is a scheduling
    /// unit, not a failure domain. Exactly the injected items come
    /// back as `Panicked`, carrying their own index, and every other
    /// item in the same chunk still produces its serial value.
    #[test]
    fn par_map_deadline_poisons_only_the_panicking_tasks(
        n in 0usize..200,
        modulus in 2u64..=9,
        residue in 0u64..9,
        threads in 1usize..=6,
        chunk in 0usize..=32,
    ) {
        let _guard = GLOBAL.lock().unwrap();
        let _reset = PoolReset;
        // Panics unwind through the hook before par_map_deadline traps
        // them; a quiet hook keeps the injected ones off stderr.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        set_threads(threads);
        set_chunk(chunk);
        let items: Vec<u64> = (0..n as u64).collect();
        let out = par_map_deadline(&items, &RunBudget::unlimited(), |&x| {
            if x % modulus == residue {
                panic!("injected {x}");
            }
            crunch(x).to_bits()
        });

        std::panic::set_hook(prev_hook);

        prop_assert_eq!(out.len(), n);
        for (i, slot) in out.iter().enumerate() {
            let x = i as u64;
            if x % modulus == residue {
                let TaskOutcome::Panicked(err) = slot else {
                    panic!("injected panic must surface, got {slot:?}");
                };
                prop_assert_eq!(err.index, i);
                prop_assert_eq!(&err.message, &format!("injected {x}"));
            } else {
                prop_assert_eq!(slot, &TaskOutcome::Completed(crunch(x).to_bits()));
            }
        }
    }
}
