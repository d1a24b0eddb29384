//! Property tests of the granularity-aware scheduler in `sfq-par`:
//! whatever the chunk size or thread count, `par_map` must return
//! exactly what a serial loop returns — bit-for-bit — and the sweep
//! driver `run_resilient` must fail exactly the panicking points. The
//! scheduler is free to merge tasks into chunks, steal across
//! workers, or fall back to serial; none of that may be observable in
//! the output.

use proptest::prelude::*;
use sfq_par::resilient::{run_resilient, PointState, ResilientOpts};
use sfq_par::{par_map, set_chunk, set_threads};

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
    /// unit, not a failure domain. With one attempt per point and no
    /// fallback, exactly the injected points come back `Failed` with
    /// their own message, and every other point in the same chunk still
    /// produces its serial value.
    #[test]
    fn run_resilient_fails_only_the_panicking_points(
        n in 0usize..200,
        modulus in 2u64..=9,
        residue in 0u64..9,
        threads in 1usize..=6,
        chunk in 0usize..=32,
    ) {
        let _guard = GLOBAL.lock().unwrap();
        let _reset = PoolReset;
        // Panics unwind through the hook before the driver traps them;
        // a quiet hook keeps the injected ones off stderr.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        set_threads(threads);
        set_chunk(chunk);
        let once = ResilientOpts { retries: 0, ..ResilientOpts::unguarded() };
        let eval = |i: usize| {
            let x = i as u64;
            if x % modulus == residue {
                panic!("injected {x}");
            }
            crunch(x).to_bits()
        };
        let out = run_resilient("chunking_t", 0, n, &once, eval, None::<fn(usize) -> u64>);

        std::panic::set_hook(prev_hook);

        let out = out.expect("no checkpoint, no error");
        prop_assert_eq!(out.points.len(), n);
        for (i, p) in out.points.iter().enumerate() {
            let x = i as u64;
            prop_assert_eq!(p.index, i);
            if x % modulus == residue {
                prop_assert_eq!(&p.state, &PointState::Failed { message: format!("injected {x}") });
                prop_assert_eq!(p.value, None);
            } else {
                prop_assert_eq!(&p.state, &PointState::Completed);
                prop_assert_eq!(p.value, Some(crunch(x).to_bits()));
            }
        }
    }
}
