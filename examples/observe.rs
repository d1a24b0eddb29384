//! Observability tour: run a metrics-enabled characterization +
//! design-space sweep and show where the time goes.
//!
//! Run with: `cargo run --example observe --release`
//!
//! The same data is available from any binary in the workspace by
//! setting `SUPERNPU_METRICS=1` (and `SUPERNPU_LOG=info` for the
//! progress log); this example just flips the switch in code so it
//! works out of the box.

use std::path::Path;

fn main() {
    // Everything below is a no-op overhead-wise until this call (or
    // `SUPERNPU_METRICS=1` in the environment) turns the registry on.
    sfq_obs::set_enabled(true);
    sfq_obs::set_log_level(Some(sfq_obs::Level::Info));
    // Exercise the worker pool even on a single-core machine — par_map
    // output is bit-identical regardless of thread count, and a pool
    // of at least 2 populates the par.* metrics shown below.
    sfq_par::set_threads(sfq_par::threads().max(2));

    // 1. Characterize the cell library from transient simulations.
    //    This exercises the jjsim solver counters
    //    (jjsim.solver.newton_iters, .lu_factor, .run_ms, ...) and the
    //    chars memo cache (chars.measure.cache_hit / cache_miss).
    let lib = sfq_chars::characterize().expect("transient testbenches converge");
    let hits = sfq_obs::counter("chars.measure.cache_hit").get();
    let misses = sfq_obs::counter("chars.measure.cache_miss").get();
    println!(
        "characterized a {} cell library ({hits} cache hits / {misses} misses)",
        lib.bias()
    );

    // 2. A full design-space sweep on the worker pool. This drives the
    //    estimator cache (estimator.estimate.*), the thread pool
    //    (par.tasks, par.task_ms, par.worker.N.tasks), the cycle
    //    simulator (npusim.layer.*, npusim.network_ms) and the sweep
    //    regions (explore.fig21_ms, explore.fig21.point_ms).
    let points = supernpu::explore::fig21_resource_sweep();
    println!("\nfig21 resource sweep: {} points", points.len());

    // 3. Render the whole registry as a table...
    print!(
        "\n{}",
        supernpu::report::metrics_table().expect("metrics are enabled")
    );

    // 4. ...and export the same snapshot as machine-readable JSON
    //    (what the experiment binaries drop next to their results).
    match supernpu::export::write_metrics_json(Path::new(".")) {
        Ok(Some(path)) => println!("\nsnapshot written to {}", path.display()),
        Ok(None) => unreachable!("metrics are enabled"),
        Err(e) => eprintln!("\ncould not write metrics.json: {e}"),
    }
}
