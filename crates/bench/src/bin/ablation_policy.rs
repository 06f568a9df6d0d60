//! Scheduling-function (`A`) ablation: the paper makes `A` a parameter of
//! the algorithm (§3.3.2) and evaluates only the average of non-null
//! counter values; this harness compares all implemented policies.  It
//! then prints the optimization on/off comparison (§4.6) and the
//! two-cluster topology experiment from the paper's conclusion.
//!
//! ```text
//! cargo run -p mra-bench --release --bin ablation_policy
//! ```

use mra_bench::save_csv;
use mra_workloads::experiments::{
    ablation_optimizations, ablation_policy, ablation_topology, measure_secs_default,
};
use mra_workloads::Load;

fn main() {
    let secs = measure_secs_default();
    for load in [Load::Medium, Load::High] {
        for phi in [4usize, 16, 80] {
            let t = ablation_policy(phi, load, 42, secs);
            println!("{}", t.render());
            save_csv(&t, &format!("ablation_policy_{}_phi{}.csv", load.label(), phi));
        }
    }
    let t = ablation_optimizations(4, Load::High, 42, secs);
    println!("{}", t.render());
    save_csv(&t, "ablation_optimizations.csv");
    let t = ablation_topology(4, Load::High, 42, secs);
    println!("{}", t.render());
    save_csv(&t, "ablation_topology.csv");
}
