//! The counting allocator is exact: alone in its process (this file holds
//! one test, so no other thread allocates), two counted reps of the same
//! work agree to the byte.

use lwbench::alloc::counted;
use lwbench::calib::Calibrator;
use lwbench::workload::{service_rep, Kind, Workload};

#[test]
fn two_counted_reps_agree_exactly() {
    let workload = Workload::by_name("prod_steady").expect("listed").smoke();
    let Kind::Service(spec) = workload.kind else {
        panic!("prod_steady is a service workload");
    };
    let calib = Calibrator::new();
    let rep = || {
        counted(|| {
            let (_, cell) = service_rep(&spec, 7, spec.requests, &calib, 0);
            cell.core.report().submitted
        })
    };
    // As in a real run, a warm-up rep comes first: one-time lazy set-up
    // allocates too.
    rep();
    let (served_a, a) = rep();
    let (served_b, b) = rep();
    assert_eq!(served_a, spec.requests);
    assert_eq!(served_a, served_b);
    assert_eq!(a, b, "same work, same allocations");
    assert!(a.allocs > spec.requests, "a request allocates");
    assert!(a.bytes > a.allocs);
    assert!(a.peak_bytes > 0 && a.peak_bytes <= a.bytes);
}
