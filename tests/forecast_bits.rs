//! Golden bits of the PE model: FNV-64 hashes of `PeModel::forecast`
//! output and of a subcycled `step_dt` sequence, plus the exact
//! `CflViolation` of an injected jet.
//!
//! The constants were computed by the model as it was before its step
//! was rewritten over precomputed geometry tables. That rewrite kept
//! every floating-point expression's operands and evaluation order, so
//! any change to these hashes is a change to the model's arithmetic —
//! and to every forecast, posterior and rho downstream of it.

use esse::ocean::model::ModelError;
use esse::ocean::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a, 64 bit, over the little-endian bytes of each value.
fn fnv64(xs: &[f64]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn forecast_hash(n: (usize, usize, usize), hours: f64, seed: Option<u64>) -> u64 {
    let (model, st) = scenario::monterey(n.0, n.1, n.2);
    let x = model.forecast(&st.pack(), 0.0, hours * 3600.0, seed).expect("forecast");
    fnv64(&x)
}

#[test]
fn member_forecast_bits() {
    assert_eq!(forecast_hash((16, 16, 4), 6.0, Some(17)), 0x802b_4285_dde1_7a2b);
    assert_eq!(forecast_hash((10, 10, 3), 1.0, Some(3)), 0x15db_4893_0536_f63f);
}

#[test]
fn central_forecast_bits() {
    assert_eq!(forecast_hash((16, 16, 4), 6.0, None), 0x0e4d_85c7_407d_6030);
}

/// A step of a third of `dt`: the `kvm` clamp, the Coriolis angle and
/// the `√(dt/dt₀)` noise scale all take the subcycled values.
#[test]
fn subcycled_step_bits() {
    let (model, mut st) = scenario::monterey(12, 12, 4);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..3 {
        model.step_dt(&mut st, Some(&mut rng), model.config.dt / 3.0).expect("step");
    }
    assert_eq!(st.time.to_bits(), model.config.dt.to_bits());
    assert_eq!(fnv64(&st.pack()), 0x32c8_c45d_52f6_a191);
}

#[test]
fn injected_jet_violates_cfl_with_exact_bits() {
    let (model, mut st) = scenario::monterey(12, 12, 4);
    st.u.set(5, 6, 0, 37.3);
    st.v.set(5, 6, 0, -21.9);
    match model.step(&mut st, None) {
        Err(ModelError::CflViolation { dt, limit }) => {
            assert_eq!(dt.to_bits(), model.config.dt.to_bits());
            assert_eq!(limit.to_bits(), 0x406a_025b_e043_f493);
        }
        other => panic!("expected a CFL violation, got {other:?}"),
    }
    // Through `forecast`, `run` subcycles the same jet (3 substeps on the
    // first step) instead of failing.
    let x = model.forecast(&st.pack(), 0.0, 3600.0, Some(9)).expect("subcycled forecast");
    assert_eq!(fnv64(&x), 0x4887_d509_920d_02e6);
}
