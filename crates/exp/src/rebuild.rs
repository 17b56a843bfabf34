//! The design snapshot that pins a record to the environment it came from.
//!
//! A `DesignKey` fully pins a design — generator name, cell count,
//! technology node, generator seed — so the sink (reward realization) and
//! the trainer (trajectory replay) rebuild the *identical* [`CcdEnv`] the
//! server answered from, through serve's one [`rl_ccd_serve::build_env`].
//! [`feature_fingerprint`] is the cross-check: the FNV-1a 64 digest of the
//! unflagged feature matrix travels in every record, and a retrain refuses
//! to learn from a record whose rebuilt features hash differently (a
//! generator or STA change since logging).

use rl_ccd::fnv1a64;
use rl_ccd::CcdEnv;

/// FNV-1a 64 digest of the environment's unflagged feature matrix (the
/// per-record design snapshot).
pub fn feature_fingerprint(env: &CcdEnv) -> u64 {
    let features = env.features().with_flags(&[]);
    let mut bytes = Vec::with_capacity(features.data().len() * 4);
    for v in features.data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_serve::{build_env, DesignKey};

    #[test]
    fn rebuild_is_deterministic_and_fingerprint_pins_the_design() {
        let key: DesignKey = "fp:360:7nm:5".parse().expect("key");
        let a = build_env(&key, 24).expect("build");
        let b = build_env(&key, 24).expect("build");
        assert_eq!(feature_fingerprint(&a), feature_fingerprint(&b));
        assert_eq!(a.pool(), b.pool());
        let other: DesignKey = "fp:360:7nm:6".parse().expect("key");
        let c = build_env(&other, 24).expect("build");
        assert_ne!(feature_fingerprint(&a), feature_fingerprint(&c));
    }

    #[test]
    fn unknown_tech_is_an_error() {
        let key: DesignKey = "fp:360:3nm:5".parse().expect("key");
        assert!(build_env(&key, 24).is_err());
    }
}
