//! Endpoint capability features (paper §5.4).
//!
//! To fold all edges into one model, the paper adds two features per
//! transfer describing how capable its endpoints are, estimated purely from
//! the log: the endpoint's maximum observed *total* outgoing rate
//! (`ROmax = max over its outgoing transfers of (R + Ksout)`) and maximum
//! incoming rate (`RImax = max of (R + Kdin)`). Intuitively these recover
//! NIC/storage capability without any out-of-band knowledge.

use crate::transfer_features::{TransferFeatures, FEATURES};
use std::collections::BTreeMap;
use wdt_types::EndpointId;

/// Per-endpoint capability estimates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EndpointCaps {
    /// Maximum observed aggregate outgoing rate, bytes/s.
    pub ro_max: f64,
    /// Maximum observed aggregate incoming rate, bytes/s.
    pub ri_max: f64,
}

/// Estimate `ROmax`/`RImax` for every endpoint appearing in `features`.
pub fn endpoint_caps(features: &[TransferFeatures]) -> BTreeMap<EndpointId, EndpointCaps> {
    let mut map: BTreeMap<EndpointId, EndpointCaps> = BTreeMap::new();
    for f in features {
        let src = map.entry(f.edge.src).or_default();
        src.ro_max = src.ro_max.max(f.rate + f.k_sout);
        let dst = map.entry(f.edge.dst).or_default();
        dst.ri_max = dst.ri_max.max(f.rate + f.k_din);
    }
    map
}

/// The served Table-2 features of `f` followed by the source's `ROmax` and
/// the destination's `RImax` (Eq. 5's extra terms). Endpoints never seen in
/// the reference log get zeros — the honest cold-start answer.
pub fn extend_with_caps(
    f: &TransferFeatures,
    caps: &BTreeMap<EndpointId, EndpointCaps>,
) -> Vec<f64> {
    let served = FEATURES.iter().filter(|c| c.served()).map(|c| c.of(f));
    let ro_max = caps.get(&f.edge.src).map_or(0.0, |c| c.ro_max);
    let ri_max = caps.get(&f.edge.dst).map_or(0.0, |c| c.ri_max);
    served.chain([ro_max, ri_max]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdt_types::{EdgeId, TransferId};

    fn feat(src: u32, dst: u32, rate: f64, k_sout: f64, k_din: f64) -> TransferFeatures {
        TransferFeatures {
            id: TransferId(0),
            edge: EdgeId::new(EndpointId(src), EndpointId(dst)),
            start: 0.0,
            end: 1.0,
            rate,
            k_sout,
            k_din,
            c: 1.0,
            p: 1.0,
            s_sout: 0.0,
            s_sin: 0.0,
            s_dout: 0.0,
            s_din: 0.0,
            k_sin: 0.0,
            k_dout: 0.0,
            n_d: 1.0,
            n_b: rate,
            n_flt: 0.0,
            g_src: 0.0,
            g_dst: 0.0,
            n_f: 1.0,
        }
    }

    #[test]
    fn caps_take_rate_plus_contention_max() {
        let fs = vec![
            feat(0, 1, 100.0, 50.0, 0.0),  // ep0 out: 150
            feat(0, 1, 120.0, 10.0, 30.0), // ep0 out: 130; ep1 in: 150
            feat(2, 0, 80.0, 0.0, 200.0),  // ep0 in: 280
        ];
        let caps = endpoint_caps(&fs);
        assert_eq!(caps[&EndpointId(0)].ro_max, 150.0);
        assert_eq!(caps[&EndpointId(0)].ri_max, 280.0);
        assert_eq!(caps[&EndpointId(1)].ri_max, 150.0);
        assert_eq!(caps[&EndpointId(1)].ro_max, 0.0);
    }

    #[test]
    fn extend_appends_two_features() {
        let fs = vec![feat(0, 1, 100.0, 50.0, 25.0)];
        let caps = endpoint_caps(&fs);
        let v = extend_with_caps(&fs[0], &caps);
        assert_eq!(v.len(), 17);
        assert_eq!(v[..15], crate::Dataset::from_features(&fs, crate::Feature::served).x[0]);
        assert_eq!(v[15], 150.0);
        assert_eq!(v[16], 125.0);
    }

    #[test]
    fn unknown_endpoint_gets_zero_caps() {
        let fs = vec![feat(0, 1, 100.0, 0.0, 0.0)];
        let caps = endpoint_caps(&fs);
        let unseen = feat(7, 8, 1.0, 0.0, 0.0);
        let v = extend_with_caps(&unseen, &caps);
        assert_eq!(v[15], 0.0);
        assert_eq!(v[16], 0.0);
    }
}
