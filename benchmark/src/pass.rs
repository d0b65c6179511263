//! What every replayed pass reports, whichever workload it ran.

use crate::alloc::AllocStats;

/// The measurements and checks of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Set-up time, ns: bind → resident set created and verified for the
    /// service workloads; scenarios parsed + schedules built for the
    /// simulator workload.
    pub setup_ns: u64,
    /// First op started → last op finished, ns.
    pub wall_ns: u64,
    /// Per-op latency, ns.
    pub op_ns: Vec<u64>,
    /// Per-op digest of everything the op returned.
    pub op_digest: Vec<u64>,
    /// Ops that failed: an unexpected status, a response that is not
    /// collision-free, a simulated collision or idle wake-up.
    pub failed_ops: u64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
    /// HARP management messages billed to the ops.
    pub mgmt_msgs: u64,
    /// Numerator of `success_ratio`: 2xx ops, or packets delivered.
    pub succeeded: u64,
    /// Denominator of `success_ratio`: ops, or packets generated.
    pub offered: u64,
    /// Allocator counters when the first op started (counting pass only).
    pub alloc_before_ops: AllocStats,
    /// Allocator counters when the last op finished (counting pass only).
    pub alloc_after_ops: AllocStats,
}

impl Pass {
    /// One digest over the whole pass (64-bit FNV-1a of the op digests).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::default();
        for d in &self.op_digest {
            fnv.write(&d.to_le_bytes());
        }
        fnv.0
    }

    /// Records a failure, keeping only the first few messages.
    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed_ops += 1;
        if self.failures.len() < 5 {
            self.failures.push(message());
        }
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a response body in with the one field that legitimately
    /// differs between passes masked: the digits after
    /// `"correlation_id": ` (a process-wide counter).
    pub fn write_masked(&mut self, body: &[u8]) {
        const KEY: &[u8] = b"\"correlation_id\": ";
        match body.windows(KEY.len()).position(|w| w == KEY) {
            Some(at) => {
                let digits = at + KEY.len();
                let rest = body[digits..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .map_or(body.len(), |n| digits + n);
                self.write(&body[..digits]);
                self.write(&body[rest..]);
            }
            None => self.write(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_masks_only_the_correlation_id() {
        let digest = |body: &str| {
            let mut f = Fnv::default();
            f.write_masked(body.as_bytes());
            f.0
        };
        let a = digest("{\"mgmt_messages\": 4, \"correlation_id\": 17}\n");
        let b = digest("{\"mgmt_messages\": 4, \"correlation_id\": 90210}\n");
        let c = digest("{\"mgmt_messages\": 5, \"correlation_id\": 17}\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
