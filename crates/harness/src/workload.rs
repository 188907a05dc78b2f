//! The paper's experimental workload (§5.1, Figure 13).
//!
//! ```text
//! end client --request1--> MSP1.ServiceMethod1 {
//!                              read and write SV0
//!                              m × call MSP2.ServiceMethod2 {
//!                                        read and write SV2
//!                                        read and write SV3
//!                                        modify session state (512 B)
//!                                    }
//!                              read and write SV1
//!                              modify session state (512 B)
//!                          }
//! ```
//!
//! Parameters and returned values are 100 B; each shared variable is
//! 128 B; the total session state per session is 8 KB (16 slots of
//! 512 B), of which each request rewrites one slot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use msp_core::ServiceContext;
use msp_types::MspId;

/// Byte sizes from §5.1.
pub const PAYLOAD_BYTES: usize = 100;
pub const SHARED_VAR_BYTES: usize = 128;
pub const SESSION_SLOT_BYTES: usize = 512;
pub const SESSION_SLOTS: usize = 16; // 16 × 512 B = 8 KB session state

pub const MSP1: MspId = MspId(1);
pub const MSP2: MspId = MspId(2);

/// Shared variables of each MSP.
pub const MSP1_VARS: [&str; 2] = ["SV0", "SV1"];
pub const MSP2_VARS: [&str; 2] = ["SV2", "SV3"];

/// A 100-byte request payload instructing `ServiceMethod1` to call
/// `ServiceMethod2` `m` times (the Figure 14 chart's x-axis).
pub fn request_payload(m: u8) -> Vec<u8> {
    let mut p = vec![0u8; PAYLOAD_BYTES];
    p[0] = m;
    p
}

/// Initial 128-byte value of a shared variable (a u64 counter plus
/// padding).
pub fn initial_shared() -> Vec<u8> {
    vec![0u8; SHARED_VAR_BYTES]
}

fn bump_counter_value(old: &[u8]) -> (u64, Vec<u8>) {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&old[..8]);
    let n = u64::from_le_bytes(bytes) + 1;
    let mut v = vec![0u8; SHARED_VAR_BYTES];
    v[..8].copy_from_slice(&n.to_le_bytes());
    (n, v)
}

/// Read-modify-write of one shared variable: the "read and write SVx"
/// step of both service methods. Uses the atomic update primitive — with
/// the split read + write calls, two sessions can interleave between the
/// two lock holds and both write the same incremented value, losing an
/// update (which the torture oracle's counter model would flag).
fn touch_shared(ctx: &mut ServiceContext<'_>, name: &str) -> Result<u64, String> {
    ctx.update_shared(name, |cur| {
        let (n, next) = bump_counter_value(cur);
        (next, n)
    })
}

/// "Modify session state": advance the per-session request counter and
/// rewrite one 512-byte slot of the 8 KB session state.
fn modify_session_state(ctx: &mut ServiceContext<'_>) -> u64 {
    let k = ctx
        .get_session("k")
        .map(|v| u64::from_le_bytes(v[..8].try_into().expect("8 bytes")))
        .unwrap_or(0)
        + 1;
    ctx.set_session("k", k.to_le_bytes().to_vec());
    let slot = (k as usize) % SESSION_SLOTS;
    let fill = (k % 251) as u8;
    ctx.set_session(&format!("slot{slot}"), vec![fill; SESSION_SLOT_BYTES]);
    k
}

/// 100-byte reply embedding the session's request counter (lets the
/// harness assert exactly-once execution end to end).
fn reply_bytes(k: u64, sv_counter: u64) -> Vec<u8> {
    let mut r = vec![0u8; PAYLOAD_BYTES];
    r[..8].copy_from_slice(&k.to_le_bytes());
    r[8..16].copy_from_slice(&sv_counter.to_le_bytes());
    r
}

/// A hook the fault injector can arm; invoked after `ServiceMethod1`
/// consumes the reply from `ServiceMethod2` during *live* execution —
/// the exact instant §5.4 kills MSP2.
pub type AfterReplyHook = Arc<dyn Fn() + Send + Sync>;

/// `ServiceMethod2` as registered at MSP2.
pub fn service_method2(ctx: &mut ServiceContext<'_>, _payload: &[u8]) -> Result<Vec<u8>, String> {
    let sv = touch_shared(ctx, "SV2")?;
    touch_shared(ctx, "SV3")?;
    let k = modify_session_state(ctx);
    Ok(reply_bytes(k, sv))
}

/// Build `ServiceMethod1` for MSP1, optionally wired to a fault-injection
/// hook (see [`crate::crashes`]).
pub fn make_service_method1(
    hook: Option<AfterReplyHook>,
    hook_every: u64,
) -> impl Fn(&mut ServiceContext<'_>, &[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static {
    let live_calls = Arc::new(AtomicU64::new(0));
    move |ctx, payload| {
        let m = payload.first().copied().unwrap_or(1).max(1);
        touch_shared(ctx, "SV0")?;
        for _ in 0..m {
            ctx.call(MSP2, "ServiceMethod2", payload)?;
            // Fault injection (§5.4): "when the reply from ServiceMethod2
            // is received by MSP1, MSP2 is instructed to kill itself."
            // Only live executions count — replay must not re-trigger
            // crashes (the hook is external test machinery, not session
            // state, so this does not violate determinism).
            if let Some(hook) = &hook {
                if !ctx.is_replaying() {
                    let n = live_calls.fetch_add(1, Ordering::Relaxed) + 1;
                    if hook_every > 0 && n.is_multiple_of(hook_every) {
                        hook();
                    }
                }
            }
        }
        let sv = touch_shared(ctx, "SV1")?;
        let k = modify_session_state(ctx);
        Ok(reply_bytes(k, sv))
    }
}

/// Decode the session counter from a reply (exactly-once assertions).
pub fn reply_counter(reply: &[u8]) -> u64 {
    u64::from_le_bytes(reply[..8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_encodes_call_count() {
        let p = request_payload(3);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        assert_eq!(p[0], 3);
    }

    #[test]
    fn counter_value_bumps() {
        let v0 = initial_shared();
        let (n1, v1) = bump_counter_value(&v0);
        assert_eq!(n1, 1);
        assert_eq!(v1.len(), SHARED_VAR_BYTES);
        let (n2, _) = bump_counter_value(&v1);
        assert_eq!(n2, 2);
    }

    #[test]
    fn reply_roundtrip() {
        let r = reply_bytes(42, 7);
        assert_eq!(r.len(), PAYLOAD_BYTES);
        assert_eq!(reply_counter(&r), 42);
    }
}
