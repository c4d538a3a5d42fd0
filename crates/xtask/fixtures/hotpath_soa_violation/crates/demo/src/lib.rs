//! Seeded violation: a SoA-style dispatch loop that allocates per call.
//!
//! Models the exact regression the hot-path lint exists to catch in the
//! data-oriented engine: a scratch buffer that should live in the
//! persistent dispatch context (`DispatchCtx`) being rebuilt inside the
//! per-step dispatch instead. The shape mirrors `dispatch` /
//! `finish_step`: iterate occupied nodes, gather arrivals, stage moves.

pub struct Shared {
    pub occupied: Vec<u32>,
    pub arrivals: Vec<u32>,
    pub arr_stride: u32,
}

// lint: hot-path
pub fn dispatch_soa(sh: &Shared, staged: &mut Vec<u64>) {
    for &v in &sh.occupied {
        let base = (v * sh.arr_stride) as usize;
        // Per-node scratch built fresh every step: the allocation the
        // lint must flag (belongs in a reused dispatch buffer).
        let contenders: Vec<u32> = sh.arrivals[base..base + 2].to_vec();
        let tag = format!("node{v}");
        for &p in &contenders {
            staged.push(u64::from(p) | (u64::from(tag.len() as u32) << 32));
        }
    }
}
