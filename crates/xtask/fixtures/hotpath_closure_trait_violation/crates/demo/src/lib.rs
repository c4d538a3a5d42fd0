//! Seeded violation for the `hot-path-closure` lint, reachable only
//! through a trait-qualified call.
//!
//! The hot-path fn calls `Sink::take(self, x)` by its trait path, with
//! no method call that could name `take`. The trait declares `take`
//! without a body, so the allocation in the impl is found only if the
//! call graph resolves a trait path to the trait's impls.

/// A consumer of values.
pub trait Sink {
    /// Takes one value.
    fn take(&mut self, x: u32);
}

/// A sink that keeps every value.
pub struct Buffered {
    items: Vec<u32>,
}

impl Sink for Buffered {
    fn take(&mut self, x: u32) {
        let fresh = vec![x; 1];
        self.items.extend(fresh);
    }
}

impl Buffered {
    /// The annotated entry point: clean body, dirty trait impl.
    // lint: hot-path
    pub fn step(&mut self, xs: &[u32]) {
        for &x in xs {
            Sink::take(self, x);
        }
    }
}
