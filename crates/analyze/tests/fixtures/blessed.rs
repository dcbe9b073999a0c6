// Blessed-pattern fixture: every construct here is the sanctioned version
// of something a rule polices. The analyzer must stay silent on all of it.
use std::sync::Mutex;

/// D2's blessed shape: per-chunk buffers merged in chunk index order.
/// Deterministic at any thread count because the merge order is the chunk
/// order, never the completion order.
pub fn chunk_ordered_sum(chunks: &[Vec<f64>]) -> f64 {
    let mut partials = vec![0.0f64; chunks.len()];
    for (slot, chunk) in partials.iter_mut().zip(chunks) {
        for x in chunk {
            *slot += *x;
        }
    }
    let mut total = 0.0;
    for p in &partials {
        total += *p;
    }
    total
}

/// D6 stays quiet when every function agrees on one acquisition order.
pub struct State {
    first: Mutex<u64>,
    second: Mutex<u64>,
}

impl State {
    pub fn sum(&self) -> u64 {
        let a = self.first.lock().unwrap();
        let b = self.second.lock().unwrap();
        *a + *b
    }

    pub fn product(&self) -> u64 {
        let a = self.first.lock().unwrap();
        let b = self.second.lock().unwrap();
        *a * *b
    }
}
