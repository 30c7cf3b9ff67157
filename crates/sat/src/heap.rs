//! An indexed binary max-heap over variable activities, used by the
//! VSIDS decision heuristic. Supports `O(log n)` insert/pop and
//! `O(log n)` priority increase for elements already in the heap.

use revkb_logic::Var;

/// Indexed max-heap keyed by `f64` activity.
#[derive(Debug, Default, Clone)]
pub struct ActivityHeap {
    /// Heap array of variable indices.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NOT_IN_HEAP`.
    position: Vec<u32>,
    /// Activity of each variable.
    activity: Vec<f64>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl ActivityHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make room for variables `0..n`, inserting new ones with zero
    /// activity.
    pub fn grow_to(&mut self, n: usize) {
        while self.position.len() < n {
            let v = Var(self.position.len() as u32);
            self.position.push(NOT_IN_HEAP);
            self.activity.push(0.0);
            self.insert(v);
        }
    }

    /// Current activity of `v`.
    pub fn activity(&self, v: Var) -> f64 {
        self.activity[v.index()]
    }

    /// Number of queued variables.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no variable is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `v` is queued.
    pub fn contains(&self, v: Var) -> bool {
        self.position
            .get(v.index())
            .map(|&p| p != NOT_IN_HEAP)
            .unwrap_or(false)
    }

    /// Queue `v` (no-op if already queued).
    pub fn insert(&mut self, v: Var) {
        if self.contains(v) {
            return;
        }
        let i = self.heap.len();
        self.heap.push(v.0);
        self.position[v.index()] = i as u32;
        self.sift_up(i);
    }

    /// Take `v` out of the queue (no-op if it is not queued) and reset
    /// its activity to zero, as for a letter that was never used.
    pub fn release(&mut self, v: Var) {
        let pos = self.position[v.index()];
        if pos != NOT_IN_HEAP {
            let pos = pos as usize;
            let last = self.heap.pop().expect("a queued letter is in the heap");
            self.position[v.index()] = NOT_IN_HEAP;
            if pos < self.heap.len() {
                self.heap[pos] = last;
                self.position[last as usize] = pos as u32;
                self.sift_up(pos);
                self.sift_down(self.position[last as usize] as usize);
            }
        }
        self.activity[v.index()] = 0.0;
    }

    /// Remove and return the variable with maximal activity.
    pub fn pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = Var(self.heap[0]);
        let last = self.heap.pop().unwrap();
        self.position[top.index()] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Add `amount` to the activity of `v`, restoring heap order.
    /// Returns the new activity (caller checks for rescale).
    pub fn bump(&mut self, v: Var, amount: f64) -> f64 {
        self.activity[v.index()] += amount;
        if self.contains(v) {
            let pos = self.position[v.index()] as usize;
            self.sift_up(pos);
        }
        self.activity[v.index()]
    }

    /// Divide every activity by `factor` (VSIDS rescale). Relative
    /// order is unchanged, so the heap stays valid.
    pub fn rescale(&mut self, factor: f64) {
        for a in &mut self.activity {
            *a /= factor;
        }
    }

    fn less(&self, a: u32, b: u32) -> bool {
        // Max-heap: "less" means lower activity (ties by higher index,
        // so low indices win — deterministic).
        let (aa, ab) = (self.activity[a as usize], self.activity[b as usize]);
        aa < ab || (aa == ab && a > b)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.less(self.heap[parent], self.heap[i]) {
                self.swap(parent, i);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len() && self.less(self.heap[largest], self.heap[l]) {
                largest = l;
            }
            if r < self.heap.len() && self.less(self.heap[largest], self.heap[r]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = a as u32;
        self.position[self.heap[b] as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let mut h = ActivityHeap::new();
        h.grow_to(4);
        h.bump(Var(2), 3.0);
        h.bump(Var(0), 1.0);
        h.bump(Var(3), 2.0);
        assert_eq!(h.pop(), Some(Var(2)));
        assert_eq!(h.pop(), Some(Var(3)));
        assert_eq!(h.pop(), Some(Var(0)));
        assert_eq!(h.pop(), Some(Var(1))); // zero activity
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn reinsert_after_pop() {
        let mut h = ActivityHeap::new();
        h.grow_to(2);
        let a = h.pop().unwrap();
        assert!(!h.contains(a));
        h.insert(a);
        assert!(h.contains(a));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn bump_outside_heap_kept_on_reinsert() {
        let mut h = ActivityHeap::new();
        h.grow_to(2);
        let v = h.pop().unwrap();
        h.bump(v, 10.0);
        h.insert(v);
        assert_eq!(h.pop(), Some(v));
    }

    #[test]
    fn rescale_preserves_order() {
        let mut h = ActivityHeap::new();
        h.grow_to(3);
        h.bump(Var(1), 1e100);
        h.bump(Var(2), 2e100);
        h.rescale(1e100);
        assert_eq!(h.pop(), Some(Var(2)));
        assert_eq!(h.pop(), Some(Var(1)));
        assert!((h.activity(Var(2)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn release_unqueues_and_forgets_activity() {
        let mut h = ActivityHeap::new();
        h.grow_to(6);
        for i in 0..6 {
            h.bump(Var(i), f64::from(i));
        }
        h.release(Var(3));
        h.release(Var(5));
        assert!(!h.contains(Var(3)));
        assert_eq!(h.activity(Var(5)), 0.0);
        let order: Vec<Var> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, vec![Var(4), Var(2), Var(1), Var(0)]);
        h.insert(Var(5));
        assert_eq!(h.pop(), Some(Var(5)));
    }

    #[test]
    fn deterministic_tiebreak_low_index_first() {
        let mut h = ActivityHeap::new();
        h.grow_to(3);
        assert_eq!(h.pop(), Some(Var(0)));
        assert_eq!(h.pop(), Some(Var(1)));
        assert_eq!(h.pop(), Some(Var(2)));
    }
}
