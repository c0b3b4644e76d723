//! The replay's per-NIC due schedule.
//!
//! Mirrors the simulator's idle-skip schedule: per NIC, the next cycle
//! its endpoint and injection ticks must run (`u64::MAX` = inert), plus a
//! two-level occupancy bitmap over the scheduled NICs so that collecting
//! the due set walks only scheduled NICs, in ascending index order, never
//! the whole array.

/// Per-NIC next-due cycles with a two-level occupancy bitmap.
pub struct DueSet {
    next: Vec<u64>,
    /// Bit `i` set iff `next[i] != u64::MAX`.
    bits: Vec<u64>,
    /// Bit `w` set iff `bits[w] != 0`.
    summary: Vec<u64>,
}

impl DueSet {
    /// `n` NICs, all due at cycle 0.
    pub fn new(n: usize) -> Self {
        let mut s = DueSet {
            next: vec![0; n],
            bits: vec![0; n.div_ceil(64)],
            summary: vec![0; n.div_ceil(64 * 64).max(1)],
        };
        s.wake_all(0);
        s
    }

    /// Set NIC `i`'s next due cycle.
    #[inline]
    pub fn set(&mut self, i: usize, cycle: u64) {
        self.next[i] = cycle;
        let w = i / 64;
        if cycle == u64::MAX {
            self.bits[w] &= !(1 << (i % 64));
            if self.bits[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        } else {
            self.bits[w] |= 1 << (i % 64);
            self.summary[w / 64] |= 1 << (w % 64);
        }
    }

    /// Make every NIC due at `cycle`.
    pub fn wake_all(&mut self, cycle: u64) {
        let n = self.next.len();
        self.next.fill(cycle);
        self.bits.fill(u64::MAX);
        if !n.is_multiple_of(64) {
            let last = self.bits.len() - 1;
            self.bits[last] = (1 << (n % 64)) - 1;
        }
        for (w, &word) in self.bits.iter().enumerate() {
            if word != 0 {
                self.summary[w / 64] |= 1 << (w % 64);
            }
        }
    }

    /// Call `f` on every scheduled NIC index, ascending.
    #[inline]
    fn for_each_scheduled(&self, mut f: impl FnMut(usize)) {
        for (s, &sw) in self.summary.iter().enumerate() {
            let mut sw = sw;
            while sw != 0 {
                let w = s * 64 + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let mut word = self.bits[w];
                while word != 0 {
                    f(w * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
        }
    }

    /// Every NIC due at or before `cycle`, ascending, into `out`.
    pub fn due_into(&self, cycle: u64, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_scheduled(|i| {
            if self.next[i] <= cycle {
                out.push(i as u32);
            }
        });
    }

    /// The earliest due cycle (`u64::MAX` when every NIC is inert).
    pub fn min_next(&self) -> u64 {
        let mut min = u64::MAX;
        self.for_each_scheduled(|i| min = min.min(self.next[i]));
        min
    }
}

#[cfg(test)]
mod tests {
    use super::DueSet;

    #[test]
    fn tracks_a_flat_deadline_array() {
        let n = 200;
        let mut s = DueSet::new(n);
        let mut due = Vec::new();
        s.due_into(0, &mut due);
        assert_eq!(due, (0..n as u32).collect::<Vec<_>>());
        for i in 0..n {
            s.set(i, u64::MAX);
        }
        assert_eq!(s.min_next(), u64::MAX);
        s.set(137, 42);
        s.set(3, 7);
        s.set(199, 42);
        s.due_into(42, &mut due);
        assert_eq!(due, vec![3, 137, 199]);
        s.due_into(41, &mut due);
        assert_eq!(due, vec![3]);
        s.set(3, u64::MAX);
        assert_eq!(s.min_next(), 42);
        s.wake_all(9);
        s.due_into(9, &mut due);
        assert_eq!(due.len(), n);
    }
}
