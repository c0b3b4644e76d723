//! In-memory span recorder for the traced replay.
//!
//! A span covers one call (or one per-cycle loop of calls) into a layer.
//! Spans nest: the replay opens the cycle-loop span, and every layer span
//! opened inside it is its child. Closing a span charges its *self* time
//! (its duration minus the part its children cover) to its layer, so the
//! self times of all layers sum exactly to the duration of the outermost
//! spans. A bounded prefix of the raw spans is kept for export.

use std::io::Write as _;
use std::time::Instant;

/// The layers the replay times, named after the modules they call into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The replay's own cycle loop and bookkeeping (due sets, schedules):
    /// whatever the layer spans inside the loop do not cover.
    Harness,
    /// Simulator construction (`mdd_core` wiring of every component).
    CoreBuild,
    /// The quiescent fast-forward check run before each cycle.
    CoreFf,
    /// `SyntheticTraffic::tick` and `TrafficSource::pending_sources`.
    Traffic,
    /// `Nic::can_issue_request` / `Nic::issue_request` from source queues.
    NicIssue,
    /// `Nic::tick`, the endpoint work of due NICs.
    NicTick,
    /// `Nic::detection_fired` / `Nic::try_deflect` (DR).
    NicDeflect,
    /// `PrRecovery::step` (PR).
    Recovery,
    /// `Nic::injection_tick`.
    NicInject,
    /// `Network::step`, which calls routing and ejection.
    Router,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 10;

    /// Every layer, in index order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Harness,
        Layer::CoreBuild,
        Layer::CoreFf,
        Layer::Traffic,
        Layer::NicIssue,
        Layer::NicTick,
        Layer::NicDeflect,
        Layer::Recovery,
        Layer::NicInject,
        Layer::Router,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "bench.harness",
            Layer::CoreBuild => "core.build",
            Layer::CoreFf => "core.ff",
            Layer::Traffic => "traffic",
            Layer::NicIssue => "nic.issue",
            Layer::NicTick => "nic.tick",
            Layer::NicDeflect => "nic.deflect",
            Layer::Recovery => "recovery",
            Layer::NicInject => "nic.inject",
            Layer::Router => "router",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's base instant.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The run the span belongs to (one simulated point).
    pub run: u32,
    /// Sequence number of the span within its run.
    pub id: u32,
    /// `id` of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The layer called.
    pub layer: Layer,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

struct Open {
    layer: Layer,
    id: u32,
    parent: u32,
    start: u64,
    child: u64,
}

/// Records spans for one run and accumulates self time per layer.
pub struct Tracer {
    base: Instant,
    run: u32,
    next_id: u32,
    open: Vec<Open>,
    self_ns: [u64; Layer::COUNT],
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A tracer for run `run`, timing against `base` and keeping at most
    /// `cap` raw spans (self times are accumulated for every span).
    pub fn new(base: Instant, run: u32, cap: usize) -> Self {
        Tracer {
            base,
            run,
            next_id: 0,
            open: Vec::with_capacity(4),
            self_ns: [0; Layer::COUNT],
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span for `layer` as a child of the innermost open span.
    #[inline]
    pub fn open(&mut self, layer: Layer) {
        let start = self.now();
        let parent = self.open.last().map_or(NO_PARENT, |o| o.id);
        let id = self.next_id;
        self.next_id = id.wrapping_add(1);
        self.open.push(Open {
            layer,
            id,
            parent,
            start,
            child: 0,
        });
    }

    /// Close the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        let end = self.now();
        let o = self.open.pop().expect("close matches an open span");
        let dur = end - o.start;
        self.self_ns[o.layer as usize] += dur.saturating_sub(o.child);
        if let Some(p) = self.open.last_mut() {
            p.child += dur;
        }
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                run: self.run,
                id: o.id,
                parent: o.parent,
                layer: o.layer,
                start_ns: o.start,
                end_ns: end,
            });
        }
    }

    /// Self time charged to `layer` so far, ns.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Self time of every layer, indexed by `Layer as usize`.
    pub fn self_ns_all(&self) -> [u64; Layer::COUNT] {
        self.self_ns
    }

    /// The raw spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write spans as CSV (`run,id,parent,layer,start_ns,end_ns`; a parent of
/// -1 marks a top-level span).
pub fn write_spans_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "run,id,parent,layer,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.run,
            s.id,
            parent,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut t = Tracer::new(Instant::now(), 7, 16);
        t.open(Layer::Harness);
        t.open(Layer::Router);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close();
        t.open(Layer::Traffic);
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans[2];
        assert_eq!(root.layer, Layer::Harness);
        assert_eq!(root.parent, NO_PARENT);
        assert!(spans[..2].iter().all(|s| s.parent == root.id && s.run == 7));
        let total: u64 = t.self_ns_all().iter().sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert!(t.self_ns(Layer::Router) >= 2_000_000);
    }

    #[test]
    fn span_log_is_bounded_but_self_time_is_not() {
        let mut t = Tracer::new(Instant::now(), 0, 2);
        for _ in 0..5 {
            t.open(Layer::NicTick);
            t.close();
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].id, 1);
    }
}
