//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time analysis of a traced run.
//!
//! A span records one call into a crate's public function: its name
//! (`<layer>.<call>`), start and end in nanoseconds since the process
//! epoch, the span that caused it, the thread it ran on and the request
//! it belongs to. Spans nest implicitly on one thread (the innermost open
//! span is the parent); work handed to another thread names its parent
//! explicitly. Recording is off unless [`enable`] turned it on, and an
//! off recorder takes no timestamps.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request (job, program or served request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the calls that follow.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 when none or when off).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Runs `f` inside a span named `name`, parented to the innermost open
/// span on this thread.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    span_under(name, current(), req, f)
}

/// Runs `f` inside a span named `name` whose parent is `parent` — for
/// work that runs on another thread than the span that caused it.
pub fn span_under<R>(name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = CURRENT.with(|c| c.replace(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CURRENT.with(|c| c.set(outer));
    let thread = THREAD.with(|t| *t);
    SPANS.lock().expect("span buffer lock poisoned by a panicking recorder").push(Span {
        id,
        parent,
        name,
        thread,
        start_ns,
        end_ns,
        req,
    });
    out
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock poisoned by a panicking recorder"))
}

/// Per-name totals of a set of spans.
#[derive(Clone, Debug, Default)]
pub struct NameTotals {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part children cover.
    pub self_ns: u64,
}

/// The self-time breakdown of a set of spans.
#[derive(Debug, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Time where two or more children of one parent ran at once,
    /// counted once per extra child (parallel workers, concurrent
    /// clients).
    pub overlap_ns: u64,
}

impl Profile {
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Totals over every span whose name starts with `prefix`.
    pub fn prefixed(&self, prefix: &str) -> NameTotals {
        let mut t = NameTotals::default();
        for (name, v) in &self.by_name {
            if name.starts_with(prefix) {
                t.calls += v.calls;
                t.total_ns += v.total_ns;
                t.self_ns += v.self_ns;
            }
        }
        t
    }

    /// Self time per layer.
    pub fn by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, v) in &self.by_name {
            *out.entry(name.split('.').next().unwrap_or(name)).or_insert(0) += v.self_ns;
        }
        out
    }

    pub fn self_sum_ns(&self) -> u64 {
        self.by_name.values().map(|v| v.self_ns).sum()
    }
}

/// Computes self times. A child's interval is clipped to its parent's,
/// so the identity `sum(self) = sum(roots) + overlap` holds exactly only
/// when every child lies inside its parent; the benchmark checks it.
pub fn profile(spans: &[Span]) -> Profile {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut p = Profile::default();
    for s in spans {
        let (covered, child_sum) = match children.get_mut(&s.id) {
            None => (0, 0),
            Some(iv) => {
                iv.sort_unstable();
                let mut covered = 0;
                let mut sum = 0;
                let mut open: Option<(u64, u64)> = None;
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    sum += b - a;
                    open = match open {
                        Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                        Some((oa, ob)) => {
                            covered += ob - oa;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((oa, ob)) = open {
                    covered += ob - oa;
                }
                (covered, sum)
            }
        };
        p.overlap_ns += child_sum - covered;
        let t = p.by_name.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered;
    }
    p
}

/// Writes spans as JSON lines: one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, thread: 0, start_ns, end_ns, req: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // Root 0..100 with two overlapping children 10..60 and 40..80
        // and a grandchild 20..30.
        let spans = vec![
            sp(1, 0, "bench.pass", 0, 100),
            sp(2, 1, "core.run", 10, 60),
            sp(3, 1, "core.run", 40, 80),
            sp(4, 2, "asm.assemble", 20, 30),
        ];
        let p = profile(&spans);
        assert_eq!(p.get("bench.pass").self_ns, 30);
        assert_eq!(p.get("core.run").self_ns, 40 + 40);
        assert_eq!(p.get("asm.assemble").self_ns, 10);
        assert_eq!(p.overlap_ns, 20);
        assert_eq!(p.self_sum_ns() - p.overlap_ns, 100, "self times add up to the root");
    }
}
