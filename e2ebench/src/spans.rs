//! In-memory spans recorded from the benchmark's side of each public call.
//!
//! A span has a name, a start, an end and a parent. Spans opened on one
//! thread nest by stack discipline; a span opened on a thread with no open
//! span (an engine producer thread polling a source) is parented to the
//! tracer's *ambient* span, which the client points at the running query.
//! Self time is a span's duration minus the durations of its children on
//! the same thread: those nest inside it and are disjoint, so self time is
//! never negative. Children on other threads ran alongside the parent and
//! are not subtracted.
//!
//! A poll that moves less than a batch is not kept as a span: a span costs
//! about as much as such a poll, and a query over delayed mirrors makes
//! hundreds of thousands of them, mostly pending or one tuple each. Its
//! time is folded into its parent (`folded_ns`, subtracted from the
//! parent's self time like a child's) and its count, time and tuples into
//! per-name totals ([`Folded`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The query the span belongs to (0 outside any query, e.g. set-up).
    pub query: u64,
    pub thread: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Tuples a poll returned.
    pub tuples: u64,
    /// Whether a poll returned `Pending`.
    pub pending: bool,
    /// Time of same-thread children folded into this span rather than
    /// kept.
    pub folded_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
pub struct Open {
    id: u64,
    parent: u64,
    query: u64,
    name: &'static str,
    start_ns: u64,
}

/// Totals of folded polls of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    pub count: u64,
    pub ns: u64,
    pub tuples: u64,
    pub pending: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    ambient: AtomicU64,
    query: AtomicU64,
    spans: Mutex<Vec<Span>>,
    folded: Mutex<HashMap<&'static str, Folded>>,
}

/// An open span on a thread's stack.
struct Frame {
    id: u64,
    folded_ns: u64,
    had_child: bool,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = next_thread_id();
}

fn next_thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            query: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            folded: Mutex::new(HashMap::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = match s.last_mut() {
                Some(top) => {
                    top.had_child = true;
                    top.id
                }
                None => self.ambient.load(Ordering::SeqCst),
            };
            s.push(Frame {
                id,
                folded_ns: 0,
                had_child: false,
            });
            parent
        });
        Open {
            id,
            parent,
            query: self.query.load(Ordering::SeqCst),
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open, tuples: u64, pending: bool) {
        let end_ns = self.now_ns();
        let frame = Self::pop(&open);
        self.record(open, end_ns, tuples, pending, frame.folded_ns);
    }

    /// End a span that is not worth keeping: its time is folded into its
    /// parent on this thread, and returned so the caller can total it. A
    /// span with children is kept instead (returning `None`), so the tree
    /// stays whole.
    pub fn end_folded(&self, open: Open, tuples: u64, pending: bool) -> Option<u64> {
        let end_ns = self.now_ns();
        let frame = Self::pop(&open);
        if frame.had_child {
            self.record(open, end_ns, tuples, pending, frame.folded_ns);
            return None;
        }
        let dur = end_ns - open.start_ns;
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.folded_ns += dur;
            }
        });
        Some(dur)
    }

    /// Add folded spans' totals under `name`.
    pub fn add_folded(&self, name: &'static str, f: Folded) {
        let mut folded = self.folded.lock().expect("fold store poisoned");
        let t = folded.entry(name).or_default();
        t.count += f.count;
        t.ns += f.ns;
        t.tuples += f.tuples;
        t.pending += f.pending;
    }

    fn pop(open: &Open) -> Frame {
        let frame = STACK
            .with(|s| s.borrow_mut().pop())
            .expect("a span is open on this thread");
        debug_assert_eq!(frame.id, open.id, "spans must end in stack order");
        frame
    }

    fn record(&self, open: Open, end_ns: u64, tuples: u64, pending: bool, folded_ns: u64) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            query: open.query,
            thread: THREAD.with(|t| *t),
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            tuples,
            pending,
            folded_ns,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open, 0, false);
        r
    }

    /// Like [`Tracer::span`], but spans opened on other threads while `f`
    /// runs are parented to this one and stamped with `query`.
    pub fn ambient_span<R>(&self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        let prev_query = self.query.swap(query, Ordering::SeqCst);
        let open = self.begin(name);
        let prev_ambient = self.ambient.swap(open.id, Ordering::SeqCst);
        let r = f();
        self.ambient.store(prev_ambient, Ordering::SeqCst);
        self.end(open, 0, false);
        self.query.store(prev_query, Ordering::SeqCst);
        r
    }

    /// Forget spans a panic left open on this thread, so the next span
    /// does not take a dead one as its parent.
    pub fn recover_from_panic(&self) {
        STACK.with(|s| s.borrow_mut().clear());
        self.ambient.store(0, Ordering::SeqCst);
        self.query.store(0, Ordering::SeqCst);
    }

    /// Take the kept spans and the folded totals, leaving both empty.
    pub fn take(&self) -> (Vec<Span>, HashMap<&'static str, Folded>) {
        (
            std::mem::take(&mut *self.spans.lock().expect("span store poisoned")),
            std::mem::take(&mut *self.folded.lock().expect("fold store poisoned")),
        )
    }
}

/// Self time of every span, keyed by index into `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns: Vec<u64> = spans.iter().map(|s| s.folded_ns).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                child_ns[p] += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"folded_ns\":{},\"tuples\":{},\"pending\":{}}}",
            s.id, s.parent, s.query, s.thread, s.name, s.start_ns, s.end_ns, self_ns, s.folded_ns, s.tuples, s.pending
        )?;
    }
    out.flush()
}
