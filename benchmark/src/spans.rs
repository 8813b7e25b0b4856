//! The benchmark's own spans, recorded around its calls into the program
//! during the traced pass. Kept in memory and written out when the run
//! ends; a disabled recorder (every timed run) records nothing.

use std::time::Instant;

use deca_check::json::Json;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Shared by all spans of one job; 0 for spans outside any job.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; the returned id names it as a parent and closes it.
    pub fn start(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, job, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Record a span that was timed elsewhere (on a client thread).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span { name, parent, job, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::int(id as u64)),
                        ("name", Json::str(s.name)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::int(p as u64))),
                        ("job", Json::int(s.job)),
                        ("start_ns", Json::int(s.start_ns)),
                        ("end_ns", Json::int(s.end_ns)),
                        ("self_ns", Json::int(self.self_ns(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let root = spans.start("job", None, 7);
        let run = spans.start("job_run", Some(root), 7);
        spans.end(run);
        spans.end(root);
        let all = &spans.spans;
        assert_eq!(all.len(), 2);
        assert_eq!(all[run].parent, Some(root));
        assert!(all[root].start_ns <= all[run].start_ns && all[run].end_ns <= all[root].end_ns);
        let run_ns = all[run].end_ns - all[run].start_ns;
        assert_eq!(spans.self_ns(root), all[root].end_ns - all[root].start_ns - run_ns);
        assert_eq!(spans.self_ns(run), run_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.start("setup", None, 0);
        spans.end(id);
        assert!(spans.spans.is_empty());
    }
}
