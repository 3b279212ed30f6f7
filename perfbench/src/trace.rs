//! In-memory spans recorded around each layer call of a traced run.
//!
//! A span has a name, a start and an end (microseconds since the run's
//! epoch), a parent span and the id of the query it belongs to. Spans are
//! kept in memory and written out as JSON lines when the run ends, so the
//! recording itself stays off the measured path.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub query: usize,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) as f64 * 1e-6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    /// A tracer whose epoch is now.
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: usize) -> usize {
        let start_us = self.epoch.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name,
            parent,
            query,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.epoch.elapsed().as_micros() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        (out, self.spans[id].secs())
    }

    /// A span's duration minus the time its direct children cover.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.secs();
            }
        }
        own
    }

    /// Total self time per span name.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_secs()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"query\":{},\"start_us\":{},\"end_us\":{}}}",
                s.name, s.query, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                Span {
                    name: "query",
                    parent: None,
                    query: 0,
                    start_us: 0,
                    end_us: 100,
                },
                Span {
                    name: "run",
                    parent: Some(0),
                    query: 0,
                    start_us: 10,
                    end_us: 70,
                },
                Span {
                    name: "certify",
                    parent: Some(0),
                    query: 0,
                    start_us: 70,
                    end_us: 90,
                },
            ],
        };
        let own = t.self_secs();
        assert!((own[0] - 20e-6).abs() < 1e-12);
        assert!((own[1] - 60e-6).abs() < 1e-12);
        assert!((t.self_time("certify") - 20e-6).abs() < 1e-12);
    }
}
