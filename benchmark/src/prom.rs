//! Counters of a `fidr.metrics.v1` snapshot, keyed by Prometheus name.
//!
//! The server is scraped in-band in Prometheus text (the JSON scrape
//! carries only the time-series document); the in-process engines are
//! rendered through the same exposition, so one parser and one set of
//! names (`fidr_cache_hits_count`, …) serves both.

use fidr::metrics::{to_prometheus_text, MetricsSnapshot};
use std::collections::BTreeMap;

/// Unlabelled series of one scrape. Labelled series (per-stream rollups,
/// histogram quantiles) are skipped: nothing here reads them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Self {
        let mut out = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.contains('{') {
                continue;
            }
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Counters(out)
    }

    /// The counters of an in-process engine.
    pub fn of_snapshot(snapshot: &MetricsSnapshot) -> Self {
        Self::parse(&to_prometheus_text(snapshot))
    }

    /// A series by name; families the server gates until first use
    /// (`gc.*`, `delete.*`) read as 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        div(self.get(num), self.get(den))
    }

    /// Client operations the engine served (writes + reads + deletes).
    pub fn ops(&self) -> f64 {
        self.get("fidr_reduction_write_chunks_count")
            + self.get("fidr_reduction_read_chunks_count")
            + self.get("fidr_delete_acked_count")
    }

    /// Client bytes moved (written + read): the denominator of the
    /// paper's per-client-byte ratios.
    pub fn user_bytes(&self) -> f64 {
        self.get("fidr_client_write_bytes") + self.get("fidr_client_read_bytes")
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unlabelled_series_and_skips_the_rest() {
        let text = "# TYPE fidr_cache_hits_count counter\n\
                    fidr_cache_hits_count 6554\n\
                    fidr_cache_hit_ratio 0.9649587750294464\n\
                    fidr_compress_ratio_pct{quantile=\"0.5\"} 50\n\
                    fidr_server_stream_writes{stream=\"0\"} 955\n\
                    \n\
                    fidr_mem_total_bytes 26945712\n\
                    garbage\n";
        let c = Counters::parse(text);
        assert_eq!(c.get("fidr_cache_hits_count"), 6554.0);
        assert_eq!(c.get("fidr_cache_hit_ratio"), 0.9649587750294464);
        assert_eq!(c.get("fidr_mem_total_bytes"), 26_945_712.0);
        assert_eq!(c.get("fidr_compress_ratio_pct"), 0.0);
        assert_eq!(c.get("fidr_gc_runs_count"), 0.0, "gated families read 0");
        assert_eq!(c.0.len(), 3);
    }

    #[test]
    fn ratios_do_not_divide_by_zero() {
        let c = Counters::parse("a 6\nb 4\nz 0\n");
        assert_eq!(c.ratio("a", "b"), 1.5);
        assert_eq!(c.ratio("a", "z"), 0.0);
        assert_eq!(c.ratio("a", "missing"), 0.0);
    }

    #[test]
    fn an_engine_snapshot_parses_to_the_same_names_as_a_scrape() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("client.write.bytes", 8192);
        snap.set_counter("client.read.bytes", 4096);
        snap.set_counter("reduction.write_chunks.count", 2);
        snap.set_counter("reduction.read_chunks.count", 1);
        let c = Counters::of_snapshot(&snap);
        assert_eq!(c.user_bytes(), 12288.0);
        assert_eq!(c.ops(), 3.0);
    }
}
