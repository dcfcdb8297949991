//! Report exporters: human-readable summary, JSON, Chrome `trace_event`.
//!
//! All three are hand-rolled — the workspace is zero-dependency — and
//! emit only ASCII-escaped strings and finite numbers, so the output is
//! valid JSON by construction.

use std::fmt;

use super::hist::{HistSnapshot, LogHistogram, HIST_BUCKETS};
use super::metrics::{self, SeriesValue};
use super::report::GemmReport;
use super::Phase;

impl fmt::Display for GemmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] wall {:.3} ms, {} worker(s), imbalance {:.2}x",
            self.label,
            self.wall_ns as f64 / 1e6,
            self.workers.len(),
            self.imbalance
        )?;
        writeln!(
            f,
            "  {:<12} {:>8} {:>12} {:>10}",
            "phase", "spans", "total ms", "mean us"
        )?;
        for p in Phase::ALL {
            let n = self.phase_count(p);
            if n == 0 {
                continue;
            }
            let total = self.phase_total_ns(p);
            writeln!(
                f,
                "  {:<12} {:>8} {:>12.3} {:>10.1}",
                p.name(),
                n,
                total as f64 / 1e6,
                total as f64 / n as f64 / 1e3
            )?;
        }
        writeln!(
            f,
            "  packed {:.2} MiB; cache {}",
            self.bytes_packed as f64 / (1024.0 * 1024.0),
            self.cache
        )?;
        writeln!(f, "  sched {}", self.sched)?;
        for w in &self.workers {
            writeln!(
                f,
                "  worker {:>2} ({}): {} tile(s), busy {:.3} ms",
                w.worker,
                w.name,
                w.tiles,
                w.busy_ns as f64 / 1e6
            )?;
        }
        if self.dropped_events > 0 {
            writeln!(
                f,
                "  ! {} event(s) dropped to ring overflow",
                self.dropped_events
            )?;
        }
        Ok(())
    }
}

/// Escape a string for a JSON string literal (ASCII output).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || (c as u32) > 0x7E => {
                use fmt::Write;
                for u in c.encode_utf16(&mut [0u16; 2]) {
                    let _ = write!(out, "\\u{u:04x}");
                }
            }
            c => out.push(c),
        }
    }
}

impl GemmReport {
    /// The report as a self-contained JSON object (phases, cache deltas,
    /// per-worker lanes) — the machine-readable sibling of `Display`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"label\":\"");
        esc(&self.label, &mut s);
        s.push_str(&format!(
            "\",\"wall_ns\":{},\"bytes_packed\":{},\"imbalance\":{:.4},\"spans_dropped\":{}",
            self.wall_ns, self.bytes_packed, self.imbalance, self.dropped_events
        ));
        s.push_str(",\"phases\":{");
        let mut first = true;
        for p in Phase::ALL {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{}}}",
                p.name(),
                self.phase_count(p),
                self.phase_total_ns(p)
            ));
        }
        s.push_str("},\"cache\":{");
        s.push_str(&format!(
            "\"hits\":{},\"misses\":{},\"evictions\":{},\"packs\":{},\"hit_ratio\":{:.4},\"resident_bytes\":{},\"jit_compiles\":{},\"jit_hits\":{},\"jit_compile_ns\":{},\"jit_code_bytes\":{}",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.packs,
            self.cache.hit_ratio(),
            self.cache.bytes,
            self.cache.jit_compiles,
            self.cache.jit_hits,
            self.cache.jit_compile_ns,
            self.cache.jit_code_bytes
        ));
        s.push_str("},\"sched\":{");
        s.push_str(&format!(
            "\"steals\":{},\"tiles_stolen\":{},\"panels_packed\":{},\"panel_reuse_hits\":{}",
            self.sched.steals,
            self.sched.tiles_stolen,
            self.sched.panels_packed,
            self.sched.panel_reuse_hits
        ));
        s.push_str("},\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"worker\":{},\"name\":\"", w.worker));
            esc(&w.name, &mut s);
            s.push_str(&format!(
                "\",\"tiles\":{},\"busy_ns\":{}}}",
                w.tiles, w.busy_ns
            ));
        }
        s.push_str("],\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{},\"admitted_ns\":{},\"dispatched_ns\":{}}}",
                r.id, r.admitted_ns, r.dispatched_ns
            ));
        }
        s.push_str("]}");
        s
    }

    /// The call's raw spans in Chrome `trace_event` JSON object format:
    /// load the string (saved as a `.json` file) in `chrome://tracing`
    /// or <https://ui.perfetto.dev>. Each recording thread becomes one
    /// named track (`pid` 1, `tid` = worker id); every span is a
    /// complete (`"ph":"X"`) event with microsecond `ts`/`dur` and its
    /// detail word under `args`. Counter (`"ph":"C"`) tracks record the
    /// tiles moved by work-stealing, the shared B panels reused instead
    /// of re-packed, and the spans the ring dropped.
    pub fn chrome_trace(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        s.push_str(&format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"tiles_stolen\",\"ts\":0,\"args\":{{\"tiles_stolen\":{}}}}}",
            self.sched.tiles_stolen
        ));
        s.push_str(&format!(
            ",{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"panel_reuse_hits\",\"ts\":0,\"args\":{{\"panel_reuse_hits\":{}}}}}",
            self.sched.panel_reuse_hits
        ));
        s.push_str(&format!(
            ",{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"spans_dropped\",\"ts\":0,\"args\":{{\"spans_dropped\":{}}}}}",
            self.dropped_events
        ));
        // Serve requests get their own track (tid 1000): one span per
        // request covering admission -> dispatch, plus a flow arrow
        // ("s" at dispatch, "f" on the first engine span) tying the
        // request to the engine work that computed it.
        if !self.requests.is_empty() {
            const REQ_TID: u32 = 1000;
            s.push_str(&format!(
                ",{{\"ph\":\"M\",\"pid\":1,\"tid\":{REQ_TID},\"name\":\"thread_name\",\"args\":{{\"name\":\"serve requests\"}}}}"
            ));
            let engine_anchor = self
                .lanes
                .iter()
                .flat_map(|l| l.events.iter().map(|e| (e.start_ns, l.worker)))
                .min();
            for r in &self.requests {
                let queued = r.dispatched_ns.saturating_sub(r.admitted_ns);
                s.push_str(&format!(
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{REQ_TID},\"name\":\"request {}\",\"cat\":\"serve\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request_id\":{}}}}}",
                    r.id,
                    r.admitted_ns as f64 / 1e3,
                    queued as f64 / 1e3,
                    r.id
                ));
                if let Some((anchor_ns, anchor_tid)) = engine_anchor {
                    s.push_str(&format!(
                        ",{{\"ph\":\"s\",\"pid\":1,\"tid\":{REQ_TID},\"id\":{},\"name\":\"request\",\"cat\":\"serve\",\"ts\":{:.3}}}",
                        r.id,
                        r.dispatched_ns as f64 / 1e3
                    ));
                    s.push_str(&format!(
                        ",{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"id\":{},\"name\":\"request\",\"cat\":\"serve\",\"ts\":{:.3}}}",
                        anchor_tid,
                        r.id,
                        anchor_ns as f64 / 1e3
                    ));
                }
            }
        }
        let mut first = false;
        for lane in &self.lanes {
            if lane.events.is_empty() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            // Track name metadata so Perfetto labels the row.
            s.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                lane.worker
            ));
            esc(&lane.name, &mut s);
            s.push_str("\"}}");
            for ev in &lane.events {
                s.push_str(&format!(
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"engine\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"detail\":{}}}}}",
                    lane.worker,
                    ev.phase.name(),
                    ev.start_ns as f64 / 1e3,
                    ev.dur_ns as f64 / 1e3,
                    ev.detail
                ));
            }
        }
        s.push_str("]}");
        s
    }
}

/// Split a series name into its family (metric name proper) and the
/// embedded label body, e.g. `foo{phase="tile"}` -> (`foo`,
/// `phase="tile"`).
fn split_labels(series: &str) -> (&str, &str) {
    match series.find('{') {
        Some(i) => (&series[..i], series[i + 1..].trim_end_matches('}')),
        None => (series, ""),
    }
}

/// Join an embedded label body with one extra label into a `{...}`
/// suffix (empty-body aware).
fn label_suffix(body: &str, extra: &str) -> String {
    match (body.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => format!("{{{extra}}}"),
        (false, true) => format!("{{{body}}}"),
        (false, false) => format!("{{{body},{extra}}}"),
    }
}

fn render_hist(out: &mut String, family: &str, labels: &str, h: &HistSnapshot) {
    let mut cumulative = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cumulative += c;
        // Skip interior zero-count buckets to keep the exposition
        // readable, but always emit a bucket whose cumulative count
        // changed plus the +Inf terminator.
        let last = i == HIST_BUCKETS - 1;
        if *c == 0 && !last {
            continue;
        }
        let le = if last {
            "+Inf".to_string()
        } else {
            LogHistogram::bucket_le(i).to_string()
        };
        out.push_str(&format!(
            "{family}_bucket{} {cumulative}\n",
            label_suffix(labels, &format!("le=\"{le}\""))
        ));
    }
    out.push_str(&format!(
        "{family}_sum{} {}\n",
        label_suffix(labels, ""),
        h.sum
    ));
    out.push_str(&format!(
        "{family}_count{} {}\n",
        label_suffix(labels, ""),
        h.count
    ));
}

/// Render every registered metric, plus the `owned` series an instance
/// read off its own counters, as Prometheus text exposition (version
/// 0.0.4): `# TYPE` headers per family, counter/gauge sample lines, and
/// `_bucket`/`_sum`/`_count` expansions for histograms (cumulative `le`
/// edges at the log-bucket upper bounds). `owned` names must not
/// collide with registry names. This is what the serve frontend's
/// `METRICS` verb returns and `egemm-top` renders.
pub fn render_prometheus(owned: Vec<(String, SeriesValue)>) -> String {
    let mut snap = metrics::snapshot();
    snap.extend(owned);
    snap.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::with_capacity(4096);
    let mut last_family = String::new();
    for (name, value) in &snap {
        let (family, labels) = split_labels(name);
        if family != last_family {
            let kind = match value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) => "gauge",
                SeriesValue::Hist(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            last_family = family.to_string();
        }
        match value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("{family}{} {v}\n", label_suffix(labels, "")));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!("{family}{} {v}\n", label_suffix(labels, "")));
            }
            SeriesValue::Hist(h) => render_hist(&mut out, family, labels, h),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::metrics::{self, SeriesValue};
    use super::super::report::{GemmReport, WorkerLane};
    use super::super::ring::{Lane, TraceEvent};
    use super::super::Phase;
    use crate::engine::{CacheStats, SchedStats};

    fn sample() -> GemmReport {
        let mut phase_ns = [0u64; Phase::COUNT];
        let mut phase_counts = [0u64; Phase::COUNT];
        phase_ns[Phase::Tile as usize] = 5_000;
        phase_counts[Phase::Tile as usize] = 2;
        GemmReport {
            label: "t \"x\"".into(),
            wall_ns: 10_000,
            phase_ns,
            phase_counts,
            bytes_packed: 128,
            cache: CacheStats::default(),
            sched: SchedStats {
                steals: 2,
                tiles_stolen: 5,
                panels_packed: 4,
                panel_reuse_hits: 9,
            },
            workers: vec![WorkerLane {
                worker: 3,
                name: "w#3".into(),
                tiles: 2,
                busy_ns: 6_000,
            }],
            imbalance: 1.0,
            dropped_events: 0,
            lanes: vec![Lane {
                worker: 3,
                name: "w#3".into(),
                dropped: 0,
                events: vec![TraceEvent {
                    phase: Phase::Tile,
                    start_ns: 1_000,
                    dur_ns: 2_500,
                    detail: 7,
                }],
            }],
            requests: vec![],
        }
    }

    #[test]
    fn display_mentions_phases_and_workers() {
        let text = sample().to_string();
        assert!(text.contains("tile"), "{text}");
        assert!(text.contains("worker  3"), "{text}");
    }

    #[test]
    fn json_escapes_label() {
        let j = sample().to_json();
        assert!(j.contains("\"label\":\"t \\\"x\\\"\""), "{j}");
        assert!(j.contains("\"spans_dropped\":0"), "{j}");
        assert!(j.contains("\"requests\":[]"), "{j}");
        assert!(
            j.contains("\"tile\":{\"count\":2,\"total_ns\":5000}"),
            "{j}"
        );
        assert!(
            j.contains(
                "\"sched\":{\"steals\":2,\"tiles_stolen\":5,\
                 \"panels_packed\":4,\"panel_reuse_hits\":9}"
            ),
            "{j}"
        );
    }

    #[test]
    fn display_mentions_sched_counters() {
        let text = sample().to_string();
        assert!(text.contains("sched 2 steal(s) moving 5 tile(s)"), "{text}");
    }

    #[test]
    fn chrome_trace_has_metadata_and_events() {
        let t = sample().chrome_trace();
        assert!(t.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(t.contains("\"ph\":\"M\""), "{t}");
        assert!(t.contains("\"ph\":\"X\""), "{t}");
        assert!(
            t.contains("\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"tiles_stolen\",\"ts\":0,\"args\":{\"tiles_stolen\":5}"),
            "{t}"
        );
        assert!(
            t.contains("\"name\":\"panel_reuse_hits\",\"ts\":0,\"args\":{\"panel_reuse_hits\":9}"),
            "{t}"
        );
        assert!(t.contains("\"tid\":3"), "{t}");
        assert!(t.contains("\"name\":\"tile\""), "{t}");
        assert!(
            t.contains("\"name\":\"spans_dropped\",\"ts\":0,\"args\":{\"spans_dropped\":0}"),
            "{t}"
        );
        assert!(t.ends_with("]}"));
    }

    #[test]
    fn chrome_trace_draws_request_spans_and_flow_arrows() {
        let mut r = sample();
        r.requests.push(super::super::report::RequestTrace {
            id: 42,
            admitted_ns: 500,
            dispatched_ns: 900,
        });
        let t = r.chrome_trace();
        // Request track metadata + the admission->dispatch span.
        assert!(t.contains("\"tid\":1000,\"name\":\"thread_name\""), "{t}");
        assert!(t.contains("\"name\":\"request 42\""), "{t}");
        assert!(t.contains("\"args\":{\"request_id\":42}"), "{t}");
        // Flow start at dispatch, flow finish on the engine anchor
        // (lane tid 3, first event at ts 1.000 us).
        assert!(t.contains("\"ph\":\"s\""), "{t}");
        assert!(
            t.contains("\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":3,\"id\":42"),
            "{t}"
        );
        // JSON-parse sanity: balanced braces/brackets.
        assert_eq!(
            t.matches('{').count(),
            t.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn prometheus_exposition_renders_all_kinds() {
        metrics::counter("test_export_calls_total").add(3);
        metrics::histogram("test_export_lat_ns{shape=\"tiny\"}").observe(100);
        // An owner-read gauge merges into the sorted registry series.
        let owned = vec![("test_export_depth".to_string(), SeriesValue::Gauge(7))];
        let text = super::render_prometheus(owned);
        assert!(
            text.contains("# TYPE test_export_calls_total counter"),
            "{text}"
        );
        assert!(text.contains("test_export_calls_total 3"), "{text}");
        assert!(text.contains("# TYPE test_export_depth gauge"), "{text}");
        assert!(text.contains("test_export_depth 7"), "{text}");
        assert!(
            text.contains("# TYPE test_export_lat_ns histogram"),
            "{text}"
        );
        let at = |family: &str| text.find(&format!("# TYPE {family} ")).unwrap();
        assert!(
            at("test_export_calls_total") < at("test_export_depth")
                && at("test_export_depth") < at("test_export_lat_ns"),
            "the owned series sorts between the registry series:\n{text}"
        );
        // 100 lands in bucket [64, 127]: cumulative 1 at le=127, and the
        // +Inf terminator plus sum/count lines carry the labels.
        assert!(
            text.contains("test_export_lat_ns_bucket{shape=\"tiny\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("test_export_lat_ns_bucket{shape=\"tiny\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("test_export_lat_ns_sum{shape=\"tiny\"} 100"),
            "{text}"
        );
        assert!(
            text.contains("test_export_lat_ns_count{shape=\"tiny\"} 1"),
            "{text}"
        );
        // Every non-comment line is "<name> <integer>".
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<i64>().is_ok(), "unparsable value: {line}");
        }
    }
}
