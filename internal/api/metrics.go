package api

// GET /v1/metrics: Engine.Stats rendered in the Prometheus text
// exposition format (version 0.0.4) so a standard scrape target works
// against the daemon with no metrics stack of its own — the first
// slice of the ROADMAP's observability item. Everything here reads the
// same snapshot /v1/health serves: gauges, plus the one lifetime
// counter the engine keeps so far (WAL commit failures); per-kind
// latency histograms come later.
//
// No client library: the text format is a line protocol simple enough
// that hand-rendering it is smaller than a dependency, and the daemon
// takes no new dependencies for it.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// metrics serves the Prometheus scrape.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	st := s.engine.Stats()
	var b strings.Builder
	b.Grow(2048)

	metric := func(typ, name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			name, help, name, typ, name, formatMetricValue(v))
	}
	gauge := func(name, help string, v float64) { metric("gauge", name, help, v) }

	gauge("opdaemon_workers", "Configured executor count.", float64(st.Workers))
	gauge("opdaemon_queue_depth", "Accepted operations no worker has picked up yet.", float64(st.QueueDepth))
	gauge("opdaemon_queue_capacity", "Configured queue bound.", float64(st.QueueCapacity))
	gauge("opdaemon_store_operations", "Operations currently retained in the store.", float64(st.StoreLen))
	gauge("opdaemon_watch_waiters", "Long-poll waiters currently registered.", float64(st.WatchWaiters))
	gauge("opdaemon_notice_last_seq", "Newest sequence number assigned in the notices feed.", float64(st.LastNotice))
	gauge("opdaemon_drain_per_sec", "Observed dequeue rate over the trailing window.", float64(st.DrainPerSec))

	// Per-band queue depth, one labelled series per priority band.
	// Label values are the fixed band names, but escape anyway —
	// rendering must never produce an unparseable exposition.
	fmt.Fprintf(&b, "# HELP opdaemon_queue_band_depth Scheduled operations per priority band.\n# TYPE opdaemon_queue_band_depth gauge\n")
	for _, band := range sortedKeys(st.QueueBands) {
		fmt.Fprintf(&b, "opdaemon_queue_band_depth{band=%s} %d\n",
			quoteLabelValue(band), st.QueueBands[band])
	}
	gauge("opdaemon_queue_clients", "Distinct clients with scheduled operations.", float64(len(st.QueueClients)))

	gauge("opdaemon_durable", "1 when the store persists state across restarts (WAL backend).", boolMetric(st.Durable))
	if st.Durable {
		gauge("opdaemon_wal_segments", "Live WAL segment files.", float64(st.WALSegments))
		gauge("opdaemon_wal_batch_p50", "Median records per WAL group commit (fsync amortisation factor).", st.WALBatchP50)
		gauge("opdaemon_wal_fsyncs_per_sec", "Observed WAL fsync rate over the trailing window.", st.FsyncsPerSec)
		metric("counter", "opdaemon_wal_commit_failures_total", "WAL batches whose write or fsync failed since start; acknowledged state in them may not survive a restart.", float64(st.WALCommitFailures))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// formatMetricValue renders a float the way Prometheus expects:
// integral values without an exponent, everything else in Go's
// shortest form.
func formatMetricValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// quoteLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func quoteLabelValue(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// sortedKeys returns the map's keys in sorted order so the exposition
// is deterministic scrape to scrape.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
