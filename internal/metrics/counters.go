package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// LatencySummary aggregates the observations of one named latency series:
// count, total, and the extremes. It is a value snapshot — mutate it only
// through Counters.Observe.
type LatencySummary struct {
	Count int64
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
}

// Mean returns the average observed latency (0 with no observations).
func (l LatencySummary) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// String implements fmt.Stringer.
func (l LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v max=%v", l.Count, l.Mean(), l.Min, l.Max)
}

// Counters is a small race-safe instrumentation registry: named monotonic
// counters plus named latency series. The job queue (and any other
// subsystem) reports through one; consumers read deterministic snapshots.
// Counter values are deterministic for a deterministic workload; latency
// values are wall-clock and must never feed deterministic output paths.
// The zero value is not usable — construct with NewCounters.
//
// Established counter families (dotted prefixes, underscored for the
// Prometheus exposition):
//
//   - jobs.*    — internal/jobqueue dispatch (done, failed)
//   - spill.*   — internal/shard out-of-core partitioning (files, records,
//     bytes, evictions)
//   - dist.*    — internal/distshard multi-process dispatch (workers,
//     respawns, jobs, retries, results, timeouts, frame.errors)
//   - service.* — the assembly service daemon's admission and lifecycle
type Counters struct {
	mu     sync.Mutex
	counts map[string]int64
	lats   map[string]LatencySummary
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{
		counts: make(map[string]int64),
		lats:   make(map[string]LatencySummary),
	}
}

// Add increments the named counter by delta (creating it at zero first).
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.counts[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value (0 when never written).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[name]
}

// Observe folds one duration into the named latency series.
func (c *Counters) Observe(name string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lats[name]
	if l.Count == 0 || d < l.Min {
		l.Min = d
	}
	if d > l.Max {
		l.Max = d
	}
	l.Count++
	l.Total += d
	c.lats[name] = l
}

// Snapshot returns every counter value, keyed by name.
func (c *Counters) Snapshot() map[string]int64 {
	counts, _ := c.SnapshotAll()
	return counts
}

// SnapshotAll returns every counter and every latency series from a single
// lock acquisition — one consistent view, so renderers (String, the
// Prometheus exporter) never interleave two reads of a moving registry.
func (c *Counters) SnapshotAll() (map[string]int64, map[string]LatencySummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		counts[k] = v
	}
	lats := make(map[string]LatencySummary, len(c.lats))
	for k, v := range c.lats {
		lats[k] = v
	}
	return counts, lats
}

// String renders every counter and latency series, sorted by name, one per
// line — stable for a fixed set of values. It reads through SnapshotAll,
// the same consistent path the Prometheus exporter uses.
func (c *Counters) String() string {
	counts, lats := c.SnapshotAll()
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, "%-24s %d\n", k, counts[k])
	}
	lnames := make([]string, 0, len(lats))
	for k := range lats {
		lnames = append(lnames, k)
	}
	sort.Strings(lnames)
	for _, k := range lnames {
		fmt.Fprintf(&sb, "%-24s %s\n", k, lats[k])
	}
	return sb.String()
}
