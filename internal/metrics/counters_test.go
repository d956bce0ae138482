package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAddGet(t *testing.T) {
	c := NewCounters()
	if got := c.Get("missing"); got != 0 {
		t.Fatalf("unset counter = %d, want 0", got)
	}
	c.Add("jobs.done", 2)
	c.Add("jobs.done", 3)
	c.Add("jobs.failed", 1)
	if got := c.Get("jobs.done"); got != 5 {
		t.Fatalf("jobs.done = %d, want 5", got)
	}
	snap := c.Snapshot()
	if snap["jobs.done"] != 5 || snap["jobs.failed"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	// Snapshot is a copy, not a view.
	snap["jobs.done"] = 99
	if got := c.Get("jobs.done"); got != 5 {
		t.Fatalf("snapshot aliases live map: jobs.done = %d", got)
	}
}

// latency reads one latency series out of a consistent snapshot.
func latency(c *Counters, name string) LatencySummary {
	_, lats := c.SnapshotAll()
	return lats[name]
}

func TestCountersLatency(t *testing.T) {
	c := NewCounters()
	if l := latency(c, "missing"); l.Count != 0 || l.Mean() != 0 {
		t.Fatalf("unset latency = %+v", l)
	}
	c.Observe("run", 10*time.Millisecond)
	c.Observe("run", 30*time.Millisecond)
	c.Observe("run", 20*time.Millisecond)
	l := latency(c, "run")
	if l.Count != 3 {
		t.Fatalf("count = %d, want 3", l.Count)
	}
	if l.Min != 10*time.Millisecond || l.Max != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", l.Min, l.Max)
	}
	if l.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", l.Mean())
	}
}

func TestCountersStringSorted(t *testing.T) {
	c := NewCounters()
	c.Add("b.second", 2)
	c.Add("a.first", 1)
	c.Observe("z.lat", time.Millisecond)
	s := c.String()
	ia, ib := strings.Index(s, "a.first"), strings.Index(s, "b.second")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("names not sorted in:\n%s", s)
	}
	if !strings.Contains(s, "z.lat") {
		t.Fatalf("latency series missing in:\n%s", s)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add("n", 1)
				c.Observe("lat", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
	if l := latency(c, "lat"); l.Count != 8000 {
		t.Fatalf("lat count = %d, want 8000", l.Count)
	}
}
