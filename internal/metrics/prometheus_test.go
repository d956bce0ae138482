package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusRoundTrip(t *testing.T) {
	c := NewCounters()
	c.Add("jobs.done", 3)
	c.Add("jobs.failed", 0)
	c.Add("service.rejected.quota", 7)
	c.Observe("latency.run", 10*time.Millisecond)
	c.Observe("latency.run", 30*time.Millisecond)

	var sb strings.Builder
	if err := WritePrometheus(&sb, c, "pim"); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rendered exposition does not parse: %v\n%s", err, text)
	}
	want := map[string]float64{
		"pim_jobs_done_total":                   3,
		"pim_jobs_failed_total":                 0,
		"pim_service_rejected_quota_total":      7,
		`pim_latency_run_seconds{quantile="0"}`: 0.01,
		`pim_latency_run_seconds{quantile="1"}`: 0.03,
		"pim_latency_run_seconds_sum":           0.04,
		"pim_latency_run_seconds_count":         2,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("sample %q missing\n%s", k, text)
			continue
		}
		if got != v {
			t.Errorf("sample %q = %v, want %v", k, got, v)
		}
	}
	if len(samples) != len(want) {
		t.Errorf("got %d samples, want %d:\n%s", len(samples), len(want), text)
	}
}

func TestWritePrometheusStableOrder(t *testing.T) {
	c := NewCounters()
	c.Add("b", 2)
	c.Add("a", 1)
	c.Observe("lat.z", time.Millisecond)
	c.Observe("lat.a", time.Millisecond)
	var one, two strings.Builder
	if err := WritePrometheus(&one, c, "pim"); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&two, c, "pim"); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Errorf("two renders of the same registry differ:\n%s\n---\n%s", one.String(), two.String())
	}
	if !strings.Contains(one.String(), "pim_a_total 1\n# TYPE pim_b_total counter") {
		t.Errorf("counters not in sorted order:\n%s", one.String())
	}
}

func TestPrometheusName(t *testing.T) {
	cases := []struct{ ns, in, want string }{
		{"pim", "jobs.done", "pim_jobs_done"},
		{"pim", "latency.run", "pim_latency_run"},
		{"", "a..b", "a_b"},
		{"", "9lives", "_9lives"},
		{"", "spill.files", "spill_files"},
		{"ns", "weird name-v2", "ns_weird_name_v2"},
	}
	for _, tc := range cases {
		if got := PrometheusName(tc.ns, tc.in); got != tc.want {
			t.Errorf("PrometheusName(%q, %q) = %q, want %q", tc.ns, tc.in, got, tc.want)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := []string{
		"pim_ok 1\npim_ok 2\n",        // duplicate sample
		"bad metric 1\n",              // space in name
		"pim_x{tenant=\"a} 1\n",       // unterminated label value
		"# TYPE pim_x wat\npim_x 1\n", // unknown type
		"pim_x 1 2 3\n",               // trailing garbage
	}
	for _, doc := range cases {
		if _, err := ParsePrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("ParsePrometheus accepted malformed doc %q", doc)
		}
	}
}

// TestSnapshotAllConsistent pins that SnapshotAll sees counters and
// latencies from one lock acquisition (both halves present) and that
// Snapshot agrees with it.
func TestSnapshotAllConsistent(t *testing.T) {
	c := NewCounters()
	c.Add("n", 5)
	c.Observe("l", 2*time.Second)
	counts, lats := c.SnapshotAll()
	if counts["n"] != 5 {
		t.Errorf("counts[n] = %d, want 5", counts["n"])
	}
	if lats["l"].Count != 1 || lats["l"].Total != 2*time.Second {
		t.Errorf("lats[l] = %+v, want one 2s observation", lats["l"])
	}
	if got := c.Snapshot()["n"]; got != 5 {
		t.Errorf("Snapshot[n] = %d, want 5", got)
	}
}
