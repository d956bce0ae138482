// Package bench is the repository's end-to-end and per-layer benchmark.
// It drives the assembler stack from outside — through engine.Lookup,
// shard.Partition, distshard.Assemble and the HTTP service client — on five
// fixed workloads, measures the end-to-end metrics with tracing off, and
// attributes the time to layers in a separate traced replay that calls each
// layer's exported functions itself, one span per call. BENCHMARK.json at
// the repository root is Manifest() written out; README.md explains why
// each workload and metric exists.
package bench

// RunSeconds is how long one untraced run measures (BENCHMARK.json
// run_seconds). Batch workloads run whole operations until this much time
// has passed and at least MinOps operations are timed.
const RunSeconds = 10

// MinOps is the fewest timed operations a batch run reports medians over.
const MinOps = 5

// SetupRepeats is the fewest times a run builds its inputs; setup_s is the
// median, so one slow page-fault storm does not decide it.
const SetupRepeats = 5

// Metric names one number the benchmark prints.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd lists what a user of the system sees. Every workload emits every
// one of them (the driver's contract), so each is defined for batch runs and
// for the service alike; Bound is the share of the parent's median by which
// the metric may worsen before -compare (and the PR driver) calls it a
// regression. All are host measurements; simulated quantities live in the
// per-layer table.
var EndToEnd = []Metric{
	// Input generation, encoding and server start, median of SetupRepeats.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median wall time of one operation: input bytes → contig FASTA bytes
	// for the batch workloads, submit → contigs fetched for svc_small.
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Input reads completed per host second over the whole measured window
	// (svc_small: both clients together).
	{Name: "reads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// runtime.MemStats.TotalAlloc growth per operation in this process
	// (dist_60k: the coordinator; the workers are distshard.worker_peak_rss_mb).
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	// ru_maxrss of the workload process, read before output verification.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Share of the reference's distinct k-mers (the workload's k) found in
	// the last operation's contigs: a speed-up that loses sequence shows
	// here. Unlike metrics.Evaluate's exact-substring genome fraction
	// (per-layer metrics.genome_fraction_pct), one surviving base error in a
	// genome-long contig of sw_noisy_k32 cannot zero it.
	{Name: "kmer_recall_pct", Unit: "%", Better: "higher", Bound: 0.05},
}

// Workload is one fixed input shape; Why is BENCHMARK.json's reason.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads are permanent names; sizes live next to each implementation.
var Workloads = []Workload{
	{"sw_100k", "100k error-free reads through the software engine: the paper's three stages, kmer+debruijn dominate; shard, distshard, service, core idle"},
	{"sw_noisy_k32", "30k FASTQ reads with 1% errors, k=32, Correct+Simplify+MinCount=2: same kmer/debruijn code used differently, correct dominant"},
	{"pim_600", "200 reads (600 took 5 s per operation; the name stays) through the bit-accurate PIM simulator: core/subarray/exec/sched do all the work; simulated statistics must repeat exactly"},
	{"dist_60k", "60k reads partitioned into 4 spill shards and assembled by 2 worker processes: shard + distshard spill, spawn, frame codec and merge costs"},
	{"svc_small", "closed loop of 2 HTTP clients submitting 200-read jobs to an in-process service: service, jobqueue and text parsing dominate, assembly is ~1 ms"},
}

// PerLayer lists the traced-replay metrics, named <package>.<metric>. Every
// workload emits all of them; a layer the workload does not exercise reads 0.
// Units prefixed sim_ are simulated quantities, everything else is host time
// or a count made by the program.
var PerLayer = []Metric{
	{Name: "genome.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "genome.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "genome.write_ms", Unit: "ms", Better: "lower"},

	{Name: "kmer.count_serial_ms", Unit: "ms", Better: "lower"},
	{Name: "kmer.kmers_per_s", Unit: "1/s", Better: "higher"},
	{Name: "kmer.distinct", Unit: "count", Better: "lower"},
	{Name: "kmer.probes_per_add", Unit: "ratio", Better: "lower"},
	{Name: "kmer.count_parallel_ms", Unit: "ms", Better: "lower"},
	{Name: "kmer.filter_ms", Unit: "ms", Better: "lower"},

	{Name: "debruijn.build_ms", Unit: "ms", Better: "lower"},
	{Name: "debruijn.traverse_ms", Unit: "ms", Better: "lower"},
	{Name: "debruijn.simplify_ms", Unit: "ms", Better: "lower"},
	{Name: "debruijn.nodes", Unit: "count", Better: "lower"},
	{Name: "debruijn.edges", Unit: "count", Better: "lower"},
	{Name: "debruijn.contigs", Unit: "count", Better: "lower"},

	{Name: "correct.build_ms", Unit: "ms", Better: "lower"},
	{Name: "correct.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "correct.corrected_bases", Unit: "count", Better: "higher"},

	{Name: "assembly.stage_hashmap_ms", Unit: "ms", Better: "lower"},
	{Name: "assembly.stage_debruijn_ms", Unit: "ms", Better: "lower"},
	{Name: "assembly.stage_traverse_ms", Unit: "ms", Better: "lower"},
	{Name: "assembly.self_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.n50_bp", Unit: "bp", Better: "higher"},
	{Name: "metrics.genome_fraction_pct", Unit: "%", Better: "higher"},

	{Name: "core.seqbank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hashmap_ms", Unit: "ms", Better: "lower"},
	{Name: "core.graph_ms", Unit: "ms", Better: "lower"},
	{Name: "core.host_ns_per_cmd", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_cmd", Unit: "ratio", Better: "lower"},
	{Name: "core.sim_cmds", Unit: "count", Better: "lower"},
	{Name: "core.sim_cmds_per_host_s", Unit: "1/s", Better: "higher"},
	{Name: "core.sim_energy_uj", Unit: "sim_uJ", Better: "lower"},
	{Name: "exec.cmds.input", Unit: "count", Better: "lower"},
	{Name: "exec.cmds.hashmap", Unit: "count", Better: "lower"},
	{Name: "exec.cmds.debruijn", Unit: "count", Better: "lower"},
	{Name: "exec.cmds.traverse", Unit: "count", Better: "lower"},
	{Name: "sched.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.makespan_us", Unit: "sim_us", Better: "lower"},
	{Name: "sched.makespan_us.input", Unit: "sim_us", Better: "lower"},
	{Name: "sched.makespan_us.hashmap", Unit: "sim_us", Better: "lower"},
	{Name: "sched.makespan_us.debruijn", Unit: "sim_us", Better: "lower"},
	{Name: "sched.makespan_us.traverse", Unit: "sim_us", Better: "lower"},
	{Name: "subarray.xnor_row_ns", Unit: "ns", Better: "lower"},
	{Name: "subarray.add32_us", Unit: "us", Better: "lower"},

	{Name: "shard.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.spill_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "shard.spill_bytes", Unit: "count", Better: "lower"},
	{Name: "shard.evictions", Unit: "count", Better: "lower"},
	{Name: "shard.exec_max_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.exec_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.inproc_spill_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.inmem_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.unsharded_ms", Unit: "ms", Better: "lower"},

	{Name: "distshard.assemble_ms", Unit: "ms", Better: "lower"},
	{Name: "distshard.procs1_ms", Unit: "ms", Better: "lower"},
	{Name: "distshard.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "distshard.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "distshard.respawns", Unit: "count", Better: "lower"},
	{Name: "distshard.retries", Unit: "count", Better: "lower"},
	{Name: "distshard.frame_errors", Unit: "count", Better: "lower"},
	{Name: "distshard.worker_peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "jobqueue.run_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "jobqueue.serial_jobs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "service.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.job_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "ratio", Better: "lower"},
	{Name: "service.rejected_429", Unit: "count", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.longlived_first_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.longlived_last_jobs_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.replay_gap_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// exactLayer names the per-layer metrics that are counts made by the
// program or simulated quantities: for one seed they must repeat bit for
// bit, which -compare checks and a simulator-speed change must preserve.
var exactLayer = map[string]bool{
	"kmer.distinct": true, "debruijn.nodes": true, "debruijn.edges": true,
	"debruijn.contigs": true, "correct.corrected_bases": true,
	"metrics.n50_bp": true, "metrics.genome_fraction_pct": true,
	"core.sim_cmds": true, "core.sim_energy_uj": true,
	"exec.cmds.input": true, "exec.cmds.hashmap": true, "exec.cmds.debruijn": true, "exec.cmds.traverse": true,
	"sched.makespan_us": true, "sched.makespan_us.input": true, "sched.makespan_us.hashmap": true,
	"sched.makespan_us.debruijn": true, "sched.makespan_us.traverse": true,
	"shard.spill_bytes": true, "shard.evictions": true,
}

// manifest is BENCHMARK.json's shape; the key set is fixed by the driver.
type manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []perLayer `json:"per_layer"`
}

// perLayer is Metric without a bound: per-layer metrics have none.
type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Manifest returns what BENCHMARK.json must contain.
func Manifest() any {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
	}
	for _, p := range PerLayer {
		m.PerLayer = append(m.PerLayer, perLayer{p.Name, p.Unit, p.Better})
	}
	return m
}
