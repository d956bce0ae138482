package sched

import (
	"testing"
	"testing/quick"

	"pimassembler/internal/dram"
	"pimassembler/internal/exec"
	"pimassembler/internal/stats"
)

func cfg() Config {
	return DefaultConfig(dram.Default(), dram.DefaultTiming())
}

func TestEmptySchedule(t *testing.T) {
	r := ScheduleStream(nil, cfg())
	if r.MakespanNS != 0 || r.Commands != 0 {
		t.Fatalf("empty schedule %+v", r)
	}
}

func TestSingleCommand(t *testing.T) {
	r := ScheduleStream([]exec.Command{{Subarray: 0, Kind: dram.CmdAAP2}}, cfg())
	want := dram.DefaultTiming().AAP()
	if r.MakespanNS != want {
		t.Fatalf("makespan %v, want one AAP %v", r.MakespanNS, want)
	}
	if r.Speedup != 1 {
		t.Fatalf("speedup %v, want 1", r.Speedup)
	}
	if r.PeakParallel != 1 {
		t.Fatalf("peak %d, want 1", r.PeakParallel)
	}
}

func TestSameSubarraySerializes(t *testing.T) {
	cmds := make([]exec.Command, 10)
	for i := range cmds {
		cmds[i] = exec.Command{Subarray: 0, Kind: dram.CmdAAPCopy}
	}
	r := ScheduleStream(cmds, cfg())
	want := 10 * dram.DefaultTiming().AAP()
	if r.MakespanNS < want {
		t.Fatalf("makespan %v below serial bound %v for one sub-array", r.MakespanNS, want)
	}
	if r.PeakParallel != 1 {
		t.Fatalf("peak parallel %d on a single sub-array", r.PeakParallel)
	}
}

func TestDistinctSubarraysOverlap(t *testing.T) {
	cmds := make([]exec.Command, 10)
	for i := range cmds {
		cmds[i] = exec.Command{Subarray: i * cfg().SubarraysPerBank, Kind: dram.CmdAAPCopy} // distinct banks
	}
	r := ScheduleStream(cmds, cfg())
	serial := 10 * dram.DefaultTiming().AAP()
	if r.MakespanNS >= serial/2 {
		t.Fatalf("makespan %v shows no overlap (serial %v)", r.MakespanNS, serial)
	}
	if r.Speedup < 5 {
		t.Fatalf("speedup %v too low for 10 independent banks", r.Speedup)
	}
	if r.PeakParallel < 5 {
		t.Fatalf("peak %d too low", r.PeakParallel)
	}
}

func TestBankConcurrencyCap(t *testing.T) {
	c := cfg()
	c.MaxActivePerBank = 2
	// 8 commands to 8 distinct sub-arrays of the SAME bank.
	cmds := make([]exec.Command, 8)
	for i := range cmds {
		cmds[i] = exec.Command{Subarray: i, Kind: dram.CmdAAP2}
	}
	r := ScheduleStream(cmds, c)
	aap := dram.DefaultTiming().AAP()
	// With 2 slots, 8 commands need at least 4 rounds.
	if r.MakespanNS < 4*aap {
		t.Fatalf("makespan %v violates the bank cap (want >= %v)", r.MakespanNS, 4*aap)
	}
	if r.PeakParallel > 2 {
		t.Fatalf("peak %d exceeds the per-bank cap 2", r.PeakParallel)
	}
}

func TestBusIssueBound(t *testing.T) {
	c := cfg()
	c.IssueIntervalNS = 50 // artificially slow bus
	cmds := make([]exec.Command, 100)
	for i := range cmds {
		cmds[i] = exec.Command{Subarray: i, Kind: dram.CmdDPU}
	}
	r := ScheduleStream(cmds, c)
	if r.MakespanNS < 99*50 {
		t.Fatalf("makespan %v below the bus bound %v", r.MakespanNS, 99*50.0)
	}
	if r.BusBoundPct < 90 {
		t.Fatalf("bus-bound fraction %.1f%% should dominate", r.BusBoundPct)
	}
}

func TestMakespanBounds(t *testing.T) {
	// Property: serial/NS >= makespan >= serial/N for any trace.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 1 + rng.Intn(200)
		kinds := []dram.CommandKind{
			dram.CmdAAPCopy, dram.CmdAAP2, dram.CmdAAP3, dram.CmdRead,
			dram.CmdWrite, dram.CmdDPU, dram.CmdActivate, dram.CmdPrecharge,
		}
		cmds := make([]exec.Command, n)
		for i := range cmds {
			cmds[i] = exec.Command{
				Subarray: rng.Intn(64),
				Kind:     kinds[rng.Intn(len(kinds))],
			}
		}
		r := ScheduleStream(cmds, cfg())
		if r.MakespanNS > r.SerialNS+1e-6 {
			return false // never slower than fully serial
		}
		return r.MakespanNS > 0 && r.Speedup >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// stream builds a recorded command stream of n commands of one kind spread
// round-robin over the given sub-arrays.
func stream(n int, kind dram.CommandKind, spread int, stage exec.Stage) []exec.Command {
	out := make([]exec.Command, n)
	for i := range out {
		out[i] = exec.Command{Subarray: i % spread, Kind: kind, Stage: stage}
	}
	return out
}

func TestScheduleStreamSpreadSpeedsUp(t *testing.T) {
	g := dram.Default()
	tm := dram.DefaultTiming()
	one := ScheduleStream(stream(1024, dram.CmdAAP2, 1, exec.StageNone), DefaultConfig(g, tm))
	many := ScheduleStream(stream(1024, dram.CmdAAP2, 256, exec.StageNone), DefaultConfig(g, tm))
	if many.MakespanNS >= one.MakespanNS {
		t.Fatalf("parallel spread no faster: %v vs %v", many.MakespanNS, one.MakespanNS)
	}
	if many.Speedup < 8 {
		t.Fatalf("speedup %v too low over 256 sub-arrays", many.Speedup)
	}
	if one.SerialNS != many.SerialNS {
		t.Fatalf("serial totals differ with spread: %v vs %v", one.SerialNS, many.SerialNS)
	}
}

func TestScheduleStages(t *testing.T) {
	cmds := append(stream(100, dram.CmdAAP2, 4, exec.StageHashmap),
		stream(50, dram.CmdAAPCopy, 4, exec.StageDeBruijn)...)
	byStage := ScheduleStages(cmds, cfg())
	if len(byStage) != 2 {
		t.Fatalf("got %d stages, want 2", len(byStage))
	}
	if byStage[exec.StageHashmap].Commands != 100 || byStage[exec.StageDeBruijn].Commands != 50 {
		t.Fatalf("per-stage command counts wrong: %+v", byStage)
	}
	whole := ScheduleStream(cmds, cfg())
	sum := byStage[exec.StageHashmap].SerialNS + byStage[exec.StageDeBruijn].SerialNS
	if diff := whole.SerialNS - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("stage serial totals %v don't add up to %v", sum, whole.SerialNS)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.IssueIntervalNS = 0 },
		func(c *Config) { c.SubarraysPerBank = 0 },
		func(c *Config) { c.MaxActivePerBank = 0 },
	} {
		c := cfg()
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config accepted")
				}
			}()
			ScheduleStream([]exec.Command{{Subarray: 0, Kind: dram.CmdDPU}}, c)
		}()
	}
}
