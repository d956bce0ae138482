package metrics

import (
	"testing"
	"testing/quick"

	"pimassembler/internal/genome"
	"pimassembler/internal/stats"
)

// semiGlobal is the oracle withinDistance is checked against: the full
// semi-global DP matrix (query fitted anywhere inside target), no early
// exit, returning the distance.
func semiGlobal(query, target *genome.Sequence) int {
	n, m := query.Len(), target.Len()
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
		dp[i][0] = i
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if query.Base(i-1) == target.Base(j-1) {
				cost = 0
			}
			dp[i][j] = min3(dp[i-1][j-1]+cost, dp[i-1][j]+1, dp[i][j-1]+1)
		}
	}
	best := dp[n][0]
	for _, d := range dp[n] {
		if d < best {
			best = d
		}
	}
	return best
}

func TestSemiGlobalFindsWindow(t *testing.T) {
	rng := stats.NewRNG(1)
	target := genome.GenerateGenome(500, rng)
	if d := semiGlobal(target.Subsequence(137, 60), target); d != 0 {
		t.Fatalf("exact substring distance %d", d)
	}
}

func TestSemiGlobalWithErrors(t *testing.T) {
	rng := stats.NewRNG(2)
	target := genome.GenerateGenome(400, rng)
	query := target.Subsequence(100, 80)
	// Two substitutions.
	query.SetBase(10, genome.Base((int(query.Base(10))+1)%4))
	query.SetBase(50, genome.Base((int(query.Base(50))+2)%4))
	if d := semiGlobal(query, target); d != 2 {
		t.Fatalf("distance %d, want 2", d)
	}
}

func TestWithinDistance(t *testing.T) {
	rng := stats.NewRNG(3)
	target := genome.GenerateGenome(600, rng)
	query := target.Subsequence(200, 100)
	query.SetBase(40, genome.Base((int(query.Base(40))+1)%4))
	if !withinDistance(query, target, 1) {
		t.Fatal("1-edit query rejected at maxDist=1")
	}
	if withinDistance(query, target, 0) {
		t.Fatal("1-edit query accepted at maxDist=0")
	}
	if withinDistance(query, target, -1) {
		t.Fatal("negative maxDist accepted")
	}
}

// Property: withinDistance agrees with the full semi-global distance.
func TestWithinDistanceAgreesWithSemiGlobal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		tg := genome.GenerateGenome(30+rng.Intn(80), rng)
		q := genome.GenerateGenome(1+rng.Intn(25), rng)
		d := semiGlobal(q, tg)
		return withinDistance(q, tg, d) && !withinDistance(q, tg, d-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
