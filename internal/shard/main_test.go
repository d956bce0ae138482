package shard_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak check: once the tests finish, no
// goroutine may still be running code of this package or its tests — a
// dispatch task, an engine run or a waiter that outlived its call.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := leakedGoroutines("pimassembler/internal/shard", 2*time.Second); leaked != "" {
		fmt.Fprintf(os.Stderr, "goroutines left in pimassembler/internal/shard after the tests:\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// leakedGoroutines polls for up to wait until no goroutine other than the
// caller's has a frame in pkg or its external test package, and returns the
// stacks of those still there.
func leakedGoroutines(pkg string, wait time.Duration) string {
	deadline := time.Now().Add(wait)
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		var leaked []string
		// The first record is the calling goroutine's.
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, pkg+".") || strings.Contains(g, pkg+"_test.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
